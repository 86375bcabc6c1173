//! Seeded input generation shared by the workloads.
//!
//! **The seed changes the data, never the shape.** Which operations run,
//! how they overlap and in which matrices is fixed in source (shape seeds
//! are constants), so every seed does the same amount of work and every
//! exact counter repeats for every seed; `--seed` decides the *values*
//! that flow through: payload integers, keys and priorities (through an
//! order-preserving shift), and where a corpus walk starts. The
//! acceptance procedure takes a metric's spread across
//! ten seeds, so a seed that changed the amount of work — one more
//! fallback history, a different random test — would be read as noise.

use lineup::{History, Invocation, Value};

/// SplitMix64: a tiny, well-mixed generator; all the benchmark needs is
/// a reproducible stream per seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Smallest shift [`value_shift`] returns.
const SHIFT_BASE: i64 = 10_000;
/// Number of distinct shifts.
const SHIFT_SPAN: u64 = 800_000;

/// The seed's value shift. Generated values lie in `-50..=100_010`, so a
/// shifted value stays inside `8_192..1_048_576`, where a zigzag varint
/// is three bytes: the wire streams have the same length for every seed.
pub fn value_shift(seed: u64) -> i64 {
    SHIFT_BASE + Rng::new(seed ^ 0x5EED_0FF5).below(SHIFT_SPAN) as i64
}

/// `count` distinct payload values for hand-built test matrices.
pub fn distinct_values(seed: u64, count: usize) -> Vec<i64> {
    let mut rng = Rng::new(seed ^ 0xD157_1AC7);
    let mut out: Vec<i64> = Vec::with_capacity(count);
    while out.len() < count {
        let v = 1 + rng.below(1_000_000) as i64;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn shift_value(v: &mut Value, by: i64) {
    match v {
        Value::Int(i) => *i += by,
        Value::Opt(Some(inner)) => shift_value(inner, by),
        Value::Seq(items) => items.iter_mut().for_each(|i| shift_value(i, by)),
        Value::Unit | Value::Bool(_) | Value::Str(_) | Value::Fail | Value::Opt(None) => {}
    }
}

/// Adds `by` to every integer argument.
pub fn shift_invocation(inv: &mut Invocation, by: i64) {
    inv.args.iter_mut().for_each(|a| shift_value(a, by));
}

/// Adds `by` to every integer in the history, arguments and responses
/// alike. For queue, stack, set and priority-queue histories this is an
/// order-preserving renaming of payloads, keys and priorities: the
/// history stays exactly as linearizable, ambiguous or violating as it
/// was, and costs the monitor the same steps.
pub fn shift_history(mut h: History, by: i64) -> History {
    for op in &mut h.ops {
        shift_invocation(&mut op.invocation, by);
        if let Some(r) = &mut op.response {
            shift_value(r, by);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shift_stays_in_the_three_byte_class() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        for seed in 0..200 {
            let s = value_shift(seed);
            assert!(s - 50 >= 8_192 && s + 100_010 < 1_048_576, "{s}");
        }
        assert_ne!(value_shift(1), value_shift(2));
    }

    #[test]
    fn shifting_renames_arguments_and_nested_responses() {
        let mut h = History::new(1);
        let op = h.push_call(0, Invocation::with_int("Enqueue", 3));
        h.push_return(op, Value::Unit);
        let op = h.push_call(0, Invocation::new("TryDequeue"));
        h.push_return(op, Value::some(Value::int(3)));
        let h = shift_history(h, 100);
        assert_eq!(h.ops[0].invocation.args, vec![Value::Int(103)]);
        assert_eq!(h.ops[1].response, Some(Value::some(Value::int(103))));
    }

    #[test]
    fn distinct_values_are_distinct() {
        let mut v = distinct_values(9, 16);
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 16);
    }
}
