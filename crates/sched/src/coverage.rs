//! Coverage-guided schedule fuzzing (the AFL recipe, transplanted from
//! input bytes to scheduling decisions).
//!
//! Exhaustive phase-2 search — even with partial-order reduction — caps
//! out around 3×3 test matrices; a uniform random walk or PCT wastes most
//! of its throughput re-exploring equivalent interleavings of the early
//! schedule. [`CoverageStrategy`] turns raw runs/sec into *find-time*:
//!
//! * every consulted scheduling decision folds a **coverage signature** —
//!   a hash of (abstract scheduler state, enabled-thread set, chosen
//!   thread) — into a fixed-size bitmap ([`COVERAGE_MAP_BITS`]), where the
//!   abstract state is the rolling hash of the signatures along the run
//!   (the AFL `(prev >> 1) ^ cur` edge trick, which distinguishes *paths*
//!   without storing them);
//! * a run that lights a bitmap bit no earlier run lit enters a **corpus**
//!   of decision vectors, weighted by how many new bits it found;
//! * subsequent runs **mutate** corpus entries: replay a parent's decision
//!   prefix, then diverge by flipping one choice, splicing two parents,
//!   extending a truncated prefix with a fresh random tail, or injecting a
//!   preemption (scheduling away from the running thread — the move that
//!   cracks "component preempted inside its critical section" bugs).
//!
//! Feedback only *orders* exploration, it never prunes: every decision
//! vector remains reachable (mutation tails are random with full
//! support — biased toward continuing the running thread, the schedule
//! texture real defects live in, but every alternative keeps positive
//! probability — and a fraction of runs ignore the corpus entirely), so
//! any violation the random walk could find, the guided search can find
//! too — it just spends most of its budget near schedules that keep
//! discovering new scheduler states. All randomness comes from one seeded [`SmallRng`],
//! so a fixed seed reproduces the exact run sequence, byte for byte,
//! on either execution backend.

use rand::distributions::WeightedIndex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::strategy::Strategy;

/// Size of the coverage bitmap in bits. A power of two so signatures are
/// reduced by masking; 64 Ki bits (8 KiB) keeps hash collisions rare for
/// the schedule counts a fuzzing campaign reaches while staying resident
/// in L1/L2.
pub const COVERAGE_MAP_BITS: usize = 1 << 16;

/// Maximum corpus entries retained; beyond it the oldest entry is
/// recycled (novel schedules keep arriving as exploration deepens, and
/// stale parents rarely stay productive).
pub const CORPUS_CAP: usize = 256;

/// Snapshot of a coverage-guided exploration's feedback state, harvested
/// into [`ExploreStats`](crate::ExploreStats) when the exploration ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCounters {
    /// Decision vectors currently in the corpus (≤ [`CORPUS_CAP`]).
    pub corpus_size: u64,
    /// Distinct bits set in the coverage bitmap.
    pub coverage_bits: u64,
    /// Runs that diverged from a corpus parent (as opposed to fresh
    /// random walks, which include every run before the first corpus
    /// entry exists).
    pub mutations: u64,
}

/// One corpus entry: the decision vector of a run that found new
/// coverage, weighted by how many bits it lit.
#[derive(Debug, Clone)]
struct CorpusEntry {
    decisions: Vec<usize>,
    /// Parent-selection weight: the entry's new-bit count, *capped*.
    /// The very first runs light hundreds of bits (everything is novel);
    /// uncapped weights would hand them the whole mutation budget, while
    /// the interesting parents are the late arrivals that reached a rare
    /// scheduler state worth a single fresh bit.
    weight: u64,
}

/// Cap on a corpus entry's parent-selection weight (see
/// [`CorpusEntry::weight`]).
const PARENT_WEIGHT_CAP: u64 = 4;

#[derive(Debug, Default)]
struct Corpus {
    entries: Vec<CorpusEntry>,
    /// Next slot to recycle once `entries` is at [`CORPUS_CAP`] (FIFO:
    /// deterministic, and old parents are the least productive).
    evict: usize,
}

/// SplitMix64 finalizer: a cheap full-avalanche mix for the signature
/// hash (the same mixer the rand stub's seeder uses).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// How the current run diverges from its corpus parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Fresh uniform random walk (no parent; also every run while the
    /// corpus is still empty).
    Fresh,
    /// Replay the parent, but at the mutation point pick a *different*
    /// alternative; keep replaying beyond it.
    Flip,
    /// Replay parent A up to the mutation point, then parent B's tail
    /// from an independently chosen offset.
    Splice,
    /// Replay the parent truncated at the mutation point, then extend
    /// with a fresh random tail.
    Extend,
    /// At each mutation point (one to three of them, early-biased),
    /// schedule anyone but the running thread (candidate 0 — the runtime
    /// lists the continuation first); keep replaying between and beyond
    /// them. Multiple points matter: defects guarded by a *chain* of
    /// independent races need several preemptions in one run, and
    /// waiting for each to enter the corpus separately squares the
    /// discovery time.
    Preempt,
}

/// Coverage-guided scheduling strategy (see the module docs).
///
/// Like [`RandomStrategy`](crate::strategy::RandomStrategy) it is
/// non-exhaustive: `runs` bounds the campaign, and partial-order
/// reduction stays disengaged (sleep sets describe an exhaustive
/// enumeration; for a guided sample they would *unsoundly prune* — the
/// feedback here only reorders, so soundness of reported violations is
/// untouched).
#[derive(Debug)]
pub struct CoverageStrategy {
    rng: SmallRng,
    runs_left: u64,
    /// The coverage bitmap, [`COVERAGE_MAP_BITS`] bits.
    map: Vec<u64>,
    /// Distinct bits set in `map`.
    bits_set: u64,
    /// Mutated (corpus-derived) runs executed so far.
    mutations: u64,
    corpus: Corpus,
    /// Decision template for this run: a (possibly spliced or truncated)
    /// corpus parent; empty for a fresh random walk.
    template: Vec<usize>,
    /// Positions at which [`Mutation::Flip`] / [`Mutation::Preempt`]
    /// divert from the template (sorted; a single point for `Flip`, up
    /// to [`MAX_PREEMPT_POINTS`] for `Preempt`).
    points: Vec<usize>,
    mutation: Mutation,
    /// Decisions made so far this run (mirrors the runtime's record).
    decisions: Vec<usize>,
    /// Coverage slots touched this run, folded into the bitmap at
    /// [`Strategy::end_run`].
    sig: Vec<usize>,
    /// Rolling location hash of the signatures along this run (the
    /// abstract scheduler state of the edge signature).
    prev: u64,
}

/// Probability (out of 16) that a run ignores the corpus and walks
/// fresh, keeping the whole schedule space reachable.
const FRESH_IN_16: u64 = 2;

/// Probability (out of 16) that a random (non-replay) thread choice
/// *continues the running thread* (candidate 0) instead of drawing
/// uniformly. A uniform walk over `k` runnable threads context-switches
/// on 1 − 1/k of its steps — schedule textures that almost never let an
/// operation's critical section complete untouched, and that drown the
/// map in noisy signatures. Real defect schedules look like the
/// opposite: long quiet stretches punctuated by a few precise
/// preemptions (the insight behind PCT's priority schedules). Sticky
/// tails reproduce that texture while the explicit [`Mutation::Preempt`]
/// points supply the precision; the remaining 1-in-4 uniform draws keep
/// every decision vector reachable.
const STICKY_IN_16: u64 = 12;

/// Maximum preemption points a single [`Mutation::Preempt`] plan
/// injects (a chain of `k` independent races needs `k` preemptions in
/// one run).
const MAX_PREEMPT_POINTS: usize = 3;

/// Relative weights of the four mutation operators. Preemption injection
/// is the heavy hitter: the seeded bugs of this repository (like most of
/// the paper's Table 2 root causes) need the victim preempted inside a
/// critical section, which replay-then-preempt reaches directly.
const MUTATION_WEIGHTS: [u64; 4] = [3, 2, 3, 5]; // Flip, Splice, Extend, Preempt

impl CoverageStrategy {
    /// Creates a coverage-guided exploration with an empty bitmap and
    /// corpus, performing at most `runs` runs.
    pub fn new(seed: u64, runs: u64) -> Self {
        CoverageStrategy {
            rng: SmallRng::seed_from_u64(seed),
            runs_left: runs,
            map: vec![0; COVERAGE_MAP_BITS / 64],
            bits_set: 0,
            mutations: 0,
            corpus: Corpus::default(),
            template: Vec::new(),
            points: Vec::new(),
            mutation: Mutation::Fresh,
            decisions: Vec::new(),
            sig: Vec::new(),
            prev: 0,
        }
    }

    /// Folds this run's signature slots into the bitmap; returns how many
    /// bits were newly set.
    fn absorb(&mut self) -> u64 {
        let mut new_bits = 0;
        for &slot in &self.sig {
            let bit = 1u64 << (slot % 64);
            let word = &mut self.map[slot / 64];
            if *word & bit == 0 {
                *word |= bit;
                new_bits += 1;
            }
        }
        self.bits_set += new_bits;
        new_bits
    }

    fn push_corpus(&mut self, decisions: Vec<usize>, new_bits: u64) {
        let entry = CorpusEntry {
            decisions,
            weight: new_bits.clamp(1, PARENT_WEIGHT_CAP),
        };
        let corpus = &mut self.corpus;
        if corpus.entries.len() < CORPUS_CAP {
            corpus.entries.push(entry);
        } else {
            corpus.entries[corpus.evict] = entry;
            corpus.evict = (corpus.evict + 1) % CORPUS_CAP;
        }
    }

    /// Draws a mutation point in `0..len`, biased toward the front (the
    /// minimum of two uniform draws — a triangular distribution). The
    /// consequential decisions sit early: a divergence in the last steps
    /// of a run re-executes an almost-identical schedule, while an early
    /// one opens a genuinely different subtree.
    fn early_point(rng: &mut SmallRng, len: usize) -> usize {
        rng.gen_range(0..len).min(rng.gen_range(0..len))
    }

    /// Plans this run's mutation: pick a parent (weighted by the new
    /// coverage it found, capped), a mutation operator, and the mutation
    /// point(s). All draws come from the seeded generator in a fixed
    /// order, so the plan sequence is a deterministic function of
    /// (seed, corpus evolution).
    fn plan(&mut self) {
        self.template.clear();
        self.points.clear();
        self.mutation = Mutation::Fresh;
        let corpus = &self.corpus;
        if corpus.entries.is_empty() || self.rng.gen_range(0..16u64) < FRESH_IN_16 {
            return;
        }
        let weights =
            WeightedIndex::new(corpus.entries.iter().map(|e| e.weight)).expect("non-empty");
        let base = &corpus.entries[weights.sample(&mut self.rng)];
        let ops = WeightedIndex::new(MUTATION_WEIGHTS).expect("static weights");
        let mutation = match ops.sample(&mut self.rng) {
            0 => Mutation::Flip,
            1 => Mutation::Splice,
            2 => Mutation::Extend,
            _ => Mutation::Preempt,
        };
        if base.decisions.is_empty() {
            // A parent with no consulted decisions (single-threaded run)
            // has nothing to mutate.
            return;
        }
        match mutation {
            Mutation::Flip => {
                self.template.extend_from_slice(&base.decisions);
                let point = Self::early_point(&mut self.rng, self.template.len());
                self.points.push(point);
            }
            Mutation::Preempt => {
                self.template.extend_from_slice(&base.decisions);
                // One to MAX_PREEMPT_POINTS early-biased points,
                // geometrically distributed (each extra point with
                // probability 1/2).
                let len = self.template.len();
                let point = Self::early_point(&mut self.rng, len);
                self.points.push(point);
                while self.points.len() < MAX_PREEMPT_POINTS && self.rng.gen_range(0..2u32) == 0 {
                    let extra = Self::early_point(&mut self.rng, len);
                    if !self.points.contains(&extra) {
                        self.points.push(extra);
                    }
                }
                self.points.sort_unstable();
            }
            Mutation::Extend => {
                let cut = Self::early_point(&mut self.rng, base.decisions.len());
                self.template.extend_from_slice(&base.decisions[..cut]);
            }
            Mutation::Splice => {
                let cut = self.rng.gen_range(0..base.decisions.len() + 1);
                self.template.extend_from_slice(&base.decisions[..cut]);
                // Second parent drawn uniformly; its tail offset is
                // independent of the cut (classic AFL splice).
                let partner = &corpus.entries[self.rng.gen_range(0..corpus.entries.len())];
                if !partner.decisions.is_empty() {
                    let from = self.rng.gen_range(0..partner.decisions.len());
                    self.template.extend_from_slice(&partner.decisions[from..]);
                }
            }
            Mutation::Fresh => unreachable!("fresh plans return above"),
        }
        self.mutation = mutation;
    }

    /// A random (non-replay) choice: sticky toward continuing the
    /// running thread (candidate 0), else uniform over the alternatives.
    fn sticky_choice(&mut self, num_alts: usize) -> usize {
        if self.rng.gen_range(0..16u64) < STICKY_IN_16 {
            0
        } else {
            self.rng.gen_range(0..num_alts)
        }
    }

    /// Resolves the decision at the current position: template replay,
    /// the planned divergence, or a random tail (sticky for thread
    /// choices, uniform for boolean/other choices).
    fn next_choice(&mut self, num_alts: usize, thread_choice: bool) -> usize {
        debug_assert!(num_alts >= 2);
        let pos = self.decisions.len();
        let idx = if pos < self.template.len() {
            let replay = self.template[pos].min(num_alts - 1);
            match self.mutation {
                Mutation::Flip if self.points.contains(&pos) => {
                    (replay + 1 + self.rng.gen_range(0..num_alts - 1)) % num_alts
                }
                Mutation::Preempt if self.points.contains(&pos) => self.rng.gen_range(1..num_alts),
                _ => replay,
            }
        } else if thread_choice {
            self.sticky_choice(num_alts)
        } else {
            self.rng.gen_range(0..num_alts)
        };
        self.decisions.push(idx);
        idx
    }

    /// Folds one decision's signature into the run trace: `payload`
    /// packs the enabled/candidate description and the choice taken, and
    /// the rolling `prev` makes the slot path-sensitive.
    fn record_sig(&mut self, payload: u64) {
        let cur = mix(payload);
        self.sig
            .push((((self.prev >> 1) ^ cur) as usize) & (COVERAGE_MAP_BITS - 1));
        self.prev = cur;
    }
}

impl Strategy for CoverageStrategy {
    fn begin_run(&mut self) {
        self.decisions.clear();
        self.sig.clear();
        self.prev = 0;
        self.plan();
    }

    fn choose(&mut self, num_alts: usize) -> usize {
        // Non-thread (boolean) choice: tagged so it cannot collide with a
        // thread signature of the same shape.
        let idx = self.next_choice(num_alts, false);
        self.record_sig(0xb001_0000_0000_0000 ^ ((num_alts as u64) << 32) ^ idx as u64);
        idx
    }

    fn choose_thread(&mut self, candidates: &[usize], step: usize) -> usize {
        let idx = self.next_choice(candidates.len(), true);
        // Signature payload: the enabled-thread set (candidate id mask),
        // the chosen thread id, and the log₂ step bucket — so "the same
        // contention shape much later in the run" still counts as the
        // same location, while early/late phases stay distinguishable.
        let mask: u64 = candidates.iter().fold(0, |m, &t| m | (1 << (t & 63)));
        let bucket = (usize::BITS - step.leading_zeros()) as u64;
        self.record_sig(mask ^ ((candidates[idx] as u64) << 40) ^ (bucket << 56));
        idx
    }

    fn end_run(&mut self) -> bool {
        let new_bits = self.absorb();
        if new_bits > 0 {
            let decisions = std::mem::take(&mut self.decisions);
            self.push_corpus(decisions, new_bits);
        }
        if self.mutation != Mutation::Fresh {
            self.mutations += 1;
        }
        self.runs_left = self.runs_left.saturating_sub(1);
        self.runs_left > 0
    }

    fn coverage_counters(&self) -> Option<CoverageCounters> {
        Some(CoverageCounters {
            corpus_size: self.corpus.entries.len() as u64,
            coverage_bits: self.bits_set,
            mutations: self.mutations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `n` fake decision points (all thread choices among
    /// `alts` candidates) through one run of the strategy.
    fn drive_run(s: &mut CoverageStrategy, points: usize, alts: usize) -> Vec<usize> {
        s.begin_run();
        let candidates: Vec<usize> = (0..alts).collect();
        (0..points)
            .map(|step| s.choose_thread(&candidates, step + 1))
            .collect()
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mut a = CoverageStrategy::new(42, 100);
        let mut b = CoverageStrategy::new(42, 100);
        for _ in 0..50 {
            assert_eq!(drive_run(&mut a, 12, 3), drive_run(&mut b, 12, 3));
            assert_eq!(a.end_run(), b.end_run());
        }
        assert_eq!(a.coverage_counters(), b.coverage_counters());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = CoverageStrategy::new(1, 10);
        let mut b = CoverageStrategy::new(2, 10);
        let runs_a: Vec<_> = (0..5)
            .map(|_| {
                let r = drive_run(&mut a, 10, 4);
                a.end_run();
                r
            })
            .collect();
        let runs_b: Vec<_> = (0..5)
            .map(|_| {
                let r = drive_run(&mut b, 10, 4);
                b.end_run();
                r
            })
            .collect();
        assert_ne!(runs_a, runs_b);
    }

    #[test]
    fn novel_runs_enter_corpus_and_light_bits() {
        let mut s = CoverageStrategy::new(7, 1000);
        drive_run(&mut s, 10, 3);
        s.end_run();
        let c = s.coverage_counters().unwrap();
        assert_eq!(c.corpus_size, 1, "first run is always novel");
        assert!(c.coverage_bits >= 1 && c.coverage_bits <= 10);
        for _ in 0..99 {
            drive_run(&mut s, 10, 3);
            s.end_run();
        }
        let c = s.coverage_counters().unwrap();
        assert!(c.corpus_size >= 2, "more schedules find more coverage");
        assert!(c.coverage_bits > 10);
        assert!(c.mutations > 0, "corpus parents get mutated");
        assert!(c.mutations < 100, "some runs stay fresh random walks");
    }

    #[test]
    fn identical_rerun_is_not_novel() {
        let mut s = CoverageStrategy::new(3, 10);
        // Absorbing the same slots twice must not double-count.
        s.sig = vec![5, 9, 5];
        assert_eq!(s.absorb(), 2);
        s.sig = vec![5, 9];
        assert_eq!(s.absorb(), 0);
        assert_eq!(s.coverage_counters().unwrap().coverage_bits, 2);
    }

    #[test]
    fn corpus_capacity_is_bounded() {
        let mut s = CoverageStrategy::new(5, 10);
        for i in 0..(CORPUS_CAP + 50) {
            s.push_corpus(vec![i], 1);
        }
        let corpus = &s.corpus;
        assert_eq!(corpus.entries.len(), CORPUS_CAP);
        // FIFO recycling: the overflow overwrote the oldest 50 slots.
        assert_eq!(corpus.entries[0].decisions, vec![CORPUS_CAP]);
        assert_eq!(corpus.entries[50].decisions, vec![50]);
    }

    #[test]
    fn preempt_mutation_diverges_from_running_thread() {
        // Force a Preempt plan and check every mutated point switches
        // away from candidate 0 (the continuation).
        let mut s = CoverageStrategy::new(11, 1000);
        s.push_corpus(vec![0; 8], 4);
        let mut saw_preempt_divergence = false;
        let mut saw_multi_point = false;
        for _ in 0..400 {
            let run = drive_run(&mut s, 8, 3);
            if s.mutation == Mutation::Preempt {
                assert!(!s.points.is_empty() && s.points.len() <= MAX_PREEMPT_POINTS);
                for &p in &s.points {
                    assert_ne!(run[p], 0, "preemption must switch threads");
                }
                saw_preempt_divergence = true;
                saw_multi_point |= s.points.len() > 1;
            }
            s.end_run();
        }
        assert!(
            saw_preempt_divergence,
            "Preempt must be drawn within 400 plans"
        );
        assert!(saw_multi_point, "multi-point preemption chains must occur");
    }

    #[test]
    fn flip_mutation_changes_exactly_the_point() {
        let mut s = CoverageStrategy::new(13, 1000);
        s.push_corpus(vec![1; 8], 4);
        for _ in 0..200 {
            let run = drive_run(&mut s, 8, 3);
            if s.mutation == Mutation::Flip {
                assert_eq!(s.points.len(), 1, "flip diverges at a single point");
                let point = s.points[0];
                let template = s.template.clone();
                assert_ne!(
                    run[point],
                    template[point].min(2),
                    "flip must pick a different alternative"
                );
                for (i, &d) in run.iter().enumerate() {
                    if i != point && i < template.len() {
                        assert_eq!(
                            d,
                            template[i].min(2),
                            "non-point positions replay the parent"
                        );
                    }
                }
                return;
            }
            s.end_run();
        }
        panic!("Flip never drawn in 200 plans");
    }
}
