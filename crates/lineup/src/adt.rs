//! ADT-kind annotations and per-path monitor statistics.
//!
//! The Wing–Gong monitor in `lineup-monitor` is complete but worst-case
//! exponential. For histories over a *known* abstract data type whose
//! values are unambiguous (no value inserted twice), linearizability is
//! decidable in O(n log n) by decrease-and-conquer algorithms (Lee &
//! Mathur; Abdulla et al. — see PAPERS.md). This module holds the shared
//! vocabulary for that fast path: which ADT a target implements
//! ([`AdtKind`]), why a specialized check may decline and fall back to the
//! general search ([`FallbackReason`]), and counters describing which path
//! each monitor check took ([`MonitorPathStats`]).
//!
//! The types live in the core crate (rather than `lineup-monitor`) so the
//! registry of collection classes can annotate targets without depending
//! on the monitor crate.

use std::fmt;

/// The abstract data type a test target implements, as far as the
/// specialized linearizability checkers are concerned.
///
/// Annotating a target with an `AdtKind` is a *claim*: executed serially,
/// the target behaves like the ideal ADT (FIFO queue, LIFO stack, set
/// keyed by integer, or min-priority-queue). The specialized checkers
/// decide linearizability against the ideal semantics, so an incorrect
/// annotation can produce verdicts that differ from the replay-oracle
/// search. All registry collections satisfy the claim: their injected
/// bugs are concurrency races, and serial replays see ideal behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdtKind {
    /// FIFO queue: `Enqueue`/`Add` and `TryDequeue`/`TryTake`.
    Queue,
    /// LIFO stack: `Push` and `TryPop`.
    Stack,
    /// Set / dictionary keyed by integer: `TryAdd`, `TryRemove`,
    /// `ContainsKey`.
    Set,
    /// Min-priority-queue: `Insert` and `ExtractMin`.
    PriorityQueue,
}

impl AdtKind {
    /// All kinds, in a fixed order (useful for bench sweeps).
    pub const ALL: [AdtKind; 4] = [
        AdtKind::Queue,
        AdtKind::Stack,
        AdtKind::Set,
        AdtKind::PriorityQueue,
    ];

    /// A short lowercase label, stable across runs (used in bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            AdtKind::Queue => "queue",
            AdtKind::Stack => "stack",
            AdtKind::Set => "set",
            AdtKind::PriorityQueue => "pqueue",
        }
    }
}

impl fmt::Display for AdtKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a monitor check took the general Wing–Gong path instead of the
/// specialized log-linear checker.
///
/// Fallback is always *conservative*: the specialized checker only
/// returns a definite verdict when it is sure, so routing an ambiguous
/// history to the general search preserves the monitor's completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// The monitor has no ADT-kind annotation for this target.
    Unregistered,
    /// The history has pending (stuck) calls the specialized algorithm
    /// cannot complete.
    PendingOps,
    /// The check requested the asynchronous relaxation (§5 of the paper),
    /// which the specialized checkers do not model.
    AsyncRelaxation,
    /// An operation's name, argument shape, or response shape is outside
    /// the specialized checker's alphabet (e.g. `Count`, `ToArray`).
    UnknownOp,
    /// A value was inserted more than once, so matching insertions to
    /// removals is ambiguous.
    DuplicateValue,
    /// The specialized checker's sound accept/reject procedures were both
    /// inconclusive on this history (possible for stack and
    /// priority-queue, whose greedy accept is incomplete).
    Inconclusive,
}

impl FallbackReason {
    /// Number of distinct reasons (size of the histogram).
    pub const COUNT: usize = 6;

    /// All reasons, indexed consistently with [`FallbackReason::index`].
    pub const ALL: [FallbackReason; Self::COUNT] = [
        FallbackReason::Unregistered,
        FallbackReason::PendingOps,
        FallbackReason::AsyncRelaxation,
        FallbackReason::UnknownOp,
        FallbackReason::DuplicateValue,
        FallbackReason::Inconclusive,
    ];

    /// Position of this reason in [`MonitorPathStats::fallback_reasons`].
    pub fn index(self) -> usize {
        match self {
            FallbackReason::Unregistered => 0,
            FallbackReason::PendingOps => 1,
            FallbackReason::AsyncRelaxation => 2,
            FallbackReason::UnknownOp => 3,
            FallbackReason::DuplicateValue => 4,
            FallbackReason::Inconclusive => 5,
        }
    }

    /// A short lowercase label, stable across runs (used in bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            FallbackReason::Unregistered => "unregistered",
            FallbackReason::PendingOps => "pending_ops",
            FallbackReason::AsyncRelaxation => "async_relaxation",
            FallbackReason::UnknownOp => "unknown_op",
            FallbackReason::DuplicateValue => "duplicate_value",
            FallbackReason::Inconclusive => "inconclusive",
        }
    }
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters describing which path monitor checks took: the specialized
/// log-linear checker, or the general Wing–Gong search (and why).
///
/// Exposed on the monitor's own stats snapshot and, summed over every
/// window check, on the service's shard counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorPathStats {
    /// Checks decided end-to-end by a specialized checker.
    pub specialized_checks: u64,
    /// Checks routed to the general Wing–Gong search.
    pub fallback_checks: u64,
    /// Histogram of fallback reasons, indexed by
    /// [`FallbackReason::index`].
    pub fallback_reasons: [u64; FallbackReason::COUNT],
}

impl MonitorPathStats {
    /// Records one check that fell back to the general search.
    pub fn record_fallback(&mut self, reason: FallbackReason) {
        // Saturating: a long-running online monitor accumulates counters
        // indefinitely, and a pegged statistic beats an overflow panic.
        self.fallback_checks = self.fallback_checks.saturating_add(1);
        let slot = &mut self.fallback_reasons[reason.index()];
        *slot = slot.saturating_add(1);
    }

    /// Records one check decided by a specialized checker.
    pub fn record_specialized(&mut self) {
        self.specialized_checks = self.specialized_checks.saturating_add(1);
    }

    /// Count for a single fallback reason.
    pub fn fallbacks_for(&self, reason: FallbackReason) -> u64 {
        self.fallback_reasons[reason.index()]
    }

    /// Counters accumulated since an earlier snapshot (saturating, so a
    /// stale snapshot never underflows).
    pub fn diff_since(&self, earlier: &MonitorPathStats) -> MonitorPathStats {
        let mut reasons = [0u64; FallbackReason::COUNT];
        for (i, slot) in reasons.iter_mut().enumerate() {
            *slot = self.fallback_reasons[i].saturating_sub(earlier.fallback_reasons[i]);
        }
        MonitorPathStats {
            specialized_checks: self
                .specialized_checks
                .saturating_sub(earlier.specialized_checks),
            fallback_checks: self.fallback_checks.saturating_sub(earlier.fallback_checks),
            fallback_reasons: reasons,
        }
    }

    /// Adds another set of counters into this one (saturating).
    pub fn merge(&mut self, other: &MonitorPathStats) {
        self.specialized_checks = self
            .specialized_checks
            .saturating_add(other.specialized_checks);
        self.fallback_checks = self.fallback_checks.saturating_add(other.fallback_checks);
        for (slot, add) in self.fallback_reasons.iter_mut().zip(other.fallback_reasons) {
            *slot = slot.saturating_add(add);
        }
    }

    /// Total checks recorded, across both paths.
    pub fn total_checks(&self) -> u64 {
        self.specialized_checks.saturating_add(self.fallback_checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_indices_match_all_order() {
        for (i, reason) in FallbackReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i);
        }
    }

    #[test]
    fn record_diff_and_merge_round_trip() {
        let mut a = MonitorPathStats::default();
        a.record_specialized();
        a.record_specialized();
        a.record_fallback(FallbackReason::DuplicateValue);
        let snapshot = a.clone();
        a.record_fallback(FallbackReason::UnknownOp);
        a.record_specialized();

        let delta = a.diff_since(&snapshot);
        assert_eq!(delta.specialized_checks, 1);
        assert_eq!(delta.fallback_checks, 1);
        assert_eq!(delta.fallbacks_for(FallbackReason::UnknownOp), 1);
        assert_eq!(delta.fallbacks_for(FallbackReason::DuplicateValue), 0);

        let mut merged = snapshot.clone();
        merged.merge(&delta);
        assert_eq!(merged, a);
        assert_eq!(merged.total_checks(), 5);
    }
}
