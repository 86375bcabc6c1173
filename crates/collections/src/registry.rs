//! The class registry: every class/variant pair of the evaluation, with
//! the metadata the Table 1 / Table 2 reproduction binaries need.

use lineup::{AdtKind, ErasedTarget, Invocation, SymmetryPolicy, TestMatrix};

pub use crate::support::Variant;

use crate::barrier::BarrierTarget;
use crate::blocking_collection::BlockingCollectionTarget;
use crate::cancellation_token_source::CancellationTokenSourceTarget;
use crate::concurrent_bag::ConcurrentBagTarget;
use crate::concurrent_dictionary::ConcurrentDictionaryTarget;
use crate::concurrent_linked_list::ConcurrentLinkedListTarget;
use crate::concurrent_queue::ConcurrentQueueTarget;
use crate::concurrent_stack::ConcurrentStackTarget;
use crate::countdown_event::CountdownEventTarget;
use crate::lazy::LazyTarget;
use crate::manual_reset_event::ManualResetEventTarget;
use crate::semaphore_slim::SemaphoreSlimTarget;
use crate::task_completion_source::TaskCompletionSourceTarget;

/// The root causes of Table 2, A through L.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RootCause {
    /// ManualResetEvent: CAS computes new state from a re-read (Fig. 9).
    A,
    /// ConcurrentQueue: timed lock acquire times out in TryTake (Fig. 1).
    B,
    /// SemaphoreSlim: Release pulses one waiter instead of all.
    C,
    /// ConcurrentStack: TryPopRange pops non-atomically.
    D,
    /// CountdownEvent: Signal decrements with a non-atomic RMW.
    E,
    /// ConcurrentDictionary: count maintained outside the bucket lock.
    F,
    /// ConcurrentLinkedList: RemoveFirst checks emptiness before locking.
    G,
    /// ConcurrentBag: TryTake may take (or miss) any element.
    H,
    /// BlockingCollection: Count may observe an inconsistent snapshot.
    I,
    /// BlockingCollection: TryTake may fail on a non-empty collection.
    J,
    /// BlockingCollection: CompleteAdding takes effect after returning.
    K,
    /// Barrier: SignalAndWait is inherently nonlinearizable.
    L,
}

/// The three categories of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootCauseKind {
    /// A genuine implementation error (7 of the paper's 12).
    Bug,
    /// Intentional nondeterminism (3 of 12): documented, not fixed.
    IntentionalNondeterminism,
    /// Intentional nonlinearizability (2 of 12).
    IntentionalNonlinearizability,
}

impl RootCause {
    /// The §5.2 classification of this root cause.
    pub fn kind(self) -> RootCauseKind {
        match self {
            RootCause::A
            | RootCause::B
            | RootCause::C
            | RootCause::D
            | RootCause::E
            | RootCause::F
            | RootCause::G => RootCauseKind::Bug,
            RootCause::H | RootCause::I | RootCause::J => RootCauseKind::IntentionalNondeterminism,
            RootCause::K | RootCause::L => RootCauseKind::IntentionalNonlinearizability,
        }
    }

    /// A one-line description for reports.
    pub fn description(self) -> &'static str {
        match self {
            RootCause::A => "CAS computes new state from a re-read of the shared state",
            RootCause::B => "timed lock acquire can time out, TryTake fails spuriously",
            RootCause::C => "Release pulses a single waiter instead of all",
            RootCause::D => "TryPopRange pops elements one at a time",
            RootCause::E => "Signal decrements with a non-atomic read-modify-write",
            RootCause::F => "element count maintained outside the bucket lock",
            RootCause::G => "RemoveFirst checks emptiness before taking the lock",
            RootCause::H => "TryTake may take (or miss) any element (unordered bag)",
            RootCause::I => "Count may observe an inconsistent snapshot",
            RootCause::J => "TryTake may fail although the collection is non-empty",
            RootCause::K => "CompleteAdding takes effect after the method returns",
            RootCause::L => "SignalAndWait is not equivalent to any serial execution",
        }
    }
}

/// One class/variant row of the evaluation.
pub struct ClassEntry {
    /// Class name with the Table 2 "(Pre)" marker where applicable.
    pub name: &'static str,
    /// Variant of the implementation.
    pub variant: Variant,
    /// Lines of code of the implementing module (the paper's Table 1 LOC
    /// column; ours counts the Rust module including its tests).
    pub loc: usize,
    /// Root causes Line-Up is expected to expose on this entry.
    pub expected_root_causes: &'static [RootCause],
    /// The abstract data type this class implements, for the specialized
    /// monitor fast path (`None` for classes outside the four supported
    /// kinds — they always take the general search). The annotation
    /// claims ideal-ADT behavior *serially*, which holds for the Pre
    /// variants too: their seeded defects are concurrency races.
    pub adt_kind: Option<AdtKind>,
    target: Box<dyn ErasedTarget + Send + Sync>,
}

impl std::fmt::Debug for ClassEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassEntry")
            .field("name", &self.name)
            .field("variant", &self.variant)
            .field("loc", &self.loc)
            .field("expected_root_causes", &self.expected_root_causes)
            .finish()
    }
}

impl ClassEntry {
    /// The checking facade for this class.
    pub fn target(&self) -> &(dyn ErasedTarget + Send + Sync) {
        &*self.target
    }

    /// The class's thread-symmetry annotation (see [`SymmetryPolicy`]):
    /// how far symmetric-schedule pruning and canonical history
    /// deduplication may go when checking it. Data-independent
    /// collections (queue, stack, dictionary) declare
    /// [`SymmetryPolicy::Full`]; `ConcurrentBag` disables symmetry
    /// entirely because its per-thread steal slots make behaviour depend
    /// on thread identity; everything else keeps the literal-column
    /// default.
    pub fn symmetry_policy(&self) -> SymmetryPolicy {
        self.target.symmetry_policy()
    }

    /// Targeted regression test matrices known to exercise this entry's
    /// root causes (paper §4.3: "the user is always free to specify test
    /// matrices directly, a useful feature for testing very specific
    /// scenarios or for writing regression tests"). Empty for entries
    /// without expected root causes. The first matrix is the canonical
    /// demo; classes with several root causes get one matrix per cause.
    pub fn regression_matrices(&self) -> Vec<TestMatrix> {
        if self.expected_root_causes.is_empty() {
            return Vec::new();
        }
        let inv = Invocation::new;
        let inv_i = Invocation::with_int;
        let ms = match self.name.trim_end_matches(" (Pre)") {
            "ManualResetEvent" => vec![TestMatrix::from_columns(vec![
                vec![inv("Wait")],
                vec![inv("Set"), inv("Reset"), inv("Set")],
            ])],
            "SemaphoreSlim" => vec![TestMatrix::from_columns(vec![
                vec![inv("Wait")],
                vec![inv("Wait")],
                vec![inv_i("Release", 2)],
            ])],
            "CountdownEvent" => vec![TestMatrix::from_columns(vec![
                vec![inv("Signal")],
                vec![inv("Signal")],
                vec![inv("Wait")],
            ])],
            "ConcurrentDictionary" => vec![TestMatrix::from_columns(vec![
                vec![inv_i("TryAdd", 10)],
                vec![inv_i("TryAdd", 20)],
            ])
            .with_finally(vec![inv("Count")])],
            "ConcurrentQueue" => vec![TestMatrix::from_columns(vec![
                vec![inv_i("Enqueue", 200), inv_i("Enqueue", 400)],
                vec![inv("TryDequeue"), inv("TryDequeue")],
            ])],
            "ConcurrentStack" => vec![TestMatrix::from_columns(vec![
                vec![inv("TryPopRangeTwo")],
                vec![inv("TryPop")],
            ])
            .with_init(vec![inv_i("Push", 1), inv_i("Push", 2), inv_i("Push", 3)])],
            "ConcurrentLinkedList" => vec![TestMatrix::from_columns(vec![
                vec![inv("RemoveFirst")],
                vec![inv("RemoveList")],
            ])
            .with_init(vec![inv_i("AddLast", 10)])],
            "BlockingCollection" => vec![
                // K: CompleteAdding's effect lands after it returns.
                TestMatrix::from_columns(vec![
                    vec![inv("CompleteAdding")],
                    vec![inv_i("TryAdd", 10)],
                    vec![inv_i("TryAdd", 20)],
                ]),
                // I: Count observes an inconsistent snapshot.
                TestMatrix::from_columns(vec![
                    vec![inv("Count")],
                    vec![inv("Take"), inv_i("Add", 30), inv("Take")],
                ])
                .with_init(vec![inv_i("Add", 10), inv_i("Add", 20)]),
                // J: TryTake fails on a never-empty collection.
                TestMatrix::from_columns(vec![
                    vec![inv("TryTake")],
                    vec![inv("Take"), inv_i("Add", 30), inv("Take")],
                ])
                .with_init(vec![inv_i("Add", 10), inv_i("Add", 20)]),
            ],
            "ConcurrentBag" => vec![TestMatrix::from_columns(vec![
                vec![inv_i("Add", 10)],
                vec![inv("TryTake")],
                vec![inv_i("Add", 30), inv("TryTake")],
            ])],
            "Barrier" => vec![TestMatrix::from_columns(vec![
                vec![inv("SignalAndWait")],
                vec![inv("SignalAndWait")],
            ])],
            _ => Vec::new(),
        };
        ms
    }

    /// The canonical regression matrix (the first of
    /// [`regression_matrices`](ClassEntry::regression_matrices)).
    pub fn regression_matrix(&self) -> Option<TestMatrix> {
        self.regression_matrices().into_iter().next()
    }

    /// The methods checked (the invocation names of the catalog — the
    /// paper's Table 1 "Methods checked" column).
    pub fn methods(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .target
            .invocations()
            .iter()
            .map(|i| i.to_string())
            .collect();
        names.dedup();
        names
    }
}

macro_rules! entry {
    ($name:expr, $variant:expr, $file:expr, $causes:expr, $target:expr) => {
        entry!($name, $variant, $file, $causes, $target, None)
    };
    ($name:expr, $variant:expr, $file:expr, $causes:expr, $target:expr, $kind:expr) => {
        ClassEntry {
            name: $name,
            variant: $variant,
            loc: include_str!($file).lines().count(),
            expected_root_causes: $causes,
            adt_kind: $kind,
            target: Box::new($target),
        }
    };
}

/// All class/variant pairs of the evaluation: the 13 classes of Table 1
/// (Beta-2-like fixed variants) plus the 7 CTP-like "(Pre)" variants that
/// carry the seeded bugs A–G. Root causes H–L live in the shipped
/// variants, as in the paper.
pub fn all_classes() -> Vec<ClassEntry> {
    use RootCause as RC;
    vec![
        entry!(
            "Lazy Initialization",
            Variant::Fixed,
            "lazy.rs",
            &[],
            LazyTarget
        ),
        entry!(
            "ManualResetEvent",
            Variant::Fixed,
            "manual_reset_event.rs",
            &[],
            ManualResetEventTarget {
                variant: Variant::Fixed
            }
        ),
        entry!(
            "ManualResetEvent (Pre)",
            Variant::Pre,
            "manual_reset_event.rs",
            &[RC::A],
            ManualResetEventTarget {
                variant: Variant::Pre
            }
        ),
        entry!(
            "SemaphoreSlim",
            Variant::Fixed,
            "semaphore_slim.rs",
            &[],
            SemaphoreSlimTarget {
                variant: Variant::Fixed,
                initial: 0,
            }
        ),
        entry!(
            "SemaphoreSlim (Pre)",
            Variant::Pre,
            "semaphore_slim.rs",
            &[RC::C],
            SemaphoreSlimTarget {
                variant: Variant::Pre,
                initial: 0,
            }
        ),
        entry!(
            "CountdownEvent",
            Variant::Fixed,
            "countdown_event.rs",
            &[],
            CountdownEventTarget {
                variant: Variant::Fixed,
                initial: 2,
            }
        ),
        entry!(
            "CountdownEvent (Pre)",
            Variant::Pre,
            "countdown_event.rs",
            &[RC::E],
            CountdownEventTarget {
                variant: Variant::Pre,
                initial: 2,
            }
        ),
        entry!(
            "ConcurrentDictionary",
            Variant::Fixed,
            "concurrent_dictionary.rs",
            &[],
            ConcurrentDictionaryTarget {
                variant: Variant::Fixed
            },
            Some(AdtKind::Set)
        ),
        entry!(
            "ConcurrentDictionary (Pre)",
            Variant::Pre,
            "concurrent_dictionary.rs",
            &[RC::F],
            ConcurrentDictionaryTarget {
                variant: Variant::Pre
            },
            Some(AdtKind::Set)
        ),
        entry!(
            "ConcurrentQueue",
            Variant::Fixed,
            "concurrent_queue.rs",
            &[],
            ConcurrentQueueTarget {
                variant: Variant::Fixed
            },
            Some(AdtKind::Queue)
        ),
        entry!(
            "ConcurrentQueue (Pre)",
            Variant::Pre,
            "concurrent_queue.rs",
            &[RC::B],
            ConcurrentQueueTarget {
                variant: Variant::Pre
            },
            Some(AdtKind::Queue)
        ),
        entry!(
            "ConcurrentStack",
            Variant::Fixed,
            "concurrent_stack.rs",
            &[],
            ConcurrentStackTarget {
                variant: Variant::Fixed
            },
            Some(AdtKind::Stack)
        ),
        entry!(
            "ConcurrentStack (Pre)",
            Variant::Pre,
            "concurrent_stack.rs",
            &[RC::D],
            ConcurrentStackTarget {
                variant: Variant::Pre
            },
            Some(AdtKind::Stack)
        ),
        entry!(
            "ConcurrentLinkedList",
            Variant::Fixed,
            "concurrent_linked_list.rs",
            &[],
            ConcurrentLinkedListTarget {
                variant: Variant::Fixed
            }
        ),
        entry!(
            "ConcurrentLinkedList (Pre)",
            Variant::Pre,
            "concurrent_linked_list.rs",
            &[RC::G],
            ConcurrentLinkedListTarget {
                variant: Variant::Pre
            }
        ),
        entry!(
            "BlockingCollection",
            Variant::Fixed,
            "blocking_collection.rs",
            &[RC::I, RC::J, RC::K],
            BlockingCollectionTarget { capacity: 2 }
        ),
        entry!(
            "ConcurrentBag",
            Variant::Fixed,
            "concurrent_bag.rs",
            &[RC::H],
            ConcurrentBagTarget {
                variant: Variant::Fixed
            }
        ),
        entry!(
            "TaskCompletionSource",
            Variant::Fixed,
            "task_completion_source.rs",
            &[],
            TaskCompletionSourceTarget
        ),
        entry!(
            "CancellationTokenSource",
            Variant::Fixed,
            "cancellation_token_source.rs",
            &[],
            CancellationTokenSourceTarget
        ),
        entry!(
            "Barrier",
            Variant::Fixed,
            "barrier.rs",
            &[RC::L],
            BarrierTarget { participants: 2 }
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_thirteen_classes() {
        let entries = all_classes();
        let classes: std::collections::BTreeSet<&str> = entries
            .iter()
            .map(|e| e.name.trim_end_matches(" (Pre)"))
            .collect();
        assert_eq!(classes.len(), 13, "{classes:?}");
    }

    #[test]
    fn registry_covers_all_twelve_root_causes() {
        let entries = all_classes();
        let causes: std::collections::BTreeSet<RootCause> = entries
            .iter()
            .flat_map(|e| e.expected_root_causes.iter().copied())
            .collect();
        assert_eq!(causes.len(), 12);
    }

    #[test]
    fn seven_bugs_three_nondet_two_nonlin() {
        use std::collections::BTreeSet;
        let causes: BTreeSet<RootCause> = all_classes()
            .iter()
            .flat_map(|e| e.expected_root_causes.iter().copied())
            .collect();
        let bugs = causes
            .iter()
            .filter(|c| c.kind() == RootCauseKind::Bug)
            .count();
        let nondet = causes
            .iter()
            .filter(|c| c.kind() == RootCauseKind::IntentionalNondeterminism)
            .count();
        let nonlin = causes
            .iter()
            .filter(|c| c.kind() == RootCauseKind::IntentionalNonlinearizability)
            .count();
        assert_eq!((bugs, nondet, nonlin), (7, 3, 2));
    }

    #[test]
    fn symmetry_annotations_match_the_class_semantics() {
        for e in all_classes() {
            let expected = match e.name.trim_end_matches(" (Pre)") {
                // Data-independent collections: payloads are opaque.
                "ConcurrentQueue" | "ConcurrentStack" | "ConcurrentDictionary" => {
                    SymmetryPolicy::Full
                }
                // Thread-identity-sensitive: per-thread steal slots.
                "ConcurrentBag" => SymmetryPolicy::Disabled,
                _ => SymmetryPolicy::ThreadsOnly,
            };
            assert_eq!(e.symmetry_policy(), expected, "{}", e.name);
        }
    }

    #[test]
    fn entries_expose_methods_and_loc() {
        for e in all_classes() {
            assert!(!e.methods().is_empty(), "{} has methods", e.name);
            assert!(e.loc > 50, "{} has substance", e.name);
            assert!(!e.target().invocations().is_empty());
        }
    }

    #[test]
    fn every_seeded_entry_has_a_regression_matrix() {
        for e in all_classes() {
            assert_eq!(
                e.regression_matrix().is_some(),
                !e.expected_root_causes.is_empty(),
                "{}",
                e.name
            );
        }
    }

    #[test]
    fn total_method_count_is_substantial() {
        // The paper checks 90 methods across 13 classes; our catalogs are
        // in the same ballpark.
        let total: usize = all_classes()
            .iter()
            .filter(|e| e.variant == Variant::Fixed)
            .map(|e| e.methods().len())
            .sum();
        assert!(total >= 60, "got {total}");
    }
}
