//! A minimal, offline drop-in for the subset of the `proptest` crate API
//! this workspace uses. The build environment cannot fetch crates.io, so
//! the real `proptest` cannot be resolved; this stub keeps the workspace
//! property tests runnable and self-contained.
//!
//! Supported surface: the `proptest!` macro (with optional
//! `#![proptest_config(...)]`), `Strategy` with `prop_map` /
//! `prop_recursive` / `boxed`, `BoxedStrategy`, `Just`, `any`,
//! `prop::collection::vec`, string strategies from `[class]{lo,hi}`
//! patterns, `prop_oneof!`, `prop_assert!`, `prop_assert_eq!`,
//! `prop_assert_ne!`, and `prop_assume!`.
//!
//! Differences from real proptest: no shrinking (failures report the
//! original generated case), and generation is seeded deterministically
//! from the test name so runs are reproducible.

pub mod test_runner {
    use rand::{Rng, SeedableRng};

    /// Runner configuration (mirrors `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum number of rejected (`prop_assume!`) cases tolerated.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 32,
                max_global_rejects: 4096,
            }
        }
    }

    impl ProptestConfig {
        /// A config requiring `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case was vacuous (`prop_assume!` failed); try another.
        Reject,
        /// The property was falsified.
        Fail(String),
    }

    impl TestCaseError {
        /// Constructs a failure with the given message.
        pub fn fail(message: String) -> Self {
            TestCaseError::Fail(message)
        }
    }

    /// The random source handed to strategies.
    pub struct TestRng(rand::rngs::SmallRng);

    impl TestRng {
        /// A generator seeded deterministically from `name`.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the test name: stable across runs and platforms.
            let mut h = 0xcbf29ce484222325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng(rand::rngs::SmallRng::seed_from_u64(h))
        }

        /// Uniform draw from `0..bound` (`bound` must be non-zero).
        pub fn index(&mut self, bound: usize) -> usize {
            self.0.gen_range(0usize..bound)
        }

        /// Uniform draw from a half-open range.
        pub fn range<T: rand::SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
            self.0.gen_range(range)
        }

        /// Raw 64 random bits.
        pub fn bits(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value` (mirrors
    /// `proptest::strategy::Strategy`, minus shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> BoxedStrategy<U>
        where
            Self: Sized + 'static,
            U: 'static,
            F: Fn(Self::Value) -> U + 'static,
        {
            let inner = self;
            BoxedStrategy(Rc::new(move |rng| f(inner.generate(rng))))
        }

        /// Builds recursive values: `self` generates leaves, and `recurse`
        /// wraps a strategy for depth-`k` values into one for depth-`k+1`
        /// values. `depth` bounds the nesting; the size hints are accepted
        /// for API compatibility but unused (no shrinking here).
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let leaf = self.boxed();
            let mut current = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(current).boxed();
                current = union(vec![leaf.clone(), deeper]);
            }
            current
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let inner = self;
            BoxedStrategy(Rc::new(move |rng| inner.generate(rng)))
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Picks uniformly among `arms` each generation (the engine behind
    /// `prop_oneof!`).
    pub fn union<T: 'static>(arms: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        BoxedStrategy(Rc::new(move |rng| {
            let i = rng.index(arms.len());
            arms[i].generate(rng)
        }))
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl<T> Strategy for std::ops::Range<T>
    where
        T: rand::SampleUniform + 'static,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            rng.range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);

    impl Strategy for &'static str {
        type Value = String;

        /// Interprets the string as a tiny regex subset: a sequence of
        /// units, each a literal char or a `[...]` class (supporting
        /// ranges and backslash escapes), optionally repeated by `{n}` or
        /// `{lo,hi}`.
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            let mut chars = self.chars().peekable();
            while let Some(c) = chars.next() {
                let alphabet: Vec<char> = if c == '[' {
                    let mut set = Vec::new();
                    loop {
                        let m = chars.next().expect("unterminated [class] in pattern");
                        if m == ']' {
                            break;
                        }
                        let m = if m == '\\' {
                            unescape(chars.next().expect("dangling escape"))
                        } else {
                            m
                        };
                        // Range `a-b` (a `-` not followed by `]`).
                        if chars.peek() == Some(&'-') {
                            let mut probe = chars.clone();
                            probe.next();
                            if probe.peek().is_some() && probe.peek() != Some(&']') {
                                chars.next(); // consume '-'
                                let hi = chars.next().unwrap();
                                let hi = if hi == '\\' {
                                    unescape(chars.next().expect("dangling escape"))
                                } else {
                                    hi
                                };
                                for u in (m as u32)..=(hi as u32) {
                                    if let Some(ch) = char::from_u32(u) {
                                        set.push(ch);
                                    }
                                }
                                continue;
                            }
                        }
                        set.push(m);
                    }
                    set
                } else if c == '\\' {
                    vec![unescape(chars.next().expect("dangling escape"))]
                } else {
                    vec![c]
                };

                let (lo, hi) = if chars.peek() == Some(&'{') {
                    chars.next();
                    let mut spec = String::new();
                    for m in chars.by_ref() {
                        if m == '}' {
                            break;
                        }
                        spec.push(m);
                    }
                    match spec.split_once(',') {
                        Some((a, b)) => (
                            a.trim().parse::<usize>().expect("bad repeat bound"),
                            b.trim().parse::<usize>().expect("bad repeat bound"),
                        ),
                        None => {
                            let n = spec.trim().parse::<usize>().expect("bad repeat count");
                            (n, n)
                        }
                    }
                } else {
                    (1, 1)
                };

                let count = lo + rng.index(hi - lo + 1);
                for _ in 0..count {
                    out.push(alphabet[rng.index(alphabet.len())]);
                }
            }
            out
        }
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other,
        }
    }
}

pub mod arbitrary {
    use std::rc::Rc;

    use crate::strategy::BoxedStrategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy (mirrors
    /// `proptest::arbitrary::Arbitrary`).
    pub trait Arbitrary: Sized + 'static {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.bits() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.bits() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> BoxedStrategy<T> {
        BoxedStrategy(Rc::new(|rng| T::arbitrary(rng)))
    }
}

pub mod collection {
    use std::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Accepted sizes for collection strategies: an exact count or a
    /// half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    /// Generates `Vec`s of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.lo + rng.index(self.size.hi_exclusive - self.size.lo);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Mirror of the `prop` module alias exported by the real prelude.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Fails the current test case with a formatted message unless `cond`
/// holds. Only usable inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?} == {:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Inequality assertion for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?} != {:?}`",
            left,
            right
        );
    }};
}

/// Rejects the current case (vacuous input) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among several strategies generating the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::union(::std::vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `config.cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    // Internal: no test functions left.
    (@munch ($cfg:expr)) => {};

    // Internal: one test function, then recurse on the rest.
    (@munch ($cfg:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(::std::stringify!($name));
            $(let $arg = $strat;)*
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < config.cases {
                $(let $arg =
                    $crate::strategy::Strategy::generate(&$arg, &mut rng);)*
                let outcome = (|| -> ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject,
                    ) => {
                        rejected += 1;
                        if rejected > config.max_global_rejects {
                            ::std::panic!(
                                "proptest: too many rejected cases ({})",
                                rejected
                            );
                        }
                    }
                    ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(message),
                    ) => {
                        ::std::panic!(
                            "proptest case {} failed: {}",
                            passed + 1,
                            message
                        );
                    }
                }
            }
        }
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };

    // Entry with an explicit config.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };

    // Entry with the default config.
    ($($rest:tt)*) => {
        $crate::proptest!(
            @munch ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn string_pattern_respects_class_and_bounds() {
        let mut rng = TestRng::for_test("string_pattern");
        for _ in 0..200 {
            let s = "[a-c]{2,5}".generate(&mut rng);
            assert!((2..=5).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn string_pattern_handles_escapes_and_ranges() {
        let mut rng = TestRng::for_test("escapes");
        for _ in 0..200 {
            let s = "[ -~\n]{0,10}".generate(&mut rng);
            assert!(s.len() <= 10);
            assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::for_test("ranges");
        for _ in 0..200 {
            let (a, b) = (0usize..3, -5i64..5).generate(&mut rng);
            assert!(a < 3);
            assert!((-5..5).contains(&b));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::for_test("vecs");
        for _ in 0..100 {
            let v = prop::collection::vec(0usize..4, 1..7).generate(&mut rng);
            assert!((1..7).contains(&v.len()));
            let exact = prop::collection::vec(0usize..4, 3).generate(&mut rng);
            assert_eq!(exact.len(), 3);
        }
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                prop::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = TestRng::for_test("trees");
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_assertions_work(x in 0usize..100, flip in any::<bool>()) {
            prop_assume!(x != 50);
            prop_assert!(x < 100);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
            if flip {
                return Ok(());
            }
        }
    }
}
