//! Offline shim for `proptest` (see `shims/README.md`).
//!
//! Implements the surface this workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_filter`, range and tuple
//! strategies, `collection::vec`, `bool::ANY`, and the `proptest!`,
//! `prop_assert!`, `prop_assert_eq!` macros. Unlike real proptest there
//! is no shrinking: a failing case panics with its case index and seed,
//! which is reproducible because generation is fully deterministic
//! (splitmix64 keyed on the case index). Case count defaults to 64 and
//! honours `PROPTEST_CASES`.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Value`.
    ///
    /// `try_gen` returns `None` when a `prop_filter` rejects the draw;
    /// the runner retries with fresh entropy.
    pub trait Strategy: Sized {
        type Value;

        fn try_gen(&self, rng: &mut TestRng) -> Option<Self::Value>;

        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F> {
            Map { inner: self, f }
        }

        fn prop_filter<P: Fn(&Self::Value) -> bool>(
            self,
            reason: &'static str,
            pred: P,
        ) -> Filter<Self, P> {
            Filter {
                inner: self,
                pred,
                reason,
            }
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn try_gen(&self, rng: &mut TestRng) -> Option<O> {
            self.inner.try_gen(rng).map(&self.f)
        }
    }

    pub struct Filter<S, P> {
        inner: S,
        pred: P,
        #[allow(dead_code)]
        reason: &'static str,
    }

    impl<S: Strategy, P: Fn(&S::Value) -> bool> Strategy for Filter<S, P> {
        type Value = S::Value;
        fn try_gen(&self, rng: &mut TestRng) -> Option<S::Value> {
            let v = self.inner.try_gen(rng)?;
            if (self.pred)(&v) {
                Some(v)
            } else {
                None
            }
        }
    }

    /// Always produces the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn try_gen(&self, _rng: &mut TestRng) -> Option<T> {
            Some(self.0.clone())
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn try_gen(&self, rng: &mut TestRng) -> Option<f64> {
            assert!(self.start < self.end, "empty f64 strategy range");
            Some(self.start + (self.end - self.start) * rng.unit_f64())
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn try_gen(&self, rng: &mut TestRng) -> Option<f32> {
            assert!(self.start < self.end, "empty f32 strategy range");
            Some(self.start + (self.end - self.start) * rng.unit_f64() as f32)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn try_gen(&self, rng: &mut TestRng) -> Option<$t> {
                    assert!(self.start < self.end, "empty int strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    Some((self.start as i128 + off as i128) as $t)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($s:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn try_gen(&self, rng: &mut TestRng) -> Option<Self::Value> {
                    let ($($s,)+) = self;
                    Some(($($s.try_gen(rng)?,)+))
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn try_gen(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = (self.size.end - self.size.start) as u64;
            let n = self.size.start + (rng.next_u64() % span) as usize;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                // Give each element its own filter-retry budget.
                let mut slot = None;
                for _ in 0..100 {
                    if let Some(v) = self.element.try_gen(rng) {
                        slot = Some(v);
                        break;
                    }
                }
                out.push(slot?);
            }
            Some(out)
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Uniform `bool`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn try_gen(&self, rng: &mut TestRng) -> Option<bool> {
            Some(rng.next_u64() & 1 == 1)
        }
    }
}

pub mod test_runner {
    use std::fmt;

    /// Deterministic splitmix64 stream; each test case gets its own seed
    /// so failures reproduce regardless of case count.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_case(case: u64) -> Self {
            TestRng {
                state: 0x7567_7063_7072_6f70 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1) with 53-bit precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// A failed `prop_assert!`; carries the formatted message.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        pub fn fail(message: String) -> Self {
            TestCaseError { message }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    pub struct TestRunner {
        cases: u64,
    }

    impl Default for TestRunner {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            TestRunner { cases }
        }
    }

    impl TestRunner {
        pub fn cases(&self) -> u64 {
            self.cases
        }

        pub fn rng_for(&self, case: u64) -> TestRng {
            TestRng::from_case(case)
        }
    }

    /// Retry a strategy until it yields a value or the rejection budget
    /// is exhausted (mirrors proptest's "too many local rejects").
    pub fn generate<S: crate::strategy::Strategy>(
        strategy: &S,
        rng: &mut TestRng,
        what: &str,
    ) -> S::Value {
        for _ in 0..1000 {
            if let Some(v) = strategy.try_gen(rng) {
                return v;
            }
        }
        panic!("strategy for `{what}` rejected 1000 consecutive draws");
    }
}

#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let runner = $crate::test_runner::TestRunner::default();
                for case in 0..runner.cases() {
                    let mut rng = runner.rng_for(case);
                    $(
                        let $arg = $crate::test_runner::generate(
                            &($strat), &mut rng, stringify!($arg),
                        );
                    )*
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = result {
                        panic!(
                            "proptest case {case}/{total} failed: {e}",
                            total = runner.cases(),
                        );
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r,
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` (both: `{:?}`)",
                stringify!($left),
                stringify!($right),
                l,
            )));
        }
    }};
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (f64, usize)> {
        (0.0..1.0f64, 3usize..10)
            .prop_map(|(x, n)| (x * 2.0, n))
            .prop_filter("n even", |&(_, n)| n % 2 == 0)
    }

    proptest! {
        #[test]
        fn ranges_in_bounds(x in -2.0..3.0f64, n in 1usize..7) {
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert!((1..7).contains(&n));
        }

        /// Doc comments are accepted before the test attribute.
        #[test]
        fn combinators_compose(pair in arb_pair()) {
            let (x, n) = pair;
            prop_assert!((0.0..2.0).contains(&x), "x out of range: {x}");
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn vec_sizes(v in crate::collection::vec(0u8..3, 2..6), b in crate::bool::ANY) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 3));
            let _ = b;
        }
    }

    #[test]
    fn determinism() {
        let mut a = crate::test_runner::TestRng::from_case(5);
        let mut b = crate::test_runner::TestRng::from_case(5);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "rejected 1000 consecutive draws")]
    fn impossible_filter_panics() {
        let strat = (0usize..5).prop_filter("never", |_| false);
        let mut rng = crate::test_runner::TestRng::from_case(0);
        let _ = crate::test_runner::generate(&strat, &mut rng, "x");
    }
}
