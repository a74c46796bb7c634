//! Offline stand-in for `proptest`.
//!
//! Re-implements the slice of the proptest 1.x API the workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`, range/tuple/`Just`
//! strategies, `prop::collection::vec`, `prop::option::of`, `any::<T>()`,
//! [`ProptestConfig::with_cases`], and the `proptest!` / `prop_oneof!` /
//! `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Differences from the real crate: inputs are drawn from a fixed
//! deterministic seed per test (derived from the test name), failures are
//! reported by panicking with the failing case index, and there is **no
//! shrinking** — the first failing input is reported as-is.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each test in the block `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating random values of one type.
///
/// Object-safe: `generate` takes `&self`, and the combinator methods carry
/// `Self: Sized`, so `Box<dyn Strategy<Value = T>>` works (used by
/// `prop_oneof!`).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform every generated value through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy (mirrors proptest's `BoxedStrategy`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        (**self).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between type-erased alternatives (`prop_oneof!`).
pub struct OneOf<T> {
    alternatives: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Build from a non-empty list of alternatives.
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !alternatives.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        OneOf { alternatives }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.alternatives.len());
        self.alternatives[i].generate(rng)
    }
}

// Integer ranges are strategies: `0u64..500`, `-50i64..50`, ...
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// Tuples of strategies generate tuples of values.
macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_via_gen {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen()
            }
        }
    )*};
}
impl_arbitrary_via_gen!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);

/// Strategy returned by [`any`].
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`: `any::<u8>()` etc.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// The `prop::` namespace (`prop::collection::vec`, `prop::option::of`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;
        use std::ops::Range;

        /// Length specification for [`vec()`]: a fixed `usize` or `lo..hi`.
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
                assert!(r.start < r.end, "empty vec size range");
                SizeRange {
                    lo: r.start,
                    hi_exclusive: r.end,
                }
            }
        }

        /// Strategy for `Vec<T>` with element strategy `S`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Vectors of `element` values with length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use crate::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy for `Option<T>`; `None` with probability 1/4 (close to
        /// real proptest's default weighting).
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
                if rng.gen_range(0u8..4) == 0 {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }

        /// `Some(inner)` most of the time, `None` occasionally.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }
    }
}

/// Deterministic per-test RNG: FNV-1a over the test path, so every test has
/// its own reproducible stream independent of declaration order.
pub fn rng_for_test(test_path: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `fn name(param in strategy, ...) { body }` items (with outer attributes,
/// typically `#[test]` and doc comments).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

/// Internal: expand one test item at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($param:ident in $strategy:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
            $(let $param = $strategy;)+
            for __case in 0..__config.cases {
                $(let $param = $crate::Strategy::generate(&$param, &mut __rng);)+
                let __run = ::std::panic::AssertUnwindSafe(|| { $body });
                if let Err(__payload) = ::std::panic::catch_unwind(__run) {
                    eprintln!(
                        "proptest: test {} failed at case {}/{} (no shrinking in offline shim)",
                        stringify!($name), __case + 1, __config.cases,
                    );
                    ::std::panic::resume_unwind(__payload);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($alternative:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($alternative)),+])
    };
}

/// Assert inside a property test (panics on failure; no early-return shrink
/// machinery in the offline shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Act {
        Go { speed: usize },
        Stop,
    }

    fn act_strategy() -> impl Strategy<Value = Act> {
        prop_oneof![
            (0usize..10, 0usize..3).prop_map(|(speed, _)| Act::Go { speed }),
            Just(Act::Stop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(x in -50i64..50, y in 1usize..7) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!((1..7).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_spec(
            xs in prop::collection::vec(any::<u8>(), 1..20),
            fixed in prop::collection::vec(0u8..3, 4),
            maybe in prop::option::of(0i64..30),
        ) {
            prop_assert!((1..20).contains(&xs.len()));
            prop_assert_eq!(fixed.len(), 4);
            if let Some(v) = maybe {
                prop_assert!((0..30).contains(&v));
            }
        }

        #[test]
        fn oneof_covers_alternatives(acts in prop::collection::vec(act_strategy(), 40..60)) {
            prop_assert!(acts.iter().any(|a| matches!(a, Act::Go { .. })));
            prop_assert!(acts.iter().any(|a| *a == Act::Stop));
            for a in &acts {
                if let Act::Go { speed } = a {
                    prop_assert!(*speed < 10, "speed {} out of range", speed);
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = (0u64..1000).prop_map(|v| v * 2);
        let mut a = crate::rng_for_test("x");
        let mut b = crate::rng_for_test("x");
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    #[should_panic]
    fn failing_property_panics() {
        proptest! {
            #[allow(unused)]
            fn inner(x in 0u8..10) {
                prop_assert!(x < 5);
            }
        }
        inner();
    }
}
