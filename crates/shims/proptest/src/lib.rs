//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate (API subset).
//!
//! The build environment has no crates-registry access, so this shim
//! implements exactly the surface the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]`, multiple
//!   `#[test]` functions, `pattern in strategy` arguments);
//! * [`Strategy`] with `prop_map` / `prop_flat_map`, range strategies for
//!   the integer/float types in use, [`Just`], tuple strategies up to
//!   arity 6, and [`prop::collection::vec`];
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Semantics: each test body runs for [`ProptestConfig::cases`] randomly
//! generated inputs from a deterministic per-test RNG (seeded from the
//! test's name so runs are reproducible). **No shrinking** is performed —
//! on failure the panic message reports the raw assertion only. That is a
//! deliberate simplification: these tests assert statistical and
//! structural invariants where the failing case is cheap to re-run.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Runner configuration (`cases` only).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Builds the deterministic RNG for a named test.
pub fn test_rng(test_name: &str) -> SmallRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    SmallRng::seed_from_u64(h)
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut SmallRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into `f` to build a dependent strategy.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut SmallRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut SmallRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Strategy yielding a clone of a fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(*self.start()..*self.end() + <$t>::from(1u8))
            }
        }
    )*};
}

range_strategy!(usize, u64, u32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident/$idx:tt),+ );)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A/0, B/1);
    (A/0, B/1, C/2);
    (A/0, B/1, C/2, D/3);
    (A/0, B/1, C/2, D/3, E/4);
    (A/0, B/1, C/2, D/3, E/4, F/5);
}

/// Namespaced strategy constructors (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::SmallRng;
        use rand::Rng;
        use std::ops::{Range, RangeInclusive};

        /// Half-open length range for collection strategies; converts
        /// from `usize` (exact), `Range<usize>`, and
        /// `RangeInclusive<usize>`.
        #[derive(Clone, Debug)]
        pub struct SizeRange(Range<usize>);

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange(n..n + 1)
            }
        }
        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                SizeRange(r)
            }
        }
        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                SizeRange(*r.start()..*r.end() + 1)
            }
        }

        /// Strategy for `Vec`s with lengths drawn from `len`.
        pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                len: len.into().0,
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut SmallRng) -> Vec<S::Value> {
                let n = if self.len.is_empty() {
                    self.len.start
                } else {
                    rng.gen_range(self.len.clone())
                };
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Common imports for property tests.
pub mod prelude {
    pub use super::prop;
    pub use super::{Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ..)`
/// runs its body over randomly sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let _ = __case;
                $(let $pat = $crate::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens(max: usize) -> impl Strategy<Value = usize> {
        (0..max).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in 0.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn map_and_flat_map(v in evens(50).prop_flat_map(|n| (Just(n), prop::collection::vec(0..n + 1, 0..5)))) {
            let (n, items) = v;
            prop_assert_eq!(n % 2, 0);
            prop_assert!(items.len() < 5);
            for i in items {
                prop_assert!(i <= n);
                prop_assert_ne!(i, n + 1);
            }
        }

        #[test]
        fn tuple_patterns((a, b) in (0usize..5, 10usize..15)) {
            prop_assert!(a < 5 && (10..15).contains(&b));
        }
    }
}
