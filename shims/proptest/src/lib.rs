//! Minimal offline stand-in for `proptest`.
//!
//! Implements the generation side of the proptest API surface used by
//! the workspace: the [`strategy::Strategy`] trait with `prop_map` /
//! `prop_flat_map` / `prop_filter` / `prop_recursive`, range and tuple
//! strategies, regex-subset string strategies, `any::<T>()`,
//! `prop::collection::{vec, btree_map}`, and the `proptest!`,
//! `prop_assert*!`, `prop_assume!` and `prop_oneof!` macros.
//!
//! Differences from upstream: failing cases are reported by panic (no
//! shrinking), and the case count defaults to 64 (`PROPTEST_CASES`
//! overrides). Each case draws from its own seed, a stable hash of the
//! test name and the case index (`PROPTEST_SEED` reseeds them all); a
//! failing case prints a `PROPTEST_REPLAY=<seed>` line that reruns it
//! alone.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The proptest prelude: everything property tests normally import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Namespace mirror so `prop::collection::vec(..)` works.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each function body runs for
/// [`test_runner::cases`] generated inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                for (case, seed) in $crate::test_runner::case_seeds(stringify!($name)) {
                    let mut rng = $crate::test_runner::TestRng::seeded(seed);
                    let _replay = $crate::test_runner::ReplayOnPanic {
                        package: env!("CARGO_PKG_NAME"),
                        module: module_path!(),
                        name: stringify!($name),
                        case,
                        seed,
                    };
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    $body
                }
            }
        )+
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Skips the current generated case when an assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
