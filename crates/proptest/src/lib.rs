//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the subset of proptest it actually uses: the [`proptest!`]
//! macro (with optional `#![proptest_config(..)]` header), the
//! [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`,
//! integer-range and [`strategy::Just`] strategies, [`prop_oneof!`],
//! [`collection::vec`], simple character-class string strategies
//! (`"[ -~\n\t]{0,400}"`-style patterns), and the
//! `prop_assert!`/`prop_assert_eq!` assertion macros.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports the case number and the
//!   deterministic per-case seed instead of a minimized input.
//! * **Deterministic by default.** Case seeds derive from the test's
//!   module path + name + case index, so failures reproduce exactly on
//!   re-run. Set `PROPTEST_CASES` to change the case count.

#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The `use proptest::prelude::*` surface.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the current property case with a message when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current property case when the two values are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
            stringify!($left), stringify!($right), left, right, format!($($fmt)*)
        );
    }};
}

/// Fails the current property case when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running the body over many generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let cases = $crate::test_runner::resolve_cases(config.cases);
            let test_id = concat!(module_path!(), "::", stringify!($name));
            // Strategies are built once, outside the case loop: building
            // one never touches the RNG, and recursive strategies are
            // expensive to build. Each case's `let` shadows the strategy
            // with the value it generates.
            $(let $arg = $strategy;)*
            for case in 0..cases {
                let mut __rng = $crate::test_runner::case_rng(test_id, case);
                $(let $arg = $crate::strategy::Strategy::generate(&$arg, &mut __rng);)*
                let outcome = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "[proptest] {} failed at case {}/{} (deterministic; rerun reproduces it):\n{}",
                        stringify!($name), case + 1, cases, e
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::case_rng;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(a in 3u32..17, b in 0usize..5, c in 1u64..=9) {
            prop_assert!((3..17).contains(&a));
            prop_assert!(b < 5);
            prop_assert!((1..=9).contains(&c));
        }

        #[test]
        fn maps_apply(v in (1u32..10).prop_map(|x| x * 2)) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!((2..20).contains(&v));
        }

        #[test]
        fn flat_maps_chain(v in (1usize..5).prop_flat_map(|n| crate::collection::vec(0u32..10, n))) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn oneof_picks_all_variants(v in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1..=3).contains(&v));
        }

        #[test]
        fn string_patterns_match_class(s in "[a-c]{2,5}") {
            prop_assert!((2..=5).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 7, ..ProptestConfig::default() })]
        #[test]
        fn config_header_is_accepted(x in 0u32..100) {
            prop_assert!(x < 100);
        }
    }

    thread_local! {
        /// Every value the property below was handed, in case order.
        static SEEN: std::cell::RefCell<Vec<(u32, u64)>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]
        fn records_its_arguments(a in 0u32..1000, b in (0u64..1 << 40).prop_map(|x| x * 3)) {
            SEEN.with(|seen| seen.borrow_mut().push((a, b)));
            prop_assert_eq!(b % 3, 0);
        }
    }

    #[test]
    fn property_arguments_are_generated_from_case_rng() {
        records_its_arguments();
        let id = concat!(module_path!(), "::records_its_arguments");
        let expected: Vec<(u32, u64)> = (0..crate::test_runner::resolve_cases(5))
            .map(|case| {
                let mut rng = case_rng(id, case);
                let a = (0u32..1000).generate(&mut rng);
                let b = (0u64..1 << 40).prop_map(|x| x * 3).generate(&mut rng);
                (a, b)
            })
            .collect();
        assert_eq!(SEEN.with(|seen| seen.take()), expected);
    }

    #[test]
    fn case_rngs_are_deterministic() {
        use rand::RngCore;
        let mut a = case_rng("t", 3);
        let mut b = case_rng("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = case_rng("t", 4);
        assert_ne!(case_rng("t", 3).next_u64(), c.next_u64());
    }

    #[test]
    fn oneof_eventually_picks_each_variant() {
        let strat = prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut seen = [false; 3];
        for case in 0..200 {
            let mut rng = case_rng("oneof", case);
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }
}
