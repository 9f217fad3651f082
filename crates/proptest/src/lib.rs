//! Offline vendored stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this crate implements the
//! subset of proptest this workspace's property tests use:
//!
//! * the `proptest!` macro (with `#![proptest_config(...)]`), plus
//!   `prop_assert!`, `prop_assert_eq!` and `prop_assume!`;
//! * integer range strategies (`0u64..`, `3usize..8`);
//! * string strategies from regex-lite patterns (`"[A-Z][a-z]{2,6}"` —
//!   character classes, literals and `{m,n}` repetition only);
//! * `prop::collection::vec` and `prop::sample::select`.
//!
//! Generation is pseudo-random but **deterministic**: each test derives its
//! RNG seed from the test name, so failures reproduce across runs. Shrinking
//! is not implemented — failing inputs are printed instead. Swap for the
//! real crate when a registry is available; test sources need no changes.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeFrom};

/// Deterministic splitmix64 generator.
pub struct TestRng(u64);

impl TestRng {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Seeds a test's RNG from its name (stable across runs).
pub fn test_rng(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    TestRng(h)
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; try another case.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator.
pub trait Strategy {
    /// Generated value type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_strategies {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u128;
                assert!(span > 0, "empty range strategy");
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                loop {
                    let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                    let v = (wide % (<$t>::MAX as u128 + 1)) as $t;
                    if v >= self.start {
                        return v;
                    }
                }
            }
        }
    )+};
}

int_strategies!(u8, u16, u32, u64, usize);

impl Strategy for Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        let span = self.end - self.start;
        assert!(span > 0, "empty range strategy");
        let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        self.start + wide % span
    }
}

impl Strategy for RangeFrom<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        loop {
            let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            if wide >= self.start {
                return wide;
            }
        }
    }
}

/// String generation from a regex-lite pattern: character classes
/// (`[a-z0-9 ,./-]`), literal characters and `{m}` / `{m,n}` repetition.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_pattern(self, rng)
    }
}

fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // One element: a class or a literal.
        let choices: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .expect("unclosed class in pattern")
                + i;
            let body = &chars[i + 1..close];
            i = close + 1;
            expand_class(body)
        } else {
            let c = chars[i];
            i += 1;
            vec![c]
        };
        // Optional repetition.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .expect("unclosed repetition")
                + i;
            let spec: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match spec.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse::<usize>().expect("bad repetition"),
                    n.trim().parse::<usize>().expect("bad repetition"),
                ),
                None => {
                    let n = spec.trim().parse::<usize>().expect("bad repetition");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        let n = lo + rng.below((hi - lo + 1) as u64) as usize;
        for _ in 0..n {
            out.push(choices[rng.below(choices.len() as u64) as usize]);
        }
    }
    out
}

fn expand_class(body: &[char]) -> Vec<char> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if i + 2 < body.len() && body[i + 1] == '-' {
            let (lo, hi) = (body[i] as u32, body[i + 2] as u32);
            assert!(lo <= hi, "inverted class range");
            out.extend((lo..=hi).filter_map(char::from_u32));
            i += 3;
        } else {
            // `-` as the first/last member is a literal.
            out.push(body[i]);
            i += 1;
        }
    }
    assert!(!out.is_empty(), "empty character class");
    out
}

/// Strategy combinators namespaced like the real crate.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Vec of values drawn from `element`, with length in `len`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// See [`vec`].
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let n = Strategy::generate(&self.len, rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use super::super::{Strategy, TestRng};

        /// Uniformly selects one of the given values.
        pub fn select<T: Clone>(options: Vec<T>) -> SelectStrategy<T> {
            assert!(!options.is_empty(), "select() needs at least one option");
            SelectStrategy { options }
        }

        /// See [`select`].
        pub struct SelectStrategy<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for SelectStrategy<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.options[rng.below(self.options.len() as u64) as usize].clone()
            }
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Asserts inside a proptest case (returns an error instead of panicking so
/// the harness can report the generated inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}: {}",
                l, r, format!($($fmt)+)
            )));
        }
    }};
}

/// Rejects the current case (skips it without counting as a run).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Defines property tests. Mirrors proptest's surface syntax for the forms
/// used in this workspace.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(stringify!($name));
            let mut accepted = 0u32;
            let mut attempts = 0u32;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(20).max(100),
                    "proptest: too many rejected cases in {}",
                    stringify!($name)
                );
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)+
                let shown_inputs =
                    [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", ");
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject) => continue,
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("proptest case failed: {msg}\ninputs: {shown_inputs}");
                    }
                }
            }
        }
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
}
