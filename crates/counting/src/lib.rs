//! Minimal arbitrary-precision unsigned integers.
//!
//! The VLDB 2012 evaluation (Figure 11a) reports that the number of
//! transformations consistent with a single input-output example routinely
//! reaches 10^30, far beyond `u128`. Counting the programs represented by the
//! `Dt`/`Du` data structures therefore needs a big integer. Pulling in a full
//! bignum crate would be overkill (and the offline crate set does not include
//! one), so this crate provides the handful of operations counting needs:
//! construction, addition, multiplication, comparison, decimal/scientific
//! formatting and a lossy `f64` view for plotting.

#![forbid(unsafe_code)]

mod biguint;

pub use biguint::BigUint;
