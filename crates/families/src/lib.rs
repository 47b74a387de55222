//! # tab-families
//!
//! Template-generated query families for the `tab-bench` workloads
//! (§3.2.2 of the paper): NREF2J, NREF3J, SkTH3J, SkTH3Js, and UnTH3J,
//! together with the constant-selection procedure (`k1/k2/k3` magnitude
//! tiers taken from the actual data) and the distribution-preserving
//! 100-query sampler of §4.1.1.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod columns;
pub mod constants;
mod family;
mod nref2j;
mod nref3j;
mod sample;
mod th3j;

pub use family::Family;
pub use sample::sample_preserving;
