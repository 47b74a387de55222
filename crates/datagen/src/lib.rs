//! # tab-datagen
//!
//! Deterministic data generators for the `tab-bench` benchmarks:
//!
//! - [`generate_nref`]: a synthetic stand-in for the NREF 1.34 protein
//!   database (real data no longer distributed in the paper's form)
//!   preserving the schema, cardinality ratios, shared domains, and
//!   value skew the benchmark depends on;
//! - [`generate_tpch`]: the eight-table TPC-H schema with uniform or
//!   Zipf(θ)-skewed values (the paper's SkTH / UnTH databases);
//! - [`Zipf`]: the Zipf sampler both generators use.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod nref;
mod tpch;
mod zipf;

pub use nref::{generate as generate_nref, generate_checked as generate_nref_checked, NrefParams};
pub use tpch::{
    generate as generate_tpch, generate_checked as generate_tpch_checked, Distribution, TpchParams,
};
pub use zipf::Zipf;
