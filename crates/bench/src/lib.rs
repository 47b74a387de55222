//! # tab-bench-harness
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper (see `DESIGN.md` §4 for the experiment index). The heavy
//! lifting lives in [`repro`]; the `repro` binary is a thin CLI over it,
//! and the Criterion benches reuse the same helpers. [`gate`] holds the
//! byte-identical contract every change is checked against (`tab gate`);
//! [`serve_bench`] is the serving proof behind its `serve` row.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod converge;
pub mod gate;
pub mod replay;
pub mod repro;
pub mod serve_bench;
