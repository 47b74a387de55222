//! # tab-core
//!
//! The paper's contribution, as a library: a benchmarking framework for
//! autonomic configuration recommenders.
//!
//! - [`cfc`] — cumulative frequency curves of query elapsed times and
//!   first-order stochastic dominance between configurations (§2.2);
//! - [`goal`] — performance goals as monotone constraints on CFC curves
//!   (Example 2);
//! - [`histogram`] — log-binned elapsed-time histograms with the `t_out`
//!   bin (Figures 1–2) and decade-binned ratio histograms (Figure 11);
//! - [`measure`] — workload-level `A`/`E`/`H` measurement, timeout lower
//!   bounds (§4.3), and improvement ratios AIR/EIR/HIR (§5.2);
//! - [`experiment`] — the benchmark suite: the [`BenchSpec`] every run
//!   is measured under, the three databases, the `P`/`1C`
//!   configurations, space budgets, workload sampling, and the §4.4
//!   insertion break-even analysis;
//! - [`args`] — the one command-line parser every binary shares;
//! - [`report`] — CSV output and ASCII figure rendering.
//!
//! The crate also re-exports the structured tracing layer
//! ([`Trace`], [`TraceSink`], and friends from `tab-storage`) so the
//! harness and CLI have one import surface for observability.

#![deny(missing_docs)]

pub mod args;
pub mod cfc;
pub mod checkpoint;
pub mod convergence;
pub mod experiment;
pub mod goal;
pub mod grid;
pub mod histogram;
pub mod measure;
pub mod report;

pub use args::{Accepts, Args};
pub use cfc::Cfc;
pub use checkpoint::{CheckpointError, CheckpointJournal};
pub use convergence::{
    convergence_csv_rows, convergence_json, fig12_csv_rows, render_convergence_curve,
    render_convergence_table, ConvergenceCurve, CurvePoint, FIG12_HEADER,
};
pub use experiment::{
    build_1c, build_1c_par, build_p, insertion_breakeven, per_insert_cost, prepare_workload,
    prepare_workload_db, prepare_workload_db_with, space_budget, table1_row, BenchSpec,
    InsertionAnalysis, Suite, Table1Row,
};
pub use goal::Goal;
pub use grid::{
    io_bench_json, run_grid, timings_json, CellTiming, FailedCell, GridCell, GridError, IoBenchCell,
};
pub use histogram::{LogHistogram, RatioHistogram};
pub use measure::{
    estimate_workload, estimate_workload_hypothetical, improvement_ratios, run_update_workload,
    run_workload, UpdateWorkloadRun, WorkloadOp, WorkloadRun,
};
pub use tab_storage::Parallelism;
pub use tab_storage::{atomic_write, FaultPlan, Faults, JobPanic};
pub use tab_storage::{read_trace, SkippedLine, TraceDoc, TraceRecord};
pub use tab_storage::{FileTraceSink, MemoryTraceSink, Trace, TraceSink};
