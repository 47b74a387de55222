//! # tab-engine
//!
//! The relational query engine substrate for `tab-bench`: name binding,
//! a cost-based optimizer (access paths, join order, materialized-view
//! rewrites), a page-charging executor with timeout support, and the
//! *what-if* estimation interface that configuration recommenders build
//! on.
//!
//! The paper's three cost functions map onto this crate as:
//!
//! | paper | here |
//! |-------|------|
//! | `A(q, C)` | [`Session::run`] — actual execution, metered |
//! | `E(q, C)` | [`Session::estimate`] — real statistics |
//! | `H(q, Ch, Ca)` | [`estimate_hypothetical`] — synthesized statistics |

#![deny(missing_docs)]

pub mod catalog;
pub mod cost;
pub mod dml;
pub mod exec;
pub mod explain;
pub mod naive;
pub mod plan;
pub mod planner;
pub mod session;
pub mod shared;
pub mod stats_view;

pub use catalog::{bind, BindError, BoundQuery};
pub use cost::{
    units_to_sim_seconds, ChargePolicy, CostMeter, Outcome, TimedOut, DEFAULT_TIMEOUT_UNITS,
    RANDOM_PAGE_COST, ROW_COST, SEQ_PAGE_COST, SIM_SECONDS_PER_UNIT,
};
pub use dml::{apply_insert, validate_insert, InsertOutcome};
pub use exec::{execute, ExecOpts, OpActuals, PoolOpts, Resolver, DEFAULT_MORSEL_ROWS};
pub use explain::render_explain;
pub use plan::{OpEstimate, PhysicalPlan};
pub use planner::{plan, plan_explained, PlanChoice, PlanExplanation};
pub use session::{
    estimate_hypothetical, estimate_hypothetical_layered, ExecKey, RunResult, Session,
};
pub use shared::{
    EngineSnapshot, EngineState, KeyedInsert, RecoverError, SharedEngine, SharedInsert,
    WalRecoveryReport,
};
pub use stats_view::{HypotheticalStats, RealStats, StatsView};
