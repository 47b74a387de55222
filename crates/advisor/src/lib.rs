//! # tab-advisor
//!
//! Configuration recommenders and baseline configurations for
//! `tab-bench`:
//!
//! - [`config_builders`]: the paper's `P` (primary keys only) and `1C`
//!   (all single-column indexes) configurations;
//! - [`candidates`]: per-workload candidate generation in three styles;
//! - [`greedy`]: the shared what-if greedy knapsack search;
//! - [`whatif`]: the memoized, thread-safe what-if evaluation service
//!   the search prices candidates through;
//! - [`profiles`]: the three recommender profiles standing in for the
//!   paper's anonymous commercial Systems A, B, and C.

#![warn(missing_docs)]

pub mod candidates;
pub mod config_builders;
pub mod greedy;
pub mod profiles;
pub mod whatif;

pub use candidates::{generate as generate_candidates, Candidate, CandidateStyle};
pub use config_builders::{one_column_configuration, p_configuration};
pub use greedy::{
    candidate_bytes, greedy_select, GreedyOptions, Objective, RoundStats, SearchStats,
};
pub use profiles::{profile, AdvisorInput, Recommender, SearchLimits, SystemA, SystemB, SystemC};
pub use whatif::{WhatIfService, WhatIfStats};
