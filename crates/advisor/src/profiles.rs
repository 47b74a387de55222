//! The three recommender profiles: Systems A, B, and C.
//!
//! The paper anonymizes two commercial RDBMSs ("the systems tested,
//! which we call Systems A and B"; "we selected one of the two systems
//! for the second experiment, which we will refer to as System C").
//! We model them as three advisor profiles spanning the architecture
//! space of the 2005 tools — all three share the what-if greedy search
//! (and therefore its estimation blind spots), and differ in candidate
//! generation exactly as the published tool papers differ:
//!
//! | profile | candidates | modeled after |
//! |---------|------------|---------------|
//! | `SystemA` | single-column + narrow merges, with a workload-size capacity limit | AutoAdmin-style per-query candidate selection |
//! | `SystemB` | wide covering indexes | DB2 Advisor-style index-only search |
//! | `SystemC` | covering indexes + materialized views + indexes on views | Design-Advisor-style integrated selection |
//!
//! `SystemA`'s capacity limit reproduces §4.2's observation that one
//! recommender "did not output any recommended configuration at all" for
//! the NREF3J 100-query workload while succeeding on some smaller
//! subsets of it.

use tab_sqlq::Query;
use tab_storage::{BuiltConfiguration, Configuration, Database, Parallelism, Trace};

use crate::candidates::{generate, CandidateStyle};
use crate::greedy::{greedy_select, GreedyOptions, SearchStats};

/// Input to a recommendation request (§2.1's task definition).
pub struct AdvisorInput<'a> {
    /// The database, with statistics collected.
    pub db: &'a Database,
    /// The currently built configuration (the paper always starts from
    /// `P`).
    pub current: &'a BuiltConfiguration,
    /// The workload `W`.
    pub workload: &'a [Query],
    /// Storage budget in bytes (the paper uses `size(1C) − size(P)`).
    pub budget_bytes: u64,
    /// Thread budget for the what-if candidate fan-out. The
    /// recommendation is identical at any setting.
    pub par: Parallelism,
    /// Structured trace receiving advisor round events. Tracing is
    /// observational only; [`Trace::disabled()`] is the zero-cost
    /// default.
    pub trace: Trace<'a>,
}

/// Explicit resource limits on one recommendation request — the
/// convergence harness's knobs. The default is unlimited in both
/// dimensions (beyond each profile's own stopping rules), which is what
/// every pre-existing `recommend` call gets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchLimits {
    /// Cap on accepted structures (greedy rounds); `None` keeps the
    /// profile's default.
    pub max_structures: Option<usize>,
    /// Cap on what-if cost requests, checked between rounds; `None`
    /// leaves the search unbudgeted. See
    /// [`GreedyOptions::max_whatif_calls`].
    pub max_whatif_calls: Option<u64>,
}

/// A configuration recommender.
pub trait Recommender {
    /// The profile's display name (`A`, `B`, or `C`).
    fn name(&self) -> &'static str;

    /// Produce a recommendation, or `None` when the tool gives up —
    /// which the paper observed in practice (§4.2).
    fn recommend(&self, input: &AdvisorInput<'_>) -> Option<Configuration> {
        self.recommend_with_stats(input).0
    }

    /// [`Recommender::recommend`], also returning the greedy search's
    /// [`SearchStats`] (all zero when the tool gives up before
    /// searching).
    fn recommend_with_stats(
        &self,
        input: &AdvisorInput<'_>,
    ) -> (Option<Configuration>, SearchStats) {
        self.recommend_budgeted(input, SearchLimits::default())
    }

    /// [`Recommender::recommend_with_stats`] under explicit
    /// [`SearchLimits`] — how the convergence harness sweeps a what-if
    /// budget ladder without re-deriving candidates per profile.
    fn recommend_budgeted(
        &self,
        input: &AdvisorInput<'_>,
        limits: SearchLimits,
    ) -> (Option<Configuration>, SearchStats);
}

/// The shared per-profile search options: the caller's thread budget and
/// explicit limits on top of the defaults.
fn search_options(input: &AdvisorInput<'_>, limits: SearchLimits) -> GreedyOptions {
    let base = GreedyOptions::default();
    GreedyOptions {
        par: input.par,
        max_structures: limits.max_structures.unwrap_or(base.max_structures),
        max_whatif_calls: limits.max_whatif_calls,
        ..base
    }
}

/// System A: per-query single-column candidates with a hard capacity
/// limit on `|workload| × |candidates|`.
#[derive(Debug, Clone, Copy)]
pub struct SystemA {
    /// The capacity limit. The default is calibrated so that the
    /// benchmark's NREF2J workload fits and NREF3J's (self-join-heavy,
    /// larger candidate sets) does not — matching §4.2.
    pub capacity_limit: usize,
}

impl Default for SystemA {
    fn default() -> Self {
        SystemA {
            capacity_limit: 4_000,
        }
    }
}

impl Recommender for SystemA {
    fn name(&self) -> &'static str {
        "A"
    }

    fn recommend_budgeted(
        &self,
        input: &AdvisorInput<'_>,
        limits: SearchLimits,
    ) -> (Option<Configuration>, SearchStats) {
        let cands = generate(input.db, input.workload, CandidateStyle::SingleColumn);
        if cands.len() * input.workload.len() > self.capacity_limit {
            // The tool's search space exceeds its capacity: no output,
            // exactly as observed for NREF3J at 100 queries.
            return (None, SearchStats::default());
        }
        let (cfg, stats) = greedy_select(
            input.db,
            input.current,
            input.workload,
            cands,
            input.budget_bytes,
            "R",
            search_options(input, limits),
            input.trace,
        );
        (Some(cfg), stats)
    }
}

/// System B: covering-index candidates, no views, no capacity limit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemB;

impl Recommender for SystemB {
    fn name(&self) -> &'static str {
        "B"
    }

    fn recommend_budgeted(
        &self,
        input: &AdvisorInput<'_>,
        limits: SearchLimits,
    ) -> (Option<Configuration>, SearchStats) {
        let cands = generate(input.db, input.workload, CandidateStyle::Covering);
        let (cfg, stats) = greedy_select(
            input.db,
            input.current,
            input.workload,
            cands,
            input.budget_bytes,
            "R",
            search_options(input, limits),
            input.trace,
        );
        (Some(cfg), stats)
    }
}

/// System C: covering indexes plus materialized views with indexes on
/// them (Table 3's recommendation shapes).
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemC;

impl Recommender for SystemC {
    fn name(&self) -> &'static str {
        "C"
    }

    fn recommend_budgeted(
        &self,
        input: &AdvisorInput<'_>,
        limits: SearchLimits,
    ) -> (Option<Configuration>, SearchStats) {
        let cands = generate(input.db, input.workload, CandidateStyle::CoveringWithViews);
        let (cfg, stats) = greedy_select(
            input.db,
            input.current,
            input.workload,
            cands,
            input.budget_bytes,
            "R",
            search_options(input, limits),
            input.trace,
        );
        (Some(cfg), stats)
    }
}

/// The recommender profile a label names — `A`, `B` or `C`, compared
/// case-insensitively — or `None` for any other label. This is the one
/// table every front end looks profiles up in.
pub fn profile(name: &str) -> Option<Box<dyn Recommender>> {
    match name.to_ascii_uppercase().as_str() {
        "A" => Some(Box::new(SystemA::default())),
        "B" => Some(Box::new(SystemB)),
        "C" => Some(Box::new(SystemC)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_builders::p_configuration;
    use tab_sqlq::parse;
    use tab_storage::{ColType, ColumnDef, Table, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("a", ColType::Int),
                    ColumnDef::new("g", ColType::Int),
                ],
            )
            .primary_key(&["id"]),
        );
        for i in 0..10_000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 1000), Value::Int(i % 4)]);
        }
        db.add_table(t);
        db.collect_stats();
        db
    }

    fn workload() -> Vec<Query> {
        (0..4)
            .map(|i| {
                parse(&format!(
                    "SELECT t.g, COUNT(*) FROM t WHERE t.a = {i} GROUP BY t.g"
                ))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn system_a_gives_up_over_capacity() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w = workload();
        let input = AdvisorInput {
            db: &db,
            current: &p,
            workload: &w,
            budget_bytes: 10 * 1024 * 1024,
            par: Parallelism::sequential(),
            trace: Trace::disabled(),
        };
        let tiny = SystemA { capacity_limit: 1 };
        assert!(tiny.recommend(&input).is_none());
        let roomy = SystemA::default();
        assert!(roomy.recommend(&input).is_some());
    }

    #[test]
    fn all_profiles_recommend_within_budget() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w = workload();
        let budget = 10 * 1024 * 1024;
        let input = AdvisorInput {
            db: &db,
            current: &p,
            workload: &w,
            budget_bytes: budget,
            par: Parallelism::sequential(),
            trace: Trace::disabled(),
        };
        for r in [&SystemA::default() as &dyn Recommender, &SystemB, &SystemC] {
            let cfg = r.recommend(&input).expect("recommendation");
            let built = BuiltConfiguration::build(cfg, &db);
            let added = built
                .report
                .aux_bytes()
                .saturating_sub(p.report.aux_bytes());
            assert!(
                added <= budget * 2,
                "system {} blew the budget: {added} > {budget}",
                r.name()
            );
        }
    }
}
