//! The recommender convergence harness (`tab converge`).
//!
//! A [`ConvergenceSpec`] declares recommender profiles × a what-if
//! budget ladder × an iteration cap — the shape of Baybe's
//! `RecommenderConvergenceAnalysis`, transplanted to configuration
//! advisors: instead of comparing profiles only by their final
//! recommendation, [`run_convergence`] re-runs each profile's greedy
//! search under successively larger what-if budgets and keeps the whole
//! objective trajectory. The result is a set of
//! [`ConvergenceCurve`]s — objective vs. accepted round and vs.
//! cumulative planner budget — rendered to `convergence.csv` by
//! `tab-core`'s convergence module.
//!
//! Budgeted searches are *prefixes* of the unbudgeted search (the
//! budget gates round entry on deterministic counters), so the curves
//! are byte-identical at any thread count and CI can diff them across
//! commits.

use tab_advisor::{profile, AdvisorInput, SearchLimits};
use tab_core::convergence::ConvergenceCurve;
use tab_sqlq::Query;
use tab_storage::{BuiltConfiguration, Database, Parallelism, Trace};

/// What to sweep: profiles × what-if budget rungs, each search capped
/// at `max_structures` rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceSpec {
    /// Profile names to drive (`A`, `B`, `C`).
    pub profiles: Vec<String>,
    /// What-if budget rungs; `None` is the unbudgeted reference curve.
    pub budget_ladder: Vec<Option<u64>>,
    /// Optional cap on accepted structures per search (`None` keeps
    /// each profile's default stopping rules).
    pub max_structures: Option<usize>,
}

impl Default for ConvergenceSpec {
    /// Profiles A/B/C over a geometric what-if ladder plus the
    /// unbudgeted reference.
    fn default() -> Self {
        ConvergenceSpec {
            profiles: vec!["A".into(), "B".into(), "C".into()],
            budget_ladder: vec![Some(50), Some(200), Some(800), None],
            max_structures: None,
        }
    }
}

/// Drive every (profile, budget rung) pair of `spec` over one workload,
/// returning the curves in spec order (profiles outer, ladder inner).
/// Fails on an unknown profile name. Tracing is passed through to the
/// greedy searches and remains observational only.
#[allow(clippy::too_many_arguments)]
pub fn run_convergence(
    db: &Database,
    current: &BuiltConfiguration,
    family: &str,
    workload: &[Query],
    budget_bytes: u64,
    par: Parallelism,
    trace: Trace<'_>,
    spec: &ConvergenceSpec,
) -> Result<Vec<ConvergenceCurve>, String> {
    let mut curves = Vec::with_capacity(spec.profiles.len() * spec.budget_ladder.len());
    for name in &spec.profiles {
        let rec = profile(name).ok_or_else(|| format!("unknown profile {name:?} (try A, B, C)"))?;
        for &rung in &spec.budget_ladder {
            let input = AdvisorInput {
                db,
                current,
                workload,
                budget_bytes,
                par,
                trace,
            };
            let limits = SearchLimits {
                max_structures: spec.max_structures,
                max_whatif_calls: rung,
            };
            let (cfg, stats) = rec.recommend_budgeted(&input, limits);
            curves.push(match cfg {
                Some(_) => ConvergenceCurve::from_stats(name, family, rung, &stats),
                None => ConvergenceCurve::gave_up(name, family, rung),
            });
        }
    }
    Ok(curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_advisor::p_configuration;
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
        for i in 0..20_000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 2000), Value::Int(i % 5)]);
        }
        db.add_table(t);
        db.collect_stats();
        db
    }

    fn workload() -> Vec<Query> {
        (0..5)
            .map(|i| {
                parse(&format!(
                    "SELECT t.g, COUNT(*) FROM t WHERE t.a = {i} GROUP BY t.g"
                ))
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn sweeps_profiles_by_ladder_and_is_thread_count_invariant() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w = workload();
        let spec = ConvergenceSpec {
            profiles: vec!["A".into(), "B".into(), "C".into()],
            budget_ladder: vec![Some(10), None],
            max_structures: Some(4),
        };
        let run = |threads| {
            run_convergence(
                &db,
                &p,
                "T",
                &w,
                50 * 1024 * 1024,
                Parallelism::new(threads),
                Trace::disabled(),
                &spec,
            )
            .expect("profiles are valid")
        };
        let c1 = run(1);
        assert_eq!(c1.len(), 6, "3 profiles x 2 rungs");
        // The budgeted curve is a prefix of the unbudgeted one.
        for pair in c1.chunks(2) {
            assert!(pair[0].points.len() <= pair[1].points.len());
            for (a, b) in pair[0].points.iter().zip(&pair[1].points) {
                assert_eq!(a.candidate, b.candidate);
            }
        }
        // Unbudgeted curves converge somewhere: B picks something here.
        let b_full = &c1[3];
        assert_eq!(b_full.profile, "B");
        assert!(b_full.whatif_budget.is_none());
        assert!(!b_full.points.is_empty());
        assert!(b_full.final_objective() < b_full.initial_objective);

        // Byte-identical artifacts at 1 vs 8 threads.
        let c8 = run(8);
        assert_eq!(c1, c8);
        assert_eq!(
            tab_core::convergence_csv_rows(&c1),
            tab_core::convergence_csv_rows(&c8)
        );
    }

    #[test]
    fn unknown_profile_is_an_error() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let err = run_convergence(
            &db,
            &p,
            "T",
            &workload(),
            1024,
            Parallelism::sequential(),
            Trace::disabled(),
            &ConvergenceSpec {
                profiles: vec!["Z".into()],
                ..ConvergenceSpec::default()
            },
        )
        .expect_err("Z is not a profile");
        assert!(err.contains("Z"), "{err}");
    }
}
