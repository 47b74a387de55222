//! Workload-level measurement: the paper's `A`, `E`, and `H` applied to
//! whole workloads, timeout lower bounds, and improvement ratios.

use tab_engine::{apply_insert, estimate_hypothetical, Outcome, Session};
use tab_sqlq::{Insert, Query};
use tab_storage::{par_map, BuiltConfiguration, Configuration, Database, Parallelism, PoolStats};

use crate::cfc::Cfc;

/// One workload executed on one configuration.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Configuration display name.
    pub config: String,
    /// Per-query outcomes in workload order.
    pub outcomes: Vec<Outcome>,
    /// Buffer-pool traffic summed over the workload's completed queries
    /// in workload order. All-zero when the run executed without a pool
    /// (the legacy purely-modeled charge path).
    pub io: PoolStats,
}

impl WorkloadRun {
    /// Per-query elapsed simulated seconds, `INFINITY` for timeouts.
    pub fn sim_seconds(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|o| match o {
                Outcome::Done { units, .. } => tab_engine::units_to_sim_seconds(*units),
                Outcome::Timeout { .. } => f64::INFINITY,
            })
            .collect()
    }

    /// The CFC of this run.
    pub fn cfc(&self) -> Cfc {
        Cfc::from_values(&self.sim_seconds())
    }

    /// Number of timed-out queries.
    pub fn timeout_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_timeout()).count()
    }

    /// §4.3's conservative total: completed times plus the timeout value
    /// for each timed-out query ("a lower bound for the execution of
    /// workload … on P").
    pub fn total_lower_bound_sim_seconds(&self) -> f64 {
        self.outcomes
            .iter()
            .map(Outcome::sim_seconds_lower_bound)
            .sum()
    }

    /// The same conservative total in raw cost units: actual units for
    /// completed queries, the budget for timed-out ones. This is the
    /// quantity the grid timings aggregate.
    pub(crate) fn total_lower_bound_units(&self) -> f64 {
        self.outcomes.iter().map(Outcome::units_lower_bound).sum()
    }
}

/// Execute a workload on a configuration with the given timeout budget
/// (in cost units), fanned out over queries. The paper's `A(W, C)`
/// measurement loop. Queries are independent (sessions are read-only
/// views over `db` and `built`) and outcomes are collected in workload
/// order, so the result is identical at any thread count.
pub fn run_workload(
    db: &Database,
    built: &BuiltConfiguration,
    workload: &[Query],
    timeout_units: f64,
    par: Parallelism,
) -> WorkloadRun {
    let session = Session::new(db, built);
    let results = par_map(par, workload, |q| {
        let r = session
            .run(q, Some(timeout_units))
            .expect("workload queries bind against their database");
        (r.outcome, r.io)
    });
    let mut io = PoolStats::default();
    let outcomes = results
        .into_iter()
        .map(|(o, i)| {
            io.merge(&i);
            o
        })
        .collect();
    WorkloadRun {
        config: built.config.name.clone(),
        outcomes,
        io,
    }
}

/// Per-query optimizer estimates `E(q, C)` in the built configuration,
/// fanned out over queries, order-preserving.
pub fn estimate_workload(
    db: &Database,
    built: &BuiltConfiguration,
    workload: &[Query],
    par: Parallelism,
) -> Vec<f64> {
    let session = Session::new(db, built);
    par_map(par, workload, |q| {
        session.estimate(q).expect("queries bind")
    })
}

/// Per-query hypothetical estimates `H(q, Ch, Ca)`, fanned out over
/// queries, order-preserving.
pub fn estimate_workload_hypothetical(
    db: &Database,
    current: &BuiltConfiguration,
    hyp: &Configuration,
    workload: &[Query],
    par: Parallelism,
) -> Vec<f64> {
    par_map(par, workload, |q| {
        estimate_hypothetical(db, current, hyp, q).expect("queries bind")
    })
}

/// One operation of a mixed (read/write) workload — §4.4's extension.
#[derive(Debug, Clone)]
pub enum WorkloadOp {
    /// A retrieval query.
    Query(Query),
    /// A single-row insertion.
    Insert(Insert),
}

/// Result of executing a mixed workload.
#[derive(Debug, Clone)]
pub struct UpdateWorkloadRun {
    /// Outcomes of the query operations, in order.
    pub query_outcomes: Vec<Outcome>,
    /// Total insert-maintenance cost in cost units.
    pub insert_units: f64,
    /// Number of insertions applied.
    pub inserts: usize,
}

impl UpdateWorkloadRun {
    /// Total lower-bound cost in simulated seconds: queries (timeouts at
    /// the budget) plus insert maintenance.
    pub fn total_lower_bound_sim_seconds(&self) -> f64 {
        let q: f64 = self
            .query_outcomes
            .iter()
            .map(Outcome::sim_seconds_lower_bound)
            .sum();
        q + tab_engine::units_to_sim_seconds(self.insert_units)
    }
}

/// Execute a mixed workload, mutating the database and maintaining the
/// configuration's structures as insertions land.
///
/// # Panics
/// Panics if an operation fails to bind or validate — mixed workloads
/// are constructed against the same database they run on.
pub fn run_update_workload(
    db: &mut Database,
    built: &mut BuiltConfiguration,
    ops: &[WorkloadOp],
    timeout_units: f64,
) -> UpdateWorkloadRun {
    let mut query_outcomes = Vec::new();
    let mut insert_units = 0.0;
    let mut inserts = 0;
    for op in ops {
        match op {
            WorkloadOp::Query(q) => {
                let session = Session::new(db, built);
                let out = session
                    .run(q, Some(timeout_units))
                    .expect("mixed-workload query binds")
                    .outcome;
                query_outcomes.push(out);
            }
            WorkloadOp::Insert(i) => {
                let out = apply_insert(i, db, built).expect("mixed-workload insert validates");
                insert_units += out.units;
                inserts += 1;
            }
        }
    }
    UpdateWorkloadRun {
        query_outcomes,
        insert_units,
        inserts,
    }
}

/// Per-query improvement ratios `x_i / y_i` (§5.2's AIR / EIR / HIR).
/// Pairs involving a non-finite value are skipped, matching the paper:
/// "actual improvements involving timeout queries are not considered".
pub fn improvement_ratios(numer: &[f64], denom: &[f64]) -> Vec<f64> {
    assert_eq!(numer.len(), denom.len());
    numer
        .iter()
        .zip(denom)
        .filter(|(a, b)| a.is_finite() && b.is_finite() && **b > 0.0)
        .map(|(a, b)| a / b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_engine::Outcome;

    fn run(units: &[Option<f64>]) -> WorkloadRun {
        WorkloadRun {
            config: "T".into(),
            outcomes: units
                .iter()
                .map(|u| match u {
                    Some(x) => Outcome::Done { units: *x, rows: 1 },
                    None => Outcome::Timeout { budget: 100.0 },
                })
                .collect(),
            io: PoolStats::default(),
        }
    }

    #[test]
    fn lower_bound_uses_timeout_budget() {
        let r = run(&[Some(10.0), None, Some(20.0)]);
        let lb = r.total_lower_bound_sim_seconds();
        let expect = tab_engine::units_to_sim_seconds(10.0 + 100.0 + 20.0);
        assert!((lb - expect).abs() < 1e-9);
        assert_eq!(r.timeout_count(), 1);
        assert!((r.total_lower_bound_units() - 130.0).abs() < 1e-9);
    }

    #[test]
    fn sim_seconds_mark_timeouts_infinite() {
        let r = run(&[Some(1.0), None]);
        let s = r.sim_seconds();
        assert!(s[0].is_finite());
        assert!(s[1].is_infinite());
        assert_eq!(r.cfc().timeouts(), 1);
    }

    #[test]
    fn ratios_skip_timeouts() {
        let a = [10.0, f64::INFINITY, 30.0];
        let b = [1.0, 2.0, f64::INFINITY];
        let r = improvement_ratios(&a, &b);
        assert_eq!(r, vec![10.0]);
    }
}
