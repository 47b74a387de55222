//! The session facade: the paper's three cost functions in one place.
//!
//! - [`Session::run`] → `A(q, C)`: actual execution cost, with timeout;
//! - [`Session::estimate`] → `E(q, C)`: the optimizer's estimate using
//!   statistics collected in the current (built) configuration;
//! - [`estimate_hypothetical`] → `H(q, Ch, Ca)`: a what-if estimate of a
//!   configuration that was never built, produced from the current one.

use tab_sqlq::Query;
use tab_storage::{
    BTreeIndex, BuiltConfiguration, Configuration, Database, IndexSpec, MViewDef, PoolStats, Value,
};

use crate::catalog::{bind, BindError};
use crate::cost::{CostMeter, Outcome};
use crate::exec::{execute, ExecOpts, OpActuals, Resolver};
use crate::plan::PhysicalPlan;
use crate::planner::{plan, plan_explained, PlanExplanation};
use crate::stats_view::{HypotheticalStats, RealStats};

/// Result of an actual execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cost outcome (done with units, or timeout).
    pub outcome: Outcome,
    /// Result rows if the query completed (select-list order, unsorted).
    pub rows: Option<Vec<Vec<Value>>>,
    /// The plan that was executed.
    pub plan: PhysicalPlan,
    /// The executor's per-operator actuals (layout
    /// `[FreqSetup, driver, step…, output]`, matching
    /// [`PhysicalPlan::op_labels`]). On timeout the vector holds only
    /// the operators that completed.
    pub ops: Vec<OpActuals>,
    /// Buffer-pool traffic for this query. All-zero when the session
    /// runs without a pool ([`ExecOpts::pool`] unset) and on timeout —
    /// a timed-out query's partial traffic is discarded so outputs
    /// never depend on *where* the budget trip happened.
    pub io: PoolStats,
}

/// Everything that decides what executing a plan does, and nothing
/// else: the database (by address), the budget, the plan's query,
/// driver, steps and views used (not its estimates), the full
/// [`tab_storage::MViewSpec`] of every view it reads, and the spec of
/// the index each frequency filter's setup reads (or none, when the
/// heap answers it: that index's size sets the setup's charge and the
/// operator label leaves it out). The executor reads nothing else from
/// the configuration.
///
/// The executor is deterministic, so two runs with equal keys give the
/// same outcome and per-operator actuals, provided that every
/// configuration was built over its database, that neither has been
/// written since, and that the runs share their [`ExecOpts`] and have no
/// buffer pool (whose units depend on what earlier queries left in it).
/// Only compare keys made while their databases are alive: an address
/// can be reused after a drop. Values render through `Debug`, which is
/// exact: `Int(1)` and `Float(1.0)` differ, and floats print round-trip.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExecKey {
    db: usize,
    text: String,
}

/// A query session over one database in one built configuration.
///
/// Sessions are cheap borrows, opened per query (or per request): the
/// parallel grid opens one per worker over shared `&Database`, and the
/// serving front end opens one per wire request over an
/// [`crate::EngineSnapshot`], which pins an immutable generation so
/// concurrent writers never perturb an in-flight scan. A session never
/// mutates what it borrows — writes go through [`crate::apply_insert`]
/// (single-owner) or [`crate::SharedEngine::insert`] (concurrent,
/// copy-on-write).
pub struct Session<'a> {
    db: &'a Database,
    built: &'a BuiltConfiguration,
    exec: ExecOpts<'a>,
}

impl<'a> Session<'a> {
    /// Open a session. `db.collect_stats()` must have been called.
    /// Queries execute with the default [`ExecOpts`] (sequential,
    /// vectorized); see [`Session::with_exec`].
    pub fn new(db: &'a Database, built: &'a BuiltConfiguration) -> Self {
        Session {
            db,
            built,
            exec: ExecOpts::default(),
        }
    }

    /// Replace the execution options (intra-query threads, morsel size,
    /// vectorization, fault injection). Any setting produces identical
    /// results, costs, and outcomes — see the `exec` module docs.
    pub fn with_exec(mut self, exec: ExecOpts<'a>) -> Self {
        self.exec = exec;
        self
    }

    /// The underlying database.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// The current configuration.
    pub fn configuration(&self) -> &'a BuiltConfiguration {
        self.built
    }

    /// Plan a query with the current configuration's real statistics.
    pub fn plan_query(&self, q: &Query) -> Result<PhysicalPlan, BindError> {
        let bound = bind(q, self.db)?;
        let stats = RealStats::new(self.db, self.built);
        Ok(plan(&bound, &stats))
    }

    /// Execute a query with an optional cost budget (the timeout).
    pub fn run(&self, q: &Query, budget: Option<f64>) -> Result<RunResult, BindError> {
        Ok(self.run_plan(self.plan_query(q)?, budget))
    }

    /// Execute an already-planned query with an optional cost budget.
    pub fn run_plan(&self, p: PhysicalPlan, budget: Option<f64>) -> RunResult {
        let mut meter = match budget {
            Some(b) => CostMeter::with_budget(b),
            None => CostMeter::unbounded(),
        };
        let resolver = Resolver::new(self.db, self.built);
        let mut ops = Vec::new();
        let mut io = PoolStats::default();
        match execute(
            &p,
            &resolver,
            &mut meter,
            &self.exec,
            Some(&mut ops),
            Some(&mut io),
        ) {
            Ok(rows) => RunResult {
                outcome: Outcome::Done {
                    units: meter.units(),
                    rows: rows.len() as u64,
                },
                rows: Some(rows),
                plan: p,
                ops,
                io,
            },
            Err(_) => RunResult {
                outcome: Outcome::Timeout {
                    budget: budget.expect("only budgeted runs can time out"),
                },
                rows: None,
                plan: p,
                ops,
                // Deliberately zeroed: `io` is only written on success.
                io: PoolStats::default(),
            },
        }
    }

    /// The [`ExecKey`] of running `p` under `budget` in this session.
    pub fn execution_key(&self, p: &PhysicalPlan, budget: Option<f64>) -> ExecKey {
        let resolver = Resolver::new(self.db, self.built);
        let q = &p.query;
        let sources = q.rels.iter().map(|r| r.source.as_str());
        let sources = sources.chain(q.freqs.iter().map(|f| f.sub_table.as_str()));
        let views: Vec<_> = sources
            .filter_map(|s| resolver.view(s))
            .map(|mv| &mv.spec)
            .collect();
        let freq_indexes: Vec<_> = q
            .freqs
            .iter()
            .map(|f| resolver.freq_index(f).map(BTreeIndex::spec))
            .collect();
        ExecKey {
            db: std::ptr::from_ref(self.db) as usize,
            text: format!(
                "{:?}|{q:?}|{:?}|{:?}|{:?}|{views:?}|{freq_indexes:?}",
                budget.map(f64::to_bits),
                p.driver,
                p.steps,
                p.mviews_used,
            ),
        }
    }

    /// Plan a query and record the planner's decision trace (candidate
    /// rewrites and every access path priced per operator slot of the
    /// winner). Used by `tab explain`.
    pub fn plan_query_explained(
        &self,
        q: &Query,
    ) -> Result<(PhysicalPlan, PlanExplanation), BindError> {
        let bound = bind(q, self.db)?;
        let stats = RealStats::new(self.db, self.built);
        Ok(plan_explained(&bound, &stats))
    }

    /// The optimizer's cost estimate `E(q, C)` for the current
    /// configuration.
    pub fn estimate(&self, q: &Query) -> Result<f64, BindError> {
        Ok(self.plan_query(q)?.est_cost)
    }
}

/// The what-if estimate `H(q, Ch, Ca)`: cost of `q` under hypothetical
/// configuration `hyp`, estimated while `current` is the built
/// configuration (statistics for `hyp`'s structures are synthesized).
pub fn estimate_hypothetical(
    db: &Database,
    current: &BuiltConfiguration,
    hyp: &Configuration,
    q: &Query,
) -> Result<f64, BindError> {
    let bound = bind(q, db)?;
    let stats = HypotheticalStats::new(db, current, hyp);
    Ok(plan(&bound, &stats).est_cost)
}

/// Incremental what-if estimate for an already-bound query: `H(q, base +
/// extras, current)`. The advisor's hot loop prices hundreds of trial
/// configurations per round that differ from a shared base by one
/// structure; this entry point skips both the per-call re-bind (the
/// caller binds each workload query once) and the per-trial clone of the
/// base configuration (the extras are layered on via
/// [`HypotheticalStats::layered`]). Produces bit-identical costs to
/// [`estimate_hypothetical`] on the materialized `base + extras`
/// configuration.
pub fn estimate_hypothetical_layered(
    db: &Database,
    current: &BuiltConfiguration,
    base: &Configuration,
    extra_indexes: &[IndexSpec],
    extra_mviews: &[MViewDef],
    bound: &crate::catalog::BoundQuery,
    perfect_distributions: bool,
) -> f64 {
    let stats = HypotheticalStats::layered(
        db,
        current,
        base,
        extra_indexes,
        extra_mviews,
        perfect_distributions,
    );
    plan(bound, &stats).est_cost
}

/// Sessions are created per worker thread (grid fan-out) and per wire
/// request (serving front end) over shared `&Database` /
/// `&BuiltConfiguration`; this compile-time audit keeps them that way.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Session<'static>>();

#[cfg(test)]
mod tests {
    use super::*;
    use tab_sqlq::parse;
    use tab_storage::{ColType, ColumnDef, IndexSpec, Table, TableSchema, Value};

    /// A small two-table database with skew on `fact.k`.
    fn db() -> Database {
        let mut db = Database::new();
        let mut fact = Table::new(TableSchema::new(
            "fact",
            vec![
                ColumnDef::new("id", ColType::Int),
                ColumnDef::new("k", ColType::Int),
                ColumnDef::new("g", ColType::Int),
            ],
        ));
        for i in 0..50_000i64 {
            // k: value 0 hot (half the rows), the rest ~10 rows each.
            let k = if i % 2 == 0 { 0 } else { 1 + ((i / 2) % 2500) };
            fact.insert(vec![Value::Int(i), Value::Int(k), Value::Int(i % 7)]);
        }
        let mut dim = Table::new(TableSchema::new(
            "dim",
            vec![
                ColumnDef::new("k", ColType::Int),
                ColumnDef::new("name", ColType::Str),
            ],
        ));
        // Large enough that hashing it loses to a single index probe.
        for i in 0..60_000i64 {
            dim.insert(vec![Value::Int(i % 6000), Value::str(format!("n{i}"))]);
        }
        db.add_table(fact);
        db.add_table(dim);
        db.collect_stats();
        db
    }

    fn built(db: &Database, specs: Vec<IndexSpec>) -> BuiltConfiguration {
        let mut cfg = Configuration::named("t");
        cfg.indexes = specs;
        BuiltConfiguration::build(cfg, db)
    }

    #[test]
    fn run_produces_correct_counts() {
        let db = db();
        let p = built(&db, vec![]);
        let s = Session::new(&db, &p);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f WHERE f.k = 0 GROUP BY f.g").unwrap();
        let r = s.run(&q, None).unwrap();
        let rows = r.rows.unwrap();
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, 25_000);
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn index_reduces_actual_cost_for_selective_query() {
        let db = db();
        let p = built(&db, vec![]);
        let ix = built(&db, vec![IndexSpec::new("fact", vec![1])]);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f WHERE f.k = 42 GROUP BY f.g").unwrap();
        let a_p = Session::new(&db, &p)
            .run(&q, None)
            .unwrap()
            .outcome
            .units()
            .unwrap();
        let a_ix = Session::new(&db, &ix)
            .run(&q, None)
            .unwrap()
            .outcome
            .units()
            .unwrap();
        assert!(
            a_ix * 2.0 < a_p,
            "selective probe should beat scan: {a_ix} vs {a_p}"
        );
    }

    #[test]
    fn plans_identical_results_across_configs() {
        let db = db();
        let p = built(&db, vec![]);
        let ix = built(
            &db,
            vec![
                IndexSpec::new("fact", vec![1]),
                IndexSpec::new("dim", vec![0]),
            ],
        );
        let q = parse(
            "SELECT f.g, COUNT(*) FROM fact f, dim d \
             WHERE f.k = d.k AND f.k = 3 GROUP BY f.g",
        )
        .unwrap();
        let mut r1 = Session::new(&db, &p).run(&q, None).unwrap().rows.unwrap();
        let mut r2 = Session::new(&db, &ix).run(&q, None).unwrap().rows.unwrap();
        r1.sort();
        r2.sort();
        assert_eq!(r1, r2);
        assert!(!r1.is_empty());
    }

    #[test]
    fn join_uses_index_nested_loops_when_cheap() {
        let db = db();
        let ix = built(
            &db,
            vec![
                IndexSpec::new("fact", vec![1]),
                IndexSpec::new("dim", vec![0]),
            ],
        );
        let s = Session::new(&db, &ix);
        // Highly selective driver -> index NL join into dim should win.
        let q = parse(
            "SELECT f.g, COUNT(*) FROM fact f, dim d \
             WHERE f.k = d.k AND f.id = 77 GROUP BY f.g",
        )
        .unwrap();
        let plan = s.plan_query(&q).unwrap();
        assert!(
            plan.describe().contains("IndexNLJoin"),
            "got: {}",
            plan.describe()
        );
    }

    #[test]
    fn timeout_fires_on_tiny_budget() {
        let db = db();
        let p = built(&db, vec![]);
        let s = Session::new(&db, &p);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f GROUP BY f.g").unwrap();
        let r = s.run(&q, Some(0.5)).unwrap();
        assert!(r.outcome.is_timeout());
        assert!(r.rows.is_none());
    }

    #[test]
    fn estimate_orders_configurations() {
        let db = db();
        let p = built(&db, vec![]);
        let ix = built(&db, vec![IndexSpec::new("fact", vec![1])]);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f WHERE f.k = 42 GROUP BY f.g").unwrap();
        let e_p = Session::new(&db, &p).estimate(&q).unwrap();
        let e_ix = Session::new(&db, &ix).estimate(&q).unwrap();
        assert!(e_ix < e_p, "E should prefer the indexed config");
    }

    #[test]
    fn hypothetical_estimate_is_conservative_under_skew() {
        // For a *rare* value on a skewed column, H (uniform) overestimates
        // the probe's result size and therefore its cost relative to E.
        let db = db();
        let p = built(&db, vec![]);
        let ixcfg = {
            let mut c = Configuration::named("ix");
            c.indexes.push(IndexSpec::new("fact", vec![1]));
            c
        };
        let ix = BuiltConfiguration::build(ixcfg.clone(), &db);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f WHERE f.k = 42 GROUP BY f.g").unwrap();
        let e = Session::new(&db, &ix).estimate(&q).unwrap();
        let h = estimate_hypothetical(&db, &p, &ixcfg, &q).unwrap();
        assert!(
            h > e,
            "uniform hypothetical stats should be more conservative: H={h} E={e}"
        );
    }

    #[test]
    fn range_scan_uses_index_and_matches_naive() {
        let db = db();
        let ix = built(&db, vec![IndexSpec::new("fact", vec![0])]);
        let q = parse(
            "SELECT f.g, COUNT(*) FROM fact f WHERE f.id >= 49900 AND f.id < 49950 GROUP BY f.g",
        )
        .unwrap();
        let s = Session::new(&db, &ix);
        let plan = s.plan_query(&q).unwrap();
        assert!(
            plan.describe().contains("IndexRangeScan"),
            "selective leading-column range should use the index: {}",
            plan.describe()
        );
        let bound = crate::catalog::bind(&q, &db).unwrap();
        let mut expect = crate::naive::evaluate(&bound, &db);
        let mut got = s.run(&q, None).unwrap().rows.unwrap();
        expect.sort();
        got.sort();
        assert_eq!(expect, got);
        let total: i64 = got.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn const_filter_on_probed_join_column_is_enforced() {
        // Regression: an index-NL probe that binds a column from the
        // outer join value must still re-check a constant filter on that
        // same column (found by the executor-vs-naive property test).
        let mut db = Database::new();
        let mut r = Table::new(TableSchema::new(
            "r",
            vec![ColumnDef::new("b", ColType::Int)],
        ));
        r.insert(vec![Value::Int(0)]);
        let mut s = Table::new(TableSchema::new(
            "s",
            vec![ColumnDef::new("d", ColType::Int)],
        ));
        for _ in 0..100 {
            s.insert(vec![Value::Int(0)]);
        }
        db.add_table(r);
        db.add_table(s);
        db.collect_stats();
        let ix = built(&db, vec![IndexSpec::new("s", vec![0])]);
        // Join binds s.d from r.b (= 0); the filter s.d = 1 must yield 0.
        let q = parse("SELECT COUNT(*) FROM r, s WHERE r.b = s.d AND s.d = 1").unwrap();
        let rows = Session::new(&db, &ix).run(&q, None).unwrap().rows.unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn order_by_and_limit_produce_topk() {
        let db = db();
        let p = built(&db, vec![]);
        let s = Session::new(&db, &p);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f GROUP BY f.g ORDER BY f.g DESC LIMIT 3")
            .unwrap();
        let rows = s.run(&q, None).unwrap().rows.unwrap();
        assert_eq!(rows.len(), 3);
        let gs: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(gs, vec![6, 5, 4], "descending top-3 of g in 0..7");
    }

    #[test]
    fn metered_pool_preserves_units_rows_and_reports_io() {
        // Metered charge policy: the pool runs (frames, eviction, stats)
        // but the meter charges the legacy modeled amounts, so units and
        // rows are byte-identical to a pool-less session even under
        // heavy eviction pressure (16-frame pool, 50k-row tables).
        let db = db();
        let ix = built(
            &db,
            vec![
                IndexSpec::new("fact", vec![1]),
                IndexSpec::new("dim", vec![0]),
            ],
        );
        let queries = [
            "SELECT f.g, COUNT(*) FROM fact f GROUP BY f.g",
            "SELECT f.g, COUNT(*) FROM fact f WHERE f.k = 42 GROUP BY f.g",
            "SELECT f.g, COUNT(*) FROM fact f, dim d WHERE f.k = d.k AND f.k = 3 GROUP BY f.g",
        ];
        for sql in queries {
            let q = parse(sql).unwrap();
            let plain = Session::new(&db, &ix).run(&q, None).unwrap();
            let mut pool = crate::exec::PoolOpts::new(16);
            pool.policy = crate::cost::ChargePolicy::Metered;
            let exec = ExecOpts {
                pool: Some(pool),
                ..ExecOpts::default()
            };
            let pooled = Session::new(&db, &ix)
                .with_exec(exec)
                .run(&q, None)
                .unwrap();
            assert_eq!(plain.outcome.units(), pooled.outcome.units(), "{sql}");
            assert_eq!(plain.rows, pooled.rows, "{sql}");
            assert!(plain.io.is_zero(), "no pool -> zero io: {sql}");
            assert!(pooled.io.misses() > 0, "cold pool must miss: {sql}");
        }
    }

    #[test]
    fn observed_pool_cold_seq_scan_matches_compat_units() {
        // A cold sequential scan misses once per page under the Observed
        // policy, which is exactly the modeled seq-page charge — so a
        // query with no page reuse costs the same with and without the
        // pool (pool large enough that the spill threshold also agrees).
        let db = db();
        let p = built(&db, vec![]);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f GROUP BY f.g").unwrap();
        let plain = Session::new(&db, &p).run(&q, None).unwrap();
        let exec = ExecOpts {
            pool: Some(crate::exec::PoolOpts::new(1024)),
            ..ExecOpts::default()
        };
        let pooled = Session::new(&db, &p).with_exec(exec).run(&q, None).unwrap();
        assert_eq!(plain.outcome.units(), pooled.outcome.units());
        assert_eq!(plain.rows, pooled.rows);
        assert_eq!(pooled.io.hits, 0, "single cold scan has no reuse");
        assert!(pooled.io.misses_seq > 0);
    }

    #[test]
    fn timed_out_pooled_run_reports_zero_io() {
        let db = db();
        let p = built(&db, vec![]);
        let exec = ExecOpts {
            pool: Some(crate::exec::PoolOpts::new(16)),
            ..ExecOpts::default()
        };
        let s = Session::new(&db, &p).with_exec(exec);
        let q = parse("SELECT f.g, COUNT(*) FROM fact f GROUP BY f.g").unwrap();
        let r = s.run(&q, Some(0.5)).unwrap();
        assert!(r.outcome.is_timeout());
        assert!(r.io.is_zero(), "partial traffic must be discarded");
    }

    #[test]
    fn pooled_results_identical_across_pool_sizes_and_threads() {
        // The eviction decision is a pure function of the access stream,
        // so rows and units agree between a thrashing pool and a pool
        // that holds the working set, at 1 and at 8 threads.
        let db = db();
        let ix = built(
            &db,
            vec![
                IndexSpec::new("fact", vec![1]),
                IndexSpec::new("dim", vec![0]),
            ],
        );
        let q = parse(
            "SELECT f.g, COUNT(*) FROM fact f, dim d \
             WHERE f.k = d.k AND f.k = 3 GROUP BY f.g",
        )
        .unwrap();
        type UnitsAndRows = (Option<f64>, Option<Vec<Vec<Value>>>);
        let mut seen: Option<UnitsAndRows> = None;
        for pages in [16usize, 4096] {
            for threads in [1usize, 8] {
                let mut pool = crate::exec::PoolOpts::new(pages);
                pool.policy = crate::cost::ChargePolicy::Metered;
                let exec = ExecOpts {
                    pool: Some(pool),
                    par: tab_storage::Parallelism::new(threads),
                    ..ExecOpts::default()
                };
                let r = Session::new(&db, &ix)
                    .with_exec(exec)
                    .run(&q, None)
                    .unwrap();
                let got = (r.outcome.units(), r.rows);
                match &seen {
                    None => seen = Some(got),
                    Some(first) => {
                        assert_eq!(*first, got, "pages={pages} threads={threads} diverged")
                    }
                }
            }
        }
    }

    #[test]
    fn freq_filter_execution_matches_naive() {
        let db = db();
        let p = built(&db, vec![]);
        let q = parse(
            "SELECT f.k, COUNT(*) FROM fact f WHERE f.k IN \
             (SELECT k FROM fact GROUP BY k HAVING COUNT(*) < 11) GROUP BY f.k",
        )
        .unwrap();
        let bound = crate::catalog::bind(&q, &db).unwrap();
        let mut expect = crate::naive::evaluate(&bound, &db);
        let mut got = Session::new(&db, &p).run(&q, None).unwrap().rows.unwrap();
        expect.sort();
        got.sort();
        assert_eq!(expect, got);
        assert!(!got.is_empty());
    }

    /// NULL is not a value of a frequency subquery's column, whichever
    /// structure answers it: the heap, or the leaf level of an index
    /// (whose NULL key group once counted as a value occurring once, so
    /// the same query answered differently under P and under 1C).
    #[test]
    fn null_never_passes_an_index_evaluated_freq_filter() {
        let mut db = Database::new();
        let mut r = Table::new(TableSchema::new(
            "r",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Int),
            ],
        ));
        for (a, b) in [
            (1, None),
            (2, Some(7)),
            (3, Some(7)),
            (4, Some(7)),
            (5, Some(7)),
            (6, Some(8)),
        ] {
            r.insert(vec![Value::Int(a), b.map_or(Value::Null, Value::Int)]);
        }
        db.add_table(r);
        db.collect_stats();
        let q = parse(
            "SELECT r.a, COUNT(*) FROM r r WHERE r.b IN \
             (SELECT b FROM r GROUP BY b HAVING COUNT(*) < 4) GROUP BY r.a",
        )
        .unwrap();
        let expect = vec![vec![Value::Int(6), Value::Int(1)]];
        assert_eq!(
            crate::naive::evaluate(&crate::catalog::bind(&q, &db).unwrap(), &db),
            expect
        );
        for specs in [vec![], vec![IndexSpec::new("r", vec![1])]] {
            let built = built(&db, specs);
            let got = Session::new(&db, &built).run(&q, None).unwrap().rows;
            assert_eq!(got, Some(expect.clone()), "{:?}", built.config.indexes);
        }
    }

    #[test]
    fn mview_rewrite_is_used_and_correct() {
        let db = db();
        let mut cfg = Configuration::named("mv");
        // fact(k) join dim(k), projecting fact.g and dim.name.
        cfg.mviews.push(tab_storage::MViewDef {
            spec: tab_storage::MViewSpec::join_of(
                "fact_dim",
                "fact",
                "dim",
                vec![(1, 0)],
                vec![(0, 1), (0, 2), (1, 1)],
            ),
            indexes: vec![vec![0]],
        });
        let built_mv = BuiltConfiguration::build(cfg, &db);
        let plain = built(&db, vec![]);
        let q = parse(
            "SELECT f.g, COUNT(*) FROM fact f, dim d \
             WHERE f.k = d.k AND f.k = 3 GROUP BY f.g",
        )
        .unwrap();
        let s_mv = Session::new(&db, &built_mv);
        let plan = s_mv.plan_query(&q).unwrap();
        assert_eq!(plan.mviews_used, vec!["fact_dim".to_string()]);
        let mut r1 = s_mv.run(&q, None).unwrap().rows.unwrap();
        let mut r2 = Session::new(&db, &plain)
            .run(&q, None)
            .unwrap()
            .rows
            .unwrap();
        r1.sort();
        r2.sort();
        assert_eq!(r1, r2);
    }
}
