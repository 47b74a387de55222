//! Differential test for the late-materialization executor: queries
//! drawn from every benchmark family are evaluated both by the
//! brute-force interpreter (`engine::naive`, a full cartesian-product
//! odometer) and by the planned executor, under the `P` and `1C`
//! configurations. Result rows must be identical (sorted, when the
//! query leaves order unspecified) and the executor's cost-unit total
//! must be exactly reproducible: a second run charges bit-identical
//! units, and a budget set to that exact total never trips. Every row
//! of the executor table is also run at that budget (same rows, same
//! order) and at the next `f64` below it (a timeout whose completed
//! operator slots are the sequential run's).
//!
//! The interpreter is O(∏ |rel|), so every table is truncated to a few
//! dozen rows first; the families are enumerated against the truncated
//! database so template constants still reference live values.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tab_bench::advisor::{one_column_configuration, p_configuration};
use tab_bench::datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_bench::engine::{
    bind, execute, naive, ChargePolicy, CostMeter, ExecOpts, OpActuals, PoolOpts, Resolver,
    Session, DEFAULT_MORSEL_ROWS,
};
use tab_bench::eval::{build_1c, build_p, prepare_workload_db, BenchSpec, Faults};
use tab_bench::families::Family;
use tab_bench::sqlq::{CmpOp, Predicate, Query};
use tab_bench::storage::{BuiltConfiguration, Database, Parallelism, Table, Value};

/// Cap every table at `cap` rows (heap-prefix truncation) so the
/// brute-force cartesian product stays tractable.
fn truncate_db(db: &Database, cap: usize) -> Database {
    let mut out = Database::new();
    for t in db.tables() {
        let mut nt = Table::new(t.schema().clone());
        for (_, row) in t.iter().take(cap) {
            nt.insert(row.to_vec());
        }
        out.add_table(nt);
    }
    out.collect_stats();
    out
}

/// `db` with about a tenth of its non-key cells replaced by NULL.
/// Generated data holds none, so without this pass no filter, join,
/// group or frequency column of the check below ever meets one.
fn with_nulls(db: &Database, seed: u64) -> Database {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut out = Database::new();
    for t in db.tables() {
        let mut nt = Table::new(t.schema().clone());
        for (_, row) in t.iter() {
            let mut row = row.into_vec();
            for (c, cell) in row.iter_mut().enumerate() {
                if !t.schema().primary_key.contains(&c) && rng.random_range(0..10) == 0 {
                    *cell = Value::Null;
                }
            }
            nt.insert(row);
        }
        out.add_table(nt);
    }
    out.collect_stats();
    out
}

/// Whether one of `q`'s frequency filters would let NULL through if the
/// NULLs of its subquery's column were counted as a value — the queries
/// on which an executor that confuses the two answers wrongly.
fn null_sensitive(q: &Query, db: &Database) -> bool {
    q.predicates.iter().any(|p| match p {
        Predicate::InFrequency {
            sub_table,
            sub_column,
            op,
            k,
            ..
        } => {
            let t = db.table(sub_table).expect("subquery table exists");
            let c = t.schema().require_column(sub_column);
            let nulls = t.iter().filter(|(_, row)| row[c].is_null()).count() as i64;
            nulls > 0
                && match op {
                    CmpOp::Lt => nulls < *k,
                    CmpOp::Eq => nulls == *k,
                }
        }
        _ => false,
    })
}

/// [`check_family`] on `db` with NULLs sown in: the family's usual
/// sample, then a sample of its NULL-sensitive queries.
fn check_family_with_nulls(family: Family, db: &Database, seed: u64) {
    let db = &with_nulls(db, seed);
    check_family(family, db);
    let queries = family.enumerate(db, Parallelism::sequential());
    let sensitive: Vec<&Query> = queries.iter().filter(|q| null_sensitive(q, db)).collect();
    check_queries(family, db, &sensitive);
}

/// The executor settings every query is checked under. Morsel rows:
/// every (query-threads, morsel-rows) pairing and the scalar predicate
/// path. Pool rows: the 8-frame floor in Metered charge mode, where the
/// clock hand evicts on nearly every fetch and neither the rows nor the
/// unit total may move — eviction is bookkeeping, never semantics. The
/// Observed pair, whose units differ from these, is checked apart.
fn exec_table() -> Vec<ExecOpts<'static>> {
    let row = |threads, morsel_rows, vectorize, pool_frames| ExecOpts {
        par: Parallelism::new(threads),
        morsel_rows,
        vectorize,
        pool: (pool_frames > 0).then(|| {
            let mut pool = PoolOpts::new(pool_frames);
            pool.policy = ChargePolicy::Metered;
            pool
        }),
        ..ExecOpts::default()
    };
    vec![
        row(1, 64, true, 0),
        row(2, 64, true, 0),
        row(2, 4096, true, 0),
        row(8, 64, true, 0),
        row(8, 4096, true, 0),
        row(2, 64, false, 0),
        row(1, 64, true, 8),
        row(4, 64, true, 8),
        row(1, 64, false, 8),
        row(2, 64, true, 8),
    ]
}

/// Whether two operator slots did the same work: rows, probes and cost
/// units. Morsel and page counts legitimately differ across the table.
fn same_work(a: &OpActuals, b: &OpActuals) -> bool {
    (a.rows_in, a.rows_out, a.probes, a.units) == (b.rows_in, b.rows_out, b.probes, b.units)
}

/// Queries per family to push through the interpreter.
const QUERIES_PER_FAMILY: usize = 4;

fn check_family(family: Family, db: &Database) {
    let queries = family.enumerate(db, Parallelism::sequential());
    assert!(
        !queries.is_empty(),
        "{} enumerates no queries on the truncated database",
        family.name()
    );
    check_queries(family, db, &queries.iter().collect::<Vec<_>>());
}

/// Check an evenly spaced sample of `queries`.
fn check_queries(family: Family, db: &Database, queries: &[&Query]) {
    let p = BuiltConfiguration::build(p_configuration(db, "diff_P"), db);
    let c1 = BuiltConfiguration::build(one_column_configuration(db, "diff_1C"), db);
    let step = (queries.len() / QUERIES_PER_FAMILY).max(1);
    for (qi, q) in queries
        .iter()
        .step_by(step)
        .take(QUERIES_PER_FAMILY)
        .enumerate()
    {
        let bound = bind(q, db).expect("family query binds");
        let mut expect = naive::evaluate(&bound, db);
        if q.order_by.is_empty() {
            expect.sort();
        }
        for (cname, built) in [("P", &p), ("1C", &c1)] {
            let session = Session::new(db, built);
            let r1 = session.run(q, None).expect("family query executes");
            let mut got = r1.rows.clone().expect("unbounded run returns rows");
            if q.order_by.is_empty() {
                got.sort();
            }
            assert_eq!(
                expect,
                got,
                "{} query {qi} under {cname} disagrees with naive:\n{q}",
                family.name()
            );
            // Cost-unit totals are exactly reproducible, and a budget
            // equal to the actual total never trips.
            let units = r1.outcome.units().expect("unbounded run completes");
            let r2 = session.run(q, Some(units)).expect("re-run executes");
            assert!(
                !r2.outcome.is_timeout(),
                "{} query {qi} under {cname} timed out at its own cost",
                family.name()
            );
            assert_eq!(
                r2.outcome.units(),
                Some(units),
                "{} query {qi} under {cname}: cost-unit total not reproducible",
                family.name()
            );
            // Every row of the executor table must reproduce the same
            // rows and bit-identical cost units as the default
            // sequential run above.
            let plan = session.plan_query(q).expect("family query plans");
            let resolver = Resolver::new(db, built);
            let run = |opts: &ExecOpts<'_>,
                       budget: Option<f64>,
                       ops: Option<&mut Vec<OpActuals>>| {
                let mut meter = budget.map_or_else(CostMeter::unbounded, CostMeter::with_budget);
                execute(&plan, &resolver, &mut meter, opts, ops, None)
            };
            let sequential = ExecOpts::default();
            let (mut full_ops, mut cut_ops) = (Vec::new(), Vec::new());
            let default_rows =
                run(&sequential, None, Some(&mut full_ops)).expect("unbounded run completes");
            run(&sequential, Some(units.next_down()), Some(&mut cut_ops))
                .expect_err("a budget below the total times out");
            assert!(
                cut_ops.len() < full_ops.len()
                    && cut_ops.iter().zip(&full_ops).all(|(a, b)| same_work(a, b)),
                "{} query {qi} under {cname}: a timeout's slots are not the completed run's",
                family.name()
            );
            for opts in exec_table() {
                let label = format!(
                    "{} query-threads, morsel {}, vectorize={}, pool frames {:?}",
                    opts.par.threads(),
                    opts.morsel_rows,
                    opts.vectorize,
                    opts.pool.map(|p| p.pages)
                );
                let mut meter = CostMeter::unbounded();
                let mut got = execute(&plan, &resolver, &mut meter, &opts, None, None)
                    .expect("unbounded run completes");
                if q.order_by.is_empty() {
                    got.sort();
                }
                assert_eq!(
                    expect,
                    got,
                    "{} query {qi} under {cname} diverges at {label}:\n{q}",
                    family.name()
                );
                assert_eq!(
                    meter.units(),
                    units,
                    "{} query {qi} under {cname}: cost units drift at {label}",
                    family.name()
                );
                // At a budget of exactly the total the run completes, in
                // the default run's row order (a documented contract).
                let got = run(&opts, Some(units), None);
                assert_eq!(
                    got.as_ref().ok(),
                    Some(&default_rows),
                    "{} query {qi} under {cname}: rows or order move at budget = units, {label}",
                    family.name()
                );
                // One `f64` below it the run times out, having completed
                // exactly the sequential run's operator slots.
                let mut ops = Vec::new();
                let got = run(&opts, Some(units.next_down()), Some(&mut ops));
                assert!(
                    got.is_err()
                        && ops.len() == cut_ops.len()
                        && ops.iter().zip(&cut_ops).all(|(a, b)| same_work(a, b)),
                    "{} query {qi} under {cname}: timeout slots differ at {label}",
                    family.name()
                );
            }
            // Observed pool charging has its own unit total (a resident
            // page is free), so its pair is checked against each other:
            // the same rows, the same units, Done at that budget in the
            // default row order, a timeout one `f64` below it.
            let mut observed_units = None;
            for threads in [1, 4] {
                let opts = ExecOpts {
                    par: Parallelism::new(threads),
                    morsel_rows: 64,
                    pool: Some(PoolOpts {
                        policy: ChargePolicy::Observed,
                        ..PoolOpts::new(8)
                    }),
                    ..ExecOpts::default()
                };
                let label = format!("Observed, 8 frames, {threads} query-threads, morsel 64");
                let mut meter = CostMeter::unbounded();
                let mut got = execute(&plan, &resolver, &mut meter, &opts, None, None)
                    .expect("unbounded run completes");
                if q.order_by.is_empty() {
                    got.sort();
                }
                assert_eq!(
                    expect,
                    got,
                    "{} query {qi} under {cname} diverges at {label}:\n{q}",
                    family.name()
                );
                let units = *observed_units.get_or_insert(meter.units());
                assert_eq!(
                    meter.units(),
                    units,
                    "{} query {qi} under {cname}: cost units drift at {label}",
                    family.name()
                );
                assert_eq!(
                    run(&opts, Some(units), None).as_ref().ok(),
                    Some(&default_rows),
                    "{} query {qi} under {cname}: rows or order move at budget = units, {label}",
                    family.name()
                );
                assert!(
                    run(&opts, Some(units.next_down()), None).is_err(),
                    "{} query {qi} under {cname}: no timeout below the total at {label}",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn nref_families_match_naive() {
    let nref = truncate_db(
        &generate_nref(NrefParams {
            proteins: 100,
            seed: 0xD1FF,
        }),
        80,
    );
    check_family(Family::Nref2J, &nref);
    check_family(Family::Nref3J, &nref);
    check_family_with_nulls(Family::Nref2J, &nref, 0xD1FF);
    check_family_with_nulls(Family::Nref3J, &nref, 0xD1FF);
}

#[test]
fn tpch_families_match_naive() {
    let skew = truncate_db(
        &generate_tpch(TpchParams {
            scale: 0.0,
            distribution: Distribution::Zipf(1.0),
            seed: 0xD1FF + 1,
        }),
        80,
    );
    check_family(Family::SkTH3J, &skew);
    check_family(Family::SkTH3Js, &skew);
    check_family_with_nulls(Family::SkTH3J, &skew, 0xD1FF + 1);
    check_family_with_nulls(Family::SkTH3Js, &skew, 0xD1FF + 1);
    let unif = truncate_db(
        &generate_tpch(TpchParams {
            scale: 0.0,
            distribution: Distribution::Uniform,
            seed: 0xD1FF + 2,
        }),
        80,
    );
    check_family(Family::UnTH3J, &unif);
    check_family_with_nulls(Family::UnTH3J, &unif, 0xD1FF + 2);
}

/// Every query of the small NREF3J, SkTH3Js and UnTH3J workloads that
/// times out at the small budget under `P` or `1C` (each distinct
/// execution once) reports, at 1, 2 and 4 query threads and two morsel
/// sizes, the leading operator slots of the same plan run with no unit
/// budget. Such a run still stops at `BUDGET_ROW_CAP` rows. Where it
/// completes, the timeout holds fewer slots than it, and its units are
/// the verdict boundary: Done at that budget, a timeout one `f64` below.
/// Where the row cap stops it, no budget completes the query.
#[test]
fn small_timeouts_report_the_leading_slots_of_an_unbudgeted_run() {
    let spec = BenchSpec::small();
    let (mut timeouts, mut row_capped) = (0, 0);
    for (family, label) in [
        (Family::Nref3J, "NREF"),
        (Family::SkTH3Js, "SkTH"),
        (Family::UnTH3J, "UnTH"),
    ] {
        let db = &spec
            .database(label, &Faults::disabled())
            .expect("no faults armed");
        let p = build_p(db, label);
        let c1 = build_1c(db, label);
        let w = prepare_workload_db(db, family, &p, spec.workload_size, spec.seed);
        let mut seen = HashSet::new();
        for (qi, q) in w.iter().enumerate() {
            for (cname, built) in [("P", &p), ("1C", &c1)] {
                let session = Session::new(db, built);
                let plan = session.plan_query(q).expect("family query plans");
                if !seen.insert(session.execution_key(&plan, None)) {
                    continue;
                }
                let resolver = Resolver::new(db, built);
                let run = |opts: &ExecOpts<'_>, budget: f64, ops: Option<&mut Vec<OpActuals>>| {
                    let mut meter = CostMeter::with_budget(budget);
                    execute(&plan, &resolver, &mut meter, opts, ops, None).map(|_| meter.units())
                };
                let label = format!("{} query {qi} under {cname}", family.name());
                if run(&ExecOpts::default(), spec.timeout_units, None).is_ok() {
                    continue;
                }
                timeouts += 1;
                let mut full = Vec::new();
                let completed = run(&ExecOpts::default(), f64::MAX, Some(&mut full));
                // A completed run holds every slot; a row-capped one may
                // stop where the timeout does.
                let most = full.len() - usize::from(completed.is_ok());
                for threads in [1, 2, 4] {
                    for morsel_rows in [64, DEFAULT_MORSEL_ROWS] {
                        let opts = ExecOpts {
                            par: Parallelism::new(threads),
                            morsel_rows,
                            ..ExecOpts::default()
                        };
                        let mut ops = Vec::new();
                        let cut = run(&opts, spec.timeout_units, Some(&mut ops));
                        let at = format!("{label}, {threads} query-threads, morsel {morsel_rows}");
                        assert!(cut.is_err(), "{at}: completed");
                        assert!(
                            ops.len() <= most
                                && ops.iter().zip(&full).all(|(a, b)| same_work(a, b)),
                            "{at}: {ops:?} is not a prefix of {full:?}"
                        );
                    }
                }
                match completed {
                    Ok(units) => {
                        assert!(run(&ExecOpts::default(), units, None).is_ok(), "{label}");
                        let below = run(&ExecOpts::default(), units.next_down(), None);
                        assert!(below.is_err(), "{label}: no timeout below the total");
                    }
                    Err(_) => row_capped += 1,
                }
            }
        }
    }
    // The small run's golden grid times out 3 + 5 + 1 of these queries
    // under each of `P` and `1C`: 18 runs, 14 distinct executions, one
    // of them (SkTH3Js query 26) past the row cap.
    assert_eq!((timeouts, row_capped), (14, 1));
}
