//! A query whose consumer must refuse a join step's output never
//! materializes that output: the step prices the consumer's first
//! charge on a clone of the meter before it fills. A counting global
//! allocator measures the peak of live heap bytes during `Session::run`;
//! it must stay below the output arena's size. The cases:
//!
//! - the small SkTH3Js workload's fourth query, whose last step is a
//!   hash join of about a million tuples, without a pool and under a
//!   256-frame pool;
//! - an index nested-loop join on one skewed key whose residual range
//!   filter decides its output size, feeding a `COUNT(DISTINCT)`.
//!
//! This file holds one test, so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use tab_bench::engine::plan::JoinMethod;
use tab_bench::engine::{ExecOpts, PoolOpts, Session, ROW_COST};
use tab_bench::eval::{build_p, BenchSpec, Faults};
use tab_bench::sqlq::{parse, Query};
use tab_bench::storage::{
    BuiltConfiguration, ColType, ColumnDef, Configuration, Database, IndexSpec, RowId, Table,
    TableSchema, Value,
};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let live = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `q` at `budget` twice: once to check the shape (every join step
/// completes, the last one a hash join when `hash` and an index join
/// otherwise, and the output operator times out), then again under the
/// counting allocator, whose peak must stay below the last step's
/// output arena.
fn assert_never_fills(session: &Session<'_>, q: &Query, budget: f64, hash: bool) {
    let run = session.run(q, Some(budget)).expect("query binds");
    assert!(run.outcome.is_timeout(), "{:?}", run.outcome);
    assert_eq!(run.ops.len(), run.plan.steps.len() + 2, "{:?}", run.ops);
    let method = &run.plan.steps.last().expect("a join").method;
    assert_eq!(matches!(method, JoinMethod::Hash), hash, "{method:?}");
    let last = run.ops.last().expect("slots").rows_out as usize;
    assert!(last > 700_000, "{last} tuples");
    let arena = last * run.plan.query.rels.len() * std::mem::size_of::<RowId>();

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let again = session.run(q, Some(budget)).expect("query binds");
    let peak = PEAK.load(Relaxed) - base;
    assert!(again.outcome.is_timeout());
    assert!(
        peak < arena,
        "{method:?}: {peak} live bytes at peak; the last step's output alone is {arena}"
    );
}

#[test]
fn a_certain_timeout_never_fills_its_last_join_step() {
    let spec = BenchSpec::small();
    let db = spec
        .database("SkTH", &Faults::disabled())
        .expect("no faults armed");
    let p = build_p(&db, "SkTH");
    let q = parse(
        "SELECT t.o_orderkey, t.o_custkey, COUNT(*) FROM partsupp r, lineitem s, orders t \
         WHERE r.ps_partkey = s.l_partkey AND r.ps_suppkey = s.l_suppkey \
         AND s.l_extendedprice = t.o_totalprice AND s.l_suppkey = 6 \
         GROUP BY t.o_orderkey, t.o_custkey",
    )
    .expect("query parses");
    let pooled = ExecOpts {
        pool: Some(PoolOpts::new(256)),
        ..ExecOpts::default()
    };
    for session in [
        Session::new(&db, &p),
        Session::new(&db, &p).with_exec(pooled),
    ] {
        assert_never_fills(&session, &q, spec.timeout_units, true);
    }

    // `fact ⋈ tag ⋈ dim`, the last join through an index on `dim.k`. The
    // driver filter `f.a = 0` keeps 10,000 of `fact`'s rows, but `a` has
    // no index, so the planner expects two and joins `dim` by index
    // nested loops. A hundred kept rows probe `k = 0`, which half of `dim`
    // holds, and the rest `k = -1`, which none does; `d.w < 15000` keeps
    // 7,500 of each heavy probe's 10,000 rows. Three relations make the
    // output arena 12 bytes a tuple, above what the count keeps.
    let mut db = Database::new();
    let int = |name: &str| ColumnDef::new(name, ColType::Int);
    let skew = |i: i64| Value::Int(if i % 2 == 0 { 0 } else { i });
    let mut fact = Table::new(TableSchema::new("fact", vec![int("a"), int("s")]));
    let mut dim = Table::new(TableSchema::new("dim", vec![int("k"), int("w")]));
    let mut tag = Table::new(TableSchema::new("tag", vec![int("t")]));
    tag.insert(vec![Value::Int(0)]);
    tag.insert(vec![Value::Int(-1)]);
    for i in 0..20_000i64 {
        fact.insert(vec![skew(i), Value::Int(if i % 200 == 0 { 0 } else { -1 })]);
        dim.insert(vec![skew(i), Value::Int(i)]);
    }
    db.add_table(fact);
    db.add_table(dim);
    db.add_table(tag);
    db.collect_stats();
    let mut cfg = Configuration::named("ix");
    cfg.indexes.push(IndexSpec::new("dim", vec![0]));
    let built = BuiltConfiguration::build(cfg, &db);
    let q = parse(
        "SELECT COUNT(DISTINCT d.w) FROM fact f, tag t, dim d \
         WHERE f.a = 0 AND f.s = t.t AND t.t = d.k AND d.w < 15000",
    )
    .expect("query parses");
    let session = Session::new(&db, &built);
    // A budget that pays for the index join but not for a row of work
    // per tuple it emits.
    let mut full = session.run(&q, None).expect("query binds").ops;
    full.pop(); // the output operator's slot
    let through: f64 = full.iter().map(|o| o.units).sum();
    let budget = through + full.last().expect("slots").rows_out as f64 * ROW_COST / 2.0;
    assert_never_fills(&session, &q, budget, false);
}
