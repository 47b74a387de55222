//! Operator and optimizer microbenchmarks: scan, probe, join, plan.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use tab_datagen::{generate_nref, NrefParams};
use tab_engine::plan::JoinMethod;
use tab_engine::{CostMeter, ExecOpts, OpActuals, Resolver, Session, ROW_COST};
use tab_sqlq::parse;
use tab_storage::Parallelism;
use tab_storage::{
    BuiltConfiguration, ColType, ColumnDef, Configuration, Database, IndexSpec, Table, TableSchema,
    Value,
};

fn bench_engine(c: &mut Criterion) {
    let db = generate_nref(NrefParams {
        proteins: 2_000,
        seed: 1,
    });
    let p = BuiltConfiguration::build(Configuration::named("p"), &db);
    let mut icfg = Configuration::named("ix");
    let tax = db.table("taxonomy").unwrap().schema();
    icfg.indexes.push(IndexSpec::new(
        "taxonomy",
        vec![tax.require_column("taxon_id")],
    ));
    icfg.indexes.push(IndexSpec::new("source", vec![1])); // p_id
    let ix = BuiltConfiguration::build(icfg, &db);

    let scan_q = parse("SELECT t.lineage, COUNT(*) FROM taxonomy t GROUP BY t.lineage").unwrap();
    let probe_q =
        parse("SELECT t.lineage, COUNT(*) FROM taxonomy t WHERE t.taxon_id = 3 GROUP BY t.lineage")
            .unwrap();
    let join_q = parse(
        "SELECT t.lineage, COUNT(*) FROM taxonomy t, source s \
         WHERE t.taxon_id = s.taxon_id AND s.p_id = 1 GROUP BY t.lineage",
    )
    .unwrap();

    c.bench_function("seq_scan_aggregate", |b| {
        let s = Session::new(&db, &p);
        b.iter(|| black_box(s.run(&scan_q, None).unwrap().outcome.units()))
    });
    c.bench_function("index_probe_aggregate", |b| {
        let s = Session::new(&db, &ix);
        b.iter(|| black_box(s.run(&probe_q, None).unwrap().outcome.units()))
    });
    c.bench_function("hash_join_two_tables", |b| {
        let s = Session::new(&db, &p);
        b.iter(|| black_box(s.run(&join_q, None).unwrap().outcome.units()))
    });
    c.bench_function("plan_three_relation_query", |b| {
        let s = Session::new(&db, &ix);
        let q = parse(
            "SELECT r1.taxon_id, COUNT(DISTINCT r2.nref_id) \
             FROM taxonomy r1, taxonomy r2, source s \
             WHERE r1.taxon_id = r2.taxon_id AND r1.nref_id = s.nref_id \
             AND s.p_id = 0 GROUP BY r1.taxon_id",
        )
        .unwrap();
        b.iter(|| black_box(s.plan_query(&q).unwrap().est_cost))
    });
    c.bench_function("execute_planned_query", |b| {
        let s = Session::new(&db, &ix);
        let plan = s.plan_query(&probe_q).unwrap();
        let resolver = Resolver::new(&db, &ix);
        b.iter(|| {
            let mut m = CostMeter::unbounded();
            let rows =
                tab_engine::execute(&plan, &resolver, &mut m, &ExecOpts::default(), None, None);
            black_box(rows.unwrap().len())
        })
    });
}

/// Synthetic star schema sized for the batch-operator benches: `fact`
/// has `n` rows with a 10:1 fan-in onto `dim` (so an equi-join emits
/// exactly `n` rows) and 64 grouping values in `g`; `grp` maps each
/// grouping value to one row. Deterministic, no RNG.
fn batch_db(n: usize) -> Database {
    let mut db = Database::new();
    let mut fact = Table::new(TableSchema::new(
        "fact",
        vec![
            ColumnDef::new("k", ColType::Int),
            ColumnDef::new("g", ColType::Int),
            ColumnDef::new("v", ColType::Int),
        ],
    ));
    let n_dim = (n / 10).max(1);
    for i in 0..n {
        fact.insert(vec![
            Value::Int((i % n_dim) as i64),
            Value::Int((i % 64) as i64),
            Value::Int(i as i64),
        ]);
    }
    let mut dim = Table::new(TableSchema::new(
        "dim",
        vec![
            ColumnDef::new("k", ColType::Int),
            ColumnDef::new("w", ColType::Int),
        ],
    ));
    for i in 0..n_dim {
        dim.insert(vec![Value::Int(i as i64), Value::Int((i * 7) as i64)]);
    }
    let mut grp = Table::new(TableSchema::new(
        "grp",
        vec![
            ColumnDef::new("g", ColType::Int),
            ColumnDef::new("z", ColType::Int),
        ],
    ));
    for i in 0..64 {
        grp.insert(vec![Value::Int(i as i64), Value::Int((i * 3) as i64)]);
    }
    db.add_table(fact);
    db.add_table(dim);
    db.add_table(grp);
    db.collect_stats();
    db
}

/// Hash-join, group-by, and 3-way-join throughput at 10^3..10^5 rows —
/// the operators the late-materialization executor batches — plus the
/// hash join timing out in its probe, all under the index-less `P`
/// configuration so the planner picks hash joins, and an index
/// nested-loop join timing out.
fn bench_batch_operators(c: &mut Criterion) {
    let join_q = parse("SELECT COUNT(*) FROM fact f, dim d WHERE f.k = d.k").unwrap();
    let group_q = parse("SELECT f.g, COUNT(*) FROM fact f GROUP BY f.g").unwrap();
    let three_q = parse(
        "SELECT COUNT(*) FROM fact f, dim d, grp e \
         WHERE f.k = d.k AND f.g = e.g",
    )
    .unwrap();
    for n in [1_000usize, 10_000, 100_000] {
        let db = batch_db(n);
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let s = Session::new(&db, &p);
        c.bench_function(&format!("hash_join_{n}"), |b| {
            b.iter(|| black_box(s.run(&join_q, None).unwrap().outcome.units()))
        });
        c.bench_function(&format!("group_by_{n}"), |b| {
            b.iter(|| black_box(s.run(&group_q, None).unwrap().outcome.units()))
        });
        c.bench_function(&format!("three_way_join_{n}"), |b| {
            b.iter(|| black_box(s.run(&three_q, None).unwrap().outcome.units()))
        });
        // The same join under a budget that pays for the scans, the build
        // and the probe input but only half of the `n` matches: it times
        // out in the probe, after counting and before materializing.
        let plan = s.plan_query(&join_q).unwrap();
        let resolver = Resolver::new(&db, &p);
        let mut ops = Vec::new();
        let opts = ExecOpts::default();
        let mut m = CostMeter::unbounded();
        tab_engine::execute(&plan, &resolver, &mut m, &opts, Some(&mut ops), None).unwrap();
        let before_emit: f64 = ops[..3].iter().map(|o| o.units).sum();
        let budget = before_emit - n as f64 * ROW_COST / 2.0;
        let timed_out = |ops: Option<&mut Vec<OpActuals>>| {
            let mut m = CostMeter::with_budget(budget);
            tab_engine::execute(&plan, &resolver, &mut m, &opts, ops, None).is_err()
        };
        let mut ops = Vec::new();
        assert!(
            timed_out(Some(&mut ops)) && ops.len() == 2,
            "the probe must trip"
        );
        c.bench_function(&format!("timed_out_join_{n}"), |b| {
            b.iter(|| black_box(timed_out(None)))
        });
        // An index nested-loop join timing out. `p.a = 0 AND p.b = 0`
        // keeps 100 of `probe`'s 10,000 rows, but `a` and `b` are
        // unindexed and equal, so the planner multiplies two uniform
        // 1/n_distinct selectivities, expects no outer tuple, and probes
        // an index on `fact.g`; each probe matches `n / 64` rows and
        // fetches their heap pages. The budget pays for a quarter of the
        // join, so it times out in the index nested-loop step, after its
        // count pass and before its fill.
        let mut db = batch_db(n);
        let cols = ["a", "b", "g"].map(|c| ColumnDef::new(c, ColType::Int));
        let mut probe = Table::new(TableSchema::new("probe", cols.to_vec()));
        for i in 0..10_000i64 {
            let a = if i % 100 == 0 { 0 } else { i };
            probe.insert(vec![Value::Int(a), Value::Int(a), Value::Int(i % 64)]);
        }
        db.add_table(probe);
        db.collect_stats();
        let mut icfg = Configuration::named("ix");
        icfg.indexes.push(IndexSpec::new("fact", vec![1]));
        let ix = BuiltConfiguration::build(icfg, &db);
        let nl_q = parse(
            "SELECT COUNT(DISTINCT f.v) FROM probe p, fact f \
             WHERE p.a = 0 AND p.b = 0 AND p.g = f.g",
        )
        .unwrap();
        let plan = Session::new(&db, &ix).plan_query(&nl_q).unwrap();
        assert!(matches!(plan.steps[0].method, JoinMethod::IndexNl { .. }));
        let resolver = Resolver::new(&db, &ix);
        let mut ops = Vec::new();
        let mut m = CostMeter::unbounded();
        tab_engine::execute(&plan, &resolver, &mut m, &opts, Some(&mut ops), None).unwrap();
        let budget = ops[..2].iter().map(|o| o.units).sum::<f64>() + ops[2].units / 4.0;
        let timed_out = |ops: Option<&mut Vec<OpActuals>>| {
            let mut m = CostMeter::with_budget(budget);
            tab_engine::execute(&plan, &resolver, &mut m, &opts, ops, None).is_err()
        };
        let mut ops = Vec::new();
        assert!(
            timed_out(Some(&mut ops)) && ops.len() == 2,
            "the index nested-loop step must trip"
        );
        c.bench_function(&format!("timed_out_index_nl_{n}"), |b| {
            b.iter(|| black_box(timed_out(None)))
        });
    }
}

/// The shapes the paper's families actually run (§3.2.2), which the
/// `Int`-only `batch_db` does not have: a group-by over two string and
/// two integer columns into thousands of groups with a `COUNT(DISTINCT)`
/// beside the `COUNT(*)`, and an equi-join on a string column — the
/// general (non-`Int`) join path, probe and build dictionaries distinct.
fn bench_family_shapes(c: &mut Criterion) {
    let group_q = parse(
        "SELECT f.s1, f.s2, f.i1, f.i2, COUNT(*), COUNT(DISTINCT f.d) FROM fact f \
         GROUP BY f.s1, f.s2, f.i1, f.i2",
    )
    .unwrap();
    let join_q = parse("SELECT COUNT(*) FROM fact f, dim d WHERE f.name = d.name").unwrap();
    for (label, n) in [("10k", 10_000usize), ("100k", 100_000)] {
        let mut db = Database::new();
        let col = |name: &str, ty| ColumnDef::new(name, ty);
        let (int, text) = (ColType::Int, ColType::Str);
        let fact_cols = [
            col("s1", text),
            col("s2", text),
            col("i1", int),
            col("i2", int),
            col("d", int),
            col("name", text),
        ];
        let mut fact = Table::new(TableSchema::new("fact", fact_cols.to_vec()));
        let n_dim = n / 10;
        for i in 0..n {
            // 8 x 6 x 10 x 7 = 3360 groups, each seen at both scales.
            fact.insert(vec![
                Value::str(format!("lineage-{}", i % 8)),
                Value::str(format!("source-{}", i / 8 % 6)),
                Value::Int((i / 48 % 10) as i64),
                Value::Int((i / 480 % 7) as i64),
                Value::Int((i % 1000) as i64),
                Value::str(format!("name-{}", i % n_dim)),
            ]);
        }
        let dim_cols = [col("name", text), col("w", int)];
        let mut dim = Table::new(TableSchema::new("dim", dim_cols.to_vec()));
        for i in 0..n_dim {
            dim.insert(vec![Value::str(format!("name-{i}")), Value::Int(i as i64)]);
        }
        db.add_table(fact);
        db.add_table(dim);
        db.collect_stats();
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let s = Session::new(&db, &p);
        c.bench_function(&format!("group_by_family_{label}"), |b| {
            b.iter(|| black_box(s.run(&group_q, None).unwrap().outcome.units()))
        });
        c.bench_function(&format!("hash_join_str_{label}"), |b| {
            b.iter(|| black_box(s.run(&join_q, None).unwrap().outcome.units()))
        });
    }
}

/// The morsel-driven executor (DESIGN.md §12) on its two hot shapes —
/// a filtered scan and a hash-join probe — at 10^4 and 10^5 rows, each
/// through three executor variants: `scalar_1t` (row-at-a-time
/// predicates, sequential), `vector_1t` (columnar Int predicates,
/// sequential), and `vector_4t` (columnar + 4 morsel workers). Cost
/// units are identical across variants (the determinism contract);
/// only wall-clock may differ, which is exactly what this measures.
fn bench_exec_morsels(c: &mut Criterion) {
    let scan_q = parse("SELECT COUNT(*) FROM fact f WHERE f.v > 500 AND f.g = 3").unwrap();
    let join_q = parse("SELECT COUNT(*) FROM fact f, dim d WHERE f.k = d.k AND f.v > 500").unwrap();
    let variants = [
        ("scalar_1t", false, Parallelism::sequential()),
        ("vector_1t", true, Parallelism::sequential()),
        ("vector_4t", true, Parallelism::new(4)),
    ];
    for n in [10_000usize, 100_000] {
        let db = batch_db(n);
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        for (label, vectorize, par) in variants {
            let exec = ExecOpts {
                par,
                vectorize,
                ..ExecOpts::default()
            };
            let s = Session::new(&db, &p).with_exec(exec);
            c.bench_function(&format!("exec_morsels_scan_filter_{n}_{label}"), |b| {
                b.iter(|| black_box(s.run(&scan_q, None).unwrap().outcome.units()))
            });
            c.bench_function(&format!("exec_morsels_join_probe_{n}_{label}"), |b| {
                b.iter(|| black_box(s.run(&join_q, None).unwrap().outcome.units()))
            });
        }
    }
}

/// The buffer pool's hot paths (DESIGN.md §13), isolated from the
/// executor: the hit-path fetch (hash lookup + referenced bit), the
/// clock sweep under eviction pressure (working set 4x capacity, so
/// nearly every fetch walks the hand past referenced frames), and a
/// repeated sequential scan at 50% / 100% / 200% of capacity — the
/// 200% case is clock's sequential-flooding worst case, where every
/// revisit misses again.
fn bench_buffer_pool(c: &mut Criterion) {
    use tab_storage::{table_rel_id, BufferPool, Faults, Fetched, PageHint, PageKey, Trace};
    let rel = table_rel_id("bench");
    let key = |page: u64| PageKey { rel, page };
    let fresh =
        |pages: usize| BufferPool::new(pages, None, Faults::disabled(), Trace::disabled(), None);

    c.bench_function("buffer_pool_hit_fetch", |b| {
        let mut pool = fresh(1024);
        for p in 0..1024u64 {
            pool.fetch(key(p), PageHint::Seq, false);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(pool.fetch(key(i), PageHint::Random, false))
        })
    });

    c.bench_function("buffer_pool_clock_sweep_pressure", |b| {
        let mut pool = fresh(256);
        let mut i = 0u64;
        b.iter(|| {
            // Prime-strided walk over 4x the capacity: no temporal
            // locality the clock hand can exploit.
            i = (i + 7919) % 1024;
            black_box(pool.fetch(key(i), PageHint::Random, false))
        })
    });

    for (label, scan_pages) in [("50pct", 512u64), ("100pct", 1024), ("200pct", 2048)] {
        c.bench_function(&format!("buffer_pool_seq_scan_{label}"), |b| {
            let mut pool = fresh(1024);
            b.iter(|| {
                let mut misses = 0u64;
                for p in 0..scan_pages {
                    if !matches!(pool.fetch(key(p), PageHint::Seq, false), Fetched::Hit) {
                        misses += 1;
                    }
                }
                black_box(misses)
            })
        });
    }
}

/// The index layer (DESIGN.md §3): building over an unsorted `Int`
/// column, over a skewed string column whose equal values share one
/// `Arc<str>`, and over a three-column composite; and the maintenance
/// insert as `SharedEngine::insert` pays it — clone the shared index,
/// then insert into the copy (`Arc::make_mut`).
fn bench_index(c: &mut Criterion) {
    use std::sync::Arc;
    use tab_storage::BTreeIndex;
    let names: Vec<Value> = (0..64)
        .map(|i| Value::str(format!("name-{i:02}")))
        .collect();
    let row = |i: usize| {
        let u = (i as u64).wrapping_mul(2_654_435_761) % (1 << 32);
        let skewed = (u as f64 / (1u64 << 32) as f64).powi(3);
        vec![
            Value::Int(u as i64),
            names[(skewed * 64.0) as usize].clone(),
            Value::Int((i % 100) as i64),
        ]
    };
    let table = |n: usize| {
        let cols = [
            ("k", ColType::Int),
            ("s", ColType::Str),
            ("g", ColType::Int),
        ];
        let cols = cols.map(|(name, ty)| ColumnDef::new(name, ty)).to_vec();
        let mut t = Table::new(TableSchema::new("t", cols));
        for i in 0..n {
            t.insert(row(i));
        }
        t
    };
    for (label, n) in [("1k", 1_000), ("10k", 10_000), ("100k", 100_000)] {
        let t = table(n);
        for (shape, cols) in [
            ("int", vec![0]),
            ("shared_str", vec![1]),
            ("composite", vec![2, 1, 0]),
        ] {
            c.bench_function(&format!("index_build_{label}_{shape}"), |b| {
                b.iter(|| black_box(BTreeIndex::build(IndexSpec::new("t", cols.clone()), &t).1))
            });
        }
    }
    c.bench_function("index_insert_shared", |b| {
        let n = 100_000;
        let shared = Arc::new(BTreeIndex::build(IndexSpec::new("t", vec![0]), &table(n)).0);
        let mut i = n;
        b.iter(|| {
            i += 1;
            let mut next = Arc::clone(&shared);
            black_box(Arc::make_mut(&mut next).insert(&row(i), i as u32))
        })
    });
}

fn configured() -> Criterion {
    // Keep full-workspace bench runs to minutes, not hours: these are
    // coarse-grained operations (whole queries, whole advisor searches),
    // so ten samples at ~3 s each is plenty to see regressions.
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
}

criterion_group!(name = benches; config = configured(); targets = bench_engine, bench_batch_operators, bench_family_shapes, bench_exec_morsels, bench_buffer_pool, bench_index);
criterion_main!(benches);
