//! Layer probes: each layer's public call, timed from outside.
//!
//! The traced run ends with these. They are the same calls on the same
//! small inputs whatever the workload was, so a layer's number can be
//! compared between two commits on any workload's traced run. Every
//! call sits in a span named `<layer>.<call>`; a metric is the median
//! duration of its span. Calls too short to time singly are timed in
//! batches, one span per batch.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use tab_advisor::{generate_candidates, AdvisorInput, CandidateStyle};
use tab_core::space_budget;
use tab_datagen::{generate_tpch, Distribution, TpchParams};
use tab_engine::{EngineState, Session, SharedEngine, DEFAULT_TIMEOUT_UNITS};
use tab_families::Family;
use tab_sqlq::{parse, parse_statement, Insert, Query, Statement};
use tab_storage::{BuiltConfiguration, Database, Faults, Parallelism, Trace, Wal, WalRecord};

use crate::proc::spawn_server;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::LineClient;
use crate::workloads::advisor::profiles;
use crate::workloads::grid::{build_nref, sample, Built};
use crate::workloads::{pool, Ctx};

/// Calls per span for calls too short to time singly.
const BATCH: usize = 1000;
/// Repeats of a call timed singly; its metric is the median.
const REPEATS: usize = 3;

/// Median duration of the spans called `name`, in seconds.
fn med(tr: &Tracer, name: &str) -> Result<f64, String> {
    median(&tr.durations(name)).ok_or(format!("probe recorded no `{name}` span"))
}

fn rows(db: &Database) -> f64 {
    db.tables().map(|t| t.n_rows()).sum::<usize>() as f64
}

fn probe_insert(i: usize) -> Insert {
    let sql = format!(
        "INSERT INTO source VALUES ({}, 1, 562, 'PROBE{i:04}', 'probe row {i}', 'probedb')",
        200_000 + i
    );
    match parse_statement(&sql) {
        Ok(Statement::Insert(ins)) => ins,
        other => panic!("probe insert must parse as an INSERT: {other:?}"),
    }
}

fn state_of(built: &Built) -> EngineState {
    EngineState::new(built.db.clone())
        .with_config("p", built.p.clone())
        .with_config("1c", built.c1.clone())
}

/// Run every probe and return `(metric, value)` for the per-layer
/// metrics they feed.
pub fn run(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let s = ctx.scale;

    // datagen, storage builds, families
    let mut built = build_nref(tr, s.probe_nref, ctx.seed);
    let mut unth_rows = 0.0;
    for _ in 1..REPEATS {
        built = build_nref(tr, s.probe_nref, ctx.seed);
    }
    for _ in 0..REPEATS {
        let (unth, _) = tr.timed("datagen.generate_tpch", |_| {
            generate_tpch(TpchParams {
                scale: s.probe_unth,
                distribution: Distribution::Uniform,
                seed: ctx.seed,
            })
        });
        unth_rows = rows(&unth);
    }
    m.push((
        "datagen.nref_rows_per_s",
        rows(&built.db) / med(tr, "datagen.generate_nref")?,
    ));
    m.push((
        "datagen.tpch_rows_per_s",
        unth_rows / med(tr, "datagen.generate_tpch")?,
    ));
    m.push(("storage.build_p_ms", med(tr, "storage.build_p")? * 1e3));
    m.push(("storage.build_1c_ms", med(tr, "storage.build_1c")? * 1e3));
    let queries = sample(tr, &built, Family::Nref2J, s.probe_queries, ctx.seed);
    m.push((
        "families.prepare_ms",
        med(tr, "families.prepare_workload_db")? * 1e3,
    ));

    engine(tr, &built, &queries, &mut m)?;
    advisor(tr, &built, &queries, &mut m)?;
    writes(ctx, tr, &built, &mut m)?;
    pool(tr, &built, &mut m)?;
    server(ctx, tr, &built, &queries, &mut m)?;
    Ok(m)
}

/// sqlq and engine: parse, plan, estimate, execute, snapshot.
fn engine(
    tr: &mut Tracer,
    built: &Built,
    queries: &[Query],
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let texts: Vec<String> = queries.iter().map(Query::to_string).collect();
    // Enough rounds for a 90th percentile of execution times.
    let rounds = 100usize.div_ceil(2 * queries.len()).max(2);
    let mut exec_ms = Vec::new();
    // Cost units of one round (exact), and of all rounds with the
    // seconds they took (the calibration of units against time).
    let mut round_units = 0.0;
    let (mut units, mut exec_s) = (0.0, 0.0);
    for round in 0..rounds {
        for text in &texts {
            let (parsed, _) = tr.timed("sqlq.parse", |_| parse(text));
            parsed.map_err(|e| format!("probe query does not parse: {e:?}"))?;
        }
        for config in [&built.p, &built.c1] {
            let session = Session::new(&built.db, config);
            for q in queries {
                let (plan, plan_s) = tr.timed("engine.plan_query", |_| session.plan_query(q));
                plan.map_err(|e| e.message)?;
                let (est, _) = tr.timed("engine.estimate", |_| session.estimate(q));
                est.map_err(|e| e.message)?;
                let (ran, run_s) = tr.timed("engine.run", |_| {
                    session.run(q, Some(DEFAULT_TIMEOUT_UNITS))
                });
                let ran = ran.map_err(|e| e.message)?;
                // `run` plans, then executes.
                let exec = (run_s - plan_s).max(0.0);
                exec_ms.push(exec * 1e3);
                if let Some(u) = ran.outcome.units() {
                    units += u;
                    exec_s += exec;
                    if round == 0 {
                        round_units += u;
                    }
                }
            }
        }
    }
    m.push(("sqlq.parse_us", med(tr, "sqlq.parse")? * 1e6));
    m.push(("engine.plan_us", med(tr, "engine.plan_query")? * 1e6));
    m.push(("engine.estimate_us", med(tr, "engine.estimate")? * 1e6));
    m.push(("engine.exec_p50_ms", median(&exec_ms).expect("queries ran")));
    m.push(("engine.exec_p90_ms", percentile(&exec_ms, 90.0)?));
    m.push(("engine.exec_units", round_units));
    m.push(("engine.units_per_s", units / exec_s));

    let shared = SharedEngine::new(state_of(built));
    for _ in 0..5 {
        let span = tr.begin("engine.snapshot_batch");
        for _ in 0..BATCH {
            let snap = shared.snapshot();
            std::hint::black_box(snap.session("p").is_some());
        }
        tr.end(span);
    }
    m.push((
        "engine.snapshot_ns",
        med(tr, "engine.snapshot_batch")? * 1e9 / BATCH as f64,
    ));
    Ok(())
}

/// advisor: candidate generation, the three profiles, and building what
/// they recommend.
fn advisor(
    tr: &mut Tracer,
    built: &Built,
    queries: &[Query],
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let mut candidates = 0;
    for _ in 0..REPEATS {
        let (cands, _) = tr.timed("advisor.generate_candidates", |_| {
            generate_candidates(&built.db, queries, CandidateStyle::CoveringWithViews)
        });
        candidates = cands.len();
    }
    m.push(("advisor.candidates", candidates as f64));
    m.push((
        "advisor.candidates_ms",
        med(tr, "advisor.generate_candidates")? * 1e3,
    ));
    let budget_bytes = space_budget(&built.db, "NREF");
    let mut picks = 0;
    for round in 0..REPEATS {
        for (span, profile) in profiles() {
            let input = AdvisorInput {
                db: &built.db,
                current: &built.p,
                workload: queries,
                budget_bytes,
                par: Parallelism::available(),
                trace: Trace::disabled(),
            };
            let (cfg, _) = tr.timed(span, |_| profile.recommend(&input));
            if let (0, Some(cfg)) = (round, cfg) {
                picks += cfg.indexes.len() + cfg.mviews.len();
                let (r, _) = tr.timed("storage.build_r", |_| {
                    BuiltConfiguration::build(cfg, &built.db)
                });
                std::hint::black_box(r);
            }
        }
    }
    m.push((
        "advisor.recommend_a_ms",
        med(tr, "advisor.recommend_a")? * 1e3,
    ));
    m.push((
        "advisor.recommend_b_ms",
        med(tr, "advisor.recommend_b")? * 1e3,
    ));
    m.push((
        "advisor.recommend_c_ms",
        med(tr, "advisor.recommend_c")? * 1e3,
    ));
    m.push(("advisor.picks", picks as f64));
    // A profile may give up on every request; there is then nothing to build.
    m.push((
        "storage.build_r_ms",
        median(&tr.durations("storage.build_r")).unwrap_or(0.0) * 1e3,
    ));
    Ok(())
}

/// The write path: state clone, insert with and without a log, the log
/// itself, and replay.
fn writes(
    ctx: &Ctx<'_>,
    tr: &mut Tracer,
    built: &Built,
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let n = ctx.scale.probe_inserts;
    let state = state_of(built);
    for _ in 0..5 {
        let (copy, _) = tr.timed("storage.state_clone", |_| state.clone());
        drop(copy);
    }
    m.push((
        "storage.state_clone_ms",
        med(tr, "storage.state_clone")? * 1e3,
    ));

    let volatile = SharedEngine::new(state.clone());
    let log = ctx.run_dir.path("probe-engine.wal");
    let (durable, _) =
        SharedEngine::with_wal(state.clone(), &log, None).map_err(|e| format!("probe log: {e}"))?;
    let mut acks = Vec::with_capacity(n);
    for i in 0..n {
        let ins = probe_insert(i);
        let (ack, _) = tr.timed("engine.insert", |_| volatile.insert(&ins, "1c"));
        ack.map_err(|e| e.message)?;
        let (ack, _) = tr.timed("engine.insert_durable", |_| durable.insert(&ins, "1c"));
        acks.push((ins, ack.map_err(|e| e.message)?));
    }
    drop((volatile, durable));
    m.push(("engine.insert_ms", med(tr, "engine.insert")? * 1e3));
    m.push((
        "engine.insert_durable_ms",
        med(tr, "engine.insert_durable")? * 1e3,
    ));
    let (replayed, secs) = tr.timed("engine.replay", |_| {
        SharedEngine::with_wal(state, &log, None)
    });
    let (_, report) = replayed.map_err(|e| format!("probe replay: {e}"))?;
    if report.replayed != n as u64 {
        return Err(format!("probe replayed {} of {n} records", report.replayed));
    }
    m.push(("engine.replay_ms_per_record", secs * 1e3 / n as f64));

    // The log alone: the same records, appended by hand.
    let path = ctx.run_dir.path("probe-raw.wal");
    let mut wal = Wal::create(&path, 0).map_err(|e| format!("probe log: {e}"))?;
    let header = file_len(&path)?;
    for (i, (ins, ack)) in acks.iter().enumerate() {
        let rec = WalRecord {
            gen: ack.generation,
            client: "probe".into(),
            cseq: i as u64 + 1,
            config: "1c".into(),
            table: ins.table.clone(),
            values: ins.values.clone(),
            row_id: ack.row_id,
            units: ack.units,
        };
        let (appended, _) = tr.timed("storage.wal_append", |_| {
            wal.append(&rec, Faults::disabled())
        });
        appended.map_err(|e| format!("probe append: {e}"))?;
    }
    drop(wal);
    m.push((
        "storage.wal.append_us",
        med(tr, "storage.wal_append")? * 1e6,
    ));
    m.push((
        "storage.wal.bytes_per_record",
        ((file_len(&path)? - header) / n as u64) as f64,
    ));
    for _ in 0..REPEATS {
        let (opened, _) = tr.timed("storage.wal_open", |_| Wal::open(&path));
        let opened = opened.map_err(|e| format!("probe reopen: {e}"))?;
        if opened.records.len() != n || opened.torn_tail {
            return Err(format!(
                "probe log reopened with {} of {n} records",
                opened.records.len()
            ));
        }
    }
    m.push(("storage.wal.open_ms", med(tr, "storage.wal_open")? * 1e3));
    Ok(())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|meta| meta.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The buffer pool over `pool_sweep`'s page stream, once: cyclic sweeps
/// that never fit, dirty sweeps that spill and read back, a hot loop
/// that fits.
fn pool(tr: &mut Tracer, built: &Built, m: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let heap = pool::materialize(tr, &built.db, "probe")?;
    let stats = pool::pass(tr, &heap).stats;
    m.push((
        "storage.pool.miss_us",
        med(tr, "storage.pool_miss_sweep")? * 1e6 / (4 * pool::FRAMES) as f64,
    ));
    m.push((
        "storage.pool.hit_ns",
        med(tr, "storage.pool_hit_sweep")? * 1e9 / (pool::FRAMES / 2) as f64,
    ));
    m.push(("storage.pool.hit_rate", stats.hit_rate() * 100.0));
    m.push(("storage.pool.evictions", stats.evictions as f64));
    m.push((
        "storage.pager.spill_mb",
        stats.spill_bytes_written as f64 / (1024.0 * 1024.0),
    ));
    Ok(())
}

/// The server from outside: boot, connect, PING, EXPLAIN, QUERY against
/// a direct session, reads beside a writer, and request parsing.
fn server(
    ctx: &Ctx<'_>,
    tr: &mut Tracer,
    built: &Built,
    queries: &[Query],
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let db = format!("nref:{}", ctx.scale.probe_nref);
    let seed = ctx.seed.to_string();
    let wal = ctx.run_dir.path("probe-server.wal");
    let wal = wal.to_string_lossy();
    let server = spawn_server(
        &ctx.bin("tab"),
        &["--db", &db, "--seed", &seed, "--wal", &wal],
    )?;
    m.push(("server.boot_s", server.boot_s));
    let io = |e: std::io::Error| format!("probe server: {e}");

    // Connect plus first PING, on fresh connections.
    let mut client = None;
    for _ in 0..5 {
        let (c, _) = tr.timed("server.connect", |_| {
            let mut c = LineClient::connect(server.addr)?;
            c.request("PING").map(|_| c)
        });
        client = Some(c.map_err(io)?);
    }
    let mut client = client.expect("connected five times");
    m.push(("server.connect_ms", med(tr, "server.connect")? * 1e3));
    for _ in 0..20 {
        let (pong, _) = tr.timed("server.ping", |_| client.request("PING"));
        pong.map_err(io)?;
    }
    m.push(("server.ping_rtt_ms", med(tr, "server.ping")? * 1e3));

    let session = Session::new(&built.db, &built.p);
    let mut overhead_ms = Vec::new();
    let mut lines = Vec::new();
    for q in queries {
        let explain = format!("EXPLAIN p {q}");
        let (r, _) = tr.timed("server.explain", |_| client.request(&explain));
        r.map_err(io)?;
        let query = format!("QUERY p {q}");
        let (r, wire_s) = tr.timed("server.query", |_| client.request(&query));
        r.map_err(io)?;
        let (r, direct_s) = tr.timed("engine.run_direct", |_| {
            session.run(q, Some(DEFAULT_TIMEOUT_UNITS))
        });
        r.map_err(|e| e.message)?;
        overhead_ms.push((wire_s - direct_s) * 1e3);
        lines.extend([explain, query]);
    }
    m.push(("server.explain_rtt_ms", med(tr, "server.explain")? * 1e3));
    m.push((
        "server.wire_overhead_ms",
        median(&overhead_ms).expect("queries ran"),
    ));

    // Reads beside a writer: the reader must not wait for the latch.
    let writing = AtomicBool::new(true);
    let n = ctx.scale.probe_inserts;
    let addr = server.addr;
    let beside: Result<(), String> = std::thread::scope(|s| {
        let writing = &writing;
        let writer = s.spawn(move || {
            let sent = LineClient::connect(addr).and_then(|mut w| {
                for i in 1..=n {
                    let ins = probe_insert(i);
                    w.request(&format!("INSERT 1c probe:{i} {ins}"))?;
                }
                Ok(())
            });
            writing.store(false, Ordering::SeqCst);
            sent
        });
        let mut i = 0;
        while writing.load(Ordering::SeqCst) {
            let line = format!("QUERY p {}", queries[i % queries.len()]);
            let (r, _) = tr.timed("server.read_beside_write", |_| client.request(&line));
            r.map_err(io)?;
            i += 1;
        }
        writer.join().expect("probe writer panicked").map_err(io)
    });
    beside?;
    m.push((
        "server.read_beside_write_ms",
        med(tr, "server.read_beside_write")? * 1e3,
    ));
    server.guard.kill9();

    for _ in 0..5 {
        let span = tr.begin("server.parse_request_batch");
        for i in 0..BATCH {
            std::hint::black_box(tab_server::parse_request(&lines[i % lines.len()]).is_ok());
        }
        tr.end(span);
    }
    m.push((
        "server.parse_request_us",
        med(tr, "server.parse_request_batch")? * 1e6 / BATCH as f64,
    ));
    Ok(())
}
