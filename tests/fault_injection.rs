//! The crash contract end to end: a repro run killed by an injected
//! fault (poisoned grid cell, ENOSPC on an artifact, torn trace) exits
//! with a typed error instead of panicking, leaves no half-written
//! artifact, and a clean rerun into the same output directory produces
//! outputs byte-identical to a never-interrupted run — at any thread
//! count, including rerunning at a different thread count than the
//! crash happened at.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use tab_bench::datagen::{generate_nref, generate_nref_checked, NrefParams};
use tab_bench::engine::{ChargePolicy, SharedEngine};
use tab_bench::sqlq::{parse_statement, Statement};
use tab_bench::storage::{par_map, par_map_catch, FaultPlan, Faults, Parallelism};
use tab_bench_harness::replay::line_diff;
use tab_bench_harness::repro::{run_all, ReproConfig, ReproError};

mod common;
use common::{snapshot, tiny};

/// A grid error's message must name exactly one failed cell: every
/// sibling of the poisoned cell ran to completion.
fn assert_one_cell_failed(message: &str) {
    assert!(message.starts_with("1 grid cell(s) failed"), "{message}");
}

fn assert_same_outputs(got_dir: &Path, want: &BTreeMap<String, Vec<u8>>, label: &str) {
    let got = snapshot(got_dir);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{label}: different output file sets"
    );
    for (name, bytes) in want {
        assert_eq!(
            &got[name], bytes,
            "{label}: {name} differs from a clean run"
        );
    }
}

#[test]
fn poisoned_cell_then_resume_is_byte_identical_across_thread_counts() {
    let base = std::env::temp_dir().join(format!("tab_fault_poison_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let clean_dir = base.join("clean");
    run_all(&tiny(&clean_dir, 1)).expect("clean baseline run");
    let want = snapshot(&clean_dir);

    // Crash at a mid-grid cell, then rerun clean into the same
    // directory at another thread count — 1 then 4, and 4 then 1.
    for (crash_threads, rerun_threads) in [(1, 4), (4, 1)] {
        let dir = base.join(format!("t{crash_threads}"));
        let plan = FaultPlan::parse("panic:cell:NREF3J/NREF_1C").expect("spec");
        let mut cfg = ReproConfig {
            faults: Some(plan),
            ..tiny(&dir, crash_threads)
        };
        let err = run_all(&cfg).expect_err("poisoned cell must fail the run");
        match &err {
            ReproError::Grid { message } => {
                assert!(message.contains("cell:NREF3J/NREF_1C"), "{message}");
                assert_one_cell_failed(message);
            }
            other => panic!("expected Grid error, got: {other}"),
        }

        cfg.faults = None;
        cfg.spec.threads = Parallelism::new(rerun_threads);
        let summary = run_all(&cfg).expect("a clean rerun completes the run");
        assert!(summary.claims.len() > 5, "claims recomputed on rerun");
        assert_same_outputs(
            &dir,
            &want,
            &format!("crash@{crash_threads}/rerun@{rerun_threads}"),
        );
    }

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn injected_enospc_names_the_artifact_and_resume_recovers() {
    let base = std::env::temp_dir().join(format!("tab_fault_enospc_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let clean_dir = base.join("clean");
    run_all(&tiny(&clean_dir, 2)).expect("clean baseline run");
    let want = snapshot(&clean_dir);

    let dir = base.join("faulted");
    let plan = FaultPlan::parse("enospc:claims.csv").expect("spec");
    let mut cfg = ReproConfig {
        faults: Some(plan),
        ..tiny(&dir, 2)
    };
    let err = run_all(&cfg).expect_err("full disk on claims.csv must fail the run");
    match &err {
        ReproError::Artifact { path, source } => {
            assert!(
                path.ends_with("claims.csv"),
                "wrong artifact: {}",
                path.display()
            );
            assert!(source.to_string().contains("claims.csv"), "{source}");
        }
        other => panic!("expected Artifact error, got: {other}"),
    }
    // The atomic write discipline: no claims.csv, complete or torn.
    assert!(!dir.join("claims.csv").exists());
    assert!(!dir.join("claims.csv.tmp").exists());

    cfg.faults = None;
    run_all(&cfg).expect("a clean rerun writes the missing artifacts");
    assert_same_outputs(&dir, &want, "enospc-rerun");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn torn_trace_fails_after_artifacts_and_a_clean_rerun_publishes_the_full_trace() {
    let base = std::env::temp_dir().join(format!("tab_fault_trace_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let clean_trace = base.join("clean.jsonl");
    run_all(&ReproConfig {
        trace: Some(clean_trace.clone()),
        ..tiny(&base.join("clean"), 2)
    })
    .expect("clean traced run");

    let dir = base.join("out");
    let trace_path = base.join("trace.jsonl");
    let plan = FaultPlan::parse("truncate:trace:5").expect("spec");
    let mut cfg = ReproConfig {
        trace: Some(trace_path.clone()),
        faults: Some(plan),
        ..tiny(&dir, 2)
    };
    let err = run_all(&cfg).expect_err("torn trace must fail the run");
    match &err {
        ReproError::TraceSink { message, .. } => {
            assert!(message.contains("after 5 lines"), "{message}")
        }
        other => panic!("expected TraceSink error, got: {other}"),
    }
    // The trace publishes last: artifacts are written, and the partial
    // trace stays at .tmp (never the final path).
    assert!(dir.join("claims.csv").exists());
    assert!(!trace_path.exists());
    let tmp = base.join("trace.jsonl.tmp");
    assert!(tmp.exists(), "partial trace preserved for inspection");
    let partial = std::fs::read_to_string(&tmp).expect("partial trace");
    assert_eq!(partial.lines().count(), 6, "5 whole lines + the torn tail");
    assert!(!partial.ends_with('\n'), "tail line is torn mid-write");

    // A clean rerun re-executes every cell, so its trace holds the lines
    // a clean traced run's does.
    cfg.faults = None;
    run_all(&cfg).expect("a clean rerun with a healthy sink");
    let read = |path: &Path| std::fs::read_to_string(path).expect("published trace");
    let (want, got) = (read(&clean_trace), read(&trace_path));
    let d = line_diff(&want, &got).expect("whole traces");
    assert!(d.is_empty(), "{d}");

    std::fs::remove_dir_all(&base).ok();
}

/// A panic inside an intra-query morsel worker (the `morsel:` fault
/// site) unwinds through the executor's `par_map`, is caught by the
/// grid's `par_map_catch` like a `cell:` poison, and a clean rerun —
/// at default executor settings — writes what a clean run writes. This
/// is the crash contract extended below the query boundary.
#[test]
fn poisoned_morsel_worker_then_resume_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("tab_fault_morsel_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let clean_dir = base.join("clean");
    run_all(&tiny(&clean_dir, 1)).expect("clean baseline run");
    let want = snapshot(&clean_dir);

    // Crash inside a morsel worker while the executor runs 2 query
    // threads over 64-row morsels.
    let dir = base.join("crash");
    let plan = FaultPlan::parse("panic:morsel:NREF3J/NREF_1C").expect("spec");
    let mut cfg = ReproConfig {
        faults: Some(plan),
        ..tiny(&dir, 2)
    };
    cfg.spec.query_threads = Parallelism::new(2);
    cfg.spec.morsel_rows = 64;
    let err = run_all(&cfg).expect_err("poisoned morsel must fail the run");
    match &err {
        ReproError::Grid { message } => {
            assert!(message.contains("morsel:NREF3J/NREF_1C"), "{message}");
            assert_one_cell_failed(message);
        }
        other => panic!("expected Grid error, got: {other}"),
    }

    // Rerun at default executor settings (sequential, 4096-row
    // morsels): results do not depend on intra-query parallelism.
    cfg.faults = None;
    cfg.spec = tiny(&dir, 1).spec;
    run_all(&cfg).expect("a clean rerun completes the run");
    assert_same_outputs(&dir, &want, "morsel-crash-rerun");

    std::fs::remove_dir_all(&base).ok();
}

/// Like [`tiny`], but with an 8-frame buffer pool in Observed charge
/// mode — small enough that hash builds overflow the pool's spill
/// threshold and dirty pages are evicted, so the `evict:` fault site
/// fires on real traffic.
fn tiny_pooled(out: &Path, threads: usize) -> ReproConfig {
    let mut cfg = tiny(out, threads);
    cfg.spec.buffer_pages = 8;
    cfg.spec.charge = ChargePolicy::Observed;
    cfg
}

/// Summed value of a numeric field across every cell line of a
/// `BENCH_io.json` document.
fn io_field_total(doc: &str, key: &str) -> u64 {
    doc.lines()
        .filter_map(|l| {
            let (_, rest) = l.split_once(&format!("\"{key}\": "))?;
            rest.split([',', '}']).next()?.trim().parse::<u64>().ok()
        })
        .sum()
}

/// The `panic:evict:<family>/<config>` fault site: a crash at a buffer
/// pool eviction inside one cell — after other cells have already
/// spilled pages — is caught like a `cell:` poison, and a clean rerun
/// writes what a clean run writes.
#[test]
fn poisoned_eviction_then_resume_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("tab_fault_evict_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let clean_dir = base.join("clean");
    run_all(&tiny_pooled(&clean_dir, 1)).expect("clean pooled baseline run");
    let want = snapshot(&clean_dir);
    let want_io = std::fs::read(clean_dir.join("BENCH_io.json")).expect("BENCH_io.json");
    // The premise of this test: the 8-frame run evicted dirty pages.
    let io_text = String::from_utf8_lossy(&want_io);
    assert!(
        io_field_total(&io_text, "spill_bytes_written") > 0,
        "8-frame pooled run did not spill:\n{io_text}"
    );

    let dir = base.join("crash");
    let plan = FaultPlan::parse("panic:evict:NREF3J/NREF_1C").expect("spec");
    let mut cfg = ReproConfig {
        faults: Some(plan),
        ..tiny_pooled(&dir, 4)
    };
    let err = run_all(&cfg).expect_err("poisoned eviction must fail the run");
    match &err {
        ReproError::Grid { message } => {
            assert!(message.contains("evict:NREF3J/NREF_1C"), "{message}");
            assert_one_cell_failed(message);
        }
        other => panic!("expected Grid error, got: {other}"),
    }

    cfg.faults = None;
    cfg.spec.threads = Parallelism::new(1);
    run_all(&cfg).expect("a clean rerun completes the run");
    assert_same_outputs(&dir, &want, "evict-poison-rerun");
    let got_io = std::fs::read(dir.join("BENCH_io.json")).expect("BENCH_io.json");
    assert_eq!(
        got_io, want_io,
        "BENCH_io.json after a rerun differs from a clean run"
    );

    std::fs::remove_dir_all(&base).ok();
}

/// The ISSUE's panic-isolation requirement at the `par_map` layer: one
/// poisoned job yields an `Err` slot under `par_map_catch` while its
/// siblings complete, and `par_map` itself re-raises.
#[test]
fn par_map_panic_isolation() {
    let items: Vec<u32> = (0..60).collect();
    for threads in [1, 4] {
        let got = par_map_catch(Parallelism::new(threads), &items, |&x| {
            if x == 17 {
                panic!("poisoned job {x}");
            }
            x + 1
        });
        assert_eq!(got.len(), items.len());
        for (i, r) in got.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i as u32 + 1, "threads={threads}"),
                Err(p) => {
                    assert_eq!(i, 17, "threads={threads}");
                    assert_eq!(p.message, "poisoned job 17");
                }
            }
        }
    }
    let panicked = std::panic::catch_unwind(|| {
        par_map(Parallelism::new(4), &items, |&x| {
            assert!(x != 17, "boom");
            x
        })
    });
    assert!(panicked.is_err(), "par_map re-raises job panics");
}

/// A datagen crash (`panic:build:<table>`) or injected ENOSPC
/// (`enospc:datagen`) is recoverable by construction: generators are
/// deterministic for a fixed seed, so a rerun with the fault disarmed
/// produces a database bit-identical to one that never crashed.
#[test]
fn datagen_crash_then_rerun_is_bit_identical() {
    let params = NrefParams {
        proteins: 300,
        seed: 11,
    };
    // The crash: the panic site names the table being added.
    let plan = FaultPlan::parse("panic:build:taxonomy").expect("spec");
    let crash = std::panic::catch_unwind(|| generate_nref_checked(params, &Faults::to(&plan)));
    let payload = crash.expect_err("the build panic must fire");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("build:taxonomy"),
        "panic must name its site: {message}"
    );
    // The injected ENOSPC: a typed error, not a panic.
    let plan = FaultPlan::parse("enospc:datagen").expect("spec");
    let err = generate_nref_checked(params, &Faults::to(&plan)).expect_err("enospc fires");
    assert!(err.to_string().contains("datagen"), "{err}");
    // The rerun with faults disarmed matches a build that never saw a
    // fault, row for row.
    let resumed = generate_nref_checked(params, &Faults::disabled()).expect("clean rerun");
    let clean = generate_nref(params);
    for name in ["protein", "source", "taxonomy"] {
        let (a, b) = (resumed.table(name).unwrap(), clean.table(name).unwrap());
        assert_eq!(a.n_rows(), b.n_rows(), "{name}");
        assert_eq!(a.row(7), b.row(7), "{name}");
    }
}

/// The repro harness surfaces a datagen fault as a typed
/// [`ReproError::Datagen`] naming the database and the fault site, and
/// a clean rerun into the same directory finishes with outputs
/// byte-identical to a never-interrupted run.
#[test]
fn repro_datagen_crash_resumes_byte_identical() {
    let base = std::env::temp_dir().join(format!("tab_fault_datagen_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let clean_dir = base.join("clean");
    run_all(&tiny(&clean_dir, 1)).expect("clean baseline run");
    let want = snapshot(&clean_dir);

    // SkTH is the first TPC-H database generated, well after the NREF
    // section's artifacts are on disk — a mid-run crash.
    let dir = base.join("crash");
    let mut cfg = tiny(&dir, 1);
    cfg.faults = Some(FaultPlan::parse("panic:build:lineitem").expect("spec"));
    match run_all(&cfg) {
        Err(ReproError::Datagen { label, message }) => {
            assert_eq!(label, "SkTH");
            assert!(message.contains("build:lineitem"), "{message}");
        }
        other => panic!("expected a typed datagen error, got {other:?}"),
    }

    cfg.faults = None;
    run_all(&cfg).expect("a clean rerun completes the run");
    assert_same_outputs(&dir, &want, "datagen-crash-rerun");

    std::fs::remove_dir_all(&base).ok();
}

/// The WAL torn-tail contract end to end: a `panic:wal:append` crash
/// leaves a half-written final frame; the engine refuses further writes
/// on the poisoned log; recovery truncates exactly the torn frame,
/// replays every whole one, and restores append capability.
#[test]
fn panicked_wal_append_truncates_to_a_recoverable_tail() {
    let db = generate_nref(NrefParams {
        proteins: 300,
        seed: 2005,
    });
    let state = || tab_bench::eval::served_state(db.clone(), "NREF", Parallelism::sequential());
    let insert = |key: i64| {
        let sql =
            format!("INSERT INTO source VALUES ({key}, 1, 562, 'W{key}', 'wal row', 'testdb')");
        match parse_statement(&sql).expect("parse") {
            Statement::Insert(i) => i,
            other => panic!("expected insert: {other:?}"),
        }
    };
    let wal = std::env::temp_dir().join(format!("tab_fault_wal_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&wal);

    // Append 0 succeeds; append 1 panics mid-frame (fsynced half line).
    let plan = Arc::new(FaultPlan::parse("panic:wal:append:1").expect("spec"));
    let (engine, _) = SharedEngine::with_wal(state(), &wal, Some(plan)).expect("fresh wal");
    let engine = Arc::new(engine);
    engine.insert(&insert(99_970), "p").expect("first insert");
    let crashed = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let _ = engine.insert(&insert(99_971), "p");
        })
        .join()
    };
    assert!(crashed.is_err(), "the armed append must panic");
    // The poisoned log refuses further writes: appending after a torn
    // tail would corrupt the only copy of the acked history.
    let refused = engine.insert(&insert(99_972), "p").expect_err("refused");
    assert!(refused.to_string().contains("poisoned"), "{refused}");
    assert_eq!(engine.generation(), 1, "nothing after the crash applied");

    // Recovery: the torn frame is truncated, the whole one replayed.
    let (recovered, report) = SharedEngine::with_wal(state(), &wal, None).expect("recovery");
    assert_eq!(report.replayed, 1);
    assert!(report.torn_tail, "the half-written frame must be reported");
    assert_eq!(recovered.generation(), 1);
    // And the log accepts appends again.
    let r = recovered
        .insert(&insert(99_973), "p")
        .expect("post-recovery");
    assert_eq!(recovered.generation(), 2);
    assert!(r.units > 0.0);
    let _ = std::fs::remove_file(&wal);
}
