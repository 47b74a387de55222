//! The trace replay + tracediff layer's contracts (DESIGN.md §11):
//!
//! 1. Round trip: replaying a traced grid run reconstructs exactly the
//!    operator actuals and query outcomes a live instrumented run
//!    observes (at the trace's 3-decimal rendering).
//! 2. Self-diff is empty and line order is irrelevant (parallel workers
//!    interleave lines); a seeded perturbation is detected and named.
//! 3. A torn trace — the `truncate:trace` fault's crash signature — is
//!    refused by replay (and so by `tab replay`), never silently
//!    half-replayed.

use tab_bench::datagen::{generate_nref, NrefParams};
use tab_bench::engine::Session;
use tab_bench::eval::{build_1c, build_p, run_grid, BenchSpec, GridCell};
use tab_bench::families::Family;
use tab_bench::storage::{FaultPlan, Faults, FileTraceSink, MemoryTraceSink, Parallelism, Trace};
use tab_bench_harness::replay::{diff, replay_str, DiffOptions, ReplayError};

const TIMEOUT: f64 = 500.0;

/// A small two-cell grid (P and 1C over NREF2J) traced to memory,
/// returning the trace text.
fn traced_grid_text(threads: usize) -> String {
    let db = generate_nref(NrefParams {
        proteins: 400,
        seed: 7,
    });
    let p = build_p(&db, "NREF");
    let c1 = build_1c(&db, "NREF");
    let w: Vec<_> = Family::Nref2J.enumerate(&db).into_iter().take(6).collect();
    let sink = MemoryTraceSink::new();
    let cells = [&p, &c1].map(|built| GridCell {
        family: "NREF2J",
        db: &db,
        built,
        workload: &w,
        pager: None,
    });
    let spec = BenchSpec {
        timeout_units: TIMEOUT,
        threads: Parallelism::new(threads),
        query_threads: Parallelism::new(2),
        morsel_rows: 64,
        ..BenchSpec::small()
    };
    run_grid(&spec, &cells, Trace::to(&sink), Faults::disabled(), None).expect("clean grid");
    sink.lines().join("\n") + "\n"
}

#[test]
fn replay_round_trips_live_instrumented_actuals() {
    let text = traced_grid_text(2);
    let replay = replay_str(&text).expect("clean trace replays");
    assert_eq!(replay.skipped, 0);

    let db = generate_nref(NrefParams {
        proteins: 400,
        seed: 7,
    });
    let w: Vec<_> = Family::Nref2J.enumerate(&db).into_iter().take(6).collect();
    for built in [build_p(&db, "NREF"), build_1c(&db, "NREF")] {
        let key = ("NREF2J".to_string(), built.config.name.clone());
        let cell = replay.cells.get(&key).unwrap_or_else(|| {
            panic!("cell {key:?} missing; have {:?}", replay.cells.keys());
        });
        assert_eq!(cell.queries.len(), w.len());
        let session = Session::new(&db, &built);
        for (qi, q) in w.iter().enumerate() {
            let result = session.run(q, Some(TIMEOUT)).expect("run");
            let acts = &result.ops;
            let rq = &cell.queries[&(qi as u64)];
            // Plan shape: the full label sequence, even past a timeout
            // cutoff (labels come from the plan, actuals from execution).
            let labels = result.plan.op_labels();
            assert_eq!(
                rq.plan_shape(),
                labels.iter().map(String::as_str).collect::<Vec<_>>(),
                "{key:?} q{qi}"
            );
            // Per-operator actuals at the trace's 3-decimal rendering.
            for (op, act) in acts.iter().enumerate() {
                let ro = &rq.ops[&(op as u64)];
                assert_eq!(ro.rows_in, Some(act.rows_in), "{key:?} q{qi} op{op}");
                assert_eq!(ro.rows_out, Some(act.rows_out), "{key:?} q{qi} op{op}");
                assert_eq!(ro.probes, Some(act.probes), "{key:?} q{qi} op{op}");
                assert_eq!(
                    format!("{:.3}", ro.units.expect("completed op has units")),
                    format!("{:.3}", act.units),
                    "{key:?} q{qi} op{op} units"
                );
            }
            // Operators past a timeout cutoff carry no actuals.
            for op in acts.len()..labels.len() {
                assert_eq!(rq.ops[&(op as u64)].units, None, "{key:?} q{qi} op{op}");
            }
            // Query outcome and metered total match the live meter.
            let (outcome, units) = match result.outcome {
                tab_bench::engine::Outcome::Done { units, .. } => ("done", units),
                tab_bench::engine::Outcome::Timeout { budget } => ("timeout", budget),
            };
            assert_eq!(rq.outcome, outcome, "{key:?} q{qi}");
            assert_eq!(
                format!("{:.3}", rq.units.expect("query units traced")),
                format!("{units:.3}"),
                "{key:?} q{qi}"
            );
            // The operator slots sum to the meter total for completed
            // queries (within the 3-decimal rendering granularity).
            if outcome == "done" {
                assert!(
                    (rq.op_units() - units).abs() < 1e-2 * acts.len() as f64,
                    "{key:?} q{qi}: op sum {} vs meter {units}",
                    rq.op_units()
                );
            }
        }
    }
}

#[test]
fn self_diff_is_clean_and_seeded_perturbations_are_named() {
    let text = traced_grid_text(2);
    let golden = replay_str(&text).expect("replay");

    // Self-diff: clean at zero tolerance.
    assert!(diff(&golden, &golden, DiffOptions::default()).is_empty());

    // Thread-count / line-order invariance: a 1-thread trace of the
    // same grid is a line permutation and diffs clean.
    let fresh = replay_str(&traced_grid_text(1)).expect("replay");
    let findings = diff(&golden, &fresh, DiffOptions::default());
    assert!(findings.is_empty(), "{findings:?}");

    // Seeded plan-shape perturbation: rename an operator label.
    let perturbed = text.replacen("SeqScan(", "SneakScan(", 1);
    assert_ne!(perturbed, text, "trace must contain a SeqScan");
    let bad = replay_str(&perturbed).expect("replay");
    let findings = diff(&golden, &bad, DiffOptions::default());
    assert!(!findings.is_empty());
    let f = findings
        .iter()
        .find(|f| f.kind == "plan_shape")
        .expect("plan_shape finding");
    assert_eq!(f.family.as_deref(), Some("NREF2J"));
    assert!(f.config.is_some() && f.query.is_some());
    assert!(f.detail.contains("SneakScan"), "{f}");

    // Seeded actuals perturbation: bump one probe count.
    let perturbed = text.replacen("\"probes\":0,", "\"probes\":7,", 1);
    assert_ne!(perturbed, text);
    let bad = replay_str(&perturbed).expect("replay");
    let findings = diff(&golden, &bad, DiffOptions { tolerance: 1e-6 });
    assert!(findings.iter().any(|f| f.kind == "probes"), "{findings:?}");
}

#[test]
fn truncate_trace_fault_yields_torn_trace_that_replay_refuses() {
    let dir = std::env::temp_dir().join(format!("tab_replay_torn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.jsonl");
    let plan = FaultPlan::parse("truncate:trace:3").expect("spec");
    let sink = FileTraceSink::create_with_faults(&path, &plan).expect("create");
    let trace = Trace::to(&sink);
    for i in 0..6 {
        trace.emit(|| {
            tab_bench::storage::trace::event("query")
                .str("family", "F")
                .str("config", "P")
                .int("query", i)
                .str("outcome", "done")
                .token("units", tab_bench::storage::trace::Num(1.0))
        });
    }
    // The sink refuses to publish; the torn bytes stay at the staging
    // path — exactly what a crashed writer leaves behind.
    sink.finish().expect_err("torn trace must not publish");
    assert!(!path.exists());
    let staging = dir.join("trace.jsonl.tmp");
    let torn = std::fs::read_to_string(&staging).expect("staging bytes");
    assert!(!torn.ends_with('\n'), "tail must be torn: {torn:?}");

    // Replay refuses the torn document outright.
    assert_eq!(replay_str(&torn), Err(ReplayError::Torn));

    std::fs::remove_dir_all(&dir).ok();
}
