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
//! 4. Every string and number a writer puts in an event replays equal,
//!    and damaged or random bytes replay, count as skipped lines or are
//!    refused as torn, never a panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tab_bench::datagen::{generate_nref, NrefParams};
use tab_bench::engine::Session;
use tab_bench::eval::{build_1c, build_p, run_grid, BenchSpec, GridCell};
use tab_bench::families::Family;
use tab_bench::storage::trace::{event, Num};
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
    let mut w = Family::Nref2J.enumerate(&db, Parallelism::sequential());
    w.truncate(6);
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
    run_grid(&spec, &cells, Trace::to(&sink), Faults::disabled()).expect("clean grid");
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
    let mut w = Family::Nref2J.enumerate(&db, Parallelism::sequential());
    w.truncate(6);
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

/// Characters that stress the line grammar: its delimiters, escapes,
/// controls, and multi-byte UTF-8.
const ALPHABET: [char; 13] = [
    '"', ' ', '\\', ',', ':', '{', '}', '\n', '\t', '\u{1}', 'é', '漢', 'a',
];

/// A string drawn from [`ALPHABET`]; a quarter of them end in `\`.
fn arbitrary_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0usize..12);
    let mut s: String = (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect();
    if rng.random_bool(0.25) {
        s.push('\\');
    }
    s
}

/// `bytes` with one byte flipped, or cut short, or both.
fn damage(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    if rng.random_bool(0.5) {
        let i = rng.random_range(0..out.len());
        out[i] ^= 1 << rng.random_range(0u32..8);
    }
    if rng.random_bool(0.5) {
        out.truncate(rng.random_range(0..out.len()));
    }
    out
}

/// Restoring the old scanner rule (a quote ends a string unless the byte
/// before it is a backslash) fails the round trip.
#[test]
fn seeded_events_round_trip_and_damage_never_panics() {
    let mut rng = StdRng::seed_from_u64(40);
    let mut text = String::new();
    let mut want = Vec::new();
    for case in 0..500u64 {
        let (family, config, label) = (
            arbitrary_string(&mut rng),
            arbitrary_string(&mut rng),
            arbitrary_string(&mut rng),
        );
        let units = rng.random_range(0u64..1_000_000) as f64 / 1000.0;
        let line = event("operator")
            .str("family", &family)
            .str("config", &config)
            .int("query", case)
            .int("op", case % 7)
            .str("label", &label)
            .token("est_cost", Num(f64::INFINITY))
            .token("units", Num(units))
            .finish();
        text.push_str(&line);
        text.push('\n');
        want.push((family, config, label, units));
    }
    let replay = replay_str(&text).expect("a whole document replays");
    assert_eq!(replay.skipped, 0);
    for (case, (family, config, label, units)) in want.into_iter().enumerate() {
        let q = &replay.cells[&(family, config)].queries[&(case as u64)];
        let op = &q.ops[&(case as u64 % 7)];
        assert_eq!(
            (op.label.as_str(), op.est_cost, op.rows_out, op.units),
            (label.as_str(), None, None, Some(units)),
            "case {case}"
        );
    }
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    for _ in 0..2_000 {
        let bytes = if rng.random_bool(0.8) {
            let line = lines[rng.random_range(0..lines.len())];
            damage(&mut rng, line.as_bytes())
        } else {
            (0..rng.random_range(0usize..80))
                .map(|_| rng.random::<u64>() as u8)
                .collect()
        };
        let input = String::from_utf8_lossy(&bytes);
        match replay_str(&input) {
            Err(ReplayError::Torn) => assert!(!input.ends_with('\n'), "{input:?}"),
            Ok(r) => {
                let ops: usize = r
                    .cells
                    .values()
                    .flat_map(|c| c.queries.values())
                    .map(|q| q.ops.len())
                    .sum();
                assert!(ops + r.skipped <= input.lines().count(), "{input:?}");
            }
        }
    }
}
