//! The observability layer's two contracts:
//!
//! 1. `tab explain`'s rendering distinguishes configurations — the same
//!    NREF3J query shows an `IndexScan` driver under `1C` and not under
//!    `P` — and pairs estimates with actuals.
//! 2. Tracing is observational only: a repro run with `--trace` writes
//!    byte-identical outputs to one without, while the trace itself
//!    captures operator, query, advisor, and span events.

use std::collections::BTreeMap;
use std::path::Path;

use tab_bench::datagen::{generate_nref, NrefParams};
use tab_bench::engine::{render_explain, ExecOpts, Session};
use tab_bench::eval::{build_1c, build_p, BenchSpec};
use tab_bench::families::Family;
use tab_bench::storage::Parallelism;
use tab_bench_harness::replay::{render_summary, replay_str};
use tab_bench_harness::repro::{run_all, ReproConfig};

#[test]
fn explain_shows_index_scan_under_1c_but_not_p() {
    let db = generate_nref(NrefParams {
        proteins: 400,
        seed: 7,
    });
    let p = build_p(&db, "NREF");
    let c1 = build_1c(&db, "NREF");
    let sp = Session::new(&db, &p);
    let s1 = Session::new(&db, &c1);
    // Find an NREF3J query whose chosen plan uses a secondary index under
    // 1C and none under P (P's only indexes are primary keys).
    let queries = Family::Nref3J.enumerate(&db);
    let separated = queries.iter().find(|q| {
        let d1 = s1.plan_query(q).expect("bind under 1C").describe();
        let dp = sp.plan_query(q).expect("bind under P").describe();
        d1.contains("IndexScan(") && !dp.contains("IndexScan(")
    });
    let q = separated.expect("an NREF3J query separating P from 1C by IndexScan");

    let mut renders = Vec::new();
    for s in [&sp, &s1] {
        let (plan, expl) = s.plan_query_explained(q).expect("plan");
        let acts = s.run(q, Some(2_000.0)).expect("run").ops;
        renders.push(render_explain(&plan, Some(&acts), Some(&expl)));
    }
    let (rp, r1) = (&renders[0], &renders[1]);
    // The golden shape: chosen plan line, estimate/actual pairing, and
    // the per-operator table, under both configurations.
    for r in [rp, r1] {
        assert!(r.starts_with("plan: "), "missing plan line:\n{r}");
        assert!(r.contains("estimated: "), "missing estimate:\n{r}");
        assert!(r.contains("est.cost"), "missing estimate column:\n{r}");
        assert!(r.contains("act.cost"), "missing actuals column:\n{r}");
    }
    let plan_line = |r: &str| r.lines().next().unwrap_or("").to_string();
    assert!(
        plan_line(r1).contains("IndexScan("),
        "1C plan should use the index:\n{r1}"
    );
    assert!(
        !plan_line(rp).contains("IndexScan("),
        "P plan should not have a secondary index to use:\n{rp}"
    );
    // Under 1C the decision trace shows the index *winning* an operator
    // slot (the `>` marker) — possibly as the inner side of a hash join
    // (`> HashJoin[IndexScan(…)]`) — not merely being considered.
    assert!(
        r1.lines()
            .any(|l| l.trim_start().starts_with('>') && l.contains("IndexScan(")),
        "1C should mark an index access path as chosen:\n{r1}"
    );
}

/// Golden explain under morsel parallelism: the rendered explain —
/// per-operator actuals included — is character-identical whether the
/// executor ran sequentially or with 4 query threads over 64-row
/// morsels. Per-morsel actuals must aggregate to exactly the
/// sequential counters, and the rendering must not leak the thread
/// count.
#[test]
fn explain_is_identical_at_one_and_four_query_threads() {
    let db = generate_nref(NrefParams {
        proteins: 400,
        seed: 7,
    });
    let c1 = build_1c(&db, "NREF");
    let queries = Family::Nref3J.enumerate(&db);
    let sample: Vec<_> = queries.iter().step_by(queries.len() / 4).take(4).collect();
    assert!(!sample.is_empty());
    for q in sample {
        let mut renders = Vec::new();
        for threads in [1, 4] {
            let exec = ExecOpts {
                par: Parallelism::new(threads),
                morsel_rows: 64,
                ..ExecOpts::default()
            };
            let s = Session::new(&db, &c1).with_exec(exec);
            let (plan, expl) = s.plan_query_explained(q).expect("plan");
            let acts = s.run(q, Some(2_000.0)).expect("run").ops;
            renders.push(render_explain(&plan, Some(&acts), Some(&expl)));
        }
        assert_eq!(
            renders[0], renders[1],
            "explain differs between 1 and 4 query threads for:\n{q}"
        );
    }
}

fn tiny(out: &Path) -> ReproConfig {
    ReproConfig {
        spec: BenchSpec {
            nref_proteins: 400,
            tpch_scale: 0.002,
            workload_size: 8,
            timeout_units: 500.0,
            seed: 7,
            threads: Parallelism::new(2),
            ..BenchSpec::small()
        },
        out_dir: out.to_path_buf(),
        trace: None,
        faults: None,
        resume: false,
    }
}

/// Read every output file, excluding `timings.json` (wall-clock, which
/// varies run to run) and the `BENCH_*` records, compared by name below.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read output dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "timings.json" || name.starts_with("BENCH_") {
            continue;
        }
        out.insert(name, std::fs::read(entry.path()).expect("read output file"));
    }
    out
}

#[test]
fn traced_repro_outputs_are_byte_identical_to_untraced() {
    let base = std::env::temp_dir().join(format!("tab_observability_{}", std::process::id()));
    let plain_dir = base.join("plain");
    let traced_dir = base.join("traced");
    let trace_path = base.join("trace.jsonl");
    std::fs::create_dir_all(&base).expect("create temp base");

    run_all(&tiny(&plain_dir)).expect("untraced run");
    run_all(&ReproConfig {
        trace: Some(trace_path.clone()),
        ..tiny(&traced_dir)
    })
    .expect("traced run");

    // Every deterministic output file is byte-identical.
    let plain = snapshot(&plain_dir);
    let traced = snapshot(&traced_dir);
    assert_eq!(
        plain.keys().collect::<Vec<_>>(),
        traced.keys().collect::<Vec<_>>(),
        "same output files"
    );
    for (name, bytes) in &plain {
        assert_eq!(
            bytes, &traced[name],
            "{name} differs between traced and untraced runs"
        );
    }
    // The wall-clock-free BENCH_* records are byte-identical too:
    // tracing must not change pool traffic or search counters.
    for name in ["BENCH_io.json", "BENCH_convergence.json"] {
        let a = std::fs::read(plain_dir.join(name)).expect("plain bench");
        let b = std::fs::read(traced_dir.join(name)).expect("traced bench");
        assert_eq!(a, b, "{name} differs");
    }

    // The trace itself carries every event family of the schema.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    for event in [
        "span_begin",
        "span_end",
        "query",
        "operator",
        "advisor_begin",
        "advisor_round",
        "advisor_end",
    ] {
        assert!(
            trace
                .lines()
                .any(|l| l.contains(&format!("\"event\":\"{event}\""))),
            "trace is missing {event} events"
        );
    }
    for l in trace.lines() {
        assert!(
            l.starts_with("{\"schema\":\"tab-trace-v1\""),
            "bad line: {l}"
        );
    }

    // And `tab replay` digests it into per-operator rows.
    let summary = render_summary(&replay_str(&trace).expect("a clean trace replays"));
    assert!(summary.contains("SeqScan"), "no SeqScan row:\n{summary}");
    assert!(summary.contains("timeouts"), "no query table:\n{summary}");

    let _ = std::fs::remove_dir_all(&base);
}
