//! The parallel harness's central guarantee: a reproduction run's
//! outputs are byte-identical at any thread count (timings.json is the
//! documented exception — wall-clock varies run to run).

use std::path::Path;

use tab_bench::engine::ChargePolicy;
use tab_bench::eval::Parallelism;
use tab_bench_harness::repro::{run_all, ReproConfig};

mod common;
use common::{snapshot, tiny};

/// Like [`tiny`], but with intra-query morsel parallelism dialed up:
/// 4 query threads and a 64-row morsel size. Every artifact must still
/// byte-compare against the sequential baseline.
fn tiny_morsel(out: &Path, threads: usize) -> ReproConfig {
    let mut cfg = tiny(out, threads);
    cfg.spec.query_threads = Parallelism::new(4);
    cfg.spec.morsel_rows = 64;
    cfg
}

/// The `reused` counts of a `timings.json` document, summed.
fn reused_total(timings: &str) -> usize {
    let counts = timings.split("\"reused\": ").skip(1);
    counts
        .map(|rest| {
            let count: String = rest.chars().take_while(char::is_ascii_digit).collect();
            count
                .parse::<usize>()
                .expect("a `reused` field has a count")
        })
        .sum()
}

#[test]
fn repro_outputs_identical_at_one_and_four_threads() {
    let base = std::env::temp_dir().join(format!("tab_determinism_{}", std::process::id()));
    let dirs = [
        base.join("t1"),
        base.join("t1b"),
        base.join("t4"),
        base.join("t4q4"),
    ];
    let summaries = [
        run_all(&tiny(&dirs[0], 1)).expect("clean run at 1 thread"),
        run_all(&tiny(&dirs[1], 1)).expect("clean repeat run"),
        run_all(&tiny(&dirs[2], 4)).expect("clean run at 4 threads"),
        run_all(&tiny_morsel(&dirs[3], 4)).expect("clean run with 4 query threads"),
    ];

    // Claims agree across repeats and thread counts, verdicts included.
    for s in &summaries[1..] {
        assert_eq!(s.claims.len(), summaries[0].claims.len());
        for (a, b) in s.claims.iter().zip(&summaries[0].claims) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.holds, b.holds, "claim {} verdict differs", a.id);
            assert_eq!(a.evidence, b.evidence, "claim {} evidence differs", a.id);
        }
    }

    // Every CSV and figure file is byte-identical.
    let want = snapshot(&dirs[0]);
    assert!(
        want.keys().any(|k| k.ends_with(".csv")),
        "expected CSV outputs, got {:?}",
        want.keys().collect::<Vec<_>>()
    );
    for dir in &dirs[1..] {
        let got = snapshot(dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (name, bytes) in &want {
            assert_eq!(&got[name], bytes, "{name} differs between runs");
        }
    }

    // The output directory holds exactly the documented artifact set: a
    // retired file cannot silently come back, nor a kept one vanish.
    let mut files: Vec<String> = std::fs::read_dir(&dirs[0])
        .expect("read output dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "BENCH_io.json",
            "claims.csv",
            "convergence.csv",
            "fig01_hist_nref2j_P.csv",
            "fig02_hist_nref2j_R.csv",
            "fig03_cfc_A_nref2j.csv",
            "fig04_cfc_A_nref3j.csv",
            "fig05_cfc_B_nref2j.csv",
            "fig06_cfc_B_nref3j.csv",
            "fig07_cfc_C_skth3js.csv",
            "fig08_cfc_C_skth3j.csv",
            "fig09_cfc_C_unth3j.csv",
            "fig10_estimates_nref3j.csv",
            "fig11_improvement_ratios_nref3j.csv",
            "fig12_convergence_curve.csv",
            "figures.txt",
            "goal_example2.csv",
            "runs_raw.csv",
            "sec4_4_insertions.csv",
            "table1_configurations.csv",
            "table2_nref_indexes.csv",
            "table3_tpch_indexes.csv",
            "timings.json",
            "totals_lower_bounds.csv",
        ]
    );

    // Pool-less runs report compat-mode io: BENCH_io.json exists, is
    // schema-tagged, and says the pool was off.
    let io = std::fs::read_to_string(dirs[0].join("BENCH_io.json")).expect("BENCH_io.json");
    assert!(io.contains("\"schema\": \"tab-io-bench-v1\""), "{io}");
    assert!(io.contains("\"mode\": \"compat\""), "{io}");

    // timings.json exists and records the thread count.
    let t = std::fs::read_to_string(dirs[2].join("timings.json")).expect("timings.json");
    assert!(t.contains("\"threads\": 4"), "unexpected timings: {t}");
    assert!(t.contains("\"family\": \"NREF2J\""));

    // The grid's reuse count follows grid order, not which worker ran a
    // plan first: some queries reuse an execution, and as many at 1 and
    // at 4 threads.
    let reused = |dir: &Path| {
        reused_total(&std::fs::read_to_string(dir.join("timings.json")).expect("timings.json"))
    };
    assert!(reused(&dirs[0]) > 0, "no query reused an execution");
    for dir in &dirs[1..] {
        assert_eq!(reused(dir), reused(&dirs[0]), "{}", dir.display());
    }

    std::fs::remove_dir_all(&base).ok();
}

/// Like [`tiny`], but with every grid query routed through a
/// `pages`-frame buffer pool in Metered charge mode. Metered keeps the
/// meter's totals byte-identical to the pool-less legacy model, so the
/// whole artifact set must byte-compare against a pool-less baseline —
/// at any capacity and any thread count — while the pool still runs
/// frames, clock eviction, and spill underneath.
fn tiny_pooled(out: &Path, threads: usize, pages: usize) -> ReproConfig {
    let mut cfg = tiny(out, threads);
    cfg.spec.buffer_pages = pages;
    cfg.spec.charge = ChargePolicy::Metered;
    cfg
}

#[test]
fn pooled_repro_outputs_identical_across_capacities_and_threads() {
    let base = std::env::temp_dir().join(format!("tab_pool_determinism_{}", std::process::id()));
    let plain = base.join("plain");
    let p64t1 = base.join("p64t1");
    let p64t8 = base.join("p64t8");
    let p4096t4 = base.join("p4096t4");
    run_all(&tiny(&plain, 1)).expect("pool-less baseline");
    run_all(&tiny_pooled(&p64t1, 1, 64)).expect("64-frame pool at 1 thread");
    run_all(&tiny_pooled(&p64t8, 8, 64)).expect("64-frame pool at 8 threads");
    run_all(&tiny_pooled(&p4096t4, 4, 4096)).expect("4096-frame pool at 4 threads");

    // Every CSV, figure, and claim is byte-identical to the pool-less
    // baseline: eviction is a pure function of the logical access
    // stream and Metered charging never moves a unit.
    let want = snapshot(&plain);
    for dir in [&p64t1, &p64t8, &p4096t4] {
        let got = snapshot(dir);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (name, bytes) in &want {
            assert_eq!(
                &got[name],
                bytes,
                "{name} differs from the pool-less baseline in {}",
                dir.display()
            );
        }
    }

    // BENCH_io.json is wall-clock-free, so at a fixed capacity it must
    // *byte*-compare across thread counts — the whole point of keeping
    // eviction off the thread schedule.
    let io64 = std::fs::read(p64t1.join("BENCH_io.json")).expect("BENCH_io.json");
    let io64_t8 = std::fs::read(p64t8.join("BENCH_io.json")).expect("BENCH_io.json");
    assert_eq!(io64, io64_t8, "BENCH_io.json differs across thread counts");

    // The 64-frame capacity sits below the tiny database's working set:
    // the run must report real evictions and an imperfect hit rate.
    let io64 = String::from_utf8(io64).expect("utf8");
    assert!(io64.contains("\"schema\": \"tab-io-bench-v1\""), "{io64}");
    assert!(io64.contains("\"mode\": \"pool\""), "{io64}");
    assert!(io64.contains("\"buffer_pages\": 64"), "{io64}");
    assert!(io64.contains("\"charge\": \"metered\""), "{io64}");
    let field_total = |doc: &str, key: &str| -> u64 {
        doc.lines()
            .filter_map(|l| {
                let (_, rest) = l.split_once(&format!("\"{key}\": "))?;
                rest.split([',', '}']).next()?.trim().parse::<u64>().ok()
            })
            .sum()
    };
    assert!(
        field_total(&io64, "evictions") > 0,
        "64-frame pool reports no evictions: {io64}"
    );
    let hits = field_total(&io64, "hits");
    let misses = field_total(&io64, "misses_seq") + field_total(&io64, "misses_random");
    assert!(misses > 0, "64-frame pool reports no misses: {io64}");
    assert!(
        (hits as f64) / ((hits + misses) as f64) < 1.0,
        "64-frame pool reports a perfect hit rate: {io64}"
    );

    // A capacity larger than the working set still byte-compares on the
    // grid artifacts (checked above) but shows different traffic.
    let io4096 = std::fs::read_to_string(p4096t4.join("BENCH_io.json")).expect("BENCH_io.json");
    assert!(io4096.contains("\"buffer_pages\": 4096"), "{io4096}");
    assert_ne!(io64, io4096, "traffic should differ across capacities");

    std::fs::remove_dir_all(&base).ok();
}
