//! Regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p tab-bench-harness --bin repro            # full scale
//! cargo run --release -p tab-bench-harness --bin repro -- --small # smoke run
//! ```
//!
//! Flags:
//!
//! - `--small`        small-scale smoke run into `results-small/`
//! - `--threads N`    worker threads (0 or absent = all cores); results
//!   are identical at any setting
//! - `--query-threads N`  intra-query morsel workers (default 1: the
//!   grid fan-out already saturates cores; 0 = all cores); results are
//!   identical at any setting
//! - `--morsel-rows N`    rows per morsel for the parallel executor
//!   (default 4096); results are identical at any setting
//! - `--check`        exit non-zero if any shape claim diverges (CI mode)
//! - `--expect FILE`  implies `--check`: compare claim verdicts against
//!   an `id,status` baseline instead of demanding all-HOLDS (some paper
//!   claims diverge by design at reduced scale — see EXPERIMENTS.md)
//! - `--out DIR`      override the output directory
//! - `--trace FILE`   write a `tab-trace-v1` JSONL trace of every grid
//!   query (per-operator estimates vs. actuals) and advisor round;
//!   observational only — all outputs are byte-identical without it.
//!   Summarize with `cargo run -p tab-bench-harness --bin trace_summary`.
//! - `--faults SPEC`  arm a deterministic fault plan (also read from
//!   `TAB_FAULTS` when the flag is absent). Arms are comma-separated:
//!   `enospc:<file>[:N]` fails the Nth write of a named artifact,
//!   `panic:cell:<family>/<config>` poisons one grid cell,
//!   `truncate:trace:N` tears the trace after N lines. See DESIGN.md §10.
//! - `--resume`       replay the grid cells checkpointed by a previous
//!   interrupted run in the same `--out` directory; outputs are
//!   byte-identical to an uninterrupted run.
//! - `--buffer-pages N`  run every grid query through an N-frame buffer
//!   pool with clock eviction and spill-to-disk (0 = off, the default).
//!   Eviction is a pure function of the logical access stream, so all
//!   outputs stay byte-identical at any thread count and `BENCH_io.json`
//!   reports the per-cell hit/miss/eviction traffic.
//! - `--charge observed|metered`  how the cost meter prices pool
//!   traffic. `observed` (default): hits free, misses charged as
//!   seq/random page reads — totals depend on `--buffer-pages`.
//!   `metered`: legacy model-based charges — totals byte-identical to a
//!   pool-less run at any capacity, while the pool still reports traffic.

use std::process::ExitCode;

use tab_bench_harness::repro::{run_all, ReproConfig};
use tab_core::FaultPlan;
use tab_engine::ChargePolicy;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--small] [--threads N] [--query-threads N] [--morsel-rows N] \
         [--buffer-pages N] [--charge observed|metered] \
         [--check] [--expect FILE] [--out DIR] [--trace FILE] [--faults SPEC] [--resume]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut small = false;
    let mut check = false;
    let mut resume = false;
    let mut threads: usize = 0;
    let mut query_threads: Option<usize> = None;
    let mut morsel_rows: Option<usize> = None;
    let mut buffer_pages: Option<usize> = None;
    let mut charge: Option<ChargePolicy> = None;
    let mut out: Option<String> = None;
    let mut expect: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut faults: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => small = true,
            "--check" => check = true,
            "--resume" => resume = true,
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--query-threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                query_threads = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--morsel-rows" => {
                let v = args.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                morsel_rows = Some(n);
            }
            "--buffer-pages" => {
                let v = args.next().unwrap_or_else(|| usage());
                buffer_pages = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--charge" => {
                let v = args.next().unwrap_or_else(|| usage());
                charge = Some(ChargePolicy::parse(&v).unwrap_or_else(|e| {
                    eprintln!("--charge: {e}");
                    std::process::exit(2);
                }));
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--expect" => {
                expect = Some(args.next().unwrap_or_else(|| usage()));
                check = true;
            }
            "--trace" => trace = Some(args.next().unwrap_or_else(|| usage())),
            "--faults" => faults = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let mut cfg = if small {
        ReproConfig::small()
    } else {
        ReproConfig::full()
    }
    .with_threads(threads);
    if let Some(n) = query_threads {
        cfg.params = cfg.params.with_query_threads(n);
    }
    if let Some(n) = morsel_rows {
        cfg.params = cfg.params.with_morsel_rows(n);
    }
    if let Some(n) = buffer_pages {
        cfg.params = cfg.params.with_buffer_pages(n);
    }
    if let Some(c) = charge {
        cfg.params = cfg.params.with_charge(c);
    }
    if let Some(dir) = out {
        cfg.out_dir = dir.into();
    }
    if let Some(path) = trace {
        cfg = cfg.with_trace(path.into());
    }
    if resume {
        cfg = cfg.with_resume();
    }
    // Flag wins over the environment, so a plan baked into a CI job can
    // be overridden per invocation.
    let spec = faults.or_else(|| std::env::var("TAB_FAULTS").ok().filter(|s| !s.is_empty()));
    if let Some(spec) = spec {
        match FaultPlan::parse(&spec) {
            Ok(plan) => cfg = cfg.with_faults(plan),
            Err(e) => {
                eprintln!("--faults: {e}");
                return ExitCode::from(2);
            }
        }
    }
    eprintln!(
        "tab-bench reproduction ({} scale, {} threads) -> {}",
        if small { "small" } else { "full" },
        cfg.params.par.threads(),
        cfg.out_dir.display()
    );
    let summary = match run_all(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro failed: {e}");
            eprintln!(
                "completed grid cells are checkpointed in {}; rerun with --resume to continue",
                cfg.out_dir.display()
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", summary.figures_text);
    println!("claims: {}/{} hold", summary.passed(), summary.claims.len());
    for c in &summary.claims {
        println!(
            "  [{}] {} -- {}",
            if c.holds { "HOLDS   " } else { "DIVERGES" },
            c.id,
            c.evidence
        );
    }
    if check {
        match &expect {
            Some(path) => {
                let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("--expect: cannot read {path}: {e}");
                    std::process::exit(2);
                });
                let expected: std::collections::BTreeMap<&str, &str> = baseline
                    .lines()
                    .skip(1)
                    .filter(|l| !l.trim().is_empty())
                    .filter_map(|l| l.split_once(','))
                    .collect();
                let mut bad = 0usize;
                for c in &summary.claims {
                    let got = if c.holds { "HOLDS" } else { "DIVERGES" };
                    match expected.get(c.id.as_str()) {
                        Some(&want) if want == got => {}
                        Some(&want) => {
                            eprintln!("--check: claim {} is {got}, baseline says {want}", c.id);
                            bad += 1;
                        }
                        None => {
                            eprintln!("--check: claim {} missing from baseline {path}", c.id);
                            bad += 1;
                        }
                    }
                }
                if expected.len() != summary.claims.len() {
                    eprintln!(
                        "--check: baseline has {} claims, run produced {}",
                        expected.len(),
                        summary.claims.len()
                    );
                    bad += 1;
                }
                if bad > 0 {
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "--check: all {} claim verdicts match {path}",
                    summary.claims.len()
                );
            }
            None if summary.passed() != summary.claims.len() => {
                eprintln!(
                    "--check: {} claim(s) diverged",
                    summary.claims.len() - summary.passed()
                );
                return ExitCode::FAILURE;
            }
            None => {}
        }
    }
    ExitCode::SUCCESS
}
