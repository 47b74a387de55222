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
//!   Summarize with `tab replay FILE`.
//! - `--faults SPEC`  arm a deterministic fault plan. Arms are
//!   comma-separated:
//!   `enospc:<file>[:N]` fails the Nth write of a named artifact,
//!   `panic:cell:<family>/<config>` poisons one grid cell,
//!   `truncate:trace:N` tears the trace after N lines. See DESIGN.md §10.
//!   A failed run is rerun: every artifact is written atomically and
//!   the run is deterministic, so a clean rerun into the same `--out`
//!   writes what an uninterrupted run would have.
//! - `--buffer-pages N`  run every grid query through an N-frame buffer
//!   pool with clock eviction (0 = off, the default). The pool models
//!   page traffic and counts spill; it holds no bytes and does no I/O.
//!   Eviction is a pure function of the logical access stream, so all
//!   outputs stay byte-identical at any thread count and `BENCH_io.json`
//!   reports the per-cell hit/miss/eviction traffic.
//! - `--charge observed|metered`  how the cost meter prices pool
//!   traffic. `observed` (default): hits free, misses charged as
//!   seq/random page reads — totals depend on `--buffer-pages`.
//!   `metered`: legacy model-based charges — totals byte-identical to a
//!   pool-less run at any capacity, while the pool still reports traffic.

use std::process::ExitCode;

use tab_bench_harness::repro::{run_all, ReproConfig, REPRO_FLAGS};
use tab_core::Args;

/// Name the usage error and exit 2 with the one-line usage.
fn usage(error: &str) -> ! {
    eprintln!("repro: {error}");
    eprintln!(
        "usage: repro [--small] [--threads N] [--query-threads N] [--morsel-rows N] \
         [--buffer-pages N] [--charge observed|metered] \
         [--check] [--expect FILE] [--out DIR] [--trace FILE] [--faults SPEC]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1), &REPRO_FLAGS).unwrap_or_else(|e| usage(&e));
    let cfg = ReproConfig::from_args(&args).unwrap_or_else(|e| usage(&e));
    let expect = args.get("expect");
    let check = args.switch("check") || expect.is_some();
    eprintln!(
        "tab-bench reproduction ({} scale, {} threads) -> {}",
        if args.switch("small") {
            "small"
        } else {
            "full"
        },
        cfg.spec.threads.threads(),
        cfg.out_dir.display()
    );
    let summary = match run_all(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro failed: {e}");
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
        match expect {
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
