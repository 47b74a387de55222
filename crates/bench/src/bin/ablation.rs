//! Quality ablations: how much of the recommenders' failure is
//! estimation error, and what a CFC-goal objective would buy.
//!
//! Runs System-B-style recommendations on the NREF3J workload under
//! three variants and compares *actual* workload costs against `P` and
//! `1C`:
//!
//! 1. baseline: uniform what-if estimates, total-cost objective;
//! 2. `observe`: perfect distribution statistics for hypothetical
//!    structures (the paper's proposed observe step);
//! 3. `p90`: percentile objective (the paper's CFC-style goal).
//!
//! ```sh
//! cargo run --release -p tab-bench-harness --bin ablation -- [--small] [--threads N]
//! ```

use tab_advisor::{generate_candidates, greedy_select, CandidateStyle, GreedyOptions, Objective};
use tab_core::{
    build_1c, build_p, prepare_workload_db_with, run_workload, space_budget, workload_seed,
    Accepts, Args, BenchSpec, Faults,
};
use tab_families::Family;
use tab_storage::{BuiltConfiguration, Parallelism, Trace};

/// `--small` picks the small preset; `--threads N` sets the advisor
/// fan-out width (0 = all cores), and the recommendations are identical
/// at any setting.
const FLAGS: Accepts = Accepts {
    switches: &["small"],
    options: &["threads"],
    positional: false,
};

fn main() {
    let spec = Args::parse(std::env::args().skip(1), &FLAGS)
        .and_then(|args| BenchSpec::from_args(&args))
        .unwrap_or_else(|e| {
            eprintln!("ablation: {e}\nusage: ablation [--small] [--threads N]");
            std::process::exit(2);
        });
    let nref = spec
        .database("NREF", &Faults::disabled())
        .expect("no faults armed");
    let db = &nref;
    let p = build_p(db, "NREF");
    let c1 = build_1c(db, "NREF");
    let budget = space_budget(db, "NREF");
    let family = Family::Nref3J;
    let seed = workload_seed(spec.seed, family);
    let w = prepare_workload_db_with(db, family, &p, spec.workload_size, seed, spec.threads)
        .unwrap_or_default();
    let cands = generate_candidates(db, &w, CandidateStyle::Covering);

    let seq = Parallelism::sequential();
    let run_p = run_workload(db, &p, &w, spec.timeout_units, seq);
    let run_1c = run_workload(db, &c1, &w, spec.timeout_units, seq);
    println!(
        "{:<22} total_lb(s) {:>9.0}  timeouts {:>3}",
        "P",
        run_p.total_lower_bound_sim_seconds(),
        run_p.timeout_count()
    );
    println!(
        "{:<22} total_lb(s) {:>9.0}  timeouts {:>3}",
        "1C",
        run_1c.total_lower_bound_sim_seconds(),
        run_1c.timeout_count()
    );

    let base = GreedyOptions {
        par: spec.threads,
        ..GreedyOptions::default()
    };
    let variants: [(&str, GreedyOptions); 3] = [
        ("R (baseline)", base),
        (
            "R (observe/perfect)",
            GreedyOptions {
                perfect_estimates: true,
                ..base
            },
        ),
        (
            "R (p90 objective)",
            GreedyOptions {
                objective: Objective::Percentile(0.9),
                ..base
            },
        ),
    ];
    for (name, opts) in variants {
        let (cfg, stats) = greedy_select(
            db,
            &p,
            &w,
            cands.clone(),
            budget,
            name,
            opts,
            Trace::disabled(),
        );
        let n_idx = cfg.indexes.len();
        let built = BuiltConfiguration::build(cfg, db);
        let run = run_workload(db, &built, &w, spec.timeout_units, seq);
        println!(
            "{:<22} total_lb(s) {:>9.0}  timeouts {:>3}  indexes {:>2}               whatif {:>6} (planner {:>6}, {:>3.0}% cached, {:.2}s)",
            name,
            run.total_lower_bound_sim_seconds(),
            run.timeout_count(),
            n_idx,
            stats.whatif_calls,
            stats.planner_calls,
            stats.cache_hit_rate() * 100.0,
            stats.wall_seconds
        );
    }
}
