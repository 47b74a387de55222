//! Compare the three recommender profiles against the paper's `1C`
//! baseline on one workload — the benchmark in miniature.
//!
//! ```sh
//! cargo run --release --example advisor_shootout
//! ```

use tab_bench::advisor::{
    one_column_budget_bytes, AdvisorInput, Recommender, SystemA, SystemB, SystemC,
};
use tab_bench::eval::report::render_cfc_ascii;
use tab_bench::eval::{build_1c, build_p, run_workload, BenchSpec, Parallelism, Suite};
use tab_bench::families::Family;
use tab_bench::storage::BuiltConfiguration;

fn main() {
    // Large enough that index choices matter on TPC-H, small enough to
    // finish in about a minute.
    let spec = BenchSpec {
        tpch_scale: 0.02,
        workload_size: 40,
        ..BenchSpec::small()
    };
    let suite = Suite::build(spec);
    let db = &suite.skth;

    let p = build_p(db, "SkTH");
    let one_c = build_1c(db, "SkTH");
    let budget = one_column_budget_bytes(&p, &one_c);
    println!("space budget (size 1C - size P): {} KiB", budget / 1024);

    let workload = tab_bench::eval::prepare_workload(&suite, Family::SkTH3Js, &p);
    println!("workload: {} SkTH3Js queries", workload.len());

    let seq = Parallelism::sequential();
    let run_p = run_workload(db, &p, &workload, spec.timeout_units, seq);
    let run_1c = run_workload(db, &one_c, &workload, spec.timeout_units, seq);
    let mut curves = vec![
        ("P".to_string(), run_p.cfc()),
        ("1".to_string(), run_1c.cfc()),
    ];

    let input = AdvisorInput {
        db,
        current: &p,
        workload: &workload,
        budget_bytes: budget,
        par: spec.threads,
        trace: tab_bench::storage::Trace::disabled(),
    };
    for rec in [&SystemA::default() as &dyn Recommender, &SystemB, &SystemC] {
        let (cfg, stats) = rec.recommend_with_stats(&input);
        match cfg {
            None => println!("System {}: no recommendation (gave up)", rec.name()),
            Some(cfg) => {
                println!(
                    "System {}: {} indexes, {} views ({} what-if calls, {:.0}% cached, {:.2}s)",
                    rec.name(),
                    cfg.indexes.len(),
                    cfg.mviews.len(),
                    stats.whatif_calls,
                    stats.cache_hit_rate() * 100.0,
                    stats.wall_seconds
                );
                let built = BuiltConfiguration::build(cfg, db);
                let run = run_workload(db, &built, &workload, spec.timeout_units, seq);
                println!(
                    "  total (lower bound): {:.0}s, timeouts {}",
                    run.total_lower_bound_sim_seconds(),
                    run.timeout_count()
                );
                curves.push((rec.name().to_string(), run.cfc()));
            }
        }
    }

    let refs: Vec<(&str, &tab_bench::eval::Cfc)> =
        curves.iter().map(|(l, c)| (l.as_str(), c)).collect();
    println!("\n{}", render_cfc_ascii(&refs, 0.1, 2000.0, 64, 16));
    println!(
        "totals (lower bound): P={:.0}s 1C={:.0}s  -> improvement ratio {:.1}x",
        run_p.total_lower_bound_sim_seconds(),
        run_1c.total_lower_bound_sim_seconds(),
        run_p.total_lower_bound_sim_seconds() / run_1c.total_lower_bound_sim_seconds()
    );
}
