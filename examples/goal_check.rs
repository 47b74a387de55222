//! Performance goals as CFC constraints — the paper's Example 2.
//!
//! A goal like "10% of queries under 10 s, 50% under a minute, 90%
//! before the timeout" is a step function `G(x)`; a configuration
//! satisfies it when its cumulative frequency curve stays above `G`.
//!
//! ```sh
//! cargo run --release --example goal_check
//! ```

use tab_bench::eval::{build_1c, build_p, run_workload, BenchSpec, Goal, Parallelism, Suite};
use tab_bench::families::Family;

fn main() {
    let spec = BenchSpec::small();
    let suite = Suite::build(spec);
    let db = &suite.nref;

    let p = build_p(db, "NREF");
    let one_c = build_1c(db, "NREF");
    let workload = tab_bench::eval::prepare_workload(&suite, Family::Nref2J, &p);

    // The paper's Example 2, scaled to this suite's timeout.
    let timeout_s = tab_bench::engine::units_to_sim_seconds(spec.timeout_units);
    let goal = Goal::from_steps(vec![
        (timeout_s / 180.0, 0.1),
        (timeout_s / 30.0, 0.5),
        (timeout_s, 0.9),
    ]);
    println!("goal steps (seconds -> required fraction):");
    for (x, f) in goal.steps() {
        println!("  G({x:8.1}s) = {f:.2}");
    }

    for (label, cfg) in [("P", &p), ("1C", &one_c)] {
        let run = run_workload(
            db,
            cfg,
            &workload,
            spec.timeout_units,
            Parallelism::sequential(),
        );
        let cfc = run.cfc();
        let verdict = if goal.satisfied_by(&cfc) {
            "SATISFIED"
        } else {
            "violated"
        };
        println!("\nconfiguration {label}: goal {verdict}");
        for (x, f) in goal.steps() {
            println!("  at {x:8.1}s: required {f:.2}, achieved {:.2}", cfc.at(*x));
        }
    }
}
