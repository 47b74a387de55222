//! The paper's §1.1 motivating scenario: a biologist runs exploratory
//! queries over the NREF protein database, and the response-time
//! histogram tells the story of the configuration (Figures 1 and 2).
//!
//! ```sh
//! cargo run --release --example nref_explorer
//! ```

use tab_bench::engine::Session;
use tab_bench::eval::report::render_histogram_ascii;
use tab_bench::eval::{
    build_1c, build_p, run_workload, BenchSpec, LogHistogram, Parallelism, Suite,
};
use tab_bench::families::Family;
use tab_bench::sqlq::parse;

fn main() {
    let spec = BenchSpec::small();
    let suite = Suite::build(spec);
    let db = &suite.nref;

    // The paper's Example 1 (adapted to the synthetic instance's
    // constants): proteins per lineage for one named protein.
    let name = {
        // A moderately common protein name (the paper's 'Simian Virus
        // 40' is a specific virus, not the most frequent name in NREF).
        let stats = db.stats("source").expect("stats collected");
        let mcvs = &stats.columns[4].mcvs;
        mcvs[mcvs.len() / 2].0.clone()
    };
    let example_1 = parse(&format!(
        "SELECT t.lineage, COUNT(DISTINCT t2.nref_id) \
         FROM source s, taxonomy t, taxonomy t2 \
         WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage \
         AND s.p_name = {name} GROUP BY t.lineage"
    ))
    .expect("example 1 parses");

    let p = build_p(db, "NREF");
    let one_c = build_1c(db, "NREF");

    for (label, cfg) in [
        ("P (primary keys only)", &p),
        ("1C (single-column)", &one_c),
    ] {
        let session = Session::new(db, cfg);
        let r = session.run(&example_1, Some(spec.timeout_units)).unwrap();
        println!(
            "Example 1 on {label}: {} -> {}",
            r.plan.describe(),
            match &r.outcome {
                o if o.is_timeout() => "TIMEOUT".to_string(),
                o => format!(
                    "{:.1}s, {} lineages",
                    o.sim_seconds_lower_bound(),
                    r.rows.as_ref().map(Vec::len).unwrap_or(0)
                ),
            }
        );
    }

    // One hundred exploratory queries, as in §1.1, and their histograms.
    let workload = tab_bench::eval::prepare_workload(&suite, Family::Nref2J, &p);
    println!("\n{} exploratory queries from NREF2J:", workload.len());
    for (label, cfg) in [("initial (P)", &p), ("single-column (1C)", &one_c)] {
        let run = run_workload(
            db,
            cfg,
            &workload,
            spec.timeout_units,
            Parallelism::sequential(),
        );
        let hist = LogHistogram::new(&run.sim_seconds(), 0.1, 1800.0, 1);
        println!("\n--- response times on the {label} configuration ---");
        print!("{}", render_histogram_ascii(&hist, 40));
        println!(
            "cumulative completed: {:.0}%  (timeouts: {})",
            100.0 * run.cfc().completed_fraction(),
            run.timeout_count()
        );
    }
}
