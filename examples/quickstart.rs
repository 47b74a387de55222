//! Quickstart: build a database, compare two configurations with a
//! cumulative frequency curve.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tab_bench::eval::report::render_cfc_ascii;
use tab_bench::eval::{build_1c, build_p, run_workload, Parallelism, Suite, SuiteParams};
use tab_bench::families::Family;

fn main() {
    // 1. A small benchmark suite: synthetic NREF + two TPC-H variants.
    let params = SuiteParams::small();
    let suite = Suite::build(params);
    println!(
        "NREF: {} tables, {} total rows",
        suite.nref.table_names().count(),
        suite.nref.tables().map(|t| t.n_rows()).sum::<usize>()
    );

    // 2. The paper's two baseline configurations.
    let p = build_p(&suite.nref, "NREF");
    let one_c = build_1c(&suite.nref, "NREF");
    println!(
        "P: {} indexes | 1C: {} indexes ({} MiB of extra structures)",
        p.config.indexes.len(),
        one_c.config.indexes.len(),
        one_c.report.aux_bytes() / (1024 * 1024),
    );

    // 3. A workload from the NREF2J family, sampled to preserve the
    //    family's cost distribution.
    let workload = tab_bench::eval::prepare_workload(&suite, Family::Nref2J, &p);
    println!(
        "workload: {} queries, e.g.:\n  {}",
        workload.len(),
        workload[0]
    );

    // 4. Execute on both configurations with the timeout.
    let seq = Parallelism::sequential();
    let run_p = run_workload(&suite.nref, &p, &workload, params.timeout_units, seq);
    let run_1c = run_workload(&suite.nref, &one_c, &workload, params.timeout_units, seq);

    // 5. Compare with cumulative frequency curves (the paper's Figure 3).
    let cfc_p = run_p.cfc();
    let cfc_1c = run_1c.cfc();
    println!(
        "\n{}",
        render_cfc_ascii(&[("P", &cfc_p), ("1", &cfc_1c)], 0.1, 2000.0, 64, 16)
    );
    println!(
        "median: P={:?}s  1C={:?}s",
        cfc_p.quantile(0.5).map(|x| x.round()),
        cfc_1c.quantile(0.5).map(|x| x.round())
    );
    if cfc_1c.dominates(&cfc_p) {
        println!("1C stochastically dominates P on this workload.");
    }
}
