//! End-to-end integration tests over a small benchmark suite: the
//! qualitative claims of the paper must hold in miniature.

use tab_bench::advisor::{AdvisorInput, Recommender, SystemB, SystemC};
use tab_bench::engine::Session;
use tab_bench::eval::{
    build_1c, build_p, estimate_workload, prepare_workload_db, run_workload, space_budget,
    BenchSpec, Faults, Parallelism,
};
use tab_bench::families::Family;
use tab_bench::sqlq::Query;
use tab_bench::storage::{BuiltConfiguration, Database};

fn spec() -> BenchSpec {
    BenchSpec {
        nref_proteins: 2_000,
        tpch_scale: 0.005,
        workload_size: 25,
        timeout_units: 3_000.0,
        seed: 42,
        ..BenchSpec::small()
    }
}

fn database(label: &str) -> Database {
    spec()
        .database(label, &Faults::disabled())
        .expect("no faults armed")
}

fn workload(db: &Database, family: Family, p: &BuiltConfiguration) -> Vec<Query> {
    prepare_workload_db(db, family, p, spec().workload_size, spec().seed)
}

#[test]
fn one_c_beats_p_on_nref2j() {
    let seq = Parallelism::sequential();
    let nref = database("NREF");
    let db = &nref;
    let p = build_p(db, "NREF");
    let c1 = build_1c(db, "NREF");
    let w = workload(db, Family::Nref2J, &p);
    let run_p = run_workload(db, &p, &w, spec().timeout_units, seq);
    let run_1c = run_workload(db, &c1, &w, spec().timeout_units, seq);
    let total_p = run_p.total_lower_bound_sim_seconds();
    let total_1c = run_1c.total_lower_bound_sim_seconds();
    assert!(
        total_1c * 2.0 < total_p,
        "1C should be much faster: 1C={total_1c:.0}s P={total_p:.0}s"
    );
    assert!(run_1c.timeout_count() <= run_p.timeout_count());
}

#[test]
fn results_identical_across_all_configurations() {
    let nref = database("NREF");
    let db = &nref;
    let p = build_p(db, "NREF");
    let c1 = build_1c(db, "NREF");
    let w = workload(db, Family::Nref3J, &p);
    let sp = Session::new(db, &p);
    let s1 = Session::new(db, &c1);
    let mut compared = 0;
    for q in w.iter().take(8) {
        let rp = sp.run(q, None).unwrap().rows.unwrap();
        let r1 = s1.run(q, None).unwrap().rows.unwrap();
        let mut rp = rp;
        let mut r1 = r1;
        rp.sort();
        r1.sort();
        assert_eq!(rp, r1, "query `{q}` differs across configurations");
        compared += 1;
    }
    assert!(compared > 0);
}

#[test]
fn recommended_configuration_stays_within_budget() {
    let skth = database("SkTH");
    let db = &skth;
    let p = build_p(db, "SkTH");
    let budget = space_budget(db, "SkTH");
    let w = workload(db, Family::SkTH3Js, &p);
    for rec in [&SystemB as &dyn Recommender, &SystemC] {
        let cfg = rec
            .recommend(&AdvisorInput {
                db,
                current: &p,
                workload: &w,
                budget_bytes: budget,
                par: tab_bench::storage::Parallelism::sequential(),
                trace: tab_bench::storage::Trace::disabled(),
            })
            .expect("recommendation");
        let built = BuiltConfiguration::build(cfg, db);
        let added = built
            .report
            .aux_bytes()
            .saturating_sub(p.report.aux_bytes());
        // Estimated sizes guide the search; allow modest estimation slack.
        assert!(
            added as f64 <= budget as f64 * 1.5,
            "system {} exceeded budget: {added} vs {budget}",
            rec.name()
        );
    }
}

#[test]
fn estimates_rank_1c_at_or_below_p() {
    let seq = Parallelism::sequential();
    let nref = database("NREF");
    let db = &nref;
    let p = build_p(db, "NREF");
    let c1 = build_1c(db, "NREF");
    let w = workload(db, Family::Nref2J, &p);
    let e_p: f64 = estimate_workload(db, &p, &w, seq).iter().sum();
    let e_1c: f64 = estimate_workload(db, &c1, &w, seq).iter().sum();
    assert!(
        e_1c <= e_p,
        "optimizer should never estimate 1C above P in total: {e_1c} vs {e_p}"
    );
}

#[test]
fn timeouts_abort_and_are_reported() {
    let seq = Parallelism::sequential();
    let nref = database("NREF");
    let db = &nref;
    let p = build_p(db, "NREF");
    let w = workload(db, Family::Nref2J, &p);
    // A budget so small everything times out.
    let run = run_workload(db, &p, &w, 0.01, seq);
    assert_eq!(run.timeout_count(), w.len());
    assert_eq!(run.cfc().completed_fraction(), 0.0);
}

#[test]
fn insertion_costs_order_p_r_1c() {
    let nref = database("NREF");
    let db = &nref;
    let p = build_p(db, "NREF");
    let c1 = build_1c(db, "NREF");
    let ip = tab_bench::eval::per_insert_cost(&p, "neighboring_seq");
    let i1 = tab_bench::eval::per_insert_cost(&c1, "neighboring_seq");
    assert!(
        ip < i1,
        "1C must pay more per insert than P: P={ip} 1C={i1}"
    );
}
