//! §4.4 as an executable experiment: mixed query+insert workloads shift
//! the balance between `1C` (fast queries, slow inserts) and lighter
//! configurations — and the break-even arithmetic must match what the
//! mixed-workload executor actually measures.

use tab_bench::eval::{
    build_1c, build_p, per_insert_cost, prepare_workload_db, run_update_workload, BenchSpec,
    Faults, WorkloadOp,
};
use tab_bench::families::Family;
use tab_bench::sqlq::Insert;
use tab_bench::storage::{BuiltConfiguration, Database, Value};

fn spec() -> BenchSpec {
    BenchSpec {
        nref_proteins: 1_000,
        workload_size: 10,
        timeout_units: 2_000.0,
        seed: 13,
        ..BenchSpec::small()
    }
}

fn nref() -> Database {
    spec()
        .database("NREF", &Faults::disabled())
        .expect("no faults armed")
}

/// A synthetic neighboring_seq row beyond the generated id range.
fn ns_insert(i: i64) -> Insert {
    Insert {
        table: "neighboring_seq".into(),
        values: vec![
            Value::Int(1_000_000 + i),
            Value::Int(0),
            Value::Int(i % 997),
            Value::Int(i % 53),
            Value::Int(100),
            Value::Int(10),
            Value::Int(50),
            Value::Int(0),
            Value::Int(0),
            Value::Int(50),
            Value::Int(50),
        ],
    }
}

#[test]
fn mixed_workload_runs_and_charges_maintenance() {
    let mut db = nref();
    let label = "NREF";
    let mut built = build_1c(&db, label);
    let p = build_p(&db, label);
    let queries = prepare_workload_db(&db, Family::Nref2J, &p, spec().workload_size, spec().seed);
    let mut ops: Vec<WorkloadOp> = Vec::new();
    for (i, q) in queries.iter().take(4).enumerate() {
        ops.push(WorkloadOp::Insert(ns_insert(i as i64)));
        ops.push(WorkloadOp::Query(q.clone()));
    }
    let before_rows = db.table("neighboring_seq").unwrap().n_rows();
    let run = run_update_workload(&mut db, &mut built, &ops, spec().timeout_units);
    assert_eq!(run.inserts, 4);
    assert_eq!(run.query_outcomes.len(), 4);
    assert!(run.insert_units > 0.0);
    assert_eq!(
        db.table("neighboring_seq").unwrap().n_rows(),
        before_rows + 4
    );
    assert!(run.total_lower_bound_sim_seconds() > 0.0);
}

#[test]
fn measured_insert_cost_matches_model() {
    let mut db = nref();
    let mut built = build_1c(&db, "NREF");
    let modeled = per_insert_cost(&built, "neighboring_seq");
    let run = run_update_workload(
        &mut db,
        &mut built,
        &(0..10)
            .map(|i| WorkloadOp::Insert(ns_insert(i)))
            .collect::<Vec<_>>(),
        spec().timeout_units,
    );
    let measured = run.insert_units / 10.0;
    // The model charges the same descent+leaf structure the executor
    // does; tree heights may drift by a level as the index grows.
    assert!(
        (measured - modeled).abs() / modeled < 0.25,
        "modeled {modeled} vs measured {measured}"
    );
}

#[test]
fn one_c_inserts_cost_more_than_p_inserts_when_executed() {
    let ops: Vec<WorkloadOp> = (0..20).map(|i| WorkloadOp::Insert(ns_insert(i))).collect();

    let mut db1 = nref();
    let mut c1: BuiltConfiguration = build_1c(&db1, "NREF");
    let run_1c = run_update_workload(&mut db1, &mut c1, &ops, spec().timeout_units);

    let mut db2 = nref();
    let mut p = build_p(&db2, "NREF");
    let run_p = run_update_workload(&mut db2, &mut p, &ops, spec().timeout_units);

    assert!(
        run_1c.insert_units > 2.0 * run_p.insert_units,
        "1C insert maintenance ({}) should far exceed P's ({})",
        run_1c.insert_units,
        run_p.insert_units
    );
}
