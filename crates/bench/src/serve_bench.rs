//! The serving proof behind the gate's `serve` row.
//!
//! An in-process [`tab_server::Server`] over a [`SharedEngine`] serving
//! the paper's `P` and `1C` configurations takes a fixed closed-loop
//! load, and every wire answer is checked against a direct [`tab_engine::Session`]
//! run of the same query. The load issues no writes, so every request
//! runs against generation 0 and its claims are a pure function of the
//! request index: independent of interleaving and of the client count.

use std::sync::Arc;

use tab_core::{served_state, Parallelism};
use tab_engine::SharedEngine;
use tab_server::{Client, Response, ServeOptions, Server};
use tab_sqlq::Query;
use tab_storage::Database;

use crate::gate::{sample_workload, wire_matches_direct};

/// Requests the proof sends, cycling over its workload.
const SERVE_REQUESTS: usize = 32;
/// Workload sample size of the proof.
const SERVE_WORKLOAD: usize = 16;

/// Boot an in-process server over `db`'s P and 1C, send 32 requests
/// from `clients` closed-loop connections (request `i` runs NREF2J
/// workload query `i mod 16` under `p` or `1c` by parity, on connection
/// `i mod clients`), and require every wire answer to equal a direct
/// [`tab_engine::Session`] run of the same query: same verdict, same row count,
/// bit-identical cost units.
///
/// Returns the per-request claims as `query,config,verdict,units` CSV.
/// Nothing in it depends on the client count or on interleaving, so
/// one committed file (`ci/expected_serve_small.csv`) gates every
/// client count.
pub fn serve_proof(db: &Database, clients: usize) -> Result<String, String> {
    let workload = sample_workload(db, SERVE_WORKLOAD)?;
    let sql: Vec<String> = workload.iter().map(Query::to_string).collect();
    let plan: Vec<(usize, &str)> = (0..SERVE_REQUESTS)
        .map(|i| (i % sql.len(), if i % 2 == 0 { "p" } else { "1c" }))
        .collect();
    let state = served_state(db.clone(), "NREF", Parallelism::new(0));
    let engine = Arc::new(SharedEngine::new(state));
    let mut server = Server::start(
        Arc::clone(&engine),
        ServeOptions {
            label: "NREF".into(),
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();
    // Connection `c` carries requests c, c + clients, …
    let lane = |c: usize| -> Result<Vec<(usize, Response)>, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let answers = (c..plan.len())
            .step_by(clients)
            .map(|i| client.query(plan[i].1, &sql[plan[i].0]).map(|r| (i, r)))
            .collect::<Result<Vec<_>, _>>()?;
        let _ = client.quit();
        Ok(answers)
    };
    let answers = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..clients).map(|c| scope.spawn(move || lane(c))).collect();
        lanes
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Result<Vec<_>, String>>()
    });
    server.shutdown();
    let mut answers: Vec<(usize, Response)> = answers?.into_iter().flatten().collect();
    answers.sort_by_key(|(i, _)| *i);
    let snap = engine.snapshot();
    let mut csv = String::from("query,config,verdict,units\n");
    for ((qi, config), (i, r)) in plan.iter().zip(answers) {
        let session = snap.session(config).expect("the proof serves p and 1c");
        let (verdict, units) = wire_matches_direct(&r, &session, &workload[*qi])
            .map_err(|e| format!("request {i} (query {qi}, {config}): {e}"))?;
        csv.push_str(&format!("{qi},{config},{verdict},{units}\n"));
    }
    Ok(csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_datagen::{generate_nref, NrefParams};

    #[test]
    fn closed_loop_report_is_deterministic_and_client_count_free() {
        let db = generate_nref(NrefParams {
            proteins: 300,
            seed: 2005,
        });
        let one = serve_proof(&db, 1).expect("1 client");
        // Repeated runs agree, and so do client counts that do and do
        // not divide the request count.
        assert_eq!(serve_proof(&db, 1).expect("1 client again"), one);
        for clients in [2, 3, 4] {
            let csv = serve_proof(&db, clients).expect("proof runs");
            assert_eq!(csv, one, "claims differ at {clients} clients");
        }
        assert_eq!(one.lines().count(), 1 + SERVE_REQUESTS);
    }
}
