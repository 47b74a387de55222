//! Serving-path integration tests: the wire must reproduce direct
//! [`Session`] results exactly, survive bad requests, publish writes
//! atomically, and shut down gracefully (DESIGN.md §14).

use std::sync::Arc;
use std::time::Duration;

use tab_bench::datagen::{generate_nref, NrefParams};
use tab_bench::engine::{EngineState, Outcome, Session, SharedEngine};
use tab_bench::eval::{build_1c, build_p};
use tab_bench::families::Family;
use tab_bench::server::{Client, Response, RetryClient, ServeOptions, Server};
use tab_bench::storage::{Database, FaultPlan};
use tab_bench_harness::serve_bench::serve_proof;

fn nref(proteins: usize) -> Database {
    generate_nref(NrefParams {
        proteins,
        seed: 2005,
    })
}

fn state_of(db: &Database) -> EngineState {
    EngineState::new(db.clone())
        .with_config("p", build_p(db, "NREF"))
        .with_config("1c", build_1c(db, "NREF"))
}

fn start_server(db: &Database) -> (Arc<SharedEngine>, Server) {
    start_server_with(db, ServeOptions::default())
}

fn start_server_with(db: &Database, opts: ServeOptions) -> (Arc<SharedEngine>, Server) {
    let engine = Arc::new(SharedEngine::new(state_of(db)));
    let server = Server::start(Arc::clone(&engine), opts).expect("server boots");
    (engine, server)
}

fn source_insert(key: i64) -> String {
    format!("INSERT INTO source VALUES ({key}, 1, 562, 'T{key}', 'test protein', 'testdb')")
}

/// M clients x K queries over the wire give exactly the verdicts and
/// (bit-identical) cost units of direct sessions over the same
/// generation.
#[test]
fn wire_results_equal_direct_session_results() {
    let db = nref(400);
    let p = build_p(&db, "NREF");
    let queries: Vec<_> = Family::Nref2J.enumerate(&db).into_iter().take(6).collect();
    let (_engine, mut server) = start_server(&db);
    let addr = server.addr();
    let wire: Vec<(String, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|c| {
                let queries = &queries;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    // Client c takes queries c, c+3, ... — all clients
                    // together cover the list, some queries repeatedly.
                    for q in queries.iter().skip(c).chain(queries.iter()) {
                        let r = client.query("p", &q.to_string()).expect("wire query");
                        assert!(r.is_ok(), "error envelope: {:?}", r.error());
                        out.push((
                            r.str_field("verdict").expect("verdict"),
                            r.num_field("units").expect("units"),
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.shutdown();
    // Re-derive every expectation with a direct session: queries are
    // keyed by text, so wire order does not matter.
    let session = Session::new(&db, &p);
    let mut expected = std::collections::BTreeMap::new();
    for q in &queries {
        let r = session.run(q, None).expect("direct run");
        let Outcome::Done { units, .. } = r.outcome else {
            panic!("untimed query cannot time out")
        };
        expected.insert(q.to_string(), units);
    }
    assert_eq!(wire.len(), 6 * queries.len() - 3);
    for (verdict, units) in &wire {
        assert_eq!(verdict, "done");
        assert!(
            expected.values().any(|u| u.to_bits() == units.to_bits()),
            "wire units {units} not produced by any direct run"
        );
    }
}

/// A malformed request gets an error envelope and the connection keeps
/// answering; a panic-free server is part of the wire contract.
#[test]
fn error_envelopes_do_not_kill_the_connection() {
    let db = nref(300);
    let (_engine, mut server) = start_server(&db);
    let mut client = Client::connect(server.addr()).expect("connect");
    for bad in [
        "FROBNICATE",
        "QUERY p",
        "QUERY nosuchconfig SELECT COUNT(*) FROM protein",
        "QUERY p SELECT COUNT(*) FROM nosuchtable",
        "QUERY p INSERT INTO protein VALUES (1)",
        "ADVISE NREF2J Z",
    ] {
        let r = client.request(bad).expect("a response line");
        assert!(!r.is_ok(), "`{bad}` should fail");
        assert!(r.error().is_some(), "`{bad}` should carry an error");
    }
    // The same connection still works after six failures.
    let r = client.ping().expect("ping");
    assert!(r.is_ok());
    server.shutdown();
}

/// A response leaves as one segment. With the line and its newline in
/// two writes, Nagle's algorithm held the newline until this client —
/// which has not set `TCP_NODELAY` and has nothing to send meanwhile —
/// delayed-ACKed the line: ~40 ms a reply, 2 s for the fifty below.
#[test]
fn replies_do_not_wait_for_a_delayed_ack() {
    use std::io::{BufRead, BufReader, Write};
    let db = nref(300);
    let (_engine, mut server) = start_server(&db);
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let started = std::time::Instant::now();
    for _ in 0..50 {
        stream.write_all(b"PING\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("a reply");
        let r = Response::parse(line.trim_end()).expect("the reply parses");
        assert_eq!(r.str_field("verb").as_deref(), Some("ping"), "{line}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "50 PINGs on one connection took {elapsed:?}"
    );
    server.shutdown();
}

/// An INSERT through the wire publishes a new generation; queries on
/// other connections see either the old or the new generation in
/// full — and units through `p` and `1c` both reflect the insert once
/// visible.
#[test]
fn wire_insert_publishes_a_generation() {
    let db = nref(300);
    let (engine, mut server) = start_server(&db);
    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    let count_sql = "SELECT COUNT(*) FROM source";
    let before = b.query("p", count_sql).expect("count before");
    let n0 = {
        let snap = engine.snapshot();
        let s = snap.session("p").expect("p served");
        let q = tab_bench::sqlq::parse(count_sql).expect("parse");
        let rows = s.run(&q, None).expect("run").rows.expect("rows");
        rows[0][0].as_int().expect("int")
    };
    assert_eq!(before.int_field("generation"), Some(0));
    let ins = a
        .query(
            "p",
            "INSERT INTO source VALUES (99999, 1, 562, 'TEST1', 'test protein', 'testdb')",
        )
        .expect("wire insert");
    assert!(ins.is_ok(), "insert failed: {:?}", ins.error());
    assert_eq!(ins.str_field("verdict").as_deref(), Some("inserted"));
    assert_eq!(ins.int_field("generation"), Some(1));
    assert!(ins.num_field("units").expect("maintenance units") > 0.0);
    let after = b.query("p", count_sql).expect("count after");
    assert_eq!(after.int_field("generation"), Some(1));
    // The published generation is visible through every configuration.
    let after_1c = b.query("1c", count_sql).expect("count via 1c");
    assert_eq!(after_1c.int_field("generation"), Some(1));
    let snap = engine.snapshot();
    let q = tab_bench::sqlq::parse(count_sql).expect("parse");
    for config in ["p", "1c"] {
        let s = snap.session(config).expect("served");
        let rows = s.run(&q, None).expect("run").rows.expect("rows");
        assert_eq!(rows[0][0].as_int().expect("int"), n0 + 1, "via {config}");
    }
    server.shutdown();
}

/// SHUTDOWN over the wire stops the accept loop and `Server::wait`
/// returns; a fresh connect is then refused or dead.
#[test]
fn wire_shutdown_is_graceful() {
    let db = nref(300);
    let (_engine, mut server) = start_server(&db);
    let addr = server.addr();
    let client = Client::connect(addr).expect("connect");
    let r = client.shutdown().expect("shutdown ack");
    assert!(r.is_ok());
    assert_eq!(r.str_field("verb").as_deref(), Some("shutdown"));
    server.wait();
    assert!(server.is_stopping());
    // The listener is gone: a new connection cannot complete a request.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.request_line("PING").is_err(), "server still answering"),
    }
}

/// The `serve` gate row's committed-baseline contract: every wire
/// answer equals a direct session's, and the per-request claims are the
/// same at one and at four clients, so one file gates both.
#[test]
fn serve_bench_claims_are_interleaving_free() {
    let db = nref(400);
    let one = serve_proof(&db, 1).expect("1 client");
    let four = serve_proof(&db, 4).expect("4 clients");
    assert_eq!(one, four);
    assert_eq!(one.lines().next(), Some("query,config,verdict,units"));
    assert_eq!(one.lines().count(), 1 + 32);
    for line in one.lines().skip(1) {
        let [_, config, verdict, units] = line.split(',').collect::<Vec<_>>()[..] else {
            panic!("bad claims line `{line}`");
        };
        assert!(config == "p" || config == "1c", "{line}");
        assert!(verdict == "done" || verdict == "timeout", "{line}");
        assert!(units.parse::<f64>().expect("units") > 0.0, "{line}");
    }
}

/// The lost-ack window: a `drop:conn` fault swallows the INSERT ack
/// after the server applied the row. The sequence-keyed retry resends
/// under the same key; the server answers from its dedup table, so the
/// row applies exactly once.
#[test]
fn retry_heals_a_dropped_ack_without_double_apply() {
    let db = nref(300);
    let faults = Arc::new(FaultPlan::parse("drop:conn:1").expect("fault spec"));
    let (engine, mut server) = start_server_with(
        &db,
        ServeOptions {
            faults: Some(faults),
            ..ServeOptions::default()
        },
    );
    let mut client = RetryClient::new(server.addr().to_string(), "t-drop");
    assert!(client.ping().expect("ping (response 0)").is_ok());
    // Response 1 — the insert ack — is dropped on the floor.
    let r = client.insert("p", &source_insert(99_990)).expect("insert");
    assert!(r.is_ok(), "retried insert failed: {:?}", r.error());
    assert_eq!(r.int_field("generation"), Some(1));
    assert_eq!(r.bool_field("deduped"), Some(true));
    assert!(client.retries() >= 1, "the drop must force a retry");
    assert!(client.reconnects() >= 1, "the drop closes the connection");
    // Applied once: one generation, one dedup hit, no phantom row.
    assert_eq!(engine.generation(), 1);
    assert_eq!(engine.deduped(), 1);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.int_field("wire_dropped"), Some(1));
    assert_eq!(stats.int_field("deduped"), Some(1));
    server.shutdown();
}

/// Replaying the same `<client>:<seq>` key twice applies once: the
/// second request gets the cached ack (`deduped:true`, same
/// generation), and a sequence older than the last acked one is a
/// permanent (non-retryable) error.
#[test]
fn same_sequence_twice_applies_once() {
    let db = nref(300);
    let (engine, mut server) = start_server(&db);
    let mut client = Client::connect(server.addr()).expect("connect");
    let line = format!("INSERT p dup:1 {}", source_insert(99_991));
    let first = client.request(&line).expect("first send");
    assert!(first.is_ok(), "{:?}", first.error());
    assert_eq!(first.int_field("generation"), Some(1));
    assert_eq!(first.bool_field("deduped"), Some(false));
    let second = client.request(&line).expect("resend");
    assert!(second.is_ok(), "{:?}", second.error());
    assert_eq!(second.int_field("generation"), Some(1));
    assert_eq!(second.bool_field("deduped"), Some(true));
    assert_eq!(engine.generation(), 1, "the resend must not re-apply");
    // Advance to seq 2, then replay seq 1: stale, permanent, no apply.
    let fresh = client
        .request(&format!("INSERT p dup:2 {}", source_insert(99_992)))
        .expect("seq 2");
    assert!(fresh.is_ok());
    let stale = client.request(&line).expect("stale send");
    assert!(!stale.is_ok(), "a stale sequence must be refused");
    assert!(!stale.is_retryable(), "stale is permanent, not retryable");
    assert_eq!(engine.generation(), 2);
    server.shutdown();
}

/// Overload shedding degrades expensive verbs first: with an admission
/// limit of 1, ADVISE and EXPLAIN are shed with typed retryable
/// `overloaded` envelopes while QUERY and PING still get through.
#[test]
fn shedding_rejects_expensive_verbs_with_retryable_envelopes() {
    let db = nref(300);
    let (_engine, mut server) = start_server_with(
        &db,
        ServeOptions {
            admission: 1,
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    for line in [
        "ADVISE NREF2J B 5",
        "EXPLAIN p SELECT COUNT(*) FROM protein",
    ] {
        let r = client.request(line).expect("a response line");
        assert!(!r.is_ok(), "`{line}` should be shed");
        assert!(r.is_retryable(), "`{line}` shed must be retryable");
        assert_eq!(r.reason().as_deref(), Some("overloaded"));
    }
    let q = client
        .query("p", "SELECT COUNT(*) FROM protein")
        .expect("query");
    assert!(q.is_ok(), "QUERY sheds last: {:?}", q.error());
    assert!(client.ping().expect("ping").is_ok(), "PING is never shed");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.int_field("shed_advise"), Some(1));
    assert_eq!(stats.int_field("shed_explain"), Some(1));
    assert_eq!(stats.int_field("shed_query"), Some(0));
    server.shutdown();
}

/// Past the connection cap, a new connection is told `overloaded`
/// (retryable) and closed; it never hangs and never crashes the server.
#[test]
fn connection_cap_refuses_with_a_retryable_envelope() {
    let db = nref(300);
    let (_engine, mut server) = start_server_with(
        &db,
        ServeOptions {
            max_connections: 1,
            ..ServeOptions::default()
        },
    );
    let mut first = Client::connect(server.addr()).expect("first connect");
    assert!(first.ping().expect("ping").is_ok());
    let mut second = Client::connect(server.addr()).expect("tcp accept still works");
    let refusal = second.request("PING").expect("refusal envelope");
    assert!(!refusal.is_ok());
    assert!(refusal.is_retryable());
    assert_eq!(refusal.reason().as_deref(), Some("overloaded"));
    // The admitted connection is unaffected.
    assert!(first.ping().expect("ping again").is_ok());
    server.shutdown();
}

/// A torn (half-written) response line is detected by the envelope
/// parser and retried; reads are idempotent, so the retry converges.
#[test]
fn torn_wire_responses_are_detected_and_retried() {
    let db = nref(300);
    let faults = Arc::new(FaultPlan::parse("torn:wire:1").expect("fault spec"));
    let (_engine, mut server) = start_server_with(
        &db,
        ServeOptions {
            faults: Some(faults),
            ..ServeOptions::default()
        },
    );
    let mut client = RetryClient::new(server.addr().to_string(), "t-torn");
    assert!(client.ping().expect("ping (response 0)").is_ok());
    // Response 1 is torn mid-line; the client must notice and resend.
    let r = client
        .query("p", "SELECT COUNT(*) FROM protein")
        .expect("query survives the torn line");
    assert!(r.is_ok(), "{:?}", r.error());
    assert_eq!(r.str_field("verdict").as_deref(), Some("done"));
    assert!(client.retries() >= 1, "the torn line must force a retry");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.int_field("wire_torn"), Some(1));
    server.shutdown();
}

/// Served inserts written through a WAL survive the server: a fresh
/// engine recovering from the log reports the same generation and sees
/// every acknowledged row.
#[test]
fn wal_recovery_restores_served_inserts() {
    let db = nref(300);
    let wal = std::env::temp_dir().join(format!("tab_serving_wal_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let (engine, report) =
        SharedEngine::with_wal(state_of(&db), &wal, None).expect("fresh wal opens");
    assert_eq!(report.replayed, 0);
    let engine = Arc::new(engine);
    let mut server =
        Server::start(Arc::clone(&engine), ServeOptions::default()).expect("server boots");
    let mut client = RetryClient::new(server.addr().to_string(), "walclient");
    for i in 0..3 {
        let r = client
            .insert("p", &source_insert(99_980 + i))
            .expect("insert");
        assert!(r.is_ok(), "{:?}", r.error());
    }
    server.shutdown();
    let (recovered, report) =
        SharedEngine::with_wal(state_of(&db), &wal, None).expect("recovery succeeds");
    assert_eq!(report.replayed, 3);
    assert!(!report.torn_tail);
    assert_eq!(recovered.generation(), engine.generation());
    let q = tab_bench::sqlq::parse("SELECT COUNT(*) FROM source").expect("parse");
    let count = |e: &SharedEngine| {
        let snap = e.snapshot();
        let s = snap.session("p").expect("p served");
        s.run(&q, None).expect("run").rows.expect("rows")[0][0]
            .as_int()
            .expect("int")
    };
    assert_eq!(count(&recovered), count(&engine));
    let _ = std::fs::remove_file(&wal);
}
