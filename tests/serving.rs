//! Serving-path integration tests: the wire must reproduce direct
//! [`Session`] results exactly, survive bad requests, publish writes
//! atomically, and shut down gracefully (DESIGN.md §14).

use std::sync::Arc;
use std::time::Duration;

use tab_bench::datagen::{generate_nref, NrefParams};
use tab_bench::engine::{EngineState, Outcome, Session, SharedEngine};
use tab_bench::eval::{build_p, served_state};
use tab_bench::families::Family;
use tab_bench::server::{Client, Response, RetryClient, ServeOptions, Server};
use tab_bench::storage::{Database, FaultPlan, Parallelism};
use tab_bench_harness::serve_bench::serve_proof;

fn nref(proteins: usize) -> Database {
    generate_nref(NrefParams {
        proteins,
        seed: 2005,
    })
}

fn state_of(db: &Database) -> EngineState {
    served_state(db.clone(), "NREF", Parallelism::sequential())
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
    let mut queries = Family::Nref2J.enumerate(&db, Parallelism::sequential());
    queries.truncate(6);
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

/// A request line past the server's 1 MiB cap is answered one error
/// envelope and the connection closes, long before the idle timeout,
/// while another connection is served meanwhile.
#[test]
fn an_overlong_request_line_gets_an_envelope_and_a_close() {
    use std::io::{BufRead, BufReader, Read, Write};
    let db = nref(300);
    let (_engine, mut server) = start_server(&db);
    let mut other = Client::connect(server.addr()).expect("connect");
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let started = std::time::Instant::now();
    let mut sender = stream.try_clone().expect("clone");
    // The server closes before it takes all 2 MiB, so the write fails.
    let writer = std::thread::spawn(move || sender.write_all(&vec![b'x'; 2 << 20]));
    assert!(other.ping().expect("ping while the line streams").is_ok());
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("an envelope");
    let r = Response::parse(line.trim_end()).expect("the envelope parses");
    assert!(!r.is_ok(), "{line}");
    assert!(
        r.error().is_some_and(|e| e.contains("longer than")),
        "{line}"
    );
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "the connection closes after the envelope");
    assert!(started.elapsed() < Duration::from_secs(10));
    let _ = writer.join().expect("writer thread");
    assert!(other.ping().expect("ping after the close").is_ok());
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

/// Every response shape the server renders, in request order: on a
/// default server PING, QUERY done, keyed INSERT, its deduped resend,
/// EXPLAIN, ADVISE, an error envelope and STATS; then, on a server that
/// times every query out and sheds ADVISE, QUERY timeout and the
/// retryable envelope.
fn response_lines() -> Vec<String> {
    let db = nref(300);
    let mut lines = Vec::new();
    let (_engine, mut server) = start_server(&db);
    let mut c = Client::connect(server.addr()).expect("connect");
    let insert = format!("INSERT p pin:1 {}", source_insert(99_970));
    for request in [
        "PING",
        "QUERY p SELECT COUNT(*) FROM protein",
        &insert,
        &insert,
        "EXPLAIN p SELECT COUNT(*) FROM protein",
        "ADVISE NREF2J B 5",
        "QUERY p SELECT COUNT(*) FROM nosuchtable",
        "STATS",
    ] {
        lines.push(c.request_line(request).expect("a response line"));
    }
    server.shutdown();
    let (_engine, mut server) = start_server_with(
        &db,
        ServeOptions {
            admission: 1,
            timeout_units: 0.001,
            ..ServeOptions::default()
        },
    );
    let mut c = Client::connect(server.addr()).expect("connect");
    for request in ["QUERY p SELECT COUNT(*) FROM protein", "ADVISE NREF2J B 5"] {
        lines.push(c.request_line(request).expect("a response line"));
    }
    server.shutdown();
    lines
}

/// The response bytes are a frozen surface (the ledger's own wire client
/// scans them), so each shape is pinned to the line the server wrote
/// before responses went through `storage::framed`.
#[test]
fn response_bytes_are_pinned() {
    const PINNED: [&str; 10] = [
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"ping","generation":0,"configs":"1c,p"}"#,
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"query","generation":0,"plan":"SeqScan(protein)","verdict":"done","units":2.8005,"rows":1}"#,
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"insert","generation":1,"verdict":"inserted","row_id":819,"units":4.5,"deduped":false}"#,
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"insert","generation":1,"verdict":"inserted","row_id":819,"units":4.5,"deduped":true}"#,
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"explain","generation":1,"plan":"SeqScan(protein)","estimate_units":2.8}"#,
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"advise","generation":1,"family":"NREF2J","system":"B","workload":5,"whatif_calls":94,"verdict":"recommended","indexes":11,"mviews":0,"ddl":"CREATE INDEX idx_neighboring_seq(2); CREATE INDEX idx_organism(3); CREATE INDEX idx_source(0,2,4,5); CREATE INDEX idx_taxonomy(1); CREATE INDEX idx_taxonomy(3)"}"#,
        r#"{"schema":"tab-wire-v1","ok":false,"error":"unknown table `nosuchtable`"}"#,
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"stats","generation":1,"durable":false,"recovered":0,"deduped":1,"accepted":1,"accept_errors":0,"conns_refused":0,"shed_advise":0,"shed_explain":0,"shed_query":0,"wire_dropped":0,"wire_torn":0,"wire_delayed":0}"#,
        r#"{"schema":"tab-wire-v1","ok":true,"verb":"query","generation":0,"plan":"SeqScan(protein)","verdict":"timeout","budget_units":0.001}"#,
        r#"{"schema":"tab-wire-v1","ok":false,"retryable":true,"reason":"overloaded","error":"overloaded: advise shed at 1 in-flight requests"}"#,
    ];
    let got = response_lines();
    assert_eq!(got.len(), PINNED.len());
    for (got, want) in got.iter().zip(PINNED) {
        assert_eq!(got, want);
        Response::parse(got).expect("a pinned line parses");
    }
}

/// Seeded responses written through the codec the server renders with
/// read back equal through every `Response` accessor, and damaged or
/// random bytes parse to a response or a typed error, never a panic.
/// Restoring the old scanner rule (a quote ends a string unless the byte
/// before it is a backslash) fails the round trip on strings ending in
/// `\`.
#[test]
fn wire_responses_round_trip_and_damage_never_panics() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tab_bench::server::RESPONSE_PREFIX;
    use tab_bench::storage::framed::Line;

    let alphabet = [
        '"', ' ', '\\', ',', ':', '{', '}', '\n', '\t', '\u{1}', 'é', '漢',
    ];
    let text = |rng: &mut StdRng| {
        let mut s: String = (0..rng.random_range(0usize..10))
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect();
        if rng.random_bool(0.25) {
            s.push('\\');
        }
        s
    };
    let mut rng = StdRng::seed_from_u64(70);
    let mut lines = Vec::new();
    for case in 0..1_000 {
        let (verb, plan, error) = (text(&mut rng), text(&mut rng), text(&mut rng));
        let generation: u64 = rng.random();
        let units = f64::from_bits(rng.random::<u64>() >> 2);
        let deduped = rng.random_bool(0.5);
        let line = Line::new(RESPONSE_PREFIX)
            .token("ok", true)
            .str("verb", &verb)
            .int("generation", generation)
            .str("plan", &plan)
            .token("units", units)
            .token("deduped", deduped)
            .str("error", &error)
            .finish();
        let r = Response::parse(&line).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert!(r.is_ok() && !r.is_retryable(), "case {case}: {line}");
        assert_eq!(r.str_field("verb"), Some(verb), "case {case}: {line}");
        assert_eq!(r.int_field("generation"), Some(generation), "case {case}");
        assert_eq!(r.str_field("plan"), Some(plan), "case {case}: {line}");
        assert_eq!(
            r.num_field("units").map(f64::to_bits),
            Some(units.to_bits())
        );
        assert_eq!(r.bool_field("deduped"), Some(deduped), "case {case}");
        assert_eq!(r.error(), Some(error), "case {case}: {line}");
        lines.push(line);
    }
    for _ in 0..5_000 {
        let mut bytes = lines[rng.random_range(0..lines.len())].clone().into_bytes();
        if rng.random_bool(0.9) {
            let i = rng.random_range(0..bytes.len());
            bytes[i] ^= 1 << rng.random_range(0u32..8);
            if rng.random_bool(0.5) {
                bytes.truncate(rng.random_range(0..bytes.len()));
            }
        } else {
            bytes = (0..rng.random_range(0usize..100))
                .map(|_| rng.random::<u64>() as u8)
                .collect();
        }
        if let Ok(r) = Response::parse(&String::from_utf8_lossy(&bytes)) {
            let _ = (r.is_ok(), r.is_retryable(), r.reason(), r.error());
            let _ = (
                r.int_field("generation"),
                r.num_field("units"),
                r.str_field("plan"),
            );
        }
    }
}

/// Served inserts written through a WAL survive the server: a fresh
/// engine recovering from the log reports the same generation and sees
/// every acknowledged row — including a last row whose string ends in a
/// backslash, which an escape-blind field scanner once read as a torn
/// tail and truncated away.
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
    let backslash = r"INSERT INTO source VALUES (99983, 1, 562, 'T99983', 'test protein', 'db\')";
    let r = client.insert("p", backslash).expect("insert");
    assert!(r.is_ok(), "{:?}", r.error());
    server.shutdown();
    let (recovered, report) =
        SharedEngine::with_wal(state_of(&db), &wal, None).expect("recovery succeeds");
    assert_eq!(report.replayed, 4);
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

    // Restart on the same WAL: the server reports the record recovered
    // and reads the row back.
    let mut server =
        Server::start(Arc::new(recovered), ServeOptions::default()).expect("server reboots");
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.int_field("recovered"), Some(4), "{}", stats.line());
    let read = client
        .query(
            "p",
            r"SELECT s.nref_id, s.source FROM source s WHERE s.source = 'db\'",
        )
        .expect("read-back");
    assert_eq!(
        read.str_field("verdict").as_deref(),
        Some("done"),
        "{}",
        read.line()
    );
    assert_eq!(read.int_field("rows"), Some(1), "{}", read.line());
    server.shutdown();
    let _ = std::fs::remove_file(&wal);
}
