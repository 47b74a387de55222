//! `tab gate`: every check the byte-identical contract rests on, run in
//! one process against the goldens committed under `ci/`.
//!
//! The rows run in order and the gate stops at the first broken one:
//!
//! | row | runs | passes when |
//! |---|---|---|
//! | `small` | `repro --small --threads 2 --trace` | every file but `timings.json` equals `golden_small/`; claim verdicts agree with `expected_claims_small.csv`; `timings.json`'s `reused` counts sum to `SMALL_REUSED` |
//! | `trace` | structural diff of that trace against `golden_trace_small.jsonl`, tolerance 1e-6, then the two as sorted line multisets | clean and byte-equal up to line order; the golden's `tab replay` summary equals `golden_replay_small.txt`; an `IndexScan`→`HashScan` copy fails the diff with the report in `golden_tracediff_small.json`; a copy missing its last 40 bytes fails `replay` |
//! | `threads` | `repro --small --threads 1 --faults panic:cell:NREF3J/NREF_1C`, then the same run without faults into the same directory | the crash is a typed grid error naming the cell, its 6 siblings completed; the rerun's output equals `golden_small/` |
//! | `memcap` | `--buffer-pages 64 --charge metered` | output equals `golden_small/` except `BENCH_io.json`, which equals `golden_pool64/` |
//! | `serve` | in-process server on `nref:800`, 32 requests over 16 NREF2J queries, at 1 and 4 clients | every wire answer is bit-identical to a direct `Session`; the claims equal `expected_serve_small.csv` |
//! | `kill9` | a `tab serve --wal` child with `drop:conn:2`, SIGKILLed after 5 of 12 acks, then restarted | `STATS` shows the lost ack deduped and 5 records recovered, generation 12, and 6/6 read-backs bit-identical to an uninterrupted engine |
//! | `formats` | `fixtures/wal_v1.jsonl`, written by an earlier build | the WAL replays record-verified and reads back like an engine that applied the same inserts fresh |
//!
//! A change that is meant to alter an output regenerates the golden it
//! breaks, so the diff shows up in review:
//!
//! ```sh
//! repro --small --threads 2 --out ci/golden_small --trace ci/golden_trace_small.jsonl
//! rm ci/golden_small/timings.json
//! repro --small --threads 2 --buffer-pages 64 --charge metered --out /tmp/pool64
//! cp /tmp/pool64/BENCH_io.json ci/golden_pool64/
//! cd ci
//! tab replay golden_trace_small.jsonl > golden_replay_small.txt
//! sed 's/IndexScan/HashScan/' golden_trace_small.jsonl > hashscan.jsonl
//! tab tracediff golden_trace_small.jsonl hashscan.jsonl --tolerance 1e-6 \
//!     --report golden_tracediff_small.json
//! rm hashscan.jsonl
//! ```
//!
//! The fixture pins the WAL's on-disk format across versions: it is what
//! `tab serve --db nref:300 --wal` logs for the keyed requests
//! `INSERT p fixture:<i+1> <insert_sql(i)>`, `i` in `0..12`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use tab_core::{
    build_p, prepare_workload_db_with, served_state, BenchSpec, FaultPlan, Parallelism, DRAW_SEED,
};
use tab_datagen::{generate_nref, NrefParams};
use tab_engine::{ChargePolicy, Outcome, Session, SharedEngine, SharedInsert};
use tab_families::Family;
use tab_server::{Client, Response, RetryClient};
use tab_sqlq::{parse_statement, Insert, Query, Statement};
use tab_storage::Database;

use crate::replay::{diff, render_summary, replay_str, report_json, DiffOptions};
use crate::repro::{run_all, ReproConfig, ReproError, ReproSummary};
use crate::serve_bench::serve_proof;

/// Grid queries of `repro --small` that reuse an earlier query's
/// execution instead of running their plan again. A stricter execution
/// key lowers it and fails the `small` row rather than slowing the run
/// down unnoticed.
const SMALL_REUSED: usize = 132;
/// Inserts the `kill9` row drives (and the WAL fixture holds).
const INSERTS: usize = 12;
/// Acks after which the `kill9` row SIGKILLs the server.
const KILL_AFTER: usize = 5;
/// Response index whose ack the `kill9` row's `drop:conn` fault swallows.
const DROP_AT: u64 = 2;
/// Read-back queries after recovery.
const READ_BACKS: usize = 6;
/// Workload sample the read-backs cycle over.
const READ_BACK_WORKLOAD: usize = 4;

/// A broken row: the file that disagrees and how.
#[derive(Debug)]
struct Broken {
    file: PathBuf,
    message: String,
}

fn broken(file: impl Into<PathBuf>, message: impl Into<String>) -> Broken {
    Broken {
        file: file.into(),
        message: message.into(),
    }
}

/// What every row sees: the goldens, the binary serving `tab serve`,
/// and a scratch directory the rows share (`trace` reads what `small`
/// wrote).
struct Gate<'a> {
    ci: &'a Path,
    server_bin: &'a Path,
    scratch: PathBuf,
}

type Row = fn(&Gate<'_>) -> Result<(), Broken>;

const ROWS: [(&str, Row); 7] = [
    ("small", small),
    ("trace", trace),
    ("threads", threads),
    ("memcap", memcap),
    ("serve", serve),
    ("kill9", kill9),
    ("formats", formats),
];

/// Run every row against the goldens in `ci`, spawning `server_bin
/// serve` for `kill9`, and write one `| row | verdict | seconds |`
/// table line per row to `out` as it finishes. Stops at the first
/// broken row, naming it and its file, and keeps the scratch directory;
/// a pass removes it.
pub fn run_gate(ci: &Path, server_bin: &Path, out: &mut dyn Write) -> Result<(), String> {
    let scratch = std::env::temp_dir().join(format!("tab-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let gate = Gate {
        ci,
        server_bin,
        scratch,
    };
    let _ = writeln!(out, "| row | verdict | seconds |\n|---|---|---:|");
    for (row, check) in ROWS {
        let t0 = Instant::now();
        let result = check(&gate);
        let verdict = if result.is_ok() { "pass" } else { "FAIL" };
        let seconds = t0.elapsed().as_secs_f64();
        let _ = writeln!(out, "| {row} | {verdict} | {seconds:.2} |");
        if let Err(b) = result {
            return Err(format!(
                "gate row `{row}` is broken: {}: {} (scratch kept in {})",
                b.file.display(),
                b.message,
                gate.scratch.display()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&gate.scratch);
    Ok(())
}

// ---------------------------------------------------------------- repro rows

/// `repro --small` at `threads` into `<scratch>/<dir>`.
fn small_config(g: &Gate<'_>, dir: &str, threads: usize) -> ReproConfig {
    ReproConfig {
        spec: BenchSpec {
            threads: Parallelism::new(threads),
            ..BenchSpec::small()
        },
        out_dir: g.scratch.join(dir),
        trace: None,
        faults: None,
    }
}

fn run(cfg: &ReproConfig) -> Result<ReproSummary, Broken> {
    run_all(cfg).map_err(|e| broken(&cfg.out_dir, format!("repro failed: {e}")))
}

fn small(g: &Gate<'_>) -> Result<(), Broken> {
    let cfg = ReproConfig {
        trace: Some(g.scratch.join("small.trace.jsonl")),
        ..small_config(g, "small", 2)
    };
    let summary = run(&cfg)?;
    same_as_golden(&cfg.out_dir, &g.ci.join("golden_small"), &[])?;
    // The ledger reads `repro --expect`'s baseline; keep it in step with
    // the verdicts the golden `claims.csv` records.
    let expected = g.ci.join("expected_claims_small.csv");
    let want = read_text(&expected)?;
    let got: String = summary
        .claims
        .iter()
        .map(|c| format!("{},{}\n", c.id, if c.holds { "HOLDS" } else { "DIVERGES" }))
        .collect();
    let got = format!("id,status\n{got}");
    if got != want {
        return Err(broken(
            expected,
            format!(
                "disagrees with the run's verdicts at line {}",
                first_difference_line(want.as_bytes(), got.as_bytes())
            ),
        ));
    }
    let timings = cfg.out_dir.join("timings.json");
    let mut reused = 0;
    for rest in read_text(&timings)?.split("\"reused\": ").skip(1) {
        let count: String = rest.chars().take_while(char::is_ascii_digit).collect();
        reused += count
            .parse::<usize>()
            .map_err(|_| broken(&timings, "a `reused` field has no count"))?;
    }
    if reused != SMALL_REUSED {
        return Err(broken(
            timings,
            format!("{reused} grid queries reused an execution, expected {SMALL_REUSED}"),
        ));
    }
    Ok(())
}

fn trace(g: &Gate<'_>) -> Result<(), Broken> {
    let golden_path = g.ci.join("golden_trace_small.jsonl");
    let fresh_path = g.scratch.join("small.trace.jsonl");
    let golden_text = read_text(&golden_path)?;
    let golden = replay_str(&golden_text)
        .map_err(|e| broken(&golden_path, format!("replay refused it: {e}")))?;
    let fresh_text = read_text(&fresh_path)?;
    let tracediff = |text: &str| {
        replay_str(text)
            .map(|fresh| diff(&golden, &fresh, DiffOptions { tolerance: 1e-6 }))
            .map_err(|e| broken(&fresh_path, format!("replay refused it: {e}")))
    };
    let findings = tracediff(&fresh_text)?;
    if let Some(first) = findings.first() {
        return Err(broken(
            &golden_path,
            format!(
                "{} structural divergence(s) from {}, first: {first}",
                findings.len(),
                fresh_path.display()
            ),
        ));
    }
    // The diff's tolerance would pass a change in how numbers are
    // rendered, so the bytes must match too: the same lines, in any
    // order (parallel workers interleave them).
    let mut want: Vec<&str> = golden_text.lines().collect();
    let mut got: Vec<&str> = fresh_text.lines().collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        let at = want.iter().zip(&got).take_while(|(a, b)| a == b).count();
        return Err(broken(
            &golden_path,
            format!(
                "{} has {} lines, the golden {}; sorted, they first differ at line {}",
                fresh_path.display(),
                got.len(),
                want.len(),
                at + 1
            ),
        ));
    }
    // What `tab replay` prints for the golden is pinned byte for byte.
    same_as_pinned(g, "golden_replay_small.txt", &render_summary(&golden))?;
    // The diff must bite: renaming one operator per line is a plan change,
    // and the report naming every divergence is pinned too.
    let perturbed: String = fresh_text
        .lines()
        .map(|l| l.replacen("IndexScan", "HashScan", 1) + "\n")
        .collect();
    let findings = tracediff(&perturbed)?;
    if findings.is_empty() {
        return Err(broken(
            &fresh_path,
            "tracediff passed a copy with IndexScan renamed HashScan",
        ));
    }
    let report = report_json(
        "golden_trace_small.jsonl",
        "hashscan.jsonl",
        1e-6,
        &findings,
    );
    same_as_pinned(g, "golden_tracediff_small.json", &report)?;
    // And replay must refuse a torn tail rather than half-replay it.
    let torn = &fresh_text.as_bytes()[..fresh_text.len().saturating_sub(40)];
    if replay_str(&String::from_utf8_lossy(torn)).is_ok() {
        return Err(broken(
            &fresh_path,
            "replay accepted a copy missing its last 40 bytes",
        ));
    }
    Ok(())
}

/// A poisoned cell fails the run with a typed error naming it while its
/// six sibling cells complete; a clean rerun into the same directory
/// then writes the golden output.
fn threads(g: &Gate<'_>) -> Result<(), Broken> {
    let mut cfg = ReproConfig {
        faults: Some(FaultPlan::parse("panic:cell:NREF3J/NREF_1C").expect("valid fault spec")),
        ..small_config(g, "threads1", 1)
    };
    match run_all(&cfg) {
        Err(ReproError::Grid { message })
            if message.starts_with("1 grid cell(s) failed (6 completed)")
                && message.contains("NREF3J/NREF_1C") => {}
        Err(e) => return Err(broken(&cfg.out_dir, format!("wrong crash: {e}"))),
        Ok(_) => return Err(broken(&cfg.out_dir, "the poisoned run succeeded")),
    }
    cfg.faults = None;
    run(&cfg)?;
    same_as_golden(&cfg.out_dir, &g.ci.join("golden_small"), &[])
}

fn memcap(g: &Gate<'_>) -> Result<(), Broken> {
    let mut cfg = small_config(g, "pool64", 2);
    cfg.spec.buffer_pages = 64;
    cfg.spec.charge = ChargePolicy::Metered;
    run(&cfg)?;
    same_as_golden(&cfg.out_dir, &g.ci.join("golden_small"), &["BENCH_io.json"])?;
    same_file(
        &cfg.out_dir.join("BENCH_io.json"),
        &g.ci.join("golden_pool64").join("BENCH_io.json"),
    )
}

// ---------------------------------------------------------------- serving rows

fn serve(g: &Gate<'_>) -> Result<(), Broken> {
    let expected_path = g.ci.join("expected_serve_small.csv");
    let expected = read_text(&expected_path)?;
    let db = nref(800);
    for clients in [1, 4] {
        let csv = serve_proof(&db, clients)
            .map_err(|e| broken(&expected_path, format!("at {clients} client(s): {e}")))?;
        if csv != expected {
            let fresh = g.scratch.join(format!("serve_requests_{clients}.csv"));
            let _ = std::fs::write(&fresh, &csv);
            return Err(broken(
                &expected_path,
                format!(
                    "differs from {} (at {clients} client(s)) at line {}",
                    fresh.display(),
                    first_difference_line(expected.as_bytes(), csv.as_bytes())
                ),
            ));
        }
    }
    Ok(())
}

/// Row `i` of the inserts `kill9` drives and the WAL fixture holds.
/// Keys start at 100_000, clear of generated NREF data; row 3 carries
/// NULLs and row 7 a string with a quote, a comma and backslashes.
fn insert_sql(i: usize) -> String {
    let key = 100_000 + i;
    let (taxon, name) = match i {
        3 => ("NULL", "NULL".to_string()),
        7 => ("562", r#"'say "hi", then C:\tmp\x'"#.to_string()),
        _ => ("562", format!("'gate row {i}'")),
    };
    format!("INSERT INTO source VALUES ({key}, 1, {taxon}, 'GATE{i:04}', {name}, 'gatedb')")
}

fn parse_insert(i: usize) -> Insert {
    match parse_statement(&insert_sql(i)) {
        Ok(Statement::Insert(ins)) => ins,
        other => panic!("insert_sql({i}) is not an INSERT: {other:?}"),
    }
}

fn kill9(g: &Gate<'_>) -> Result<(), Broken> {
    let wal = g.scratch.join("kill9.wal");
    let db = nref(300);
    let baseline = SharedEngine::new(served_state(db.clone(), "NREF", Parallelism::new(0)));
    let mut acks = Vec::with_capacity(INSERTS);
    for i in 0..INSERTS {
        let ack = baseline
            .insert(&parse_insert(i), "p")
            .map_err(|e| broken(&wal, format!("baseline insert {i}: {}", e.message)))?;
        acks.push(ack);
    }
    let workload = sample_workload(&db, READ_BACK_WORKLOAD).map_err(|e| broken(&wal, e))?;
    let fail = |message: String| broken(&wal, message);

    // Load with one lost ack armed, then SIGKILL: no flush, no shutdown
    // hook, only the WAL's fsynced records survive.
    let mut server = ServerProc::spawn(g.server_bin, &wal, Some(&format!("drop:conn:{DROP_AT}")))
        .map_err(fail)?;
    let mut client = RetryClient::new(server.addr.to_string(), "gate-loader");
    for (i, ack) in acks.iter().enumerate().take(KILL_AFTER) {
        check_ack(i, &client.insert("p", &insert_sql(i)).map_err(fail)?, ack).map_err(fail)?;
    }
    let before = client.stats().map_err(fail)?;
    let deduped = before.int_field("deduped").unwrap_or(0);
    if before.int_field("wire_dropped").unwrap_or(0) == 0 || deduped == 0 {
        return Err(fail(format!(
            "the lost ack was not retried into a dedup: {}",
            before.line()
        )));
    }
    server.kill9().map_err(fail)?;

    // Restart on the same WAL and finish the load.
    let mut server = ServerProc::spawn(g.server_bin, &wal, None).map_err(fail)?;
    client.set_addr(server.addr.to_string());
    for (i, ack) in acks.iter().enumerate().skip(KILL_AFTER) {
        check_ack(i, &client.insert("p", &insert_sql(i)).map_err(fail)?, ack).map_err(fail)?;
    }
    let after = client.stats().map_err(fail)?;
    let (recovered, generation) = (after.int_field("recovered"), after.int_field("generation"));
    if recovered != Some(KILL_AFTER as u64) || generation != Some(INSERTS as u64) {
        return Err(fail(format!(
            "expected {KILL_AFTER} records recovered and generation {INSERTS}: {}",
            after.line()
        )));
    }

    // Read back over the wire against the uninterrupted engine.
    let snap = baseline.snapshot();
    for i in 0..READ_BACKS {
        let qi = i % workload.len();
        let config = if i % 2 == 0 { "p" } else { "1c" };
        let r = client
            .query(config, &workload[qi].to_string())
            .map_err(fail)?;
        let session = snap.session(config).expect("the baseline serves p and 1c");
        wire_matches_direct(&r, &session, &workload[qi])
            .map_err(|e| fail(format!("read-back {i} (query {qi}, {config}): {e}")))?;
    }
    server.shutdown().map_err(fail)
}

/// A spawned `tab serve --wal` child. Dropping it kills the child if it
/// is still running, so a broken row never leaks a server.
struct ServerProc {
    child: Child,
    /// Kept open so the child's last prints never hit a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `bin serve --db nref:300 --addr 127.0.0.1:0 --wal WAL`
    /// (plus `--faults` when armed) and wait for its serving line.
    fn spawn(bin: &Path, wal: &Path, faults: Option<&str>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--db",
            "nref:300",
            "--addr",
            "127.0.0.1:0",
            "--wal",
        ])
        .arg(wal)
        .stdout(Stdio::piped());
        if let Some(f) = faults {
            cmd.args(["--faults", f]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = ServerProc {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) => return Err("server exited before printing its serving line".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("reading server stdout: {e}")),
            }
            if line.starts_with("serving ") {
                server.addr = line
                    .rsplit(" on ")
                    .next()
                    .unwrap_or("")
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad serving line `{}`: {e}", line.trim()))?;
                return Ok(server);
            }
        }
    }

    /// SIGKILL and reap.
    fn kill9(&mut self) -> Result<(), String> {
        self.child
            .kill()
            .and_then(|()| self.child.wait().map(|_| ()))
            .map_err(|e| format!("cannot kill server: {e}"))
    }

    /// `SHUTDOWN` over the wire, then drain stdout and reap.
    fn shutdown(&mut self) -> Result<(), String> {
        Client::connect(self.addr)
            .map_err(|e| format!("cannot connect for shutdown: {e}"))?
            .shutdown()?;
        let _ = self.stdout.read_to_string(&mut String::new());
        self.child
            .wait()
            .map(|_| ())
            .map_err(|e| format!("cannot reap server: {e}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.kill9();
        }
    }
}

/// An acknowledged insert must reproduce the uninterrupted engine's ack:
/// same generation (nothing lost or applied twice), same row id, and
/// bit-identical maintenance units.
fn check_ack(i: usize, r: &Response, want: &SharedInsert) -> Result<(), String> {
    if !r.is_ok() {
        return Err(format!(
            "insert {i} failed: {}",
            r.error().unwrap_or_else(|| "unlabelled".into())
        ));
    }
    let generation = r.int_field("generation");
    let row_id = r.int_field("row_id");
    let units = r.num_field("units").map(f64::to_bits);
    if generation != Some(want.generation)
        || row_id != Some(u64::from(want.row_id))
        || units != Some(want.units.to_bits())
    {
        return Err(format!(
            "insert {i} ack diverged from the uninterrupted engine: wire {} vs \
             (generation {}, row {}, units {})",
            r.line(),
            want.generation,
            want.row_id,
            want.units
        ));
    }
    Ok(())
}

/// Compare a wire `QUERY` answer with a direct session run of `q`;
/// returns the agreed `(verdict, units)`.
pub(crate) fn wire_matches_direct(
    r: &Response,
    session: &Session<'_>,
    q: &Query,
) -> Result<(&'static str, f64), String> {
    if !r.is_ok() {
        return Err(r.error().unwrap_or_else(|| "unlabelled error".into()));
    }
    let wire = match r.str_field("verdict").as_deref() {
        Some("done") => ("done", r.num_field("units"), r.int_field("rows")),
        Some("timeout") => ("timeout", r.num_field("budget_units"), None),
        other => return Err(format!("unexpected verdict {other:?}: {}", r.line())),
    };
    let direct = session
        .run(q, Some(tab_engine::DEFAULT_TIMEOUT_UNITS))
        .map_err(|e| e.message)?;
    let want = match direct.outcome {
        Outcome::Done { units, rows } => ("done", units, Some(rows)),
        Outcome::Timeout { budget } => ("timeout", budget, None),
    };
    if wire.0 != want.0 || wire.1.map(f64::to_bits) != Some(want.1.to_bits()) || wire.2 != want.2 {
        return Err(format!(
            "wire {} vs direct ({}, units {}, rows {:?})",
            r.line(),
            want.0,
            want.1,
            want.2
        ));
    }
    Ok((want.0, want.1))
}

// ---------------------------------------------------------------- formats row

fn formats(g: &Gate<'_>) -> Result<(), Broken> {
    // The WAL: replayed record-verified on a copy (recovery appends to
    // the log it opens), then read back against fresh inserts.
    let fixture = g.ci.join("fixtures").join("wal_v1.jsonl");
    let copy = g.scratch.join("wal_v1.jsonl");
    std::fs::copy(&fixture, &copy).map_err(|e| broken(&fixture, e.to_string()))?;
    let db = nref(300);
    let (recovered, report) = SharedEngine::with_wal(
        served_state(db.clone(), "NREF", Parallelism::new(0)),
        &copy,
        None,
    )
    .map_err(|e| broken(&fixture, e.to_string()))?;
    if report.replayed != INSERTS as u64 || report.torn_tail || report.generation != INSERTS as u64
    {
        return Err(broken(
            &fixture,
            format!("expected {INSERTS} records to replay with no torn tail: {report:?}"),
        ));
    }
    let fresh = SharedEngine::new(served_state(db.clone(), "NREF", Parallelism::new(0)));
    for i in 0..INSERTS {
        fresh
            .insert(&parse_insert(i), "p")
            .map_err(|e| broken(&fixture, format!("fresh insert {i}: {}", e.message)))?;
    }
    let mut reads = sample_workload(&db, READ_BACK_WORKLOAD).map_err(|e| broken(&fixture, e))?;
    reads.push(
        tab_sqlq::parse(
            "SELECT s.nref_id, s.p_id, s.taxon_id, s.accession, s.p_name, s.source \
             FROM source s WHERE s.source = 'gatedb'",
        )
        .expect("the read-back query parses"),
    );
    let (old, new) = (recovered.snapshot(), fresh.snapshot());
    for q in &reads {
        for config in ["p", "1c"] {
            let run = |snap: &tab_engine::EngineSnapshot| {
                let r = snap
                    .session(config)
                    .expect("served")
                    .run(q, Some(tab_engine::DEFAULT_TIMEOUT_UNITS))
                    .map_err(|e| broken(&fixture, e.message))?;
                Ok::<_, Broken>((r.outcome, r.rows))
            };
            if run(&old)? != run(&new)? {
                return Err(broken(
                    &fixture,
                    format!("the replayed engine answers `{q}` under {config} differently"),
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- helpers

/// `--db nref:<proteins>` at `tab serve`'s default seed.
fn nref(proteins: usize) -> Database {
    generate_nref(NrefParams {
        proteins,
        seed: 2005,
    })
}

/// The seeded NREF2J sample the serving rows query, drawn under `db`'s P.
pub(crate) fn sample_workload(db: &Database, n: usize) -> Result<Vec<Query>, String> {
    let p = build_p(db, "NREF");
    prepare_workload_db_with(db, Family::Nref2J, &p, n, DRAW_SEED, Parallelism::new(0))
}

fn read_text(path: &Path) -> Result<String, Broken> {
    std::fs::read_to_string(path).map_err(|e| broken(path, e.to_string()))
}

/// Write `text` to the scratch directory as `name` and require it to
/// equal the golden `name` in `ci/`.
fn same_as_pinned(g: &Gate<'_>, name: &str, text: &str) -> Result<(), Broken> {
    let fresh = g.scratch.join(name);
    std::fs::write(&fresh, text).map_err(|e| broken(&fresh, e.to_string()))?;
    same_file(&fresh, &g.ci.join(name))
}

/// Require `fresh` to hold exactly `golden`'s files, byte for byte, plus
/// `timings.json` (wall-clock) and the names in `skip`, which the caller
/// compares itself.
fn same_as_golden(fresh: &Path, golden: &Path, skip: &[&str]) -> Result<(), Broken> {
    let names = |dir: &Path| -> Result<Vec<String>, Broken> {
        let mut names = std::fs::read_dir(dir)
            .and_then(|entries| {
                entries
                    .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
                    .collect::<std::io::Result<Vec<_>>>()
            })
            .map_err(|e| broken(dir, e.to_string()))?;
        names.retain(|n| n != "timings.json" && !skip.contains(&n.as_str()));
        names.sort();
        Ok(names)
    };
    let want = names(golden)?;
    for name in &want {
        same_file(&fresh.join(name), &golden.join(name))?;
    }
    match names(fresh)?.into_iter().find(|n| !want.contains(n)) {
        Some(extra) => Err(broken(
            fresh.join(extra),
            format!("has no golden in {}", golden.display()),
        )),
        None => Ok(()),
    }
}

fn same_file(fresh: &Path, golden: &Path) -> Result<(), Broken> {
    let want = std::fs::read(golden).map_err(|e| broken(golden, e.to_string()))?;
    let got =
        std::fs::read(fresh).map_err(|e| broken(golden, format!("{}: {e}", fresh.display())))?;
    if got != want {
        return Err(broken(
            golden,
            format!(
                "differs from {} at line {}",
                fresh.display(),
                first_difference_line(&want, &got)
            ),
        ));
    }
    Ok(())
}

/// The 1-based line of the first byte where `a` and `b` disagree.
fn first_difference_line(a: &[u8], b: &[u8]) -> usize {
    let at = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    a[..at].iter().filter(|&&c| c == b'\n').count() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `row` over a private copy of the committed `ci/`, with
    /// `tamper` applied to the copy and `seed` to the scratch directory.
    fn run_row(
        name: &str,
        row: Row,
        tamper: impl FnOnce(&Path),
        seed: impl FnOnce(&Path),
    ) -> Result<(), Broken> {
        let root =
            std::env::temp_dir().join(format!("tab-gate-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (ci, scratch) = (root.join("ci"), root.join("scratch"));
        copy_dir(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci"), &ci);
        tamper(&ci);
        std::fs::create_dir_all(&scratch).unwrap();
        seed(&scratch);
        let result = row(&Gate {
            ci: &ci,
            server_bin: Path::new("tab"),
            scratch,
        });
        let _ = std::fs::remove_dir_all(&root);
        result
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), target).unwrap();
            }
        }
    }

    /// Change the second byte of line `line` (1-based) of `path`.
    fn flip_byte(path: &Path, line: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        let start: usize = bytes
            .split(|&b| b == b'\n')
            .take(line - 1)
            .map(|l| l.len() + 1)
            .sum();
        bytes[start + 1] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    fn tampered(name: &str, row: Row, file: &str, line: usize) -> Broken {
        run_row(name, row, |ci| flip_byte(&ci.join(file), line), |_| {})
            .expect_err("a tampered golden must break the row")
    }

    #[test]
    fn insert_sequence_is_deterministic_and_collision_free() {
        assert_eq!(
            insert_sql(0),
            "INSERT INTO source VALUES (100000, 1, 562, 'GATE0000', 'gate row 0', 'gatedb')"
        );
        let rows: Vec<Insert> = (0..INSERTS).map(parse_insert).collect();
        assert!(rows
            .iter()
            .all(|r| r.table == "source" && r.values.len() == 6));
        assert!(rows[3].values[2].is_null() && rows[3].values[4].is_null());
        assert_eq!(
            rows[7].values[4].as_str(),
            Some(r#"say "hi", then C:\tmp\x"#)
        );
    }

    #[test]
    fn small_row_names_a_tampered_golden() {
        let b = tampered("small", small, "golden_small/table1_configurations.csv", 2);
        assert!(
            b.file.ends_with("golden_small/table1_configurations.csv"),
            "{b:?}"
        );
    }

    #[test]
    fn trace_row_passes_an_equal_trace_and_names_a_tampered_golden() {
        let seed = |scratch: &Path| {
            let golden =
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/golden_trace_small.jsonl");
            std::fs::copy(golden, scratch.join("small.trace.jsonl")).unwrap();
        };
        // Passing proves the perturbed and torn copies were refused.
        run_row("trace-clean", trace, |_| {}, seed).expect("a trace equal to the golden passes");
        let rename_one_scan = |ci: &Path| {
            let path = ci.join("golden_trace_small.jsonl");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replacen("IndexScan", "IndexScam", 1)).unwrap();
        };
        let b = run_row("trace", trace, rename_one_scan, seed)
            .expect_err("a tampered golden breaks the row");
        assert!(b.file.ends_with("golden_trace_small.jsonl"), "{b:?}");
        for pinned in ["golden_replay_small.txt", "golden_tracediff_small.json"] {
            let tamper = |ci: &Path| flip_byte(&ci.join(pinned), 3);
            let b = run_row("trace-pinned", trace, tamper, seed)
                .expect_err("a tampered pinned output breaks the row");
            assert!(b.file.ends_with(pinned), "{b:?}");
        }
    }

    #[test]
    fn memcap_row_names_a_tampered_pool_golden() {
        let b = tampered("memcap", memcap, "golden_pool64/BENCH_io.json", 4);
        assert!(b.file.ends_with("golden_pool64/BENCH_io.json"), "{b:?}");
    }

    #[test]
    fn serve_row_names_a_tampered_claims_line() {
        let b = tampered("serve", serve, "expected_serve_small.csv", 5);
        assert!(b.file.ends_with("expected_serve_small.csv"), "{b:?}");
        assert!(b.message.contains("at line 5"), "{b:?}");
    }

    #[test]
    fn formats_row_names_a_corrupted_wal_frame() {
        let b = tampered("formats", formats, "fixtures/wal_v1.jsonl", 6);
        assert!(b.file.ends_with("fixtures/wal_v1.jsonl"), "{b:?}");
        assert!(b.message.contains("corrupt at line 5"), "{b:?}");
    }

    #[test]
    fn first_difference_line_counts_from_one() {
        assert_eq!(first_difference_line(b"a\nb\nc\n", b"a\nb\nx\n"), 3);
        assert_eq!(first_difference_line(b"abc", b"abd"), 1);
        assert_eq!(first_difference_line(b"a\n", b"a\nmore"), 2);
    }
}
