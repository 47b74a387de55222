//! `serve_read`, `serve_durable`, `serve_recover`: the server, driven
//! over the wire as a user drives it.
//!
//! Each set-up spawns a fresh `tab serve` child on an ephemeral port:
//! allocator state carried from one phase to the next changes serving
//! numbers severalfold inside one process. Load is closed loop — every
//! caller of this server waits for its reply — from at most two
//! connections, one per core of the box the benchmark is sized for.
//!
//! - `serve_read`: two connections issue small NREF2J queries,
//!   alternating configurations. Wire, connection loop, snapshot and
//!   executor; the write path does nothing.
//! - `serve_durable`: one connection issues keyed INSERTs (state clone,
//!   WAL append and fsync, publish under the writer latch) while another
//!   reads. The reader must not wait for the writer.
//! - `serve_recover`: `kill -9`, restart on the same WAL, first
//!   successful PING. Boot plus replay of every logged record.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tab_engine::{Session, DEFAULT_TIMEOUT_UNITS};
use tab_families::Family;

use super::grid::{build_nref, sample, Built};
use super::{repeat_setup, Ctx, Outcome, Tally};
use crate::proc::{spawn_server, status_kb, Server};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wire::{Answer, LineClient};

/// Unmeasured load before `serve_read` starts timing.
const WARM_UP: Duration = Duration::from_secs(1);
/// Restarts `serve_recover` times at least.
const MIN_RESTARTS: usize = 3;

fn boot(ctx: &Ctx<'_>, tr: &mut Tracer, nref: usize, wal: Option<&Path>) -> Result<Server, String> {
    let db = format!("nref:{nref}");
    let seed = ctx.seed.to_string();
    let mut args = vec!["--db", &db, "--seed", &seed];
    let wal = wal.map(|p| p.to_string_lossy().into_owned());
    if let Some(w) = &wal {
        args.extend(["--wal", w]);
    }
    let span = tr.begin("server.boot");
    let server = spawn_server(&ctx.bin("tab"), &args);
    tr.end(span);
    server
}

fn connect(addr: SocketAddr) -> Result<LineClient, String> {
    LineClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// One QUERY over the wire: its answer and its latency in
/// milliseconds. An error envelope or a dead connection is an `Err`
/// naming the request.
fn query(client: &mut LineClient, tr: &mut Tracer, line: &str) -> Result<(Answer, f64), String> {
    let (reply, secs) = tr.timed("server.query", |_| client.request(line));
    let reply = reply.map_err(|e| format!("{line}: {e}"))?;
    let answer = reply.answer().ok_or(format!("{line}: {}", reply.0))?;
    Ok((answer, secs * 1e3))
}

// ---------------------------------------------------------------- read

struct ReadInputs {
    server: Server,
    /// Request lines with the answer a direct session gave, P and 1C
    /// alternating.
    requests: Vec<(String, Answer)>,
}

fn read_setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<ReadInputs, String> {
    let built = build_nref(tr, ctx.scale.read_nref, ctx.seed);
    let queries = sample(tr, &built, Family::Nref2J, ctx.scale.read_queries, ctx.seed);
    let mut requests = Vec::with_capacity(queries.len() * 2);
    let span = tr.begin("engine.expected_answers");
    for q in &queries {
        for (name, config) in [("p", &built.p), ("1c", &built.c1)] {
            // The server runs queries under the default timeout.
            let want = Session::new(&built.db, config)
                .run(q, Some(DEFAULT_TIMEOUT_UNITS))
                .map(|r| Answer::of(&r.outcome))
                .map_err(|e| e.message)?;
            requests.push((format!("QUERY {name} {q}"), want));
        }
    }
    tr.end(span);
    let server = boot(ctx, tr, ctx.scale.read_nref, None)?;
    Ok(ReadInputs { server, requests })
}

pub fn read(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Outcome, String> {
    let (inputs, setup_s) = repeat_setup(tr, |tr| read_setup(ctx, tr))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let addr = inputs.server.addr;
    let requests = &inputs.requests;
    let measure = tr.begin("bench.measure");
    let start = Instant::now() + WARM_UP;
    let stop = start + Duration::from_secs_f64(ctx.seconds);
    let clients: Vec<Result<(Tally, Tracer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let mut tr = tr.fork();
                s.spawn(move || {
                    let mut client = connect(addr)?;
                    let mut tally = Tally::default();
                    let mut i = t * requests.len() / 2;
                    while Instant::now() < stop {
                        let (line, want) = &requests[i % requests.len()];
                        let measured = Instant::now() >= start;
                        let checked = query(&mut client, &mut tr, line).and_then(|(got, ms)| {
                            if got == *want {
                                Ok(Some(ms))
                            } else {
                                Err(format!("{line}: wire {got:?} differs from direct {want:?}"))
                            }
                        });
                        if measured || checked.is_err() {
                            tally.record(checked);
                        }
                        i += 1;
                    }
                    Ok((tally, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    out.measured_s = start.elapsed().as_secs_f64();
    for client in clients {
        let (tally, forked) = client?;
        out.tally.merge(tally);
        tr.absorb(forked);
    }
    tr.end(measure);
    out.peak_rss_mb = status_kb(inputs.server.guard.pid(), "VmHWM").unwrap_or(0) as f64 / 1024.0;
    out.notes.push(format!(
        "2 connections, closed loop, {} distinct requests",
        requests.len()
    ));
    Ok(out)
}

// ------------------------------------------------------------- durable

/// Row `i` of the write load, in `tab bench chaos`'s row shape. Keys
/// start at 100000, beyond any generated NREF key.
fn insert_line(i: usize) -> String {
    format!(
        "INSERT 1c bench:{i} INSERT INTO source VALUES ({}, 1, 562, 'BENCH{i:04}', 'bench row {i}', 'benchdb')",
        100_000 + i
    )
}

/// The read-back set: both configurations counting the table the
/// inserts land in, plus sampled NREF2J queries.
fn read_back_lines(ctx: &Ctx<'_>, tr: &mut Tracer, nref: usize) -> Vec<String> {
    let built: Built = build_nref(tr, nref, ctx.seed);
    let mut lines = vec![
        "QUERY p SELECT COUNT(*) FROM source".to_string(),
        "QUERY 1c SELECT COUNT(*) FROM source".to_string(),
    ];
    for (i, q) in sample(tr, &built, Family::Nref2J, 6, ctx.seed)
        .iter()
        .enumerate()
    {
        lines.push(format!("QUERY {} {q}", if i % 2 == 0 { "p" } else { "1c" }));
    }
    lines
}

fn read_back(
    client: &mut LineClient,
    tr: &mut Tracer,
    lines: &[String],
) -> Result<Vec<Answer>, String> {
    lines
        .iter()
        .map(|line| query(client, tr, line).map(|(answer, _)| answer))
        .collect()
}

/// Send inserts `1..=n`, checking each acknowledgement: generation `i`,
/// consecutive row ids, never deduplicated.
fn write_phase(client: &mut LineClient, tr: &mut Tracer, n: usize, tally: &mut Tally) {
    let mut first_row = None;
    for i in 1..=n {
        let line = insert_line(i);
        let (reply, secs) = tr.timed("server.insert", |_| client.request(&line));
        tally.record(match reply {
            Err(e) => Err(format!("insert {i}: {e}")),
            Ok(r) => {
                let row = r.uint("row_id");
                let base = *first_row.get_or_insert(row.unwrap_or(0));
                if r.ok()
                    && r.uint("generation") == Some(i as u64)
                    && row == Some(base + i as u64 - 1)
                    && r.field("deduped") == Some("false")
                {
                    Ok(Some(secs * 1e3))
                } else {
                    Err(format!("insert {i}: unexpected acknowledgement {}", r.0))
                }
            }
        });
    }
}

/// `STATS` must show `generation` and, after a restart, `recovered`
/// equal to the records written.
fn check_stats(
    client: &mut LineClient,
    records: usize,
    restarted: bool,
) -> Result<Option<f64>, String> {
    let r = client.request("STATS").map_err(|e| format!("STATS: {e}"))?;
    let want = Some(records as u64);
    let recovered_ok = !restarted || r.uint("recovered") == want;
    if r.ok() && r.uint("generation") == want && r.field("durable") == Some("true") && recovered_ok
    {
        Ok(None)
    } else {
        Err(format!("STATS after {records} records: {}", r.0))
    }
}

struct DurableInputs {
    server: Server,
    lines: Vec<String>,
    /// Read-back answers at generation 0.
    before: Vec<Answer>,
}

fn durable_setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<DurableInputs, String> {
    let lines = read_back_lines(ctx, tr, ctx.scale.durable_nref);
    // The last set-up's server is gone by now; its log goes too.
    let wal = ctx.run_dir.path("durable.wal");
    std::fs::remove_file(&wal).ok();
    let server = boot(ctx, tr, ctx.scale.durable_nref, Some(&wal))?;
    let before = read_back(&mut connect(server.addr)?, tr, &lines)?;
    Ok(DurableInputs {
        server,
        lines,
        before,
    })
}

pub fn durable(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Outcome, String> {
    let (inputs, setup_s) = repeat_setup(tr, |tr| durable_setup(ctx, tr))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let n = ctx.scale.durable_inserts;
    let addr = inputs.server.addr;
    let pid = inputs.server.guard.pid();
    let rss_before_kb = status_kb(pid, "VmRSS").unwrap_or(0);

    let measure = tr.begin("bench.measure");
    let t0 = Instant::now();
    let writing = AtomicBool::new(true);
    let mut writer = connect(addr)?;
    let (reads, forked) = std::thread::scope(|s| {
        let mut tr_r = tr.fork();
        let (writing, lines) = (&writing, &inputs.lines);
        let reader = s.spawn(move || {
            let mut tally = Tally::default();
            match connect(addr) {
                Err(e) => tally.record(Err(e)),
                Ok(mut client) => {
                    let mut i = 0;
                    while writing.load(Ordering::SeqCst) {
                        let line = &lines[i % lines.len()];
                        tally.record(query(&mut client, &mut tr_r, line).map(|(_, ms)| Some(ms)));
                        i += 1;
                    }
                }
            }
            (tally, tr_r)
        });
        write_phase(&mut writer, tr, n, &mut out.tally);
        writing.store(false, Ordering::SeqCst);
        reader.join().expect("reader thread panicked")
    });
    out.measured_s = t0.elapsed().as_secs_f64();
    tr.absorb(forked);
    tr.end(measure);
    let rss_after_kb = status_kb(pid, "VmRSS").unwrap_or(0);
    out.peak_rss_mb = status_kb(pid, "VmHWM").unwrap_or(0) as f64 / 1024.0;

    // Reads beside the writes count as attempted operations, but only
    // inserts are this workload's latency samples.
    let read_p50 = median(&reads.samples_ms);
    let read_count = reads.samples_ms.len();
    out.tally.merge(Tally {
        samples_ms: Vec::new(),
        ..reads
    });

    // The inserts are visible and logged.
    out.tally.record(check_stats(&mut writer, n, false));
    let after = read_back(&mut writer, tr, &inputs.lines);
    out.tally.record(match &after {
        Ok(a) if *a != inputs.before => Ok(None),
        Ok(_) => Err(format!("read-back after {n} inserts equals generation 0")),
        Err(e) => Err(e.clone()),
    });
    out.notes.push(format!(
        "{n} keyed inserts; {read_count} reads beside them, p50 {:.3} ms; retained {:.2} MB per insert",
        read_p50.unwrap_or(f64::NAN),
        rss_after_kb.saturating_sub(rss_before_kb) as f64 / 1024.0 / n as f64
    ));
    Ok(out)
}

// ------------------------------------------------------------- recover

struct RecoverInputs {
    wal: std::path::PathBuf,
    lines: Vec<String>,
    /// Read-back answers just before the kill.
    before_kill: Vec<Answer>,
}

/// Write the log a restart will replay: a durable server takes
/// `recover_records` inserts, answers the read-back, and is killed.
fn recover_setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<RecoverInputs, String> {
    let lines = read_back_lines(ctx, tr, ctx.scale.recover_nref);
    let wal = ctx.run_dir.path("recover.wal");
    std::fs::remove_file(&wal).ok();
    let server = boot(ctx, tr, ctx.scale.recover_nref, Some(&wal))?;
    let mut client = connect(server.addr)?;
    let mut acks = Tally::default();
    write_phase(&mut client, tr, ctx.scale.recover_records, &mut acks);
    if let Some(reason) = acks.reasons.first() {
        return Err(format!("writing the log: {reason}"));
    }
    let before_kill = read_back(&mut client, tr, &lines)?;
    server.guard.kill9();
    Ok(RecoverInputs {
        wal,
        lines,
        before_kill,
    })
}

pub fn recover(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Outcome, String> {
    let (inputs, setup_s) = repeat_setup(tr, |tr| recover_setup(ctx, tr))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let records = ctx.scale.recover_records;
    let measure = tr.begin("bench.measure");
    let t0 = Instant::now();
    let mut restarts = 0;
    while restarts < MIN_RESTARTS || t0.elapsed().as_secs_f64() < ctx.seconds {
        // Spawn to first successful PING: what a client waits after a crash.
        let (up, secs) = tr.timed("server.restart", |tr| {
            let server = boot(ctx, tr, ctx.scale.recover_nref, Some(&inputs.wal))?;
            let mut client = connect(server.addr)?;
            let pong = client.request("PING").map_err(|e| format!("PING: {e}"))?;
            if pong.ok() {
                Ok((server, client))
            } else {
                Err(format!("PING: {}", pong.0))
            }
        });
        match up {
            Err(e) => out.tally.record(Err(format!("restart {restarts}: {e}"))),
            Ok((server, mut client)) => {
                out.tally.record(Ok(Some(secs * 1e3)));
                out.tally.record(check_stats(&mut client, records, true));
                out.tally
                    .record(match read_back(&mut client, tr, &inputs.lines) {
                        Ok(a) if a == inputs.before_kill => Ok(None),
                        Ok(_) => Err(format!(
                            "restart {restarts}: read-back differs from before the kill"
                        )),
                        Err(e) => Err(e),
                    });
                let hwm = status_kb(server.guard.pid(), "VmHWM").unwrap_or(0);
                out.peak_rss_mb = out.peak_rss_mb.max(hwm as f64 / 1024.0);
                server.guard.kill9();
            }
        }
        restarts += 1;
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    tr.end(measure);
    out.notes.push(format!(
        "one operation is kill -9 then restart to first PING, replaying {records} records"
    ));
    Ok(out)
}
