//! The serving front end: thread-per-connection over a [`SharedEngine`].
//!
//! [`Server::start`] binds a TCP listener and returns a [`Server`]
//! handle immediately; an accept thread hands each connection to its own
//! worker thread. Every request pins a fresh [`EngineSnapshot`], so a
//! request sees one whole generation end to end no matter what writers
//! do meanwhile, and per-request results are exactly those of a direct
//! [`tab_engine::Session`] over the same generation (`tests/serving.rs`
//! and `tab gate`'s `serve` row both verify this equality).
//!
//! Robustness contract:
//!
//! - a malformed or panicking request answers an `{"ok":false}`
//!   envelope and the connection lives on;
//! - a connection idle past [`ServeOptions::idle_timeout`] is closed,
//!   and so is one whose request line passes 1 MiB, after one error
//!   envelope;
//! - past [`ServeOptions::max_connections`] live connections, new ones
//!   are refused with a retryable `overloaded` envelope instead of
//!   spawning unbounded threads; past [`ServeOptions::admission`]
//!   in-flight requests, work is shed cheapest-to-lose first (`ADVISE`,
//!   then `EXPLAIN`, then everything but the observability verbs);
//! - transient `accept()` failures (e.g. `EMFILE` under fd pressure)
//!   back off exponentially instead of spinning, counted in
//!   [`ServerCounters::accept_errors`];
//! - an armed [`FaultPlan`] can drop, tear, or delay response writes
//!   (`drop:conn:N`, `torn:wire:N`, `delay:conn:N`) to prove client
//!   retry loops converge — see `DESIGN.md` §15;
//! - `SHUTDOWN` (or [`Server::shutdown`]) stops the accept loop,
//!   lets every in-flight request finish, then joins all workers — no
//!   request is ever answered half-written (unless a torn-wire fault
//!   was armed to do exactly that).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tab_engine::{EngineSnapshot, SharedEngine, DEFAULT_TIMEOUT_UNITS};
use tab_families::Family;
use tab_sqlq::{parse_statement, Statement};
use tab_storage::{FaultPlan, Faults, Parallelism, WireFault};

use crate::proto::{self, parse_request, Request};

/// How the server runs: bind address, database label (for advisor
/// budgets), per-request budget, and per-connection idle limit.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (`127.0.0.1:0` picks a free port — the default,
    /// and what every test uses).
    pub addr: String,
    /// Database label (e.g. `NREF`) used to derive the advisor's space
    /// budget on `ADVISE`.
    pub label: String,
    /// Per-query execution budget in cost units.
    pub timeout_units: f64,
    /// Close a connection that stays idle this long.
    pub idle_timeout: Duration,
    /// Thread budget for `ADVISE` what-if fan-out (recommendations are
    /// identical at any setting).
    pub par: Parallelism,
    /// Armed fault plan for the wire sites (`drop:conn:N`,
    /// `torn:wire:N`, `delay:conn:N`). `None` (the default) serves
    /// with zero fault-check overhead beyond one branch per response.
    pub faults: Option<Arc<FaultPlan>>,
    /// Hard cap on concurrently served connections; one past the cap is
    /// answered a retryable `overloaded` envelope and closed. `0`
    /// disables the cap (the pre-PR-10 unbounded behavior).
    pub max_connections: usize,
    /// Admission limit on in-flight requests: `ADVISE` sheds at half
    /// this, `EXPLAIN` at three quarters, `QUERY`/`INSERT` only past
    /// the full limit. `0` disables shedding.
    pub admission: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            label: "NREF".into(),
            timeout_units: DEFAULT_TIMEOUT_UNITS,
            idle_timeout: Duration::from_secs(30),
            par: Parallelism::new(0),
            faults: None,
            max_connections: 256,
            admission: 64,
        }
    }
}

/// Serving counters, shared by every connection worker and reported by
/// the `STATS` verb. All counters are monotonic except
/// [`ServerCounters::inflight`], a gauge.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections admitted to a worker thread.
    pub accepted: AtomicU64,
    /// Transient `accept()` failures survived via backoff.
    pub accept_errors: AtomicU64,
    /// Connections refused at [`ServeOptions::max_connections`].
    pub conns_refused: AtomicU64,
    /// `ADVISE` requests shed under load.
    pub shed_advise: AtomicU64,
    /// `EXPLAIN` requests shed under load.
    pub shed_explain: AtomicU64,
    /// `QUERY`/`INSERT` requests shed at the full admission limit.
    pub shed_query: AtomicU64,
    /// Responses silently dropped by an armed `drop:conn` fault.
    pub wire_dropped: AtomicU64,
    /// Responses half-written by an armed `torn:wire` fault.
    pub wire_torn: AtomicU64,
    /// Responses delayed by an armed `delay:conn` fault.
    pub wire_delayed: AtomicU64,
    /// Requests currently being dispatched (gauge, not monotonic).
    pub inflight: AtomicU64,
}

/// Which requests to shed with `inflight` requests in flight under an
/// admission `limit`, cheapest-to-lose first: `ADVISE` (expensive, and
/// always safe to retry) sheds at half the limit, `EXPLAIN` at three
/// quarters, `QUERY`/`INSERT` only past the limit itself. `PING`,
/// `STATS`, `QUIT` and `SHUTDOWN` always pass — they are how an
/// operator observes and drains an overloaded server.
fn shed(request: &Request, inflight: u64, limit: usize) -> Option<&'static str> {
    if limit == 0 {
        return None;
    }
    let limit = limit as u64;
    match request {
        Request::Advise { .. } if inflight >= (limit / 2).max(1) => Some("advise"),
        Request::Explain { .. } if inflight >= (limit * 3 / 4).max(1) => Some("explain"),
        Request::Query { .. } | Request::Insert { .. } if inflight > limit => Some("query"),
        _ => None,
    }
}

/// Granularity at which blocked reads wake up to poll the shutdown
/// flag and the idle deadline.
const POLL_TICK: Duration = Duration::from_millis(20);

/// A running server. Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `opts.addr` and start serving `engine`. Returns as soon as
    /// the listener is bound; use [`Server::addr`] to learn the chosen
    /// port when binding port 0.
    pub fn start(engine: Arc<SharedEngine>, opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerCounters::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || accept_loop(listener, engine, opts, stop, counters))
        };
        Ok(Server {
            addr,
            stop,
            counters,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live serving counters (also reported over the wire by
    /// `STATS`).
    pub fn counters(&self) -> &Arc<ServerCounters> {
        &self.counters
    }

    /// Whether a shutdown has been requested (by this handle or by a
    /// `SHUTDOWN` request over the wire).
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Block until the server stops — i.e. until someone sends
    /// `SHUTDOWN` or another thread calls [`Server::shutdown`]. All
    /// connection workers are joined before this returns.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Request a graceful stop and block until every in-flight request
    /// has been answered and all threads are joined.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Longest pause between retries after a failing `accept()`.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Accept until the stop flag rises, then join every worker.
fn accept_loop(
    listener: TcpListener,
    engine: Arc<SharedEngine>,
    opts: ServeOptions,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = POLL_TICK;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = POLL_TICK;
                // Reap finished workers so a long-lived server does not
                // accumulate handles — and so the connection cap counts
                // only live connections.
                workers.retain(|h| !h.is_finished());
                if opts.max_connections > 0 && workers.len() >= opts.max_connections {
                    counters.conns_refused.fetch_add(1, Ordering::Relaxed);
                    let bye = proto::retryable_error(
                        &format!(
                            "connection limit reached ({} live), try again later",
                            workers.len()
                        ),
                        "overloaded",
                    );
                    let _ = send_line(&stream, bye);
                    continue;
                }
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                let engine = Arc::clone(&engine);
                let opts = opts.clone();
                let stop = Arc::clone(&stop);
                let counters = Arc::clone(&counters);
                workers.push(std::thread::spawn(move || {
                    // A torn-down connection (peer vanished mid-write)
                    // is that connection's problem, not the server's.
                    let _ = serve_connection(stream, &engine, &opts, &stop, &counters);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
            Err(_) => {
                // Transient accept failures (EMFILE under fd pressure,
                // ECONNABORTED, …) must not spin the loop hot: count
                // them and back off exponentially, resetting on the
                // next successful accept.
                counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_CAP);
            }
        }
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Send one response line as one `write`: the line and its newline
/// leave in one segment. Written separately, the newline is a second
/// small segment that Nagle's algorithm holds until the peer
/// acknowledges the first — and a peer with nothing to send delays that
/// acknowledgement by tens of milliseconds.
fn send_line(mut out: &TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Reads lines off one connection and answers them until QUIT,
/// SHUTDOWN, EOF, idle timeout, or server stop.
fn serve_connection(
    stream: TcpStream,
    engine: &SharedEngine,
    opts: &ServeOptions,
    stop: &AtomicBool,
    counters: &ServerCounters,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_nodelay(true)?;
    let mut reader = LineReader::new(stream.try_clone()?);
    let mut out = &stream;
    let mut last_activity = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        if last_activity.elapsed() > opts.idle_timeout {
            let bye = proto::error("idle timeout, closing connection");
            let _ = send_line(out, bye);
            return Ok(());
        }
        let line = match reader.poll_line()? {
            Poll::Closed => return Ok(()),
            Poll::Pending => continue,
            Poll::TooLong => {
                let bye = proto::error(&format!(
                    "request line longer than {MAX_LINE_BYTES} bytes, closing connection"
                ));
                let _ = send_line(out, bye);
                return Ok(());
            }
            Poll::Line(line) => line,
        };
        last_activity = Instant::now();
        if line.trim().is_empty() {
            continue;
        }
        let (response, control) = handle_line(engine, opts, counters, &line);
        // Wire-level chaos happens *after* dispatch: the request was
        // applied, the acknowledgement is what gets lost — exactly the
        // window idempotent retries must cover (DESIGN.md §15).
        let wire = opts
            .faults
            .as_deref()
            .and_then(|plan| Faults::to(plan).wire());
        match wire {
            Some(WireFault::Drop) => {
                counters.wire_dropped.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Some(WireFault::Torn) => {
                counters.wire_torn.fetch_add(1, Ordering::Relaxed);
                out.write_all(&response.as_bytes()[..response.len() / 2])?;
                out.flush()?;
                return Ok(());
            }
            Some(WireFault::Delay) => {
                counters.wire_delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(50));
            }
            None => {}
        }
        send_line(out, response)?;
        match control {
            Control::Continue => {}
            Control::CloseConnection => return Ok(()),
            Control::ShutdownServer => {
                stop.store(true, Ordering::Relaxed);
                return Ok(());
            }
        }
    }
}

/// What the connection loop does after answering a request.
enum Control {
    Continue,
    CloseConnection,
    ShutdownServer,
}

/// One request line to one response line. Panics inside dispatch
/// become error envelopes: a bad request must never take down the
/// connection, let alone the server. Admission control runs first —
/// a shed request costs one atomic increment, not a snapshot.
fn handle_line(
    engine: &SharedEngine,
    opts: &ServeOptions,
    counters: &ServerCounters,
    line: &str,
) -> (String, Control) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return (proto::error(&e), Control::Continue),
    };
    let control = match request {
        Request::Quit => Control::CloseConnection,
        Request::Shutdown => Control::ShutdownServer,
        _ => Control::Continue,
    };
    let inflight = counters.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    let response = if let Some(verb) = shed(&request, inflight, opts.admission) {
        match verb {
            "advise" => &counters.shed_advise,
            "explain" => &counters.shed_explain,
            _ => &counters.shed_query,
        }
        .fetch_add(1, Ordering::Relaxed);
        proto::retryable_error(
            &format!("overloaded: {verb} shed at {inflight} in-flight requests"),
            "overloaded",
        )
    } else {
        catch_unwind(AssertUnwindSafe(|| {
            dispatch(engine, opts, counters, &request)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("request panicked");
            proto::error(&format!("internal error: {msg}"))
        })
    };
    counters.inflight.fetch_sub(1, Ordering::Relaxed);
    (response, control)
}

/// Execute one parsed request against a freshly pinned snapshot.
fn dispatch(
    engine: &SharedEngine,
    opts: &ServeOptions,
    counters: &ServerCounters,
    request: &Request,
) -> String {
    match request {
        Request::Ping => {
            let snap = engine.snapshot();
            let configs: Vec<&str> = snap.config_names().collect();
            proto::ok("ping")
                .int("generation", snap.seq())
                .str("configs", &configs.join(","))
                .finish()
        }
        Request::Stats => stats(engine, counters),
        Request::Quit => proto::ok("bye").finish(),
        Request::Shutdown => proto::ok("shutdown").finish(),
        Request::Query { config, sql } => run_query(engine, opts, config, sql),
        Request::Insert {
            config,
            client,
            cseq,
            sql,
        } => keyed_insert(engine, config, client, *cseq, sql),
        Request::Explain { config, sql } => explain_query(engine, config, sql),
        Request::Advise {
            family,
            system,
            workload,
        } => advise(engine, opts, family, system, *workload),
    }
}

/// `STATS`: one line of serving counters plus the engine's durability
/// state — how an operator watches shedding, chaos, and recovery.
fn stats(engine: &SharedEngine, c: &ServerCounters) -> String {
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    proto::ok("stats")
        .int("generation", engine.generation())
        .token("durable", engine.is_durable())
        .int("recovered", engine.recovered())
        .int("deduped", engine.deduped())
        .int("accepted", load(&c.accepted))
        .int("accept_errors", load(&c.accept_errors))
        .int("conns_refused", load(&c.conns_refused))
        .int("shed_advise", load(&c.shed_advise))
        .int("shed_explain", load(&c.shed_explain))
        .int("shed_query", load(&c.shed_query))
        .int("wire_dropped", load(&c.wire_dropped))
        .int("wire_torn", load(&c.wire_torn))
        .int("wire_delayed", load(&c.wire_delayed))
        .finish()
}

/// `INSERT <config> <client>:<seq> <sql>`: the idempotent write path.
/// A replayed sequence answers the cached acknowledgement with
/// `"deduped":true` — same generation, row id, and bit-identical units
/// as the original ack.
fn keyed_insert(engine: &SharedEngine, config: &str, client: &str, cseq: u64, sql: &str) -> String {
    let stmt = match parse_statement(sql) {
        Ok(s) => s,
        Err(e) => return proto::error(&e.to_string()),
    };
    let Statement::Insert(ins) = stmt else {
        return proto::error("the INSERT verb needs an INSERT statement");
    };
    match engine.insert_keyed(&ins, config, client, cseq) {
        Ok(k) => proto::ok("insert")
            .int("generation", k.out.generation)
            .str("verdict", "inserted")
            .int("row_id", u64::from(k.out.row_id))
            .token("units", k.out.units)
            .token("deduped", k.deduped)
            .finish(),
        Err(e) => proto::error(&e.message),
    }
}

/// Open a per-request session over `snap`, or an error envelope naming
/// the configurations that *are* served.
fn session_or_error<'a>(
    snap: &'a EngineSnapshot,
    config: &str,
) -> Result<tab_engine::Session<'a>, String> {
    snap.session(config).ok_or_else(|| {
        let served: Vec<&str> = snap.config_names().collect();
        proto::error(&format!(
            "no configuration `{config}` (served: {})",
            served.join(", ")
        ))
    })
}

/// `QUERY`: a SELECT runs on the pinned snapshot; an INSERT goes
/// through the latched copy-on-write path and reports the generation
/// it published.
fn run_query(engine: &SharedEngine, opts: &ServeOptions, config: &str, sql: &str) -> String {
    let stmt = match parse_statement(sql) {
        Ok(s) => s,
        Err(e) => return proto::error(&e.to_string()),
    };
    match stmt {
        Statement::Insert(ins) => match engine.insert(&ins, config) {
            Ok(out) => proto::ok("insert")
                .int("generation", out.generation)
                .str("verdict", "inserted")
                .int("row_id", u64::from(out.row_id))
                .token("units", out.units)
                .finish(),
            Err(e) => proto::error(&e.message),
        },
        Statement::Query(q) => {
            let snap = engine.snapshot();
            let session = match session_or_error(&snap, config) {
                Ok(s) => s,
                Err(envelope) => return envelope,
            };
            match session.run(&q, Some(opts.timeout_units)) {
                Ok(r) => {
                    let b = proto::ok("query")
                        .int("generation", snap.seq())
                        .str("plan", &r.plan.describe());
                    match r.outcome {
                        tab_engine::Outcome::Done { units, rows } => b
                            .str("verdict", "done")
                            .token("units", units)
                            .int("rows", rows)
                            .finish(),
                        tab_engine::Outcome::Timeout { budget } => b
                            .str("verdict", "timeout")
                            .token("budget_units", budget)
                            .finish(),
                    }
                }
                Err(e) => proto::error(&e.message),
            }
        }
    }
}

/// `EXPLAIN`: plan shape plus optimizer estimate, nothing executed.
fn explain_query(engine: &SharedEngine, config: &str, sql: &str) -> String {
    let q = match tab_sqlq::parse(sql) {
        Ok(q) => q,
        Err(e) => return proto::error(&e.to_string()),
    };
    let snap = engine.snapshot();
    let session = match session_or_error(&snap, config) {
        Ok(s) => s,
        Err(envelope) => return envelope,
    };
    let plan = match session.plan_query(&q) {
        Ok(p) => p,
        Err(e) => return proto::error(&e.message),
    };
    let estimate = match session.estimate(&q) {
        Ok(u) => u,
        Err(e) => return proto::error(&e.message),
    };
    proto::ok("explain")
        .int("generation", snap.seq())
        .str("plan", &plan.describe())
        .token("estimate_units", estimate)
        .finish()
}

/// `ADVISE`: [`tab_core::advise`] on the pinned snapshot (the workload
/// is sampled with estimates from the paper's P baseline, so the served
/// configuration set does not perturb it). The response carries counts
/// and the DDL, not wall-clock, so it is deterministic for a fixed
/// generation.
fn advise(
    engine: &SharedEngine,
    opts: &ServeOptions,
    family: &str,
    system: &str,
    workload: usize,
) -> String {
    let Some(family) = Family::parse(family) else {
        return proto::error(&format!("unknown family `{family}`"));
    };
    let snap = engine.snapshot();
    let advice = match tab_core::advise(
        &snap.state().db,
        &opts.label,
        family,
        system,
        workload,
        opts.par,
        tab_core::Trace::disabled(),
    ) {
        Ok(advice) => advice,
        Err(e) => return proto::error(&e),
    };
    let b = proto::ok("advise")
        .int("generation", snap.seq())
        .str("family", family.name())
        .str("system", advice.system)
        .int("workload", advice.workload as u64)
        .int("whatif_calls", advice.stats.whatif_calls);
    match advice.recommendation {
        None => b.str("verdict", "no_recommendation").finish(),
        Some(cfg) => {
            let mut ddl: Vec<String> = advice
                .new_indexes
                .iter()
                .map(|i| format!("CREATE INDEX {i}"))
                .collect();
            ddl.extend(cfg.mviews.iter().map(|m| {
                format!(
                    "CREATE MATERIALIZED VIEW {} OVER {}",
                    m.spec.name,
                    m.spec.base.join(" JOIN ")
                )
            }));
            b.str("verdict", "recommended")
                .int("indexes", cfg.indexes.len() as u64)
                .int("mviews", cfg.mviews.len() as u64)
                .str("ddl", &ddl.join("; "))
                .finish()
        }
    }
}

/// Result of one non-blocking line poll.
enum Poll {
    /// A complete line (newline stripped).
    Line(String),
    /// No complete line yet; the read timed out.
    Pending,
    /// Peer closed the connection.
    Closed,
    /// The line in progress is longer than [`MAX_LINE_BYTES`].
    TooLong,
}

/// Longest request line the server reads. Every verb carries at most one
/// SQL statement, a few hundred bytes for the paper's families, so a
/// longer line is answered one error envelope and the connection closes.
const MAX_LINE_BYTES: usize = 1 << 20;

/// A line reader safe under read timeouts. `BufRead::read_line` may
/// drop buffered bytes when a read times out mid-line; this reader
/// keeps partial lines in its own buffer across timeouts, so a slow
/// client typing a long request is never corrupted. Each byte is
/// scanned for a newline once, and the buffer never holds more than one
/// read past [`MAX_LINE_BYTES`].
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
    /// Leading bytes of `pending` already scanned: none is a newline.
    scanned: usize,
    chunk: [u8; 4096],
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            pending: Vec::new(),
            scanned: 0,
            chunk: [0; 4096],
        }
    }

    /// Pop a buffered complete line, or report the line in progress too
    /// long; `None` when more bytes are needed.
    fn take_line(&mut self) -> Option<Poll> {
        let Some(at) = self.pending[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        else {
            self.scanned = self.pending.len();
            return (self.scanned > MAX_LINE_BYTES).then_some(Poll::TooLong);
        };
        let end = self.scanned + at;
        if end > MAX_LINE_BYTES {
            return Some(Poll::TooLong);
        }
        let mut line: Vec<u8> = self.pending.drain(..=end).collect();
        self.scanned = 0;
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(Poll::Line(String::from_utf8_lossy(&line).into_owned()))
    }

    /// Read more bytes (bounded by the stream's read timeout) and
    /// return a line if one completed.
    fn poll_line(&mut self) -> std::io::Result<Poll> {
        if let Some(poll) = self.take_line() {
            return Ok(poll);
        }
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Ok(Poll::Closed),
            Ok(n) => {
                self.pending.extend_from_slice(&self.chunk[..n]);
                Ok(self.take_line().unwrap_or(Poll::Pending))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(Poll::Pending)
            }
            Err(e) => Err(e),
        }
    }
}
