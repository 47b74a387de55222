//! A blocking `tab-wire-v1` client: one request line out, one response
//! line back. `tab client` and `tab gate`'s serving rows are built on
//! this; it is intentionally tiny (a `TcpStream` and a line buffer).
//!
//! [`RetryClient`] layers reconnect-and-retry on top: every write is
//! sequence-keyed through the `INSERT` verb, so resending after a
//! dropped connection or an `overloaded` shed never double-applies a
//! row (the server replays the cached ack, `"deduped":true`) and never
//! loses one. Reads are retried because they are naturally idempotent.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::Response;

/// A connected client. Requests are strictly serial per client —
/// concurrency comes from running many clients.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a serving front end.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send one raw request line and return the raw response line
    /// (trailing newline stripped). An empty read means the server
    /// closed the connection. The request leaves in one `write` — line
    /// and newline in one segment, not two.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Send one request line and parse the response envelope.
    pub fn request(&mut self, line: &str) -> Result<Response, String> {
        let raw = self.request_line(line).map_err(|e| e.to_string())?;
        Response::parse(&raw)
    }

    /// `QUERY <config> <sql>`.
    pub fn query(&mut self, config: &str, sql: &str) -> Result<Response, String> {
        self.request(&format!("QUERY {config} {sql}"))
    }

    /// `PING`.
    pub fn ping(&mut self) -> Result<Response, String> {
        self.request("PING")
    }

    /// `STATS` — the server's serving counters.
    pub fn stats(&mut self) -> Result<Response, String> {
        self.request("STATS")
    }

    /// `QUIT` — the server acknowledges, then closes this connection.
    pub fn quit(mut self) -> Result<Response, String> {
        self.request("QUIT")
    }

    /// `SHUTDOWN` — the server acknowledges, then stops entirely.
    pub fn shutdown(mut self) -> Result<Response, String> {
        self.request("SHUTDOWN")
    }
}

/// A reconnecting client with idempotent, sequence-keyed writes.
///
/// The retry loop answers the classic lost-ack problem: a connection
/// that dies *after* the server applied an INSERT but *before* the ack
/// arrived is indistinguishable (to the client) from one that died
/// before the apply. [`RetryClient::insert`] resends the same
/// `<client>:<seq>` key until an answer arrives; the server's dedup
/// table turns the ambiguous resend into the original acknowledgement.
///
/// Retried outcomes: I/O errors, torn (half-written) response lines,
/// and envelopes the server marked `"retryable":true` (overload
/// shedding). Permanent errors — bad SQL, unknown configuration, stale
/// sequence — surface immediately.
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    client_id: String,
    next_seq: u64,
    conn: Option<Client>,
    connected_once: bool,
    max_attempts: u32,
    base_backoff: Duration,
    retries: u64,
    reconnects: u64,
}

impl RetryClient {
    /// A client identified as `client_id` (the dedup scope), talking to
    /// `addr`. Connects lazily on the first request.
    pub fn new(addr: impl Into<String>, client_id: impl Into<String>) -> RetryClient {
        RetryClient {
            addr: addr.into(),
            client_id: client_id.into(),
            next_seq: 1,
            conn: None,
            connected_once: false,
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            retries: 0,
            reconnects: 0,
        }
    }

    /// Point further requests at a new address — how `tab gate`'s
    /// `kill9` row follows a killed-and-restarted server to its new port. Sequence
    /// numbering continues: the WAL-rebuilt dedup table on the restarted
    /// server still recognizes this client.
    pub fn set_addr(&mut self, addr: impl Into<String>) {
        self.addr = addr.into();
        self.conn = None;
    }

    /// Requests resent after a retryable failure so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Connections re-established so far (excluding the first).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn conn(&mut self) -> std::io::Result<&mut Client> {
        if self.conn.is_none() {
            let c = Client::connect(&self.addr)?;
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
            self.conn = Some(c);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Send `line` until a whole response arrives, reconnecting and
    /// backing off (bounded exponential) between attempts. Returns the
    /// last error when every attempt failed.
    fn request_with_retry(&mut self, line: &str) -> Result<Response, String> {
        let mut last = String::new();
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                self.retries += 1;
                let backoff = self.base_backoff * 2u32.saturating_pow(attempt - 1);
                std::thread::sleep(backoff.min(Duration::from_millis(500)));
            }
            let conn = match self.conn() {
                Ok(c) => c,
                Err(e) => {
                    last = format!("connect {}: {e}", self.addr);
                    continue;
                }
            };
            match conn.request(line) {
                Ok(r) if r.is_retryable() => {
                    last = r.error().unwrap_or_else(|| "retryable error".into());
                }
                Ok(r) => return Ok(r),
                Err(e) => {
                    // An I/O error or torn line: the connection is in
                    // an unknown state, drop it and reconnect.
                    last = e;
                    self.conn = None;
                }
            }
        }
        Err(format!(
            "request failed after {} attempts: {last}",
            self.max_attempts
        ))
    }

    /// An idempotent, sequence-keyed INSERT. The sequence number only
    /// advances on success, so a failed request is retried under the
    /// same key and can never double-apply.
    pub fn insert(&mut self, config: &str, sql: &str) -> Result<Response, String> {
        let seq = self.next_seq;
        let line = format!("INSERT {config} {}:{seq} {sql}", self.client_id);
        let r = self.request_with_retry(&line)?;
        if r.is_ok() {
            self.next_seq = seq + 1;
        }
        Ok(r)
    }

    /// `QUERY` with retry (reads are naturally idempotent).
    pub fn query(&mut self, config: &str, sql: &str) -> Result<Response, String> {
        self.request_with_retry(&format!("QUERY {config} {sql}"))
    }

    /// `STATS` with retry.
    pub fn stats(&mut self) -> Result<Response, String> {
        self.request_with_retry("STATS")
    }

    /// `PING` with retry.
    pub fn ping(&mut self) -> Result<Response, String> {
        self.request_with_retry("PING")
    }
}
