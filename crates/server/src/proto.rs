//! The `tab-wire-v1` protocol: request lines in, JSON response lines out.
//!
//! The wire format is deliberately minimal so any line-oriented client
//! can speak it. A request is one text line — a verb followed by
//! whitespace-separated operands, with the SQL tail taken verbatim:
//!
//! ```text
//! PING
//! QUERY <config> <sql>          query or INSERT statement
//! INSERT <config> <client>:<seq> <sql>   sequence-keyed, idempotent INSERT
//! EXPLAIN <config> <sql>        plan + estimate, nothing executed
//! ADVISE <family> <system> [n]  run a recommender over a sampled workload
//! STATS                         serving counters (shed, retries, recovery)
//! QUIT                          close this connection
//! SHUTDOWN                      stop the whole server gracefully
//! ```
//!
//! `INSERT` carries an idempotency key: `<client>` names the sender and
//! `<seq>` is a per-client sequence number that must increase with every
//! *new* write. Resending the last sequence (because the connection died
//! before the acknowledgement arrived) replays the cached ack with
//! `"deduped":true` instead of applying the row twice — see
//! `DESIGN.md` §15.
//!
//! Errors a client may safely retry (overload shedding, injected wire
//! faults) are marked `"retryable":true` with a machine-readable
//! `"reason"`; everything else is permanent.
//!
//! A response is exactly one JSON line opening with
//! [`RESPONSE_PREFIX`], written and scanned by [`tab_storage::framed`],
//! the codec every line format shares, instead of a JSON library.
//! Requests never crash the connection: the server wraps dispatch in a
//! panic guard and answers `{"ok":false,"error":...}` envelopes.
//!
//! Cost units cross the wire through Rust's shortest-roundtrip `{}`
//! float formatting, so a client parsing `units` back gets the
//! bit-identical `f64` the engine produced — the serving benchmark's
//! exact-equality checks against direct [`tab_engine::Session`] runs
//! depend on this.

use tab_storage::framed::{Fields, Line};

/// The schema tag every response line opens with, byte-for-byte.
pub const RESPONSE_PREFIX: &str = "{\"schema\":\"tab-wire-v1\"";

/// One parsed request line. See the module docs for the line grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `PING` — liveness probe; answers with the current generation and
    /// the served configuration names.
    Ping,
    /// `QUERY <config> <sql>` — execute a statement against the named
    /// configuration. A `SELECT` runs on a pinned snapshot; an `INSERT`
    /// goes through the latched write path and publishes a generation.
    Query {
        /// Serving name of the configuration to run under.
        config: String,
        /// The SQL text, verbatim to end of line.
        sql: String,
    },
    /// `EXPLAIN <config> <sql>` — plan the query and report the chosen
    /// plan shape and its cost estimate without executing it.
    Explain {
        /// Serving name of the configuration to plan under.
        config: String,
        /// The SQL text, verbatim to end of line.
        sql: String,
    },
    /// `INSERT <config> <client>:<seq> <sql>` — a sequence-keyed,
    /// idempotent INSERT: retrying the same `<client>:<seq>` replays
    /// the cached acknowledgement instead of applying the row again.
    Insert {
        /// Serving name of the configuration charged for maintenance.
        config: String,
        /// Client identity the sequence number is scoped to.
        client: String,
        /// Per-client sequence number; must increase per new write.
        cseq: u64,
        /// The INSERT statement, verbatim to end of line.
        sql: String,
    },
    /// `ADVISE <family> <system> [n]` — sample an `n`-query workload
    /// (default 50) from the family on the current snapshot and run the
    /// named recommender profile over it.
    Advise {
        /// Workload family name (e.g. `NREF2J`).
        family: String,
        /// Recommender profile: `A`, `B`, or `C`.
        system: String,
        /// Workload sample size.
        workload: usize,
    },
    /// `STATS` — report serving counters: accepted/refused connections,
    /// shed requests per verb, wire faults fired, deduped retries, and
    /// WAL recovery state.
    Stats,
    /// `QUIT` — close this connection after an acknowledgement.
    Quit,
    /// `SHUTDOWN` — acknowledge, then stop the whole server: no new
    /// connections, existing connections close after their in-flight
    /// request.
    Shutdown,
}

/// Split the next whitespace-delimited token off `s`, returning the
/// token and the rest (leading whitespace trimmed from both).
fn next_token(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

/// Parse one request line. Verbs are case-insensitive; the SQL tail is
/// preserved verbatim. Errors name what is missing — they become
/// `{"ok":false}` envelopes, never closed connections.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let (verb, rest) = next_token(line);
    match verb.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats),
        "QUIT" => Ok(Request::Quit),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "INSERT" => {
            let (config, rest) = next_token(rest);
            let (key, sql) = next_token(rest);
            if config.is_empty() {
                return Err("INSERT needs a configuration name".into());
            }
            let (client, seq) = key
                .split_once(':')
                .ok_or_else(|| format!("INSERT needs a `client:seq` key, got `{key}`"))?;
            if client.is_empty() {
                return Err("INSERT needs a non-empty client id".into());
            }
            let cseq = seq
                .parse()
                .map_err(|_| format!("bad sequence number `{seq}`"))?;
            if sql.is_empty() {
                return Err("INSERT needs SQL text".into());
            }
            Ok(Request::Insert {
                config: config.to_string(),
                client: client.to_string(),
                cseq,
                sql: sql.to_string(),
            })
        }
        "QUERY" | "EXPLAIN" => {
            let (config, sql) = next_token(rest);
            if config.is_empty() {
                return Err(format!("{verb} needs a configuration name"));
            }
            if sql.is_empty() {
                return Err(format!("{verb} needs SQL text"));
            }
            let config = config.to_string();
            let sql = sql.to_string();
            if verb.eq_ignore_ascii_case("QUERY") {
                Ok(Request::Query { config, sql })
            } else {
                Ok(Request::Explain { config, sql })
            }
        }
        "ADVISE" => {
            let (family, rest) = next_token(rest);
            let (system, rest) = next_token(rest);
            if family.is_empty() || system.is_empty() {
                return Err("ADVISE needs a family and a system".into());
            }
            let (n, rest) = next_token(rest);
            if !rest.is_empty() {
                return Err(format!("trailing operands after ADVISE: `{rest}`"));
            }
            let workload = if n.is_empty() {
                50
            } else {
                n.parse().map_err(|_| format!("bad workload size `{n}`"))?
            };
            Ok(Request::Advise {
                family: family.to_string(),
                system: system.to_string(),
                workload,
            })
        }
        "" => Err("empty request".into()),
        other => Err(format!(
            "unknown verb `{other}` (try PING, QUERY, INSERT, EXPLAIN, ADVISE, STATS, QUIT, \
             SHUTDOWN)"
        )),
    }
}

/// Start an `"ok":true` response for `verb`; add fields through the
/// [`Line`] writer (floats as shortest-roundtrip `{}` tokens, so the
/// receiver parses back the bit-identical value), then `finish`.
pub(crate) fn ok(verb: &str) -> Line {
    Line::new(RESPONSE_PREFIX)
        .token("ok", true)
        .str("verb", verb)
}

/// A complete `"ok":false` error envelope.
pub(crate) fn error(message: &str) -> String {
    Line::new(RESPONSE_PREFIX)
        .token("ok", false)
        .str("error", message)
        .finish()
}

/// A complete `"ok":false` envelope a client may safely retry, tagged
/// with a machine-readable `reason` (for example `overloaded`). Retry
/// safety is the server's promise that the request was **not** applied.
pub(crate) fn retryable_error(message: &str, reason: &str) -> String {
    Line::new(RESPONSE_PREFIX)
        .token("ok", false)
        .token("retryable", true)
        .str("reason", reason)
        .str("error", message)
        .finish()
}

/// A received response line with typed field access. Thin by design:
/// it keeps the raw line and scans it per field with
/// [`tab_storage::framed::Fields`], so the client needs no JSON
/// dependency and unknown fields from a newer server are ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    line: String,
}

impl Response {
    /// Accept a received line as a `tab-wire-v1` response, rejecting
    /// anything that does not open with [`RESPONSE_PREFIX`] or is not one
    /// whole object — a torn half-line from a connection cut mid-write
    /// must fail parse, not masquerade as a short response.
    pub fn parse(line: &str) -> Result<Response, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        Fields::scan(line, RESPONSE_PREFIX)
            .map_err(|e| format!("not a tab-wire-v1 response ({e}): `{line}`"))?;
        Ok(Response {
            line: line.to_string(),
        })
    }

    /// The raw response line.
    pub fn line(&self) -> &str {
        &self.line
    }

    fn fields(&self) -> Option<Fields<'_>> {
        Fields::scan(&self.line, RESPONSE_PREFIX).ok()
    }

    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.bool_field("ok") == Some(true)
    }

    /// The error message of an `"ok":false` envelope.
    pub fn error(&self) -> Option<String> {
        self.str_field("error")
    }

    /// Whether this is an `"ok":false` envelope the server marked safe
    /// to retry (the request was not applied).
    pub fn is_retryable(&self) -> bool {
        !self.is_ok() && self.bool_field("retryable") == Some(true)
    }

    /// The machine-readable reason of a retryable envelope, e.g.
    /// `overloaded`.
    pub fn reason(&self) -> Option<String> {
        self.str_field("reason")
    }

    /// A string field, unescaped; `None` if absent.
    pub fn str_field(&self, key: &str) -> Option<String> {
        self.fields()?.str(key)
    }

    /// A float field; `None` if absent or non-numeric.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.fields()?.f64(key)
    }

    /// An integer field; `None` if absent or non-integral.
    pub fn int_field(&self, key: &str) -> Option<u64> {
        self.fields()?.u64(key)
    }

    /// A boolean field; `None` if absent or not `true`/`false`.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.fields()?.token(key)?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_case_insensitively_with_verbatim_sql() {
        assert_eq!(parse_request("ping"), Ok(Request::Ping));
        assert_eq!(
            parse_request("query p SELECT COUNT(*) FROM t"),
            Ok(Request::Query {
                config: "p".into(),
                sql: "SELECT COUNT(*) FROM t".into()
            })
        );
        assert_eq!(
            parse_request("EXPLAIN  ix  SELECT a,  b FROM t"),
            Ok(Request::Explain {
                config: "ix".into(),
                sql: "SELECT a,  b FROM t".into()
            })
        );
        assert_eq!(
            parse_request("ADVISE NREF2J B 20"),
            Ok(Request::Advise {
                family: "NREF2J".into(),
                system: "B".into(),
                workload: 20
            })
        );
        assert_eq!(
            parse_request("ADVISE NREF2J C"),
            Ok(Request::Advise {
                family: "NREF2J".into(),
                system: "C".into(),
                workload: 50
            })
        );
    }

    #[test]
    fn keyed_insert_and_stats_parse() {
        assert_eq!(
            parse_request("INSERT p loader-3:17 INSERT INTO t VALUES (1, 'a:b')"),
            Ok(Request::Insert {
                config: "p".into(),
                client: "loader-3".into(),
                cseq: 17,
                sql: "INSERT INTO t VALUES (1, 'a:b')".into()
            })
        );
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert!(parse_request("INSERT p INSERT INTO t VALUES (1)")
            .unwrap_err()
            .contains("client:seq"));
        assert!(parse_request("INSERT p c:x INSERT INTO t VALUES (1)")
            .unwrap_err()
            .contains("sequence"));
        assert!(parse_request("INSERT p :1 INSERT INTO t VALUES (1)")
            .unwrap_err()
            .contains("client"));
        assert!(parse_request("INSERT p c:1").unwrap_err().contains("SQL"));
    }

    #[test]
    fn retryable_envelopes_and_torn_lines() {
        let line = retryable_error("shed: too busy", "overloaded");
        let r = Response::parse(&line).unwrap();
        assert!(!r.is_ok());
        assert!(r.is_retryable());
        assert_eq!(r.reason().as_deref(), Some("overloaded"));
        assert_eq!(r.error().as_deref(), Some("shed: too busy"));
        // Permanent errors are not retryable.
        let r = Response::parse(&error("no such table")).unwrap();
        assert!(!r.is_retryable());
        assert_eq!(r.reason(), None);
        // A torn half-line (connection cut mid-write) fails parse even
        // though it opens with the right prefix.
        let whole = ok("query").int("generation", 3).finish();
        let torn = &whole[..whole.len() / 2];
        assert!(Response::parse(torn).unwrap_err().contains("torn"));
    }

    #[test]
    fn bad_requests_name_the_problem() {
        assert!(parse_request("").unwrap_err().contains("empty"));
        assert!(parse_request("FROB x").unwrap_err().contains("FROB"));
        assert!(parse_request("QUERY p").unwrap_err().contains("SQL"));
        assert!(parse_request("ADVISE NREF2J")
            .unwrap_err()
            .contains("system"));
        assert!(parse_request("ADVISE NREF2J B twelve")
            .unwrap_err()
            .contains("twelve"));
    }

    #[test]
    fn builder_and_response_round_trip() {
        let line = ok("query")
            .int("generation", 3)
            .str("verdict", "done")
            .token("units", 0.1 + 0.2)
            .str("plan", "SeqScan(\"t\")")
            .finish();
        let r = Response::parse(&line).unwrap();
        assert!(r.is_ok());
        assert_eq!(r.str_field("verb").as_deref(), Some("query"));
        assert_eq!(r.int_field("generation"), Some(3));
        // Bit-identical float round-trip through the wire.
        assert_eq!(r.num_field("units"), Some(0.1 + 0.2));
        assert_eq!(r.str_field("plan").as_deref(), Some("SeqScan(\"t\")"));
        assert_eq!(r.error(), None);
    }

    #[test]
    fn error_envelope_parses() {
        let line = error("no such table `x`");
        let r = Response::parse(&line).unwrap();
        assert!(!r.is_ok());
        assert_eq!(r.error().as_deref(), Some("no such table `x`"));
        assert!(Response::parse("hello").is_err());
    }
}
