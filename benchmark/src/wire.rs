//! The benchmark's own `tab-wire-v1` client: one request line out, one
//! response line back, over a blocking `TcpStream`.
//!
//! Kept here, not borrowed from `tab-server`, so the benchmark drives
//! the wire exactly as any line-oriented client would and survives a
//! rewrite of the server's client types.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long the harness waits for a reply before the operation fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A persistent connection to a `tab serve` process.
pub struct LineClient {
    reader: BufReader<TcpStream>,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineClient> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(LineClient {
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line and block for its one response line.
    pub fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.reader.get_mut().write_all(&out)?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(Reply(resp.trim_end().to_string()))
    }
}

/// One response line. Fields are scanned, not parsed as JSON: the wire
/// renders `"key":value` with no space after the colon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply(pub String);

impl Reply {
    /// The raw text of a field: a string's contents between its quotes,
    /// or a bare token up to the next `,` or `}`.
    pub fn field(&self, key: &str) -> Option<&str> {
        let needle = format!("\"{key}\":");
        let rest = &self.0[self.0.find(&needle)? + needle.len()..];
        if let Some(body) = rest.strip_prefix('"') {
            let mut escaped = false;
            for (i, c) in body.char_indices() {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => return Some(&body[..i]),
                    _ => escaped = false,
                }
            }
            None
        } else {
            rest.split([',', '}']).next()
        }
    }

    pub fn ok(&self) -> bool {
        self.field("ok") == Some("true")
    }

    /// `units`, parsed back to the bit-identical `f64` the engine
    /// produced (the wire prints shortest-roundtrip floats).
    pub fn units(&self) -> Option<f64> {
        self.field("units")?.parse().ok()
    }

    pub fn uint(&self, key: &str) -> Option<u64> {
        self.field(key)?.parse().ok()
    }

    /// `(verdict, units bits, rows)` of a QUERY answer; a timeout
    /// carries neither units nor rows.
    pub fn answer(&self) -> Option<Answer> {
        if !self.ok() {
            return None;
        }
        Some(Answer {
            done: self.field("verdict")? == "done",
            units_bits: self.units().map_or(0, f64::to_bits),
            rows: self.uint("rows").unwrap_or(0),
        })
    }
}

/// What a query returned, comparable bit for bit between the wire and a
/// direct session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub done: bool,
    pub units_bits: u64,
    pub rows: u64,
}

impl Answer {
    /// A direct session's outcome, in the wire's terms.
    pub fn of(outcome: &tab_engine::Outcome) -> Answer {
        match *outcome {
            tab_engine::Outcome::Done { units, rows } => Answer {
                done: true,
                units_bits: units.to_bits(),
                rows,
            },
            tab_engine::Outcome::Timeout { .. } => Answer {
                done: false,
                units_bits: 0,
                rows: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_extracted_and_units_round_trip_bit_exactly() {
        let units = 0.1_f64 + 0.2;
        let r = Reply(format!(
            "{{\"schema\":\"tab-wire-v1\",\"ok\":true,\"verb\":\"query\",\"generation\":7,\"plan\":\"Seq \\\"x\\\", y\",\"verdict\":\"done\",\"units\":{units},\"rows\":12}}"
        ));
        assert!(r.ok());
        assert_eq!(r.field("plan"), Some("Seq \\\"x\\\", y"));
        assert_eq!(r.uint("generation"), Some(7));
        assert_eq!(r.units().map(f64::to_bits), Some(units.to_bits()));
        assert_eq!(
            r.answer(),
            Some(Answer {
                done: true,
                units_bits: units.to_bits(),
                rows: 12
            })
        );
        assert_eq!(r.field("row_id"), None);
    }

    #[test]
    fn an_error_envelope_is_not_an_answer() {
        let r = Reply("{\"schema\":\"tab-wire-v1\",\"ok\":false,\"error\":\"parse error\"}".into());
        assert!(!r.ok());
        assert_eq!(r.answer(), None);
        assert_eq!(r.field("error"), Some("parse error"));
    }
}
