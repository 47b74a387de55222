//! `tab-wal-v1`: the serving path's write-ahead log.
//!
//! PR 9's serving front end acknowledged wire `INSERT`s that lived only
//! in an in-memory generation — a process kill silently lost committed
//! work. This module is the durability half of the fix (the engine's
//! recovery replay is the other): one **fsynced, length-suffixed,
//! checksummed JSONL record per committed generation mutation**,
//! appended *before* the generation is published, so an acknowledged
//! write is on disk by the time any client sees its ack.
//!
//! # Format
//!
//! A log is a JSONL file of [`crate::framed`] frames, the codec every
//! line format shares: each line opens with [`WAL_SCHEMA_PREFIX`] and
//! closes with a `len` + `crc` suffix over the bytes before it, which
//! makes a torn tail (the crash signature of an append cut short)
//! detectable without any out-of-band state.
//!
//! Line 0 is a header carrying the log's base generation; every
//! subsequent line is one insert record whose `gen` numbers must ascend
//! contiguously from `base_gen + 1`. Row values and the maintenance
//! cost cross through bit-exact encodings (`f64::to_bits` hex), so a
//! recovered engine can assert byte-identity against what was acked.
//!
//! # Torn tails vs corruption
//!
//! [`Wal::open`] tells the two crash signatures apart by whether the
//! frame verifies:
//!
//! - a frame that fails verification (prefix, close, `len`, `crc` or
//!   UTF-8) on the **last** line is a torn tail — the append was cut
//!   mid-write; the tail is truncated away and recovery proceeds with
//!   every complete record (none of which was ever acknowledged,
//!   because the ack follows the fsync);
//! - a frame that fails verification anywhere **before** the last line
//!   is disk corruption — an append-only log synced record-by-record
//!   cannot tear mid-file — and recovery refuses with
//!   [`WalError::Corrupt`] rather than silently dropping acknowledged
//!   writes;
//! - a frame that verifies was written whole, so if its body does not
//!   parse that is [`WalError::Corrupt`] wherever it sits, and the file
//!   is left untouched.

use std::fmt::{self, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::fault::Faults;
use crate::framed::{check_frame, Fields, Line};
use crate::value::Value;

/// The schema tag every `tab-wal-v1` line opens with, byte-for-byte.
pub(crate) const WAL_SCHEMA_PREFIX: &str = "{\"schema\":\"tab-wal-v1\"";

/// One committed generation mutation: everything recovery needs to
/// re-apply the insert and prove it re-applied *identically* (the
/// generation it must produce, the row id and bit-exact maintenance
/// cost that were acknowledged, and the idempotency key if the client
/// supplied one).
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The generation this mutation published.
    pub gen: u64,
    /// Idempotency key owner (empty = the write was not sequence-keyed).
    pub client: String,
    /// Client sequence number (meaningful only when `client` is set).
    pub cseq: u64,
    /// The configuration the maintenance cost was charged to.
    pub config: String,
    /// Target table of the insert.
    pub table: String,
    /// The inserted row, bit-exact (floats survive via `to_bits`).
    pub values: Vec<Value>,
    /// The heap row id the insert produced.
    pub row_id: u32,
    /// The maintenance cost units that were acknowledged.
    pub units: f64,
}

/// Why a WAL could not be opened.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file I/O failed.
    Io(io::Error),
    /// A frame failed verification before the last line, or a verified
    /// frame did not parse — corruption, not a torn tail; recovery
    /// refuses rather than dropping acked writes.
    Corrupt {
        /// Zero-based line number of the bad frame.
        line: usize,
        /// What failed about it.
        message: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { line, message } => {
                write!(f, "wal corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What [`Wal::open`] found: the reopened log plus everything recovery
/// must replay.
#[derive(Debug)]
pub struct WalRecovery {
    /// The log, positioned for further appends.
    pub wal: Wal,
    /// The header's base generation (records continue from it).
    pub base_gen: u64,
    /// Every complete record, in append order.
    pub records: Vec<WalRecord>,
    /// Whether a torn tail was found and truncated away.
    pub torn_tail: bool,
}

/// An open `tab-wal-v1` log, append-only. See the module docs for the
/// format and crash-recovery contract.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Create (or truncate) a log at `path` with a fresh header.
    pub fn create(path: impl AsRef<Path>, base_gen: u64) -> Result<Wal, WalError> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(header_line(base_gen).as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Open a log for recovery + further appends, creating an empty one
    /// (base generation 0) if `path` does not exist. Verifies every
    /// frame, truncates a torn tail, and returns the surviving records;
    /// a frame failing verification anywhere but the tail, or a verified
    /// frame that does not parse, is [`WalError::Corrupt`].
    pub fn open(path: impl AsRef<Path>) -> Result<WalRecovery, WalError> {
        let path = path.as_ref();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(WalRecovery {
                    wal: Wal::create(path, 0)?,
                    base_gen: 0,
                    records: Vec::new(),
                    torn_tail: false,
                })
            }
            Err(e) => return Err(WalError::Io(e)),
        };
        let mut base_gen = 0u64;
        let mut records = Vec::new();
        let mut torn_tail = false;
        // Byte offset just past the last validated line (including its
        // newline when present); everything beyond is a torn tail.
        let mut good_end = 0usize;
        let mut line_no = 0usize;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let (line_end, next_pos) = match bytes[pos..].iter().position(|&b| b == b'\n') {
                Some(i) => (pos + i, pos + i + 1),
                None => (bytes.len(), bytes.len()),
            };
            let is_last = next_pos >= bytes.len();
            let corrupt = |message| WalError::Corrupt {
                line: line_no,
                message,
            };
            let verified = std::str::from_utf8(&bytes[pos..line_end])
                .map_err(|_| "not UTF-8".to_string())
                .and_then(|line| check_frame(line, WAL_SCHEMA_PREFIX).map(|()| line));
            let line = match verified {
                Ok(line) => line,
                // The one frame an append-only, synced-per-record log can
                // legitimately lose: the tail the crash cut short.
                // Nothing in it was ever acked.
                Err(_) if is_last => {
                    torn_tail = true;
                    break;
                }
                Err(message) => return Err(corrupt(message)),
            };
            if line_no == 0 {
                base_gen = parse_header(line).map_err(corrupt)?;
            } else {
                let r = parse_record(line).map_err(corrupt)?;
                let expected = base_gen + records.len() as u64 + 1;
                if r.gen != expected {
                    return Err(corrupt(format!(
                        "generation {} out of order (expected {expected})",
                        r.gen
                    )));
                }
                records.push(r);
            }
            good_end = next_pos;
            line_no += 1;
            pos = next_pos;
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if good_end < bytes.len() {
            file.set_len(good_end as u64)?;
        }
        if line_no == 0 {
            // Even the header was torn (a crash during create); nothing
            // could have been appended after it, so base 0 is exact.
            file.write_all(header_line(0).as_bytes())?;
            file.write_all(b"\n")?;
        } else if bytes[good_end - 1] != b'\n' {
            // The last frame validated but its newline never landed;
            // restore the line boundary before any further append.
            file.write_all(b"\n")?;
        }
        file.sync_data()?;
        Ok(WalRecovery {
            wal: Wal {
                path: path.to_path_buf(),
                file,
            },
            base_gen,
            records,
            torn_tail,
        })
    }

    /// Append one record and fsync it. Returns only once the record is
    /// durable — the caller may acknowledge the write after this.
    ///
    /// Fault sites: `enospc:wal` fails the append with an injected
    /// ENOSPC; `panic:wal:append[:N]` writes *half* the frame (synced,
    /// no newline) and then panics, manufacturing the real torn tail
    /// that [`Wal::open`] must truncate on the next boot.
    pub fn append(&mut self, rec: &WalRecord, faults: Faults<'_>) -> io::Result<()> {
        faults.io("wal")?;
        let mut line = render_record(rec);
        if faults.panic_fires("wal:append") {
            let half = line.len() / 2;
            let _ = self.file.write_all(&line.as_bytes()[..half]);
            let _ = self.file.sync_data();
            panic!("injected fault: poisoned `wal:append` (torn WAL tail)");
        }
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header_line(base_gen: u64) -> String {
    Line::new(WAL_SCHEMA_PREFIX)
        .str("kind", "header")
        .int("base_gen", base_gen)
        .frame()
}

fn render_record(rec: &WalRecord) -> String {
    Line::new(WAL_SCHEMA_PREFIX)
        .str("kind", "insert")
        .int("gen", rec.gen)
        .str("client", &rec.client)
        .int("cseq", rec.cseq)
        .str("cfg", &rec.config)
        .str("table", &rec.table)
        .str("row", &encode_values(&rec.values))
        .int("row_id", u64::from(rec.row_id))
        // Hex digits need no escaping: the string goes in pre-rendered.
        .token(
            "units_bits",
            format_args!("\"{:016x}\"", rec.units.to_bits()),
        )
        .frame()
}

/// Parse line 0 of a log, a verified header frame.
fn parse_header(line: &str) -> Result<u64, String> {
    let f = Fields::scan(line, WAL_SCHEMA_PREFIX)?;
    if f.str("kind").as_deref() != Some("header") {
        return Err("first line is not a header".into());
    }
    Ok(f.u64("base_gen").ok_or("header without base_gen")?)
}

/// Parse a verified insert frame.
fn parse_record(line: &str) -> Result<WalRecord, String> {
    let f = Fields::scan(line, WAL_SCHEMA_PREFIX)?;
    if f.str("kind").as_deref() != Some("insert") {
        return Err("not an insert frame".into());
    }
    Ok(WalRecord {
        gen: f.u64("gen").ok_or("record without gen")?,
        client: f.str("client").ok_or("no client")?,
        cseq: f.u64("cseq").ok_or("record without cseq")?,
        config: f.str("cfg").ok_or("no cfg")?,
        table: f.str("table").ok_or("no table")?,
        values: decode_values(&f.str("row").ok_or("no row")?)?,
        row_id: f
            .token("row_id")
            .and_then(|v| v.parse().ok())
            .ok_or("record without row_id")?,
        units: f
            .str("units_bits")
            .and_then(|v| u64::from_str_radix(&v, 16).ok())
            .map(f64::from_bits)
            .ok_or("record without units_bits")?,
    })
}

/// Encode a row bit-exactly as one comma-separated string: `n` (null),
/// `i<dec>`, `f<to_bits hex>` (so floats survive byte-for-byte), or
/// `s<text>` with `\` and `,` backslash-escaped.
fn encode_values(values: &[Value]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            Value::Null => out.push('n'),
            Value::Int(n) => {
                let _ = write!(out, "i{n}");
            }
            Value::Float(f) => {
                let _ = write!(out, "f{:016x}", f.to_bits());
            }
            Value::Str(s) => {
                out.push('s');
                for c in s.chars() {
                    match c {
                        '\\' => out.push_str("\\\\"),
                        ',' => out.push_str("\\,"),
                        c => out.push(c),
                    }
                }
            }
        }
    }
    out
}

/// Reverse [`encode_values`].
fn decode_values(s: &str) -> Result<Vec<Value>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    // Split on unescaped commas first (escapes only ever occur inside
    // `s` payloads), then decode each tagged token.
    let mut tokens: Vec<String> = vec![String::new()];
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some(e @ (',' | '\\')) => {
                    tokens.last_mut().expect("nonempty").push(e);
                }
                _ => return Err("bad escape in row encoding".into()),
            },
            ',' => tokens.push(String::new()),
            c => tokens.last_mut().expect("nonempty").push(c),
        }
    }
    tokens
        .into_iter()
        .map(|t| {
            let mut it = t.chars();
            match it.next() {
                Some('n') if t.len() == 1 => Ok(Value::Null),
                Some('i') => t[1..]
                    .parse()
                    .map(Value::Int)
                    .map_err(|_| format!("bad int value `{t}`")),
                Some('f') => u64::from_str_radix(&t[1..], 16)
                    .map(|bits| Value::Float(f64::from_bits(bits)))
                    .map_err(|_| format!("bad float value `{t}`")),
                Some('s') => Ok(Value::str(&t[1..])),
                _ => Err(format!("unknown value tag in `{t}`")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tab_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn rec(gen: u64) -> WalRecord {
        WalRecord {
            gen,
            client: "c1".into(),
            cseq: gen,
            config: "p".into(),
            table: "source".into(),
            values: vec![
                Value::Int(-42),
                Value::Null,
                Value::Float(0.1 + 0.2),
                Value::str("has, comma \\ and \"quote\""),
            ],
            row_id: 7 + gen as u32,
            units: 4.0 * (0.1 + 0.2),
        }
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("serve.wal");
        let mut wal = Wal::create(&path, 0).expect("create");
        for g in 1..=3 {
            wal.append(&rec(g), Faults::disabled()).expect("append");
        }
        drop(wal);
        let r = Wal::open(&path).expect("open");
        assert_eq!(r.base_gen, 0);
        assert!(!r.torn_tail);
        assert_eq!(r.records.len(), 3);
        for (i, got) in r.records.iter().enumerate() {
            let want = rec(i as u64 + 1);
            assert_eq!(*got, want);
            // PartialEq on f64 is not bit-equality; check bits too.
            assert_eq!(got.units.to_bits(), want.units.to_bits());
            let (Value::Float(a), Value::Float(b)) = (&got.values[2], &want.values[2]) else {
                panic!("float column lost its type");
            };
            assert_eq!(a.to_bits(), b.to_bits());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = tmp_dir("torn");
        let path = dir.join("serve.wal");
        let mut wal = Wal::create(&path, 0).expect("create");
        for g in 1..=3 {
            wal.append(&rec(g), Faults::disabled()).expect("append");
        }
        drop(wal);
        // Tear the tail: cut the last frame mid-way.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 25]).expect("tear");
        let r = Wal::open(&path).expect("open survives a torn tail");
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 2, "complete records survive");
        // The file is repaired: appends resume on a clean boundary.
        let mut wal = r.wal;
        wal.append(&rec(3), Faults::disabled()).expect("append");
        drop(wal);
        let r = Wal::open(&path).expect("reopen");
        assert!(!r.torn_tail);
        assert_eq!(r.records.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_final_newline_is_not_a_torn_record() {
        let dir = tmp_dir("nonewline");
        let path = dir.join("serve.wal");
        let mut wal = Wal::create(&path, 0).expect("create");
        wal.append(&rec(1), Faults::disabled()).expect("append");
        drop(wal);
        // Crash between the frame landing and its newline: the record
        // is complete and checksummed, so it must survive.
        let mut bytes = fs::read(&path).expect("read");
        assert_eq!(bytes.pop(), Some(b'\n'));
        fs::write(&path, &bytes).expect("strip newline");
        let r = Wal::open(&path).expect("open");
        assert!(!r.torn_tail);
        assert_eq!(r.records.len(), 1);
        let mut wal = r.wal;
        wal.append(&rec(2), Faults::disabled()).expect("append");
        drop(wal);
        assert_eq!(Wal::open(&path).expect("reopen").records.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_is_refused() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("serve.wal");
        let mut wal = Wal::create(&path, 0).expect("create");
        for g in 1..=3 {
            wal.append(&rec(g), Faults::disabled()).expect("append");
        }
        drop(wal);
        // Flip one byte inside the second record (not the tail).
        let mut bytes = fs::read(&path).expect("read");
        let second_line_start = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .nth(1)
            .expect("three lines");
        bytes[second_line_start + 40] ^= 0x20;
        fs::write(&path, &bytes).expect("corrupt");
        match Wal::open(&path) {
            Err(WalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("corruption must be refused, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_gaps_are_corruption() {
        let dir = tmp_dir("gap");
        let path = dir.join("serve.wal");
        let mut wal = Wal::create(&path, 0).expect("create");
        wal.append(&rec(1), Faults::disabled()).expect("append");
        wal.append(&rec(3), Faults::disabled())
            .expect("skips gen 2");
        drop(wal);
        assert!(matches!(
            Wal::open(&path),
            Err(WalError::Corrupt { line: 2, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    /// A record whose last string cell ends in a backslash: the row
    /// encoding doubles it and the line escape doubles it again, so the
    /// closing quote of `row` follows a run of backslashes. It must read
    /// back bit-identical wherever it sits in the log.
    #[test]
    fn trailing_backslash_records_survive_reopen() {
        let dir = tmp_dir("backslash");
        let path = dir.join("serve.wal");
        let tails = ["db\\", "db\\\\", "db\\\"", "\\"];
        let record = |g: u64| {
            let mut r = rec(g);
            r.values[3] = Value::str(tails[(g as usize - 1) % tails.len()]);
            r.table = format!("t{}", tails[(g as usize - 1) % tails.len()]);
            r
        };
        let mut wal = Wal::create(&path, 0).expect("create");
        for g in 1..=8 {
            wal.append(&record(g), Faults::disabled()).expect("append");
            drop(wal);
            // Reopen after every append: each record is the last line
            // once, and mid-file for every later reopen.
            let r = Wal::open(&path).expect("open");
            assert!(!r.torn_tail, "record {g} read as a torn tail");
            assert_eq!(r.records.len(), g as usize);
            for (i, got) in r.records.iter().enumerate() {
                let want = record(i as u64 + 1);
                assert_eq!(*got, want);
                assert_eq!(got.units.to_bits(), want.units.to_bits());
            }
            wal = r.wal;
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A frame whose `len` and `crc` verify was written whole; if its body
    /// does not parse, that is corruption, not a torn tail, and the log
    /// is left exactly as found.
    #[test]
    fn a_verified_frame_that_does_not_parse_is_corrupt_even_last() {
        let dir = tmp_dir("verified");
        let path = dir.join("serve.wal");
        let mut wal = Wal::create(&path, 0).expect("create");
        wal.append(&rec(1), Faults::disabled()).expect("append");
        drop(wal);
        // Record 2 with its first value's tag `i` replaced by `q`.
        let bad = Line::new(WAL_SCHEMA_PREFIX)
            .str("kind", "insert")
            .int("gen", 2)
            .str("client", "c1")
            .int("cseq", 2)
            .str("cfg", "p")
            .str("table", "source")
            .str("row", "q-42,n")
            .int("row_id", 9)
            .token("units_bits", "\"0000000000000000\"")
            .frame();
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(bad.as_bytes());
        bytes.push(b'\n');
        fs::write(&path, &bytes).expect("append bad frame");
        match Wal::open(&path) {
            Err(WalError::Corrupt { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("value tag"), "{message}");
            }
            other => panic!("a verified frame must not read as torn: {other:?}"),
        }
        assert_eq!(fs::read(&path).expect("reread").len(), bytes.len());
        fs::remove_dir_all(&dir).ok();
    }

    /// Every line of the WAL fixture an earlier build wrote re-renders
    /// to the same bytes: the codec moved no byte of `tab-wal-v1`.
    #[test]
    fn fixture_lines_re_render_byte_identical() {
        let fixture = include_str!("../../../ci/fixtures/wal_v1.jsonl");
        for (i, line) in fixture.lines().enumerate() {
            check_frame(line, WAL_SCHEMA_PREFIX).expect("the fixture verifies");
            let again = if i == 0 {
                header_line(parse_header(line).expect("the fixture parses"))
            } else {
                render_record(&parse_record(line).expect("the fixture parses"))
            };
            assert_eq!(again, line, "fixture line {i}");
        }
    }

    /// Seeded records with adversarial strings round-trip bit-equal, and
    /// damaged or random logs open to records or a typed error, never a
    /// panic; a frame that verifies is never truncated. Restoring the
    /// old scanner rule (a quote ends a string unless the byte before it
    /// is a backslash) fails the round trip.
    #[test]
    fn seeded_records_round_trip_and_damage_never_panics() {
        use crate::framed::tests::{arbitrary_string, damage};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let dir = tmp_dir("seeded");
        let path = dir.join("serve.wal");
        let mut rng = StdRng::seed_from_u64(50);
        let mut want = Vec::new();
        let mut wal = Wal::create(&path, 0).expect("create");
        for gen in 1..=200u64 {
            let values = (0..rng.random_range(0usize..5))
                .map(|_| match rng.random_range(0u32..4) {
                    0 => Value::Null,
                    1 => Value::Int(rng.random::<u64>() as i64),
                    2 => Value::Float(f64::from_bits(rng.random())),
                    _ => Value::str(arbitrary_string(&mut rng)),
                })
                .collect();
            let r = WalRecord {
                gen,
                client: arbitrary_string(&mut rng),
                cseq: rng.random(),
                config: arbitrary_string(&mut rng),
                table: arbitrary_string(&mut rng),
                values,
                row_id: rng.random::<u64>() as u32,
                units: f64::from_bits(rng.random()),
            };
            wal.append(&r, Faults::disabled()).expect("append");
            want.push(r);
        }
        drop(wal);
        let log = fs::read(&path).expect("read");
        let r = Wal::open(&path).expect("open");
        assert!(!r.torn_tail);
        assert_eq!(r.records.len(), want.len());
        for (got, want) in r.records.iter().zip(&want) {
            // Bit-equality: NaN floats compare unequal under `==`.
            assert_eq!(render_record(got), render_record(want));
        }

        for case in 0..400 {
            let bytes = if rng.random_bool(0.9) {
                damage(&mut rng, &log)
            } else {
                (0..rng.random_range(0usize..300))
                    .map(|_| rng.random::<u64>() as u8)
                    .collect()
            };
            fs::write(&path, &bytes).expect("write");
            match Wal::open(&path) {
                Ok(r) if r.torn_tail => {
                    let body = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
                    let last = body.rsplit(|&b| b == b'\n').next().unwrap_or(body);
                    assert!(
                        std::str::from_utf8(last).map_or(true, |l| check_frame(
                            l,
                            WAL_SCHEMA_PREFIX
                        )
                        .is_err()),
                        "case {case}: truncated a verified frame"
                    );
                }
                Ok(_) | Err(WalError::Corrupt { .. }) => {}
                Err(e) => panic!("case {case}: {e}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_and_panic_fault_sites_bite() {
        let dir = tmp_dir("faults");
        let path = dir.join("serve.wal");
        let plan = FaultPlan::parse("enospc:wal:1").expect("spec");
        let mut wal = Wal::create(&path, 0).expect("create");
        wal.append(&rec(1), Faults::to(&plan))
            .expect("hit 0 passes");
        let e = wal
            .append(&rec(2), Faults::to(&plan))
            .expect_err("disk full");
        assert!(e.to_string().contains("wal"), "{e}");
        drop(wal);

        // `panic:wal:append` half-writes the frame: the next open must
        // see exactly the torn tail a real crash leaves.
        let plan = FaultPlan::parse("panic:wal:append:1").expect("spec");
        let r = Wal::open(&path).expect("reopen");
        assert_eq!(r.records.len(), 1);
        let mut wal = r.wal;
        wal.append(&rec(2), Faults::to(&plan))
            .expect("hit 0 passes");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wal.append(&rec(3), Faults::to(&plan))
        }));
        assert!(panicked.is_err(), "armed append must panic");
        drop(wal);
        let r = Wal::open(&path).expect("recovery");
        assert!(r.torn_tail, "half-written frame is a torn tail");
        assert_eq!(r.records.len(), 2, "synced records survive");
        fs::remove_dir_all(&dir).ok();
    }
}
