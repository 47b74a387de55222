//! The one codec under the three line formats: `tab-trace-v1`
//! ([`crate::trace`]), `tab-wal-v1` ([`crate::Wal`]) and `tab-wire-v1`
//! (`tab-server`'s responses). Each line is one flat JSON object: the
//! schema prefix `{"schema":"tab-…-v1"`, then `,"key":value` fields
//! with no space after the colon, a value being a JSON string or a
//! bare token (an integer, `true`, `null`, a float), then `}`. A WAL line closes with
//! `,"len":L,"crc":"X"}` instead: `L` bytes precede the suffix and `X`
//! is their FNV-1a-64 in hex, so a torn append shows without any state
//! outside the line.
//!
//! [`Line`] writes a line into one buffer and [`Fields`] scans it back.
//! A string ends at the first quote no backslash escapes, so a value
//! ending in `\` reads back as written.
//!
//! Only the codec is shared. Each format renders its own floats as
//! tokens (trace `{:.3}` and `null`, wire shortest-roundtrip `{}`, WAL
//! `to_bits` hex in a string), and each decides what a line that does
//! not scan means, because the consequences differ: the WAL truncates a
//! torn tail and refuses anything else, trace replay
//! (`tab-bench-harness`'s `replay`) counts the line, and a wire client
//! rejects the response.

use std::fmt::{self, Write as _};

/// One line being written: the schema prefix, then `,"key":value`
/// fields in call order. Keys are not deduplicated, so write each once.
#[derive(Debug)]
pub struct Line {
    buf: String,
}

impl Line {
    /// Start a line with its schema prefix, e.g. `{"schema":"tab-wal-v1"`.
    pub fn new(prefix: &str) -> Line {
        let mut buf = String::with_capacity(192);
        buf.push_str(prefix);
        Line { buf }
    }

    fn key(&mut self, key: &str) {
        self.buf.push_str(",\"");
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Append a string field, JSON-escaped.
    pub fn str(mut self, key: &str, val: &str) -> Line {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, val);
        self.buf.push('"');
        self
    }

    /// Append an integer field.
    pub fn int(self, key: &str, val: u64) -> Line {
        self.token(key, val)
    }

    /// Append a bare token: a value the format has already decided how
    /// to render (`true`, `null`, a float in the format's own style).
    /// It must not contain `,` or `}`.
    pub fn token(mut self, key: &str, val: impl fmt::Display) -> Line {
        self.key(key);
        // Writing into a `String` cannot fail.
        let _ = write!(self.buf, "{val}");
        self
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Close the line as a WAL frame: the `len` + `crc` suffix over
    /// every byte written so far, then `}`.
    pub(crate) fn frame(mut self) -> String {
        let (len, crc) = (self.buf.len(), fnv1a64(self.buf.as_bytes()));
        let _ = write!(self.buf, ",\"len\":{len},\"crc\":\"{crc:016x}\"}}");
        self.buf
    }
}

/// Escape `s` for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` JSON-escaped, copying runs that need no escape whole.
fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        let _ = match b {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[start..]);
}

/// Reverse [`json_escape`]. `None` for an escape it never writes.
fn unescape(raw: &str) -> Option<String> {
    if !raw.contains('\\') {
        return Some(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '"' => '"',
            '\\' => '\\',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let rest = chars.as_str();
                let hex = rest.get(..4)?;
                chars = rest[4..].chars();
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            _ => return None,
        });
    }
    Some(out)
}

const TORN: &str = "torn: the object does not close";
const MALFORMED: &str = "malformed field syntax";

/// A scanned line: it opens with its schema prefix and is one whole flat
/// object. Fields are looked up by key (the first occurrence wins) and
/// read through typed accessors.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    line: &'a str,
}

impl<'a> Fields<'a> {
    /// Scan `line`, which must open with `prefix` (itself opening the
    /// object with `{`) and close the object at its last byte. The error
    /// says which: a missing prefix, a torn line, or malformed syntax.
    pub fn scan(line: &'a str, prefix: &str) -> Result<Fields<'a>, &'static str> {
        if !line.starts_with(prefix) || !line.starts_with('{') {
            return Err("missing schema prefix");
        }
        let mut pos = 1;
        while next_field(line, &mut pos)?.is_some() {}
        Ok(Fields { line })
    }

    /// `key`'s value as written: a string still quoted and escaped, or
    /// a bare token.
    fn get(&self, key: &str) -> Option<&'a str> {
        let mut pos = 1;
        while let Ok(Some((k, v))) = next_field(self.line, &mut pos) {
            if k == key {
                return Some(v);
            }
        }
        None
    }

    /// `key`'s string value, unescaped. `None` when the field is absent
    /// or is not a string.
    pub fn str(&self, key: &str) -> Option<String> {
        unescape(self.get(key)?.strip_prefix('"')?.strip_suffix('"')?)
    }

    /// `key`'s bare token as written. `None` when the field is absent or
    /// is a string.
    pub fn token(&self, key: &str) -> Option<&'a str> {
        self.get(key).filter(|v| !v.starts_with('"'))
    }

    /// `key`'s token as an unsigned integer.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.token(key)?.parse().ok()
    }

    /// `key`'s token as a float. `None` for `null`, which is how the
    /// trace writes a non-finite number.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.token(key)?.parse().ok()
    }
}

/// The key and value (as [`Fields::get`] returns it) of the field at
/// byte `pos` of `line`, just past the `{` or the previous value, moving
/// `pos` past it; `None` at the closing `}`.
fn next_field<'a>(
    line: &'a str,
    pos: &mut usize,
) -> Result<Option<(&'a str, &'a str)>, &'static str> {
    let at = |i: usize| line.as_bytes().get(i).copied().ok_or(TORN);
    match at(*pos)? {
        b'}' if *pos + 1 == line.len() => return Ok(None),
        b',' if *pos > 1 => *pos += 1,
        _ if *pos == 1 => {}
        _ => return Err(MALFORMED),
    }
    let key = string(line, pos)?;
    let key = &key[1..key.len() - 1];
    if at(*pos)? != b':' {
        return Err(MALFORMED);
    }
    *pos += 1;
    if at(*pos)? == b'"' {
        return Ok(Some((key, string(line, pos)?)));
    }
    let rest = &line[*pos..];
    let len = rest.find([',', '}']).ok_or(TORN)?;
    if len == 0 || rest[..len].contains(['"', '{']) {
        return Err(MALFORMED);
    }
    *pos += len;
    Ok(Some((key, &rest[..len])))
}

/// The string opening at byte `pos`, quotes included, moving `pos` past
/// it. A backslash always escapes the byte after it, so only an
/// unescaped quote ends the string.
fn string<'a>(line: &'a str, pos: &mut usize) -> Result<&'a str, &'static str> {
    let bytes = line.as_bytes();
    match bytes.get(*pos) {
        Some(b'"') => {}
        None => return Err(TORN),
        Some(_) => return Err(MALFORMED),
    }
    let mut i = *pos + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                let start = std::mem::replace(pos, i + 1);
                return Ok(&line[start..*pos]);
            }
            _ => i += 1,
        }
    }
    Err(TORN)
}

/// FNV-1a 64-bit, the frame check: stable across platforms and free of
/// dependencies. A frame needs to catch torn writes, not tampering.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Verify a line written by [`Line::frame`]: the prefix, the `len` +
/// `crc` suffix, and that both match the bytes before the suffix. A
/// frame that verifies was written whole.
pub(crate) fn check_frame(line: &str, prefix: &str) -> Result<(), String> {
    if !line.starts_with(prefix) {
        return Err("missing schema prefix".into());
    }
    let (body, suffix) = line
        .rsplit_once(",\"len\":")
        .ok_or("frame has no length suffix")?;
    let (len, crc) = suffix
        .strip_suffix("\"}")
        .and_then(|s| s.split_once(",\"crc\":\""))
        .ok_or("frame does not close")?;
    if len.parse() != Ok(body.len()) {
        return Err(format!(
            "length mismatch: frame says {len}, body has {}",
            body.len()
        ));
    }
    let computed = format!("{:016x}", fnv1a64(body.as_bytes()));
    if crc != computed {
        return Err(format!(
            "checksum mismatch: frame says {crc}, computed {computed}"
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PREFIX: &str = "{\"schema\":\"tab-test-v1\"";

    /// Characters that stress the grammar: its delimiters, escapes,
    /// controls, and multi-byte UTF-8.
    const ALPHABET: [char; 13] = [
        '"', ' ', '\\', ',', ':', '{', '}', '\n', '\t', '\u{1}', 'é', '漢', 'a',
    ];

    /// A string drawn from [`ALPHABET`]; a quarter of them end in `\`.
    pub(crate) fn arbitrary_string(rng: &mut StdRng) -> String {
        let len = rng.random_range(0usize..12);
        let mut s: String = (0..len)
            .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
            .collect();
        if rng.random_bool(0.25) {
            s.push('\\');
        }
        s
    }

    /// `bytes` with one byte flipped, or cut short, or both.
    pub(crate) fn damage(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if out.is_empty() {
            return out;
        }
        if rng.random_bool(0.5) {
            let i = rng.random_range(0..out.len());
            out[i] ^= 1 << rng.random_range(0u32..8);
        }
        if rng.random_bool(0.5) {
            out.truncate(rng.random_range(0..out.len()));
        }
        out
    }

    #[test]
    fn escape_covers_controls_and_copies_the_rest() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(json_escape("é漢\u{7f}"), "é漢\u{7f}");
        assert_eq!(
            unescape("a\\\"b\\\\c\\nd\\u0001"),
            Some("a\"b\\c\nd\u{1}".into())
        );
        assert_eq!(unescape("bad\\x"), None);
        assert_eq!(unescape("short\\u00"), None);
    }

    #[test]
    fn scanner_reads_strings_tokens_and_null() {
        let line = r#"{"schema":"tab-test-v1","label":"SeqScan(\"t\")","units":1.250,"bad":null,"rows":7,"end":"db\\"}"#;
        let f = Fields::scan(line, PREFIX).expect("scans");
        assert_eq!(f.str("label").as_deref(), Some("SeqScan(\"t\")"));
        assert_eq!(f.token("units"), Some("1.250"));
        assert_eq!(f.f64("units"), Some(1.25));
        assert_eq!(f.token("bad"), Some("null"));
        assert_eq!(f.f64("bad"), None);
        assert_eq!(f.u64("rows"), Some(7));
        assert_eq!(f.str("end").as_deref(), Some("db\\"));
        assert_eq!(f.str("rows"), None, "a token is not a string");
        assert_eq!(f.token("label"), None, "a string is not a token");
        assert_eq!(f.str("missing"), None);
    }

    #[test]
    fn scanner_tells_prefix_torn_and_malformed_apart() {
        let whole = Line::new(PREFIX).str("k", "v\\").int("n", 3).finish();
        for cut in 0..whole.len() {
            let err = Fields::scan(&whole[..cut], PREFIX).expect_err("a cut line");
            let want = if cut < PREFIX.len() {
                "missing schema prefix"
            } else {
                TORN
            };
            assert_eq!(err, want, "cut at {cut}: {:?}", &whole[..cut]);
        }
        for bad in [
            "{\"schema\":\"tab-test-v1\"}x",
            "{\"schema\":\"tab-test-v1\" ,\"k\":1}",
            "{\"schema\":\"tab-test-v1\",\"k\":}",
            "{\"schema\":\"tab-test-v1\",\"k\"1}",
            "{\"schema\":\"tab-test-v1\",\"k\":\"a\"b}",
        ] {
            assert_eq!(Fields::scan(bad, PREFIX).unwrap_err(), MALFORMED, "{bad}");
        }
    }

    /// Writer → scanner is the identity for strings, integers and tokens
    /// over an alphabet of the grammar's own delimiters. Restoring the
    /// old rule (a quote ends a string unless the byte before it is a
    /// backslash) fails this test on the first string ending in `\`.
    #[test]
    fn writer_then_scanner_round_trips() {
        let mut rng = StdRng::seed_from_u64(30);
        for case in 0..2_000 {
            let strs: Vec<String> = (0..3).map(|_| arbitrary_string(&mut rng)).collect();
            let n: u64 = rng.random();
            let x = f64::from_bits(rng.random::<u64>() >> 2);
            let line = Line::new(PREFIX)
                .str("a", &strs[0])
                .int("n", n)
                .str("b", &strs[1])
                .token("x", x)
                .token("t", true)
                .str("c", &strs[2])
                .finish();
            let f =
                Fields::scan(&line, PREFIX).unwrap_or_else(|e| panic!("case {case}: {e}: {line}"));
            for (key, want) in ["a", "b", "c"].iter().zip(&strs) {
                assert_eq!(f.str(key).as_ref(), Some(want), "case {case}: {line}");
            }
            assert_eq!(f.u64("n"), Some(n), "case {case}");
            assert_eq!(
                f.f64("x").map(f64::to_bits),
                Some(x.to_bits()),
                "case {case}"
            );
            assert_eq!(f.token("t"), Some("true"), "case {case}");
        }
    }

    #[test]
    fn frames_verify_whole_and_fail_damaged() {
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..2_000 {
            let line = Line::new(PREFIX)
                .str("s", &arbitrary_string(&mut rng))
                .int("n", rng.random())
                .frame();
            check_frame(&line, PREFIX).unwrap_or_else(|e| panic!("case {case}: {e}: {line}"));
            Fields::scan(&line, PREFIX).unwrap_or_else(|e| panic!("case {case}: {e}: {line}"));
            let damaged = damage(&mut rng, line.as_bytes());
            if damaged != line.as_bytes() {
                if let Ok(d) = std::str::from_utf8(&damaged) {
                    assert!(check_frame(d, PREFIX).is_err(), "case {case}: {d}");
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_scan_to_a_value_or_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(32);
        let valid = Line::new(PREFIX).str("s", "a\\").int("n", 1).frame();
        for _ in 0..5_000 {
            let bytes: Vec<u8> = if rng.random_bool(0.5) {
                damage(&mut rng, valid.as_bytes())
            } else {
                let len = rng.random_range(0usize..64);
                (0..len).map(|_| rng.random::<u64>() as u8).collect()
            };
            let text = String::from_utf8_lossy(&bytes);
            let _ = check_frame(&text, PREFIX);
            if let Ok(f) = Fields::scan(&text, PREFIX) {
                let _ = (f.str("s"), f.u64("n"), f.f64("n"), f.token("len"));
            }
        }
    }
}
