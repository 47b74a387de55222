//! Typed reader for `tab-trace-v1` JSONL documents.
//!
//! [`crate::trace`] writes traces; this module reads them back. It is
//! the shared parsing layer under `tab trace-summary`, `tab replay`, and
//! `tab tracediff`: one line becomes one [`TraceRecord`], and a whole
//! document becomes a [`TraceDoc`] that also accounts for what could
//! *not* be parsed — a torn tail (the crash signature
//! [`crate::trace::FileTraceSink`] leaves behind) and skipped malformed
//! lines, mirroring the checkpoint journal's torn-tail handling.
//!
//! Lines are scanned by [`crate::framed`], the codec every line format
//! shares, so no JSON dependency is needed. Unknown event tags parse as
//! [`TraceRecord::Other`] so a future schema extension does not turn old
//! readers into false torn-trace alarms.

use std::fmt;

use crate::framed::Fields;
use crate::trace::SCHEMA_PREFIX;

/// One parsed `tab-trace-v1` event. Field meanings match the schema
/// table in [`crate::trace`]; numeric fields that the writer may omit
/// (actuals past a timed-out query's cutoff) or render as `null`
/// (non-finite estimates) are `Option`s.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// `span_begin` — a harness section opened.
    SpanBegin {
        /// Section name, e.g. `"NREF"`.
        span: String,
    },
    /// `span_end` — a harness section closed.
    SpanEnd {
        /// Section name.
        span: String,
    },
    /// `query` — one (cell, query) grid job completed.
    Query {
        /// Workload family, e.g. `"NREF2J"`.
        family: String,
        /// Configuration name, e.g. `"1C"`.
        config: String,
        /// Query index within the family's workload.
        query: u64,
        /// `"done"` or `"timeout"`.
        outcome: String,
        /// Metered cost units charged to the query (at the budget for
        /// timeouts).
        units: Option<f64>,
    },
    /// `operator` — one executed plan-operator slot of a grid job.
    Operator {
        /// Workload family.
        family: String,
        /// Configuration name.
        config: String,
        /// Query index within the family's workload.
        query: u64,
        /// Operator slot index within the plan (0 = frequency setup).
        op: u64,
        /// Operator label, e.g. `IndexScan(protein cols=[2])`.
        label: String,
        /// Planner-estimated cost for this slot.
        est_cost: Option<f64>,
        /// Planner-estimated output rows for this slot.
        est_rows: Option<f64>,
        /// Actual input rows (absent past a timeout cutoff).
        rows_in: Option<u64>,
        /// Actual output rows (absent past a timeout cutoff).
        rows_out: Option<u64>,
        /// Actual index probes (absent past a timeout cutoff).
        probes: Option<u64>,
        /// Actual metered cost units (absent past a timeout cutoff).
        units: Option<f64>,
    },
    /// `advisor_begin` — a greedy search started.
    AdvisorBegin {
        /// Advisor name (the configuration the search will produce).
        advisor: String,
        /// Candidate structures under consideration.
        candidates: u64,
        /// Storage budget in MiB.
        budget_mib: u64,
        /// Objective value of the starting configuration.
        initial_total: Option<f64>,
        /// Minimum-gain stopping threshold.
        threshold: Option<f64>,
    },
    /// `advisor_round` — the search accepted one structure.
    AdvisorRound {
        /// Advisor name.
        advisor: String,
        /// Zero-based round index.
        round: u64,
        /// Picked candidate's index in the candidate vector.
        candidate: u64,
        /// Human-readable candidate description.
        desc: String,
        /// Estimated objective gain of the pick.
        gain: Option<f64>,
        /// Gain per byte (the selection metric).
        density: Option<f64>,
        /// Estimated size of the pick in bytes.
        size_bytes: u64,
        /// Objective value after applying the pick.
        objective_after: Option<f64>,
        /// What-if requests issued during this round.
        whatif_calls: u64,
        /// Planner invocations during this round.
        planner_calls: u64,
        /// Cache hits during this round.
        cache_hits: u64,
    },
    /// `advisor_stop` — the search stopped with no acceptable candidate
    /// (or hit an explicit budget).
    AdvisorStop {
        /// Advisor name.
        advisor: String,
        /// Round index at which the search stopped.
        round: u64,
        /// Stop reason, when the writer named one.
        reason: Option<String>,
    },
    /// `advisor_end` — the search finished.
    AdvisorEnd {
        /// Advisor name.
        advisor: String,
        /// Structures accepted in total.
        rounds: u64,
        /// Final objective value.
        objective_final: Option<f64>,
        /// Total what-if requests issued.
        whatif_calls: u64,
        /// Total planner invocations.
        planner_calls: u64,
        /// Total cache hits.
        cache_hits: u64,
    },
    /// `page` — one buffer-pool access (hit, miss, or eviction),
    /// emitted only when a query runs with a `--buffer-pages` pool.
    Page {
        /// `"hit"`, `"miss"`, or `"evict"`.
        action: String,
        /// FNV-1a relation id (see [`crate::pool::table_rel_id`]).
        rel: u64,
        /// Zero-based page number within the relation.
        page: u64,
        /// Frame slot the page occupies (or, for `evict`, vacates).
        frame: u64,
        /// Position in the query's logical access sequence — the value
        /// that makes eviction auditable: replaying the `seq`-ordered
        /// stream through a fresh pool reproduces every hit and evict.
        seq: u64,
    },
    /// Any schema-valid line whose event tag this reader does not model.
    Other {
        /// The unrecognized event tag.
        event: String,
    },
}

/// A line the reader could not parse: its 1-based line number and why.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedLine {
    /// 1-based line number in the input document.
    pub line_no: usize,
    /// Short reason, e.g. `"missing schema tag"`.
    pub reason: String,
}

impl fmt::Display for SkippedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line_no, self.reason)
    }
}

/// A parsed trace document: the records that parsed, the lines that did
/// not, and whether the document ends mid-line (a torn tail —
/// [`crate::trace::FileTraceSink`] always writes complete
/// newline-terminated lines, so a missing final newline is the
/// signature of a crash or injected `truncate:trace` fault).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDoc {
    /// Successfully parsed records, in document order.
    pub records: Vec<TraceRecord>,
    /// Lines that failed to parse (excluding the torn tail).
    pub skipped: Vec<SkippedLine>,
    /// Whether the document ends without a final newline.
    pub torn_tail: bool,
}

impl TraceDoc {
    /// One-line account of everything that failed to parse, or `None`
    /// for a fully clean document. This is what `tab trace-summary`
    /// appends so malformed input is never silently dropped.
    pub fn damage_report(&self) -> Option<String> {
        if self.skipped.is_empty() && !self.torn_tail {
            return None;
        }
        let mut parts = Vec::new();
        if !self.skipped.is_empty() {
            let mut s = format!("skipped {} malformed line(s):", self.skipped.len());
            for sk in self.skipped.iter().take(3) {
                s.push_str(&format!(" [{sk}]"));
            }
            if self.skipped.len() > 3 {
                s.push_str(" ...");
            }
            parts.push(s);
        }
        if self.torn_tail {
            parts.push("torn tail: document ends mid-line (crashed or truncated writer)".into());
        }
        Some(parts.join("; "))
    }
}

/// Parse one schema-tagged line into a [`TraceRecord`]. Returns
/// `Err(reason)` for lines that do not scan as a `tab-trace-v1` object
/// or lack the fields their event tag requires.
fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let f = Fields::scan(line, SCHEMA_PREFIX).map_err(|e| format!("tab-trace-v1 event: {e}"))?;
    let event = f.str("event").ok_or("missing event tag")?;
    // Per-event required fields; a miss is a malformed line, not a panic.
    macro_rules! req {
        ($get:ident, $key:literal) => {
            f.$get($key).ok_or(concat!("missing field ", $key))?
        };
    }
    Ok(match event.as_str() {
        "span_begin" => TraceRecord::SpanBegin {
            span: req!(str, "span"),
        },
        "span_end" => TraceRecord::SpanEnd {
            span: req!(str, "span"),
        },
        "query" => TraceRecord::Query {
            family: req!(str, "family"),
            config: req!(str, "config"),
            query: req!(u64, "query"),
            outcome: req!(str, "outcome"),
            units: f.f64("units"),
        },
        "operator" => TraceRecord::Operator {
            family: req!(str, "family"),
            config: req!(str, "config"),
            query: req!(u64, "query"),
            op: req!(u64, "op"),
            label: req!(str, "label"),
            est_cost: f.f64("est_cost"),
            est_rows: f.f64("est_rows"),
            rows_in: f.u64("rows_in"),
            rows_out: f.u64("rows_out"),
            probes: f.u64("probes"),
            units: f.f64("units"),
        },
        "advisor_begin" => TraceRecord::AdvisorBegin {
            advisor: req!(str, "advisor"),
            candidates: req!(u64, "candidates"),
            budget_mib: req!(u64, "budget_mib"),
            initial_total: f.f64("initial_total"),
            threshold: f.f64("threshold"),
        },
        "advisor_round" => TraceRecord::AdvisorRound {
            advisor: req!(str, "advisor"),
            round: req!(u64, "round"),
            candidate: req!(u64, "candidate"),
            desc: f.str("desc").unwrap_or_default(),
            gain: f.f64("gain"),
            density: f.f64("density"),
            size_bytes: f.u64("size_bytes").unwrap_or(0),
            objective_after: f.f64("objective_after"),
            whatif_calls: f.u64("whatif_calls").unwrap_or(0),
            planner_calls: f.u64("planner_calls").unwrap_or(0),
            cache_hits: f.u64("cache_hits").unwrap_or(0),
        },
        "advisor_stop" => TraceRecord::AdvisorStop {
            advisor: req!(str, "advisor"),
            round: req!(u64, "round"),
            reason: f.str("reason"),
        },
        "advisor_end" => TraceRecord::AdvisorEnd {
            advisor: req!(str, "advisor"),
            rounds: req!(u64, "rounds"),
            objective_final: f.f64("objective_final"),
            whatif_calls: f.u64("whatif_calls").unwrap_or(0),
            planner_calls: f.u64("planner_calls").unwrap_or(0),
            cache_hits: f.u64("cache_hits").unwrap_or(0),
        },
        "page" => TraceRecord::Page {
            action: req!(str, "action"),
            rel: req!(u64, "rel"),
            page: req!(u64, "page"),
            frame: req!(u64, "frame"),
            seq: req!(u64, "seq"),
        },
        other => TraceRecord::Other {
            event: other.to_string(),
        },
    })
}

/// Parse a whole `tab-trace-v1` document. Never fails: malformed lines
/// are counted in [`TraceDoc::skipped`] and a missing final newline
/// sets [`TraceDoc::torn_tail`] (the final fragment is *not* parsed and
/// *not* counted as skipped — it is the crash artifact itself).
pub fn read_trace(input: &str) -> TraceDoc {
    let mut doc = TraceDoc {
        torn_tail: !input.is_empty() && !input.ends_with('\n'),
        ..TraceDoc::default()
    };
    let complete = match input.rfind('\n') {
        Some(last) if doc.torn_tail => &input[..=last],
        _ if doc.torn_tail => "", // a single torn fragment, no full lines
        _ => input,
    };
    for (i, line) in complete.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(rec) => doc.records.push(rec),
            Err(reason) => doc.skipped.push(SkippedLine {
                line_no: i + 1,
                reason,
            }),
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::tests::{arbitrary_string, damage};
    use crate::trace::{event, MemoryTraceSink, Num, Trace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn field_extracts_strings_numbers_and_null() {
        let line = r#"{"schema":"tab-trace-v1","event":"operator","family":"NREF2J","label":"SeqScan(\"t\")","units":1.250,"bad":null,"rows_out":7}"#;
        let f = Fields::scan(line, SCHEMA_PREFIX).expect("a trace line");
        assert_eq!(f.str("event").as_deref(), Some("operator"));
        assert_eq!(f.str("family").as_deref(), Some("NREF2J"));
        assert_eq!(f.str("label").as_deref(), Some(r#"SeqScan("t")"#));
        assert_eq!(f.token("units"), Some("1.250"));
        assert_eq!(f.token("bad"), Some("null"));
        assert_eq!(f.f64("bad"), None);
        assert_eq!(f.u64("rows_out"), Some(7));
        assert_eq!(f.str("missing"), None);
    }

    #[test]
    fn unescape_reverses_json_escape() {
        for s in [
            "plain",
            "a\"b\\c",
            "tab\there\nand\rthere",
            "ctrl\u{1}x",
            "ends in \\",
            "\\\"",
        ] {
            let line = event("span_begin").str("span", s).finish();
            assert_eq!(
                parse_line(&line),
                Ok(TraceRecord::SpanBegin { span: s.into() }),
                "{line}"
            );
        }
    }

    /// Every string and number a writer puts in an event reads back equal
    /// (numbers at the trace's three decimals), and damaged or random
    /// bytes read as records, skipped lines or a torn tail, never a
    /// panic. Restoring the old scanner rule (a quote ends a string
    /// unless the byte before it is a backslash) fails the round trip.
    #[test]
    fn seeded_events_round_trip_and_damage_never_panics() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut text = String::new();
        for case in 0..500u64 {
            let (family, config, label) = (
                arbitrary_string(&mut rng),
                arbitrary_string(&mut rng),
                arbitrary_string(&mut rng),
            );
            let units = rng.random_range(0u64..1_000_000) as f64 / 1000.0;
            let line = event("operator")
                .str("family", &family)
                .str("config", &config)
                .int("query", case)
                .int("op", case % 7)
                .str("label", &label)
                .token("est_cost", Num(f64::INFINITY))
                .token("units", Num(units))
                .finish();
            let want = TraceRecord::Operator {
                family,
                config,
                query: case,
                op: case % 7,
                label,
                est_cost: None,
                est_rows: None,
                rows_in: None,
                rows_out: None,
                probes: None,
                units: Some(units),
            };
            assert_eq!(parse_line(&line), Ok(want), "case {case}: {line}");
            text.push_str(&line);
            text.push('\n');
        }
        let doc = read_trace(&text);
        assert_eq!((doc.records.len(), doc.skipped.len()), (500, 0));
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for _ in 0..2_000 {
            let bytes = if rng.random_bool(0.8) {
                let line = lines[rng.random_range(0..lines.len())];
                damage(&mut rng, line.as_bytes())
            } else {
                (0..rng.random_range(0usize..80))
                    .map(|_| rng.random::<u64>() as u8)
                    .collect()
            };
            let input = String::from_utf8_lossy(&bytes);
            let doc = read_trace(&input);
            assert!(doc.records.len() + doc.skipped.len() <= input.lines().count());
            let _ = doc.damage_report();
        }
    }

    #[test]
    fn round_trips_writer_events() {
        let sink = MemoryTraceSink::new();
        let trace = Trace::to(&sink);
        trace.span_begin("grid");
        trace.emit(|| {
            event("operator")
                .str("family", "NREF2J")
                .str("config", "1C")
                .int("query", 3)
                .int("op", 1)
                .str("label", "IndexScan(\"protein\" cols=[2])")
                .token("est_cost", Num(12.5))
                .token("est_rows", Num(f64::INFINITY))
                .int("rows_in", 0)
                .int("rows_out", 42)
                .int("probes", 7)
                .token("units", Num(3.25))
        });
        trace.emit(|| {
            event("query")
                .str("family", "NREF2J")
                .str("config", "1C")
                .int("query", 3)
                .str("outcome", "done")
                .token("units", Num(3.5))
        });
        let text = sink.lines().join("\n") + "\n";
        let doc = read_trace(&text);
        assert!(doc.skipped.is_empty() && !doc.torn_tail, "{doc:?}");
        assert_eq!(doc.records.len(), 3);
        assert_eq!(
            doc.records[0],
            TraceRecord::SpanBegin {
                span: "grid".into()
            }
        );
        match &doc.records[1] {
            TraceRecord::Operator {
                label,
                est_cost,
                est_rows,
                rows_out,
                probes,
                units,
                ..
            } => {
                assert_eq!(label, "IndexScan(\"protein\" cols=[2])");
                assert_eq!(*est_cost, Some(12.5));
                assert_eq!(*est_rows, None, "non-finite renders null, reads None");
                assert_eq!(*rows_out, Some(42));
                assert_eq!(*probes, Some(7));
                assert_eq!(*units, Some(3.25));
            }
            other => panic!("expected operator, got {other:?}"),
        }
        match &doc.records[2] {
            TraceRecord::Query { outcome, units, .. } => {
                assert_eq!(outcome, "done");
                assert_eq!(*units, Some(3.5));
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_counted_not_dropped() {
        let text = concat!(
            "{\"schema\":\"tab-trace-v1\",\"event\":\"span_begin\",\"span\":\"x\"}\n",
            "not json at all\n",
            "{\"schema\":\"tab-trace-v1\",\"event\":\"query\",\"family\":\"F\"}\n",
            "{\"schema\":\"tab-trace-v1\",\"event\":\"novel_event\",\"k\":1}\n",
        );
        let doc = read_trace(text);
        assert!(!doc.torn_tail);
        assert_eq!(doc.records.len(), 2, "{doc:?}");
        assert_eq!(
            doc.records[1],
            TraceRecord::Other {
                event: "novel_event".into()
            }
        );
        assert_eq!(doc.skipped.len(), 2);
        assert_eq!(doc.skipped[0].line_no, 2);
        assert!(doc.skipped[0].reason.contains("schema"), "{doc:?}");
        assert_eq!(doc.skipped[1].line_no, 3);
        assert!(doc.skipped[1].reason.contains("config"), "{doc:?}");
        let report = doc.damage_report().expect("damage to report");
        assert!(report.contains("skipped 2"), "{report}");
    }

    #[test]
    fn torn_tail_is_flagged_and_fragment_not_parsed() {
        let text = concat!(
            "{\"schema\":\"tab-trace-v1\",\"event\":\"span_begin\",\"span\":\"x\"}\n",
            "{\"schema\":\"tab-trace-v1\",\"event\":\"que", // torn mid-line
        );
        let doc = read_trace(text);
        assert!(doc.torn_tail);
        assert_eq!(doc.records.len(), 1);
        assert!(doc.skipped.is_empty(), "fragment is torn, not skipped");
        assert!(doc.damage_report().expect("report").contains("torn"));

        // A lone fragment with no complete line at all.
        let doc = read_trace("{\"schema\":\"tab-tra");
        assert!(doc.torn_tail && doc.records.is_empty() && doc.skipped.is_empty());

        // Empty input is clean, not torn.
        let doc = read_trace("");
        assert!(!doc.torn_tail && doc.damage_report().is_none());
    }
}
