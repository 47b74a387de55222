//! Trace replay and comparison (`tab replay` / `tab tracediff`).
//!
//! A `tab-trace-v1` document from a traced grid run carries enough to
//! reconstruct what happened without re-executing anything: every
//! `operator` event names its (family, config, query, op) slot with
//! estimates and actuals, every `query` event its outcome and metered
//! units, and the advisor events each search's rounds. [`replay_str`]
//! scans each line once with `framed::Fields` and folds it straight
//! back into that shape — a [`Replay`] of per-cell operator trees plus
//! advisor runs — which [`render_summary`] prints. This is the only
//! reader of `tab-trace-v1`.
//!
//! Two traces are compared by their bytes, not by their replays: every
//! run of one commit writes the same lines, so the golden is a contract
//! byte for byte, and a change in how a number is rendered is as much a
//! regression as a changed plan. [`line_diff`] is the one comparison,
//! behind both `tab tracediff` and the `trace` row of `tab gate`. It
//! compares lines as sorted multisets, because parallel grid workers
//! interleave `query`, `operator` and `page` lines, and keeps the
//! harness thread's `span_*` and `advisor_*` lines in file order. Each
//! event line names its family, config, query and op, so a differing
//! line says where the runs part.
//!
//! A torn trace (the crash signature of `FileTraceSink` or an injected
//! `truncate:trace` fault) is refused by both — [`ReplayError::Torn`] —
//! rather than silently half-read; DESIGN.md §10's fault matrix
//! exercises exactly this path.

use std::collections::BTreeMap;
use std::fmt;

use tab_storage::framed::Fields;
use tab_storage::trace::SCHEMA_PREFIX;

/// One reconstructed operator slot of an executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedOp {
    /// Operator label, e.g. `IndexScan(protein cols=[2])`.
    pub label: String,
    /// Planner-estimated cost.
    pub est_cost: Option<f64>,
    /// Actual input rows (absent past a timeout cutoff).
    pub rows_in: Option<u64>,
    /// Actual output rows.
    pub rows_out: Option<u64>,
    /// Actual index probes.
    pub probes: Option<u64>,
    /// Actual metered cost units.
    pub units: Option<f64>,
}

/// One reconstructed (cell, query) execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayedQuery {
    /// `"done"` or `"timeout"` (empty if only operator events arrived).
    pub outcome: String,
    /// Units charged to the query.
    pub units: Option<f64>,
    /// Operator slots in slot order.
    pub ops: BTreeMap<u64, ReplayedOp>,
}

/// All queries of one (family, config) grid cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellReplay {
    /// Queries by workload index.
    pub queries: BTreeMap<u64, ReplayedQuery>,
}

/// One reconstructed greedy search (an `advisor_begin` … `advisor_end`
/// block; the harness runs searches sequentially, so blocks never
/// interleave).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AdvisorRun {
    /// Advisor name from the events.
    advisor: String,
    /// Candidate structures considered.
    candidates: u64,
    /// Objective value before the first round.
    initial_total: Option<f64>,
    /// Accepted rounds.
    rounds: u64,
    /// Final objective from `advisor_end`.
    objective_final: Option<f64>,
    /// Total what-if requests from `advisor_end`.
    whatif_calls: u64,
}

/// A structurally reconstructed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Grid cells by (family, config).
    pub cells: BTreeMap<(String, String), CellReplay>,
    /// Advisor searches in begin order.
    pub(crate) advisor_runs: Vec<AdvisorRun>,
    /// Complete lines that did not scan or lacked a required field.
    pub skipped: usize,
}

/// Why a trace refused to replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The document ends mid-line: the writer crashed or the file was
    /// truncated. Refusing beats silently replaying half a run.
    Torn,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Torn => write!(
                f,
                "trace is torn (ends mid-line): refusing to replay a partial document"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parse `input` as a `tab-trace-v1` document and fold it into its
/// structural aggregate, scanning each line once. A non-empty document
/// whose last byte is not `\n` is refused as [`ReplayError::Torn`]; its
/// final fragment is the crash artifact and is neither parsed nor
/// counted. A complete line that does not scan, or lacks a field its
/// event requires, changes nothing and is counted in
/// [`Replay::skipped`]. An event tag replay does not model is read and
/// ignored, so a schema extension does not turn old readers into false
/// damage alarms.
pub fn replay_str(input: &str) -> Result<Replay, ReplayError> {
    let mut r = Replay::default();
    // The currently open advisor block, if any. Advisor events are
    // emitted sequentially by the harness thread, so one slot suffices.
    let mut open: Option<AdvisorRun> = None;
    for line in whole(input)?.lines().filter(|l| !l.is_empty()) {
        if fold_line(&mut r, &mut open, line).is_none() {
            r.skipped += 1;
        }
    }
    r.advisor_runs.extend(open);
    Ok(r)
}

/// `input` if it is empty or ends in `\n`; a torn document otherwise.
fn whole(input: &str) -> Result<&str, ReplayError> {
    if input.is_empty() || input.ends_with('\n') {
        Ok(input)
    } else {
        Err(ReplayError::Torn)
    }
}

/// Fold one complete line into `r`, `open` being the advisor search in
/// progress. `None` when the line does not scan or lacks a field its
/// event requires; such a line leaves `r` and `open` as they were.
fn fold_line(r: &mut Replay, open: &mut Option<AdvisorRun>, line: &str) -> Option<()> {
    let f = Fields::scan(line, SCHEMA_PREFIX).ok()?;
    match f.str("event")?.as_str() {
        "span_begin" | "span_end" => {
            f.str("span")?;
        }
        "query" => {
            let (query, outcome) = (f.u64("query")?, f.str("outcome")?);
            let q = query_slot(r, &f, query)?;
            q.outcome = outcome;
            q.units = f.f64("units");
        }
        "operator" => {
            let (query, op, label) = (f.u64("query")?, f.u64("op")?, f.str("label")?);
            let slot = ReplayedOp {
                label,
                est_cost: f.f64("est_cost"),
                rows_in: f.u64("rows_in"),
                rows_out: f.u64("rows_out"),
                probes: f.u64("probes"),
                units: f.f64("units"),
            };
            query_slot(r, &f, query)?.ops.insert(op, slot);
        }
        "advisor_begin" => {
            f.u64("budget_mib")?;
            let run = AdvisorRun {
                advisor: f.str("advisor")?,
                candidates: f.u64("candidates")?,
                initial_total: f.f64("initial_total"),
                ..AdvisorRun::default()
            };
            // A begin with no end closes the dangling run.
            r.advisor_runs.extend(open.replace(run));
        }
        "advisor_round" => {
            f.str("advisor")?;
            f.u64("round").zip(f.u64("candidate"))?;
            if let Some(run) = open {
                run.rounds += 1;
            }
        }
        "advisor_stop" => {
            f.str("advisor").zip(f.u64("round"))?;
        }
        "advisor_end" => {
            f.str("advisor").zip(f.u64("rounds"))?;
            if let Some(mut run) = open.take() {
                run.objective_final = f.f64("objective_final");
                run.whatif_calls = f.u64("whatif_calls").unwrap_or(0);
                r.advisor_runs.push(run);
            }
        }
        // Page events are per-access detail under a keyed stream the
        // cell totals already summarize; replay checks their fields and
        // the summary stays at operator granularity.
        "page" => {
            f.str("action")?;
            for key in ["rel", "page", "frame", "seq"] {
                f.u64(key)?;
            }
        }
        _ => {}
    }
    Some(())
}

/// The slot of query `query` in the cell a grid line's `family` and
/// `config` name; `None`, with `r` untouched, if either is missing.
fn query_slot<'r>(r: &'r mut Replay, f: &Fields<'_>, query: u64) -> Option<&'r mut ReplayedQuery> {
    let key = (f.str("family")?, f.str("config")?);
    Some(
        r.cells
            .entry(key)
            .or_default()
            .queries
            .entry(query)
            .or_default(),
    )
}

/// How a fresh trace's lines differ from its golden's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineDiff<'a> {
    /// Lines the golden holds more often than the fresh trace, sorted.
    pub golden_only: Vec<&'a str>,
    /// Lines the fresh trace holds more often than the golden, sorted.
    pub fresh_only: Vec<&'a str>,
    /// When the lines agree as multisets but the harness thread's lines
    /// (`span_*` and `advisor_*` events) do not come in the golden's
    /// order: the 0-based position among those lines where the two
    /// files first differ, with the golden's and the fresh trace's line
    /// there.
    pub(crate) reordered: Option<(usize, &'a str, &'a str)>,
}

impl LineDiff<'_> {
    /// Whether the two traces hold the same lines.
    pub fn is_empty(&self) -> bool {
        self.golden_only.is_empty() && self.fresh_only.is_empty() && self.reordered.is_none()
    }
}

/// `- line` for each golden-only line, `+ line` for each fresh-only one,
/// then the order mismatch, if any.
impl fmt::Display for LineDiff<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.golden_only {
            writeln!(f, "- {line}")?;
        }
        for line in &self.fresh_only {
            writeln!(f, "+ {line}")?;
        }
        if let Some((at, golden, fresh)) = self.reordered {
            writeln!(
                f,
                "span/advisor line {} leaves the golden's order:\n- {golden}\n+ {fresh}",
                at + 1
            )?;
        }
        Ok(())
    }
}

/// Compare two `tab-trace-v1` documents line for line: `golden` is the
/// committed reference, `fresh` the run under test. Both must be whole
/// ([`ReplayError::Torn`] otherwise). Their lines are compared as sorted
/// multisets, because parallel grid workers interleave `query`,
/// `operator` and `page` lines; a duplicated, re-rendered or malformed
/// line is a difference. When the multisets agree, the harness thread's
/// lines must also come in the golden's order, so advisor runs compare
/// in begin order.
pub fn line_diff<'a>(golden: &'a str, fresh: &'a str) -> Result<LineDiff<'a>, ReplayError> {
    let sorted = |text: &'a str| {
        let mut lines: Vec<&str> = text.split_terminator('\n').collect();
        lines.sort_unstable();
        lines.into_iter().peekable()
    };
    let (mut want, mut got) = (sorted(whole(golden)?), sorted(whole(fresh)?));
    let mut d = LineDiff::default();
    loop {
        match (want.peek(), got.peek()) {
            (None, None) => break,
            (Some(a), Some(b)) if a == b => {
                want.next();
                got.next();
            }
            (Some(a), b) if b.is_none_or(|b| a < b) => d.golden_only.extend(want.next()),
            _ => d.fresh_only.extend(got.next()),
        }
    }
    if d.golden_only.is_empty() && d.fresh_only.is_empty() {
        let harness = |text: &'a str| text.split_terminator('\n').filter(|l| harness_line(l));
        d.reordered = harness(golden)
            .zip(harness(fresh))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(at, (a, b))| (at, a, b));
    }
    Ok(d)
}

/// Whether `line` is a `span_*` or `advisor_*` event, the lines only the
/// harness thread writes.
fn harness_line(line: &str) -> bool {
    Fields::scan(line, SCHEMA_PREFIX)
        .ok()
        .and_then(|f| f.str("event"))
        .is_some_and(|e| e.starts_with("span_") || e.starts_with("advisor_"))
}

/// The operator kind of a label: its leading alphanumeric run, so
/// `IndexScan(protein cols=[2])` and `IndexScan(source ...)` aggregate
/// together as `IndexScan`.
fn op_kind(label: &str) -> &str {
    let end = label
        .find(|c: char| !c.is_ascii_alphanumeric())
        .unwrap_or(label.len());
    &label[..end]
}

/// Render an optional float for the summary.
fn show_f(v: Option<f64>) -> String {
    v.map_or_else(|| "absent".into(), |v| format!("{v:.3}"))
}

/// Render a human-readable replay summary — what `tab replay` prints:
/// per-cell totals; per (family, config, operator kind) the instance
/// count and summed units, output rows and probes, the evidence a
/// divergence post-mortem reads; then the advisor runs.
pub fn render_summary(r: &Replay) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>7} {:>8} {:>7} {:>14}",
        "family", "config", "queries", "timeouts", "ops", "units"
    );
    // (count, units, rows_out, probes); an operator past a timeout
    // cutoff counts but adds no actuals.
    type Totals = (u64, f64, u64, u64);
    let mut kinds: BTreeMap<(&str, &str, &str), Totals> = BTreeMap::new();
    for ((family, config), cell) in &r.cells {
        let ops: usize = cell.queries.values().map(|q| q.ops.len()).sum();
        let _ = writeln!(
            out,
            "{family:<10} {config:<14} {:>7} {:>8} {ops:>7} {:>14.3}",
            cell.queries.len(),
            cell.queries
                .values()
                .filter(|q| q.outcome == "timeout")
                .count(),
            cell.queries.values().filter_map(|q| q.units).sum::<f64>()
        );
        for op in cell.queries.values().flat_map(|q| q.ops.values()) {
            let k = kinds
                .entry((family, config, op_kind(&op.label)))
                .or_default();
            k.0 += 1;
            k.1 += op.units.unwrap_or(0.0);
            k.2 += op.rows_out.unwrap_or(0);
            k.3 += op.probes.unwrap_or(0);
        }
    }
    if !kinds.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:<14} {:>7} {:>14} {:>12} {:>10}",
            "family", "config", "operator", "count", "units", "rows_out", "probes"
        );
        for ((family, config, kind), (count, units, rows_out, probes)) in &kinds {
            let _ = writeln!(
                out,
                "{family:<10} {config:<14} {kind:<14} {count:>7} {units:>14.3} {rows_out:>12} {probes:>10}"
            );
        }
    }
    if !r.advisor_runs.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<4} {:<8} {:>10} {:>7} {:>14} {:>14} {:>12}",
            "run", "advisor", "candidates", "rounds", "initial", "final", "whatif"
        );
        for (i, run) in r.advisor_runs.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i:<4} {:<8} {:>10} {:>7} {:>14} {:>14} {:>12}",
                run.advisor,
                run.candidates,
                run.rounds,
                show_f(run.initial_total),
                show_f(run.objective_final),
                run.whatif_calls
            );
        }
    }
    if r.skipped > 0 {
        let _ = writeln!(out, "\nskipped {} malformed line(s)", r.skipped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        concat!(
            r#"{"schema":"tab-trace-v1","event":"span_begin","span":"NREF"}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"operator","family":"F","config":"P","query":0,"op":0,"label":"FreqSetup","est_cost":0.000,"est_rows":0.000,"rows_in":0,"rows_out":0,"probes":0,"units":0.000}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"operator","family":"F","config":"P","query":0,"op":1,"label":"SeqScan(t)","est_cost":4.000,"est_rows":2.000,"rows_in":0,"rows_out":5,"probes":0,"units":4.250}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"query","family":"F","config":"P","query":0,"outcome":"done","units":4.250}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"advisor_begin","advisor":"R","candidates":3,"budget_mib":10,"initial_total":100.000,"threshold":0.200}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"advisor_round","advisor":"R","round":0,"candidate":2,"desc":"INDEX t(a)","gain":40.000,"density":0.001,"size_bytes":4096,"objective_after":60.000,"whatif_calls":9,"planner_calls":6,"cache_hits":3}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"advisor_end","advisor":"R","rounds":1,"objective_final":60.000,"whatif_calls":9,"planner_calls":6,"cache_hits":3}"#,
            "\n",
        )
        .to_string()
    }

    #[test]
    fn replays_cells_and_advisor_runs() {
        let r = replay_str(&sample_trace()).expect("replay");
        assert_eq!(r.cells.len(), 1);
        let cell = &r.cells[&("F".to_string(), "P".to_string())];
        assert_eq!(cell.queries.len(), 1);
        let q = &cell.queries[&0];
        assert_eq!(q.outcome, "done");
        let labels: Vec<&str> = q.ops.values().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["FreqSetup", "SeqScan(t)"]);
        assert_eq!(q.ops.values().filter_map(|o| o.units).sum::<f64>(), 4.25);
        assert_eq!(r.advisor_runs.len(), 1);
        let run = &r.advisor_runs[0];
        assert_eq!(
            (
                run.advisor.as_str(),
                run.candidates,
                run.rounds,
                run.whatif_calls
            ),
            ("R", 3, 1, 9)
        );
        assert_eq!(run.objective_final, Some(60.0));
    }

    /// Operators fold by (family, config, kind) — two P `SeqScan`s into
    /// one row — and a malformed line is reported, not dropped silently.
    #[test]
    fn summary_aggregates_operators_by_kind() {
        let trace = sample_trace()
            + concat!(
                r#"{"schema":"tab-trace-v1","event":"operator","family":"F","config":"P","query":1,"op":0,"label":"SeqScan(u)","est_cost":1.000,"est_rows":1.000,"rows_in":0,"rows_out":3,"probes":2,"units":0.750}"#,
                "\n",
                r#"{"schema":"tab-trace-v1","event":"query","family":"F","config":"P","query":1,"outcome":"timeout","units":500.000}"#,
                "\n",
                "garbage line\n",
            );
        let s = render_summary(&replay_str(&trace).expect("replay"));
        let row = |kind: &str| {
            s.lines()
                .find(|l| l.split_whitespace().nth(2) == Some(kind))
                .unwrap_or_else(|| panic!("no {kind} row:\n{s}"))
                .split_whitespace()
                .skip(3)
                .collect::<Vec<_>>()
        };
        assert_eq!(row("SeqScan"), ["2", "5.000", "8", "2"], "{s}");
        assert_eq!(row("FreqSetup"), ["1", "0.000", "0", "0"], "{s}");
        let cell = s.lines().nth(1).expect("cell row");
        assert_eq!(
            cell.split_whitespace().collect::<Vec<_>>(),
            ["F", "P", "2", "1", "3", "504.250"],
            "{s}"
        );
        assert!(s.contains("skipped 1 malformed line(s)"), "{s}");
    }

    #[test]
    fn torn_trace_refuses_to_replay() {
        let (whole, mut torn) = (sample_trace(), sample_trace());
        torn.truncate(torn.len() - 20); // cut mid-line, no trailing \n
        assert_eq!(replay_str(&torn), Err(ReplayError::Torn));
        // The comparison refuses it too, on either side.
        assert_eq!(line_diff(&whole, &torn), Err(ReplayError::Torn));
        assert_eq!(line_diff(&torn, &whole), Err(ReplayError::Torn));
    }

    /// A torn document is refused whatever its fragment holds, even a
    /// whole line that only lacks its newline, so the fragment is never
    /// parsed into a replay nor counted as skipped. Empty input is clean.
    #[test]
    fn torn_tail_is_flagged_and_fragment_not_parsed() {
        let whole = sample_trace();
        for torn in [
            format!("{whole}not json at all"),
            whole.trim_end().to_string(),
            "{\"schema\":\"tab-tra".to_string(),
        ] {
            assert_eq!(replay_str(&torn), Err(ReplayError::Torn), "{torn:?}");
        }
        assert_eq!(replay_str(""), Ok(Replay::default()));
    }

    /// A complete line that does not scan or lacks a field its event
    /// requires is counted and changes nothing, `page` lines included;
    /// an event replay does not model is read and ignored.
    #[test]
    fn malformed_lines_are_counted_not_dropped() {
        let clean = replay_str(&sample_trace()).expect("replay");
        let damage = [
            "not json at all",
            r#"{"schema":"tab-trace-v1","event":"query","family":"F","query":0,"outcome":"timeout"}"#,
            r#"{"schema":"tab-trace-v1","event":"operator","family":"F","config":"P","query":0,"op":"1","label":"X"}"#,
            r#"{"schema":"tab-trace-v1","event":"advisor_begin","advisor":"R","candidates":3}"#,
            r#"{"schema":"tab-trace-v1","event":"page","action":"hit","rel":1,"page":0,"frame":0}"#,
        ];
        for (i, line) in damage.iter().enumerate() {
            let r = replay_str(&format!("{}{line}\n\n", sample_trace())).expect("replay");
            assert_eq!(r.skipped, 1, "{line}");
            assert_eq!(
                Replay { skipped: 0, ..r },
                clean,
                "damage line {i} changed the replay"
            );
        }
        let ignored = concat!(
            r#"{"schema":"tab-trace-v1","event":"novel_event","k":1}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"page","action":"hit","rel":1,"page":0,"frame":0,"seq":0}"#,
            "\n",
        );
        let r = replay_str(&(sample_trace() + ignored)).expect("replay");
        assert_eq!(r, clean);
    }

    /// An event written through a trace sink replays field for field; a
    /// non-finite estimate renders `null` and replays as `None`.
    #[test]
    fn round_trips_writer_events() {
        use tab_storage::trace::{event, MemoryTraceSink, Num, Trace};
        let sink = MemoryTraceSink::new();
        Trace::to(&sink).emit(|| {
            event("operator")
                .str("family", "NREF2J")
                .str("config", "1C")
                .int("query", 3)
                .int("op", 1)
                .str("label", "IndexScan(\"protein\" cols=[2])")
                .token("est_cost", Num(f64::INFINITY))
                .token("est_rows", Num(12.5))
                .int("rows_in", 0)
                .int("rows_out", 42)
                .int("probes", 7)
                .token("units", Num(3.25))
        });
        let r = replay_str(&(sink.lines().join("\n") + "\n")).expect("replay");
        let want = ReplayedOp {
            label: "IndexScan(\"protein\" cols=[2])".into(),
            est_cost: None,
            rows_in: Some(0),
            rows_out: Some(42),
            probes: Some(7),
            units: Some(3.25),
        };
        let q = &r.cells[&("NREF2J".to_string(), "1C".to_string())].queries[&3];
        assert_eq!((r.skipped, q.ops.get(&1)), (0, Some(&want)));
    }

    /// The same labels in different slots are two differing lines, each
    /// naming its slot.
    #[test]
    fn shifted_slots_are_a_line_difference() {
        let at0 = concat!(
            r#"{"schema":"tab-trace-v1","event":"operator","family":"F","config":"P","query":0,"op":0,"label":"SeqScan(t)","units":1.000}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"query","family":"F","config":"P","query":0,"outcome":"done","units":1.000}"#,
            "\n",
        );
        let at1 = at0.replace("\"op\":0", "\"op\":1");
        let d = line_diff(at0, &at1).expect("whole documents");
        let op = at0.lines().next().unwrap();
        let moved = op.replace("\"op\":0", "\"op\":1");
        assert_eq!(d.to_string(), format!("- {op}\n+ {moved}\n"));
    }

    #[test]
    fn self_diff_is_empty_and_line_order_is_irrelevant() {
        let text = sample_trace();
        assert!(line_diff(&text, &text).expect("whole").is_empty());
        // Permute the grid lines (parallel workers interleave them
        // arbitrarily); span and advisor lines stay in order, as in a
        // real trace, where the harness thread emits them.
        let (mut lines, harness): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| !harness_line(l));
        lines.reverse();
        lines.extend(harness);
        let permuted = lines.join("\n") + "\n";
        assert_ne!(permuted, text);
        let d = line_diff(&text, &permuted).expect("whole");
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn perturbations_are_detected_and_named() {
        let text = sample_trace();
        let (op, round) = (text.lines().nth(2).unwrap(), text.lines().nth(5).unwrap());
        // The trace with `line`'s first `from` made `to`, and the diff.
        let edit = |line: &str, from: &str, to: &str| {
            let changed = line.replacen(from, to, 1);
            (
                text.replacen(line, &changed, 1),
                format!("- {line}\n+ {changed}\n"),
            )
        };
        for (fresh, want) in [
            // A different operator label; the lines name family, config,
            // query and op.
            edit(op, "SeqScan(t)", "IndexScan(t cols=[1])"),
            // A different advisor pick.
            edit(round, "\"candidate\":2", "\"candidate\":1"),
            // A re-rendered number, a duplicated line and a malformed
            // one: the lines must be the golden's byte for byte and as
            // many times each.
            edit(op, "\"units\":4.250}", "\"units\":4.2500}"),
            (format!("{text}{op}\n"), format!("+ {op}\n")),
            (format!("{text}not json\n"), "+ not json\n".into()),
        ] {
            let d = line_diff(&text, &fresh).expect("whole");
            assert_eq!(d.to_string(), want);
        }
        // Unit drift, at the operator and the query.
        let drift = text.replace("\"units\":4.250", "\"units\":5.000");
        let d = line_diff(&text, &drift).expect("whole");
        assert_eq!((d.golden_only.len(), d.fresh_only.len()), (2, 2), "{d}");
        // A missing trace (stale golden) fails, both directions.
        let d = line_diff(&text, "").expect("whole");
        assert_eq!((d.golden_only.len(), d.fresh_only.len()), (7, 0));
        let d = line_diff("", &text).expect("whole");
        assert_eq!((d.golden_only.len(), d.fresh_only.len()), (0, 7));
    }

    /// Two advisor runs swapped hold the same lines; only their order
    /// tells them apart.
    #[test]
    fn swapped_advisor_runs_are_an_order_difference() {
        let text = sample_trace();
        let run = |name: &str| -> String {
            let named = format!("\"advisor\":\"{name}\"");
            let lines = text.lines().filter(|l| l.contains("\"event\":\"advisor"));
            lines
                .map(|l| l.replace("\"advisor\":\"R\"", &named) + "\n")
                .collect()
        };
        let (a, b) = (run("A"), run("B"));
        let (golden, fresh) = (a.clone() + &b, b + &a);
        let d = line_diff(&golden, &fresh).expect("whole");
        let (first_a, first_b) = (
            golden.lines().next().unwrap(),
            fresh.lines().next().unwrap(),
        );
        assert_eq!(d.reordered, Some((0, first_a, first_b)), "{d}");
        assert_eq!(
            d.to_string(),
            format!("span/advisor line 1 leaves the golden's order:\n- {first_a}\n+ {first_b}\n")
        );
    }
}
