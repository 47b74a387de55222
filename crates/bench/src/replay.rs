//! Trace replay and structural diff (`tab replay` / `tab tracediff`).
//!
//! A `tab-trace-v1` document from a traced grid run carries enough to
//! reconstruct what happened without re-executing anything: every
//! `operator` event names its (family, config, query, op) slot with
//! estimates and actuals, every `query` event its outcome and metered
//! units, and the advisor events a full round-by-round search history.
//! [`replay_str`] scans each line once with `framed::Fields` and folds
//! it straight back into that shape — a [`Replay`] of per-cell operator
//! trees plus advisor runs — and [`diff`] compares two replays
//! *structurally*. This is the only reader of `tab-trace-v1`.
//!
//! Structural, not byte-level: parallel grid workers interleave trace
//! lines nondeterministically, so two traces of the same commit are
//! line-permutations of each other. Every event carries its identifying
//! fields precisely so this module can aggregate order-independently
//! and compare the aggregates. The diff reports plan-shape changes
//! (operator label sequences), probe/row/unit drift beyond a relative
//! tolerance, outcome changes, and advisor divergences (round counts,
//! picks, gains) — each finding naming the (family, config, query, op)
//! or (advisor run, round) it anchors to. [`report_json`] renders the
//! findings as a machine-readable `tab-tracediff-v1` document; the CI
//! trace gate fails on any finding.
//!
//! A torn trace (the crash signature of `FileTraceSink` or an injected
//! `truncate:trace` fault) refuses to replay — [`ReplayError::Torn`] —
//! rather than silently half-replaying; DESIGN.md §10's fault matrix
//! exercises exactly this path.

use std::collections::BTreeMap;
use std::fmt;

use tab_storage::framed::{json_escape, Fields};
use tab_storage::trace::SCHEMA_PREFIX;

/// One reconstructed operator slot of an executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedOp {
    /// Operator label, e.g. `IndexScan(protein cols=[2])`.
    pub label: String,
    /// Planner-estimated cost.
    pub est_cost: Option<f64>,
    /// Planner-estimated output rows.
    pub(crate) est_rows: Option<f64>,
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

impl ReplayedQuery {
    /// The plan shape: operator labels in slot order.
    pub fn plan_shape(&self) -> Vec<&str> {
        self.ops.values().map(|o| o.label.as_str()).collect()
    }

    /// Sum of operator actual units (operators past a timeout cutoff
    /// contribute nothing, matching the live meter).
    pub fn op_units(&self) -> f64 {
        self.ops.values().filter_map(|o| o.units).sum()
    }
}

/// All queries of one (family, config) grid cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellReplay {
    /// Queries by workload index.
    pub queries: BTreeMap<u64, ReplayedQuery>,
}

impl CellReplay {
    /// Number of queries that timed out.
    pub fn timeouts(&self) -> u64 {
        self.queries
            .values()
            .filter(|q| q.outcome == "timeout")
            .count() as u64
    }

    /// Total units charged across the cell's queries.
    pub fn units(&self) -> f64 {
        self.queries.values().filter_map(|q| q.units).sum()
    }
}

/// One reconstructed advisor round.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedRound {
    /// Zero-based round index.
    pub round: u64,
    /// Picked candidate index.
    pub candidate: u64,
    /// Human-readable candidate description.
    pub(crate) desc: String,
    /// Estimated gain of the pick.
    pub gain: Option<f64>,
    /// Objective after the pick.
    pub objective_after: Option<f64>,
    /// What-if requests this round.
    pub whatif_calls: u64,
    /// Planner invocations this round.
    pub planner_calls: u64,
}

/// One reconstructed greedy search (an `advisor_begin` … `advisor_end`
/// block; the harness runs searches sequentially, so blocks never
/// interleave).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdvisorRun {
    /// Advisor name from the events.
    pub advisor: String,
    /// Candidate structures considered.
    pub candidates: u64,
    /// Objective value before the first round.
    pub(crate) initial_total: Option<f64>,
    /// Accepted rounds in order.
    pub rounds: Vec<ReplayedRound>,
    /// Final objective from `advisor_end`.
    pub(crate) objective_final: Option<f64>,
    /// Total what-if requests from `advisor_end`.
    pub whatif_calls: u64,
    /// Total planner invocations from `advisor_end`.
    pub planner_calls: u64,
}

/// A structurally reconstructed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Grid cells by (family, config).
    pub cells: BTreeMap<(String, String), CellReplay>,
    /// Advisor searches in begin order.
    pub advisor_runs: Vec<AdvisorRun>,
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
    if !input.is_empty() && !input.ends_with('\n') {
        return Err(ReplayError::Torn);
    }
    let mut r = Replay::default();
    // The currently open advisor block, if any. Advisor events are
    // emitted sequentially by the harness thread, so one slot suffices.
    let mut open: Option<AdvisorRun> = None;
    for line in input.lines().filter(|l| !l.is_empty()) {
        if fold_line(&mut r, &mut open, line).is_none() {
            r.skipped += 1;
        }
    }
    r.advisor_runs.extend(open);
    Ok(r)
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
                est_rows: f.f64("est_rows"),
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
            let round = ReplayedRound {
                round: f.u64("round")?,
                candidate: f.u64("candidate")?,
                desc: f.str("desc").unwrap_or_default(),
                gain: f.f64("gain"),
                objective_after: f.f64("objective_after"),
                whatif_calls: f.u64("whatif_calls").unwrap_or(0),
                planner_calls: f.u64("planner_calls").unwrap_or(0),
            };
            if let Some(run) = open {
                run.rounds.push(round);
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
                run.planner_calls = f.u64("planner_calls").unwrap_or(0);
                r.advisor_runs.push(run);
            }
        }
        // Page events are per-access detail under a keyed stream the
        // cell totals already summarize; replay checks their fields and
        // diffs stay at operator granularity.
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

/// Options for the structural diff.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative tolerance for float comparisons (units, gains,
    /// objectives, estimates): values `a`, `b` diverge when
    /// `|a − b| > tolerance × max(|a|, |b|, 1)`. Plan shapes, row and
    /// probe counts, outcomes, and advisor picks are always exact. The
    /// default is `0.0` — byte-faithful floats, which a same-machine
    /// rerun of a deterministic run satisfies; CI uses a small
    /// tolerance to absorb cross-libm rounding.
    pub tolerance: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { tolerance: 0.0 }
    }
}

/// One structural divergence between two replays, anchored to the
/// entity it names.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Divergence kind, e.g. `plan_shape`, `units`, `advisor_pick`.
    pub kind: String,
    /// Workload family (grid findings).
    pub family: Option<String>,
    /// Configuration name (grid findings).
    pub config: Option<String>,
    /// Query index (grid findings).
    pub query: Option<u64>,
    /// Operator slot (operator-level findings).
    pub op: Option<u64>,
    /// Advisor run index (advisor findings).
    pub(crate) advisor_run: Option<usize>,
    /// Advisor round index (advisor findings).
    pub round: Option<u64>,
    /// Human-readable golden-vs-fresh detail.
    pub detail: String,
}

impl Finding {
    fn grid(kind: &str, family: &str, config: &str, detail: String) -> Finding {
        Finding {
            kind: kind.into(),
            family: Some(family.into()),
            config: Some(config.into()),
            query: None,
            op: None,
            advisor_run: None,
            round: None,
            detail,
        }
    }

    fn query(kind: &str, family: &str, config: &str, query: u64, detail: String) -> Finding {
        Finding {
            query: Some(query),
            ..Finding::grid(kind, family, config, detail)
        }
    }

    fn op(kind: &str, family: &str, config: &str, query: u64, op: u64, detail: String) -> Finding {
        Finding {
            op: Some(op),
            ..Finding::query(kind, family, config, query, detail)
        }
    }

    fn advisor(kind: &str, run: usize, round: Option<u64>, detail: String) -> Finding {
        Finding {
            kind: kind.into(),
            family: None,
            config: None,
            query: None,
            op: None,
            advisor_run: Some(run),
            round,
            detail,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let (Some(fam), Some(cfg)) = (&self.family, &self.config) {
            write!(f, " {fam}/{cfg}")?;
            if let Some(q) = self.query {
                write!(f, " q{q}")?;
            }
            if let Some(op) = self.op {
                write!(f, " op{op}")?;
            }
        }
        if let Some(run) = self.advisor_run {
            write!(f, " advisor#{run}")?;
            if let Some(rd) = self.round {
                write!(f, " round{rd}")?;
            }
        }
        write!(f, ": {}", self.detail)
    }
}

/// Whether two optional floats diverge beyond the relative tolerance.
/// `None` (absent or non-finite in the trace) only matches `None`.
fn float_diverges(a: Option<f64>, b: Option<f64>, tol: f64) -> bool {
    match (a, b) {
        (None, None) => false,
        (Some(a), Some(b)) => (a - b).abs() > tol * a.abs().max(b.abs()).max(1.0),
        _ => true,
    }
}

/// Render an optional float for finding details.
fn show_f(v: Option<f64>) -> String {
    v.map_or_else(|| "absent".into(), |v| format!("{v:.3}"))
}

/// Render an optional integer for finding details.
fn show_u(v: Option<u64>) -> String {
    v.map_or_else(|| "absent".into(), |v| v.to_string())
}

/// Structurally diff two replays: `golden` is the committed reference,
/// `fresh` the run under test. Any returned finding is a regression the
/// trace gate fails on — including cells or advisor runs that exist on
/// only one side (a stale golden must fail loudly, pointing at the
/// regeneration recipe, never pass by accident).
pub fn diff(golden: &Replay, fresh: &Replay, opts: DiffOptions) -> Vec<Finding> {
    let tol = opts.tolerance;
    let mut out = Vec::new();

    let keys: std::collections::BTreeSet<_> =
        golden.cells.keys().chain(fresh.cells.keys()).collect();
    for key in keys {
        let (family, config) = key;
        match (golden.cells.get(key), fresh.cells.get(key)) {
            (Some(_), None) => out.push(Finding::grid(
                "missing_cell",
                family,
                config,
                "cell present in golden, absent in fresh".into(),
            )),
            (None, Some(_)) => out.push(Finding::grid(
                "extra_cell",
                family,
                config,
                "cell absent in golden, present in fresh".into(),
            )),
            (Some(g), Some(f)) => diff_cell(family, config, g, f, tol, &mut out),
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }

    let runs = golden.advisor_runs.len().max(fresh.advisor_runs.len());
    for i in 0..runs {
        match (golden.advisor_runs.get(i), fresh.advisor_runs.get(i)) {
            (Some(_), None) => out.push(Finding::advisor(
                "missing_advisor_run",
                i,
                None,
                "advisor run present in golden, absent in fresh".into(),
            )),
            (None, Some(_)) => out.push(Finding::advisor(
                "extra_advisor_run",
                i,
                None,
                "advisor run absent in golden, present in fresh".into(),
            )),
            (Some(g), Some(f)) => diff_advisor(i, g, f, tol, &mut out),
            (None, None) => {}
        }
    }
    out
}

/// Diff one shared (family, config) cell.
fn diff_cell(
    family: &str,
    config: &str,
    golden: &CellReplay,
    fresh: &CellReplay,
    tol: f64,
    out: &mut Vec<Finding>,
) {
    let keys: std::collections::BTreeSet<_> =
        golden.queries.keys().chain(fresh.queries.keys()).collect();
    for qi in keys {
        match (golden.queries.get(qi), fresh.queries.get(qi)) {
            (Some(_), None) => out.push(Finding::query(
                "missing_query",
                family,
                config,
                *qi,
                "query present in golden, absent in fresh".into(),
            )),
            (None, Some(_)) => out.push(Finding::query(
                "extra_query",
                family,
                config,
                *qi,
                "query absent in golden, present in fresh".into(),
            )),
            (Some(g), Some(f)) => diff_query(family, config, *qi, g, f, tol, out),
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
}

/// Diff one shared (cell, query) execution.
fn diff_query(
    family: &str,
    config: &str,
    qi: u64,
    golden: &ReplayedQuery,
    fresh: &ReplayedQuery,
    tol: f64,
    out: &mut Vec<Finding>,
) {
    if golden.outcome != fresh.outcome {
        out.push(Finding::query(
            "outcome",
            family,
            config,
            qi,
            format!("golden {:?}, fresh {:?}", golden.outcome, fresh.outcome),
        ));
    }
    if float_diverges(golden.units, fresh.units, tol) {
        out.push(Finding::query(
            "query_units",
            family,
            config,
            qi,
            format!(
                "golden {}, fresh {}",
                show_f(golden.units),
                show_f(fresh.units)
            ),
        ));
    }
    // Plan shape: the operator labels and the slots they sit in must
    // match exactly. A shape change subsumes per-op comparisons, so stop
    // here.
    let (gs, fs) = (golden.plan_shape(), fresh.plan_shape());
    if gs != fs || !golden.ops.keys().eq(fresh.ops.keys()) {
        let detail = if gs != fs {
            format!("golden [{}], fresh [{}]", gs.join(" | "), fs.join(" | "))
        } else {
            format!(
                "[{}] at golden slots {:?}, fresh slots {:?}",
                gs.join(" | "),
                golden.ops.keys().collect::<Vec<_>>(),
                fresh.ops.keys().collect::<Vec<_>>()
            )
        };
        out.push(Finding::query("plan_shape", family, config, qi, detail));
        return;
    }
    for (op, g) in &golden.ops {
        let f = &fresh.ops[op]; // same shape ⇒ same slots
        if g.rows_in != f.rows_in || g.rows_out != f.rows_out {
            out.push(Finding::op(
                "rows",
                family,
                config,
                qi,
                *op,
                format!(
                    "{}: rows_in golden {} fresh {}, rows_out golden {} fresh {}",
                    g.label,
                    show_u(g.rows_in),
                    show_u(f.rows_in),
                    show_u(g.rows_out),
                    show_u(f.rows_out)
                ),
            ));
        }
        if g.probes != f.probes {
            out.push(Finding::op(
                "probes",
                family,
                config,
                qi,
                *op,
                format!(
                    "{}: golden {}, fresh {}",
                    g.label,
                    show_u(g.probes),
                    show_u(f.probes)
                ),
            ));
        }
        if float_diverges(g.units, f.units, tol) {
            out.push(Finding::op(
                "op_units",
                family,
                config,
                qi,
                *op,
                format!(
                    "{}: golden {}, fresh {}",
                    g.label,
                    show_f(g.units),
                    show_f(f.units)
                ),
            ));
        }
        if float_diverges(g.est_cost, f.est_cost, tol)
            || float_diverges(g.est_rows, f.est_rows, tol)
        {
            out.push(Finding::op(
                "estimates",
                family,
                config,
                qi,
                *op,
                format!(
                    "{}: est_cost golden {} fresh {}, est_rows golden {} fresh {}",
                    g.label,
                    show_f(g.est_cost),
                    show_f(f.est_cost),
                    show_f(g.est_rows),
                    show_f(f.est_rows)
                ),
            ));
        }
    }
}

/// Diff one shared advisor run.
fn diff_advisor(
    i: usize,
    golden: &AdvisorRun,
    fresh: &AdvisorRun,
    tol: f64,
    out: &mut Vec<Finding>,
) {
    if golden.candidates != fresh.candidates {
        out.push(Finding::advisor(
            "advisor_candidates",
            i,
            None,
            format!("golden {}, fresh {}", golden.candidates, fresh.candidates),
        ));
    }
    if float_diverges(golden.initial_total, fresh.initial_total, tol) {
        out.push(Finding::advisor(
            "advisor_initial_objective",
            i,
            None,
            format!(
                "golden {}, fresh {}",
                show_f(golden.initial_total),
                show_f(fresh.initial_total)
            ),
        ));
    }
    if golden.rounds.len() != fresh.rounds.len() {
        out.push(Finding::advisor(
            "advisor_rounds",
            i,
            None,
            format!(
                "golden {} rounds, fresh {} rounds",
                golden.rounds.len(),
                fresh.rounds.len()
            ),
        ));
    }
    for (g, f) in golden.rounds.iter().zip(&fresh.rounds) {
        if g.candidate != f.candidate || g.desc != f.desc {
            out.push(Finding::advisor(
                "advisor_pick",
                i,
                Some(g.round),
                format!(
                    "golden #{} ({}), fresh #{} ({})",
                    g.candidate, g.desc, f.candidate, f.desc
                ),
            ));
            // A different pick makes the rest of this run incomparable.
            break;
        }
        if float_diverges(g.gain, f.gain, tol)
            || float_diverges(g.objective_after, f.objective_after, tol)
        {
            out.push(Finding::advisor(
                "advisor_gain",
                i,
                Some(g.round),
                format!(
                    "{}: gain golden {} fresh {}, objective golden {} fresh {}",
                    g.desc,
                    show_f(g.gain),
                    show_f(f.gain),
                    show_f(g.objective_after),
                    show_f(f.objective_after)
                ),
            ));
        }
        if g.whatif_calls != f.whatif_calls || g.planner_calls != f.planner_calls {
            out.push(Finding::advisor(
                "advisor_calls",
                i,
                Some(g.round),
                format!(
                    "whatif golden {} fresh {}, planner golden {} fresh {}",
                    g.whatif_calls, f.whatif_calls, g.planner_calls, f.planner_calls
                ),
            ));
        }
    }
    if float_diverges(golden.objective_final, fresh.objective_final, tol) {
        out.push(Finding::advisor(
            "advisor_final_objective",
            i,
            None,
            format!(
                "golden {}, fresh {}",
                show_f(golden.objective_final),
                show_f(fresh.objective_final)
            ),
        ));
    }
}

/// Render findings as a machine-readable `tab-tracediff-v1` document:
/// one JSON object with a `findings` array, `clean` verdict, and the
/// inputs it compared.
pub fn report_json(
    golden_name: &str,
    fresh_name: &str,
    tolerance: f64,
    findings: &[Finding],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tab-tracediff-v1\",\n");
    out.push_str(&format!(
        "  \"golden\": \"{}\",\n  \"fresh\": \"{}\",\n",
        json_escape(golden_name),
        json_escape(fresh_name)
    ));
    out.push_str(&format!("  \"tolerance\": {tolerance:e},\n"));
    out.push_str(&format!(
        "  \"clean\": {},\n  \"finding_count\": {},\n",
        findings.is_empty(),
        findings.len()
    ));
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"kind\": \"{}\"", json_escape(&f.kind)));
        if let Some(v) = &f.family {
            out.push_str(&format!(", \"family\": \"{}\"", json_escape(v)));
        }
        if let Some(v) = &f.config {
            out.push_str(&format!(", \"config\": \"{}\"", json_escape(v)));
        }
        if let Some(v) = f.query {
            out.push_str(&format!(", \"query\": {v}"));
        }
        if let Some(v) = f.op {
            out.push_str(&format!(", \"op\": {v}"));
        }
        if let Some(v) = f.advisor_run {
            out.push_str(&format!(", \"advisor_run\": {v}"));
        }
        if let Some(v) = f.round {
            out.push_str(&format!(", \"round\": {v}"));
        }
        out.push_str(&format!(", \"detail\": \"{}\"", json_escape(&f.detail)));
        out.push('}');
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
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
            cell.timeouts(),
            cell.units()
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
                run.rounds.len(),
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
        assert_eq!(q.plan_shape(), vec!["FreqSetup", "SeqScan(t)"]);
        assert!((q.op_units() - 4.25).abs() < 1e-9);
        assert_eq!(r.advisor_runs.len(), 1);
        let run = &r.advisor_runs[0];
        assert_eq!(run.advisor, "R");
        assert_eq!(run.rounds.len(), 1);
        assert_eq!(run.rounds[0].candidate, 2);
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
        let mut torn = sample_trace();
        torn.truncate(torn.len() - 20); // cut mid-line, no trailing \n
        assert_eq!(replay_str(&torn), Err(ReplayError::Torn));
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
                .token("est_cost", Num(12.5))
                .token("est_rows", Num(f64::INFINITY))
                .int("rows_in", 0)
                .int("rows_out", 42)
                .int("probes", 7)
                .token("units", Num(3.25))
        });
        let r = replay_str(&(sink.lines().join("\n") + "\n")).expect("replay");
        let want = ReplayedOp {
            label: "IndexScan(\"protein\" cols=[2])".into(),
            est_cost: Some(12.5),
            est_rows: None,
            rows_in: Some(0),
            rows_out: Some(42),
            probes: Some(7),
            units: Some(3.25),
        };
        let q = &r.cells[&("NREF2J".to_string(), "1C".to_string())].queries[&3];
        assert_eq!((r.skipped, q.ops.get(&1)), (0, Some(&want)));
    }

    /// The same labels in different slots are a plan-shape change, not a
    /// lookup of a slot the fresh side lacks.
    #[test]
    fn shifted_slots_are_a_plan_shape_finding() {
        let at0 = concat!(
            r#"{"schema":"tab-trace-v1","event":"operator","family":"F","config":"P","query":0,"op":0,"label":"SeqScan(t)","units":1.000}"#,
            "\n",
            r#"{"schema":"tab-trace-v1","event":"query","family":"F","config":"P","query":0,"outcome":"done","units":1.000}"#,
            "\n",
        );
        let at1 = at0.replace("\"op\":0", "\"op\":1");
        let (g, f) = (replay_str(at0).unwrap(), replay_str(&at1).unwrap());
        let fs = diff(&g, &f, DiffOptions::default());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!((fs[0].kind.as_str(), fs[0].query), ("plan_shape", Some(0)));
        assert!(fs[0].detail.contains("slots [0]"), "{}", fs[0]);
    }

    #[test]
    fn self_diff_is_empty_and_line_order_is_irrelevant() {
        let r = replay_str(&sample_trace()).expect("replay");
        assert!(diff(&r, &r, DiffOptions::default()).is_empty());
        // Permute the grid lines (parallel workers interleave them
        // arbitrarily); advisor blocks stay in order, as in a real
        // trace, where the harness emits them sequentially.
        let text = sample_trace();
        let (grid, advisor): (Vec<&str>, Vec<&str>) = text
            .lines()
            .partition(|l| !l.contains("\"event\":\"advisor"));
        let mut lines: Vec<&str> = grid;
        lines.reverse();
        lines.extend(advisor);
        let permuted = lines.join("\n") + "\n";
        let rp = replay_str(&permuted).expect("replay permuted");
        assert!(diff(&r, &rp, DiffOptions::default()).is_empty());
    }

    #[test]
    fn perturbations_are_detected_and_named() {
        let r = replay_str(&sample_trace()).expect("replay");

        // Plan-shape perturbation: a different operator label.
        let shape = sample_trace().replace("SeqScan(t)", "IndexScan(t cols=[1])");
        let rs = replay_str(&shape).expect("replay");
        let fs = diff(&r, &rs, DiffOptions::default());
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, "plan_shape");
        assert_eq!(fs[0].family.as_deref(), Some("F"));
        assert_eq!(fs[0].config.as_deref(), Some("P"));
        assert_eq!(fs[0].query, Some(0));
        assert!(fs[0].to_string().contains("F/P"), "{}", fs[0]);

        // Unit drift beyond tolerance, caught at op and query level.
        let units = sample_trace().replace("\"units\":4.250", "\"units\":5.000");
        let ru = replay_str(&units).expect("replay");
        let fu = diff(&r, &ru, DiffOptions { tolerance: 1e-6 });
        assert!(fu.iter().any(|f| f.kind == "op_units"), "{fu:?}");
        // ... while a generous tolerance absorbs it.
        assert!(diff(&r, &ru, DiffOptions { tolerance: 0.5 }).is_empty());

        // Advisor pick perturbation.
        let pick = sample_trace().replace("\"candidate\":2", "\"candidate\":1");
        let rp = replay_str(&pick).expect("replay");
        let fp = diff(&r, &rp, DiffOptions::default());
        assert!(fp.iter().any(|f| f.kind == "advisor_pick"), "{fp:?}");

        // A missing cell (stale golden) fails, both directions.
        let empty = Replay::default();
        assert!(diff(&r, &empty, DiffOptions::default())
            .iter()
            .any(|f| f.kind == "missing_cell"));
        assert!(diff(&empty, &r, DiffOptions::default())
            .iter()
            .any(|f| f.kind == "extra_cell"));
    }

    #[test]
    fn report_json_is_schema_tagged() {
        let r = replay_str(&sample_trace()).expect("replay");
        let shape = sample_trace().replace("SeqScan(t)", "HashJoin(x)");
        let rs = replay_str(&shape).expect("replay");
        let findings = diff(&r, &rs, DiffOptions::default());
        let doc = report_json("golden.jsonl", "fresh.jsonl", 0.0, &findings);
        assert!(doc.contains("\"schema\": \"tab-tracediff-v1\""), "{doc}");
        assert!(doc.contains("\"clean\": false"), "{doc}");
        assert!(doc.contains("\"kind\": \"plan_shape\""), "{doc}");
        assert!(doc.contains("\"family\": \"F\""), "{doc}");
        let clean = report_json("a", "b", 1e-6, &[]);
        assert!(clean.contains("\"clean\": true"), "{clean}");
    }
}
