//! Structured JSONL tracing (`tab-trace-v1`).
//!
//! Every layer of the stack — executor, planner, advisor, harness — can
//! emit structured events through a [`Trace`] handle. The handle is a
//! `Copy` wrapper around an optional [`TraceSink`] reference, and every
//! emission site passes a *closure* that builds the event, so a disabled
//! trace costs one branch per site and never formats anything:
//!
//! ```
//! use tab_storage::trace::{event, MemoryTraceSink, Num, Trace};
//!
//! let sink = MemoryTraceSink::new();
//! let trace = Trace::to(&sink);
//! trace.emit(|| {
//!     event("query")
//!         .str("family", "NREF2J")
//!         .int("rows", 42)
//!         .token("units", Num(1.5))
//! });
//! assert_eq!(
//!     sink.lines()[0],
//!     r#"{"schema":"tab-trace-v1","event":"query","family":"NREF2J","rows":42,"units":1.500}"#
//! );
//!
//! // Disabled: the closure is never called.
//! Trace::disabled().emit(|| unreachable!());
//! ```
//!
//! # Determinism contract
//!
//! Traces are **observational only**: no event may feed back into cost
//! accounting, planning, or any other benchmark output. A run with a
//! trace attached must produce byte-identical results to one without
//! (`tests/observability.rs` enforces this for the repro harness).
//! Events carry no wall-clock timestamps for the same reason — a trace
//! of a deterministic run is itself deterministic up to line order
//! (parallel workers interleave lines; every event therefore carries the
//! identifying fields needed to aggregate it order-independently).
//!
//! # Event schema (`tab-trace-v1`)
//!
//! One JSON object per line, always with `"schema":"tab-trace-v1"` and
//! an `"event"` tag, written through [`crate::framed`], the codec every
//! line format shares. Numbers are the trace's own [`Num`] rendering.
//! The benchmark emits these event kinds:
//!
//! | event | emitted by | key fields |
//! |-------|------------|-----------|
//! | `span_begin` / `span_end` | harness sections | `span` |
//! | `query` | traced grid runs | `family`, `config`, `query`, `outcome`, `units` |
//! | `operator` | traced grid runs | `family`, `config`, `query`, `op`, `label`, `est_cost`, `units`, `rows_out`, `probes` |
//! | `page` | buffer pool (pool mode only) | `action` (`hit`/`miss`/`evict`), `rel`, `page`, `frame`, `seq` |
//! | `advisor_begin` / `advisor_round` / `advisor_stop` / `advisor_end` | greedy search | `candidates`, `gain`, `density`, `cache_hits` |
//!
//! This module lives in `tab-storage` (the root of the crate graph) so
//! the engine and advisor can emit events; `tab-core` re-exports it as
//! the public surface the harness and CLI use.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fault::{tmp_path, FaultPlan, TraceFault};
use crate::framed::Line;

/// A destination for trace lines. Implementations must be cheap to call
/// and safe to share across the parallel harness's worker threads.
pub trait TraceSink: Send + Sync {
    /// Write one complete JSONL event line (no trailing newline).
    fn emit(&self, line: &str);
}

/// A zero-cost-when-disabled tracing handle: either a reference to a
/// shared [`TraceSink`] or nothing. `Copy`, so it threads through call
/// stacks and `par_map` closures without lifetime gymnastics.
#[derive(Clone, Copy, Default)]
pub struct Trace<'a> {
    sink: Option<&'a dyn TraceSink>,
}

impl fmt::Debug for Trace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl<'a> Trace<'a> {
    /// The no-op trace: every emission is a single branch.
    pub fn disabled() -> Self {
        Trace { sink: None }
    }

    /// A trace writing to `sink`.
    pub fn to(sink: &'a dyn TraceSink) -> Self {
        Trace { sink: Some(sink) }
    }

    /// Whether events will actually be written. Use to skip expensive
    /// *collection* (not just formatting) when tracing is off.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit the event built by `build`. The closure runs only when the
    /// trace is enabled, so emission sites pay nothing when disabled.
    pub fn emit(&self, build: impl FnOnce() -> Line) {
        if let Some(sink) = self.sink {
            sink.emit(&build().finish());
        }
    }

    /// Emit a `span_begin` event for a named harness section.
    pub fn span_begin(&self, span: &str) {
        self.emit(|| event("span_begin").str("span", span));
    }

    /// Emit a `span_end` event closing a named harness section.
    pub fn span_end(&self, span: &str) {
        self.emit(|| event("span_end").str("span", span));
    }
}

/// The schema tag every `tab-trace-v1` line opens with, byte-for-byte.
pub const SCHEMA_PREFIX: &str = "{\"schema\":\"tab-trace-v1\"";

/// Start a `tab-trace-v1` event line with its `"event"` tag. Add fields
/// through the [`Line`] writer, numbers as [`Num`] tokens.
pub fn event(tag: &str) -> Line {
    Line::new(SCHEMA_PREFIX).str("event", tag)
}

/// A trace number: rendered with three decimals, or as `null` when not
/// finite (a what-if cost can be `inf`) so the line stays valid JSON.
#[derive(Debug, Clone, Copy)]
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{:.3}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A sink appending lines to a file through a buffered writer. Lines
/// from concurrent workers are serialized by a mutex, so each line lands
/// intact (order across workers is unspecified).
///
/// The sink is crash-consistent: lines stream into the staging file
/// `<path>.tmp`, and [`FileTraceSink::finish`] renames it to the final
/// path only once the run completes, so a killed run never leaves a
/// half-written trace where a reader expects a complete one. Write
/// failures (real or injected via a [`FaultPlan`] arm at site `trace`)
/// never abort the run being observed — the sink goes silent and
/// records the failure for [`FileTraceSink::error`] to report.
pub struct FileTraceSink {
    w: Mutex<BufWriter<File>>,
    path: PathBuf,
    fault: Option<TraceFault>,
    lines: AtomicU64,
    error: Mutex<Option<String>>,
}

impl FileTraceSink {
    /// Create the sink, truncating any previous staging file. The
    /// final path is only written by [`FileTraceSink::finish`].
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(FileTraceSink {
            w: Mutex::new(BufWriter::new(File::create(tmp_path(path))?)),
            path: path.to_path_buf(),
            fault: None,
            lines: AtomicU64::new(0),
            error: Mutex::new(None),
        })
    }

    /// [`FileTraceSink::create`] with the plan's trace faults armed: a
    /// simulated ENOSPC (`enospc:trace`) or a torn tail (`truncate:trace`).
    pub fn create_with_faults(path: &Path, plan: &FaultPlan) -> std::io::Result<Self> {
        let mut sink = Self::create(path)?;
        sink.fault = plan.trace_fault();
        Ok(sink)
    }

    /// The first write failure, if the sink has gone silent. A failed
    /// trace is a missing artifact the harness reports at exit.
    pub fn error(&self) -> Option<String> {
        self.error
            .lock()
            .expect("trace error slot poisoned")
            .clone()
    }

    fn record_error(&self, msg: String) {
        let mut slot = self.error.lock().expect("trace error slot poisoned");
        slot.get_or_insert(msg);
    }

    /// Flush and publish the staged trace at its final path. If the
    /// sink failed mid-run the partial bytes stay at `<path>.tmp` (the
    /// final path never holds a torn artifact) and the recorded error
    /// is returned.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        if let Some(msg) = self.error() {
            let mut w = self.w.lock().expect("trace writer poisoned");
            let _ = w.flush();
            return Err(std::io::Error::other(msg));
        }
        {
            let mut w = self.w.lock().expect("trace writer poisoned");
            w.flush()?;
        }
        std::fs::rename(tmp_path(&self.path), &self.path)?;
        Ok(self.path)
    }
}

impl TraceSink for FileTraceSink {
    fn emit(&self, line: &str) {
        // Trace output is best-effort diagnostics: a full disk (real or
        // injected) must not abort the benchmark run it is observing.
        let mut w = self.w.lock().expect("trace writer poisoned");
        if self.error().is_some() {
            return; // already failed — stay silent
        }
        if let Some(fault) = self.fault {
            // The line counter lives under the writer lock, so exactly
            // `after_lines` complete lines precede the failure.
            let n = self.lines.fetch_add(1, Ordering::Relaxed);
            if n >= fault.after_lines {
                if fault.torn && n == fault.after_lines {
                    // A crash's torn tail: half a line, no newline.
                    let _ = w.write_all(line.as_bytes()[..line.len() / 2].as_ref());
                    let _ = w.flush();
                }
                self.record_error(format!(
                    "trace sink failed after {} lines ({})",
                    fault.after_lines,
                    if fault.torn {
                        "injected torn write"
                    } else {
                        "injected ENOSPC"
                    }
                ));
                return;
            }
        }
        if let Err(e) = writeln!(w, "{line}") {
            self.record_error(format!("trace write failed: {e}"));
        }
    }
}

/// A sink collecting lines in memory, for tests and the CLI.
#[derive(Debug, Default)]
pub struct MemoryTraceSink {
    lines: Mutex<Vec<String>>,
}

impl MemoryTraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lines emitted so far, in arrival order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("trace buffer poisoned").clone()
    }
}

impl TraceSink for MemoryTraceSink {
    fn emit(&self, line: &str) {
        self.lines
            .lock()
            .expect("trace buffer poisoned")
            .push(line.to_string());
    }
}

const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Trace<'static>>();
    _assert_send_sync::<FileTraceSink>();
    _assert_send_sync::<MemoryTraceSink>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_never_builds_the_event() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        trace.emit(|| panic!("must not be called"));
    }

    #[test]
    fn events_are_schema_tagged_flat_json() {
        let sink = MemoryTraceSink::new();
        let trace = Trace::to(&sink);
        trace.emit(|| {
            event("operator")
                .str("label", "SeqScan(\"t\")")
                .int("rows_out", 7)
                .token("units", Num(1.25))
                .token("bad", Num(f64::INFINITY))
        });
        trace.span_begin("grid");
        trace.span_end("grid");
        let lines = sink.lines();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"schema\":\"tab-trace-v1\",\"event\":\"operator\",\
             \"label\":\"SeqScan(\\\"t\\\")\",\"rows_out\":7,\
             \"units\":1.250,\"bad\":null}"
        );
        assert!(lines[1].contains("\"event\":\"span_begin\""));
        assert!(lines[2].contains("\"span\":\"grid\""));
    }

    #[test]
    fn escape_covers_controls() {
        let line = event("e").str("s", "a\"b\\c\nd\u{1}").finish();
        assert!(line.ends_with(r#","s":"a\"b\\c\nd\u0001"}"#), "{line}");
    }

    #[test]
    fn file_sink_stages_then_publishes_atomically() {
        let dir = std::env::temp_dir().join(format!("tab_trace_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let sink = FileTraceSink::create(&path).expect("create");
        Trace::to(&sink).span_begin("grid");
        // Mid-run the final path does not exist — only the staging file.
        assert!(!path.exists(), "final path must not appear mid-run");
        assert!(tmp_path(&path).exists());
        let published = sink.finish().expect("finish");
        assert_eq!(published, path);
        assert!(path.exists() && !tmp_path(&path).exists());
        let text = std::fs::read_to_string(&path).expect("read trace");
        assert!(text.contains("\"event\":\"span_begin\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_trace_faults_tear_then_silence_without_aborting() {
        let dir = std::env::temp_dir().join(format!("tab_trace_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let plan = FaultPlan::parse("truncate:trace:2").expect("spec");
        let sink = FileTraceSink::create_with_faults(&path, &plan).expect("create");
        let trace = Trace::to(&sink);
        for i in 0..5 {
            trace.emit(|| event("query").int("query", i));
        }
        let err = sink.error().expect("sink records its failure");
        assert!(err.contains("after 2 lines"), "{err}");
        // finish() refuses to publish the torn trace; the partial bytes
        // stay at the staging path for post-mortem.
        let fin = sink.finish().expect_err("torn trace must not publish");
        assert!(fin.to_string().contains("after 2 lines"), "{fin}");
        assert!(!path.exists(), "torn trace must not reach the final path");
        let torn = std::fs::read_to_string(tmp_path(&path)).expect("staging bytes");
        // Exactly two complete lines, then a torn fragment.
        let complete = torn.lines().filter(|l| l.ends_with('}')).count();
        assert_eq!(complete, 2, "torn tail: {torn:?}");
        assert!(!torn.ends_with('\n'), "tail must be torn: {torn:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
