//! The crash-consistency journal (`tab-checkpoint-v1`).
//!
//! A reproduction run's measurement grid is its expensive part: a cell
//! whose configuration times out on most queries spends the full
//! timeout budget per query, and the full-scale grid runs for the
//! better part of an hour. The journal turns the harness's determinism
//! guarantee into a *crash-consistency* one: every completed grid cell
//! is persisted as one JSONL entry, rewritten via
//! write-temp-then-rename ([`tab_storage::atomic_write`]) so the
//! journal on disk is always a consistent prefix of the run. A rerun
//! with `--resume` replays journaled cells byte-exactly — per-query
//! outcomes round-trip through `f64::to_bits`, so claims arithmetic,
//! CFC curves, and every CSV derived from a replayed cell are
//! identical to an uninterrupted run — and executes only the missing
//! cells.
//!
//! # Journal format (`tab-checkpoint-v1`)
//!
//! One JSON object per line. The first line is a header binding the
//! journal to the run's parameters (resuming under different
//! parameters would splice incompatible measurements):
//!
//! ```json
//! {"schema":"tab-checkpoint-v1","kind":"header","fingerprint":"seed=7;nref=400;..."}
//! ```
//!
//! Each completed cell appends one entry. Cells are keyed by
//! `(family, config)` — unique across a whole reproduction run — and
//! outcomes are encoded compactly with bit-exact floats:
//!
//! ```json
//! {"schema":"tab-checkpoint-v1","kind":"cell","family":"NREF2J","config":"NREF_P",
//!  "queries":8,"wall_bits":4612136378390124954,"outcomes":"d:4638387906509053952:12,t:4652007308841189376"}
//! ```
//!
//! `outcomes` is a comma-separated list in workload order:
//! `d:<units_bits>:<rows>` for a completed query,
//! `t:<budget_bits>` for a timeout. `wall_bits` preserves the cell's
//! measured wall-clock for `timings.json` (wall-clock is excluded from
//! determinism comparisons, but replaying the original measurement
//! keeps the record honest about where time was actually spent).
//!
//! Lines are written and scanned by `tab_storage::framed`, the codec
//! every line format shares. Unparseable lines are skipped on load (a
//! journal written by a non-atomic writer could have a torn tail after
//! a hard crash); the worst case is re-executing a cell that was in
//! fact complete, which is deterministic and therefore harmless.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tab_engine::Outcome;
use tab_storage::framed::{Fields, Line};
use tab_storage::{atomic_write, Faults, PoolStats};

use crate::grid::CellTiming;
use crate::measure::WorkloadRun;

/// The schema tag every journal line opens with, byte-for-byte.
const SCHEMA_PREFIX: &str = "{\"schema\":\"tab-checkpoint-v1\"";

/// Why a journal could not be opened for resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The journal exists but belongs to a different run configuration.
    Mismatch {
        /// Human-readable description of the disagreement.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Mismatch { message } => {
                write!(f, "checkpoint mismatch: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One journaled cell, as loaded from disk.
#[derive(Debug, Clone)]
struct JournaledCell {
    queries: usize,
    wall_seconds: f64,
    outcomes: Vec<Outcome>,
    io: PoolStats,
}

struct JournalState {
    /// Rendered lines (header first), rewritten wholesale on each
    /// record so the on-disk journal is always internally consistent.
    lines: Vec<String>,
    /// Completed cells by `(family, config)`.
    done: BTreeMap<(String, String), JournaledCell>,
    /// First write failure; surfaced by [`CheckpointJournal::io_error`].
    error: Option<io::Error>,
}

/// A crash-consistent journal of completed grid cells. Shared by
/// reference into the grid's worker threads; all mutation is behind an
/// internal mutex.
pub struct CheckpointJournal {
    path: PathBuf,
    state: Mutex<JournalState>,
}

impl CheckpointJournal {
    /// Open the journal at `path`.
    ///
    /// With `resume` set, an existing journal is loaded (its header
    /// fingerprint must equal `fingerprint`) and its cells become
    /// available to [`CheckpointJournal::lookup`]; a missing journal
    /// starts empty, making `--resume` of a never-started run a plain
    /// run. Without `resume`, any stale journal is discarded.
    pub fn open(
        path: impl AsRef<Path>,
        fingerprint: &str,
        resume: bool,
    ) -> Result<CheckpointJournal, CheckpointError> {
        let path = path.as_ref().to_path_buf();
        let mut state = JournalState {
            lines: vec![header_line(fingerprint)],
            done: BTreeMap::new(),
            error: None,
        };
        if resume {
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    let mut lines = text.lines();
                    let header = lines
                        .next()
                        .and_then(|l| Fields::scan(l, SCHEMA_PREFIX).ok());
                    match header.and_then(|h| h.str("fingerprint")) {
                        Some(fp) if fp == fingerprint => {}
                        Some(fp) => {
                            return Err(CheckpointError::Mismatch {
                                message: format!(
                                    "journal {} was written by a run with parameters `{fp}`, \
                                     this run has `{fingerprint}` — delete it or rerun without \
                                     --resume",
                                    path.display()
                                ),
                            })
                        }
                        None => {
                            return Err(CheckpointError::Mismatch {
                                message: format!(
                                    "journal {} has no tab-checkpoint-v1 header",
                                    path.display()
                                ),
                            })
                        }
                    }
                    for line in lines {
                        if let Some((key, cell)) = parse_cell(line) {
                            state.lines.push(line.to_string());
                            state.done.insert(key, cell);
                        }
                        // else: torn or foreign line — skip; the cell
                        // re-executes deterministically.
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(CheckpointError::Io(e)),
            }
        }
        Ok(CheckpointJournal {
            path,
            state: Mutex::new(state),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of journaled cells currently held.
    pub fn cells(&self) -> usize {
        self.state.lock().expect("journal poisoned").done.len()
    }

    /// Replay a journaled cell, if present and compatible (same query
    /// count — a guard against journals from differently-sampled
    /// workloads slipping past the fingerprint).
    pub fn lookup(
        &self,
        family: &str,
        config: &str,
        queries: usize,
    ) -> Option<(WorkloadRun, CellTiming)> {
        let state = self.state.lock().expect("journal poisoned");
        let cell = state
            .done
            .get(&(family.to_string(), config.to_string()))
            .filter(|c| c.queries == queries)?;
        Some(assemble(
            family,
            config,
            cell.outcomes.clone(),
            cell.wall_seconds,
            cell.io,
        ))
    }

    /// Journal one completed cell and rewrite the file atomically.
    /// Write failures (including an injected `enospc:checkpoint`) are
    /// stashed for the grid to surface as [`crate::GridError::Journal`]
    /// rather than panicking a worker mid-grid.
    pub fn record(
        &self,
        family: &str,
        config: &str,
        run: &WorkloadRun,
        wall_seconds: f64,
        faults: Faults<'_>,
    ) {
        let cell = JournaledCell {
            queries: run.outcomes.len(),
            wall_seconds,
            outcomes: run.outcomes.clone(),
            io: run.io,
        };
        let mut state = self.state.lock().expect("journal poisoned");
        state.lines.push(cell_line(family, config, &cell));
        state
            .done
            .insert((family.to_string(), config.to_string()), cell);
        let doc = state.lines.join("\n") + "\n";
        let result = faults
            .io("checkpoint")
            .and_then(|()| atomic_write(&self.path, doc.as_bytes()));
        if let Err(e) = result {
            state.error.get_or_insert(e);
        }
    }

    /// The first journal write failure, if any. Taking it clears it.
    pub(crate) fn io_error(&self) -> Option<io::Error> {
        self.state.lock().expect("journal poisoned").error.take()
    }

    /// Delete the journal — the run completed, there is nothing left
    /// to resume. A missing file is not an error.
    pub fn finish(&self) -> io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Rebuild the `(WorkloadRun, CellTiming)` pair exactly as the grid
/// assembles it for a freshly-executed cell, so replayed cells are
/// byte-identical downstream.
pub(crate) fn assemble(
    family: &str,
    config: &str,
    outcomes: Vec<Outcome>,
    wall_seconds: f64,
    io: PoolStats,
) -> (WorkloadRun, CellTiming) {
    let run = WorkloadRun {
        config: config.to_string(),
        outcomes,
        io,
    };
    let timing = CellTiming {
        family: family.to_string(),
        config: run.config.clone(),
        queries: run.outcomes.len(),
        timeouts: run.timeout_count(),
        wall_seconds,
        cost_units: run.total_lower_bound_units(),
    };
    (run, timing)
}

fn header_line(fingerprint: &str) -> String {
    Line::new(SCHEMA_PREFIX)
        .str("kind", "header")
        .str("fingerprint", fingerprint)
        .finish()
}

/// Render one `kind:cell` line. Floats go in as their `to_bits`
/// decimal, so a replayed cell is bit-identical.
fn cell_line(family: &str, config: &str, cell: &JournaledCell) -> String {
    let outcomes: Vec<String> = (cell.outcomes.iter())
        .map(|o| match o {
            Outcome::Done { units, rows } => format!("d:{}:{rows}", units.to_bits()),
            Outcome::Timeout { budget } => format!("t:{}", budget.to_bits()),
        })
        .collect();
    let line = Line::new(SCHEMA_PREFIX)
        .str("kind", "cell")
        .str("family", family)
        .str("config", config)
        .int("queries", cell.outcomes.len() as u64)
        .int("wall_bits", cell.wall_seconds.to_bits())
        .str("outcomes", &outcomes.join(","));
    // Pool traffic rides along only when a pool ran: pool-less journals
    // stay byte-identical to earlier versions, and older journals (no
    // `io` field) replay with zeroed stats.
    let io = &cell.io;
    if io.is_zero() {
        return line.finish();
    }
    let io = format!(
        "{},{},{},{},{},{}",
        io.hits,
        io.misses_seq,
        io.misses_random,
        io.evictions,
        io.spill_bytes_written,
        io.spill_bytes_read
    );
    line.str("io", &io).finish()
}

/// Parse one `kind:cell` line into its key and payload.
fn parse_cell(line: &str) -> Option<((String, String), JournaledCell)> {
    let f = Fields::scan(line, SCHEMA_PREFIX).ok()?;
    if f.str("kind")? != "cell" {
        return None;
    }
    let family = f.str("family")?;
    let config = f.str("config")?;
    let queries = f.u64("queries")? as usize;
    let wall_seconds = f64::from_bits(f.u64("wall_bits")?);
    let encoded = f.str("outcomes")?;
    // Not sized from `queries`: the count is file input, and the check
    // below already refuses a line whose count disagrees.
    let mut outcomes = Vec::new();
    for item in encoded.split(',').filter(|s| !s.is_empty()) {
        let mut parts = item.split(':');
        match parts.next()? {
            "d" => outcomes.push(Outcome::Done {
                units: f64::from_bits(parts.next()?.parse().ok()?),
                rows: parts.next()?.parse().ok()?,
            }),
            "t" => outcomes.push(Outcome::Timeout {
                budget: f64::from_bits(parts.next()?.parse().ok()?),
            }),
            _ => return None,
        }
    }
    if outcomes.len() != queries {
        return None; // torn mid-entry
    }
    // Optional pool-traffic field; absent in pool-less runs and in
    // journals written before the buffer pool existed.
    let io = match f.str("io") {
        None => PoolStats::default(),
        Some(enc) => {
            let n: Vec<u64> = enc
                .split(',')
                .map(|p| p.parse().ok())
                .collect::<Option<_>>()?;
            let [hits, misses_seq, misses_random, evictions, written, read] = n[..] else {
                return None;
            };
            PoolStats {
                hits,
                misses_seq,
                misses_random,
                evictions,
                spill_bytes_written: written,
                spill_bytes_read: read,
            }
        }
    };
    Some((
        (family, config),
        JournaledCell {
            queries,
            wall_seconds,
            outcomes,
            io,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_storage::FaultPlan;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tab_ckpt_{name}_{}.jsonl", std::process::id()))
    }

    fn sample_run() -> WorkloadRun {
        WorkloadRun {
            config: "NREF_P".into(),
            outcomes: vec![
                Outcome::Done {
                    units: 1.5000000000000002, // not representable in short decimal
                    rows: 12,
                },
                Outcome::Timeout { budget: 500.0 },
                Outcome::Done {
                    units: f64::MIN_POSITIVE,
                    rows: 0,
                },
            ],
            io: PoolStats::default(),
        }
    }

    #[test]
    fn pool_traffic_round_trips_and_zero_io_omits_the_field() {
        let path = tmp("io");
        let mut run = sample_run();
        run.io = PoolStats {
            hits: 10,
            misses_seq: 2,
            misses_random: 3,
            evictions: 1,
            spill_bytes_written: 8192,
            spill_bytes_read: 0,
        };
        {
            let j = CheckpointJournal::open(&path, "fp", false).expect("open");
            j.record("F", "POOL", &run, 0.5, Faults::disabled());
            j.record("F", "PLAIN", &sample_run(), 0.5, Faults::disabled());
        }
        let text = std::fs::read_to_string(&path).expect("read");
        let pool_line = text.lines().find(|l| l.contains("\"POOL\"")).expect("line");
        assert!(
            pool_line.contains("\"io\":\"10,2,3,1,8192,0\""),
            "{pool_line}"
        );
        let plain_line = text
            .lines()
            .find(|l| l.contains("\"PLAIN\""))
            .expect("line");
        assert!(!plain_line.contains("\"io\""), "{plain_line}");
        let j = CheckpointJournal::open(&path, "fp", true).expect("reopen");
        let (got, _) = j.lookup("F", "POOL", 3).expect("replay");
        assert_eq!(got.io, run.io);
        let (got, _) = j.lookup("F", "PLAIN", 3).expect("replay");
        assert!(got.io.is_zero());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cells_round_trip_bit_exactly() {
        let path = tmp("roundtrip");
        let run = sample_run();
        {
            let j = CheckpointJournal::open(&path, "fp=1", false).expect("open");
            j.record("NREF2J", "NREF_P", &run, 0.123456789, Faults::disabled());
            assert!(j.io_error().is_none());
        }
        let j = CheckpointJournal::open(&path, "fp=1", true).expect("reopen");
        assert_eq!(j.cells(), 1);
        let (got, timing) = j.lookup("NREF2J", "NREF_P", 3).expect("replay");
        assert_eq!(got.config, run.config);
        assert_eq!(got.outcomes, run.outcomes); // PartialEq on exact f64s
        assert_eq!(timing.timeouts, 1);
        assert_eq!(timing.wall_seconds, 0.123456789);
        // Wrong query count refuses to replay.
        assert!(j.lookup("NREF2J", "NREF_P", 4).is_none());
        assert!(j.lookup("NREF2J", "NREF_1C", 3).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_resume() {
        let path = tmp("fingerprint");
        {
            let j = CheckpointJournal::open(&path, "seed=7", false).expect("open");
            j.record("F", "C", &sample_run(), 0.0, Faults::disabled());
        }
        let err = match CheckpointJournal::open(&path, "seed=8", true) {
            Ok(_) => panic!("mismatched fingerprint must refuse to resume"),
            Err(e) => e,
        };
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        // Without --resume the stale journal is simply superseded.
        let j = CheckpointJournal::open(&path, "seed=8", false).expect("fresh open");
        assert_eq!(j.cells(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_lines_are_skipped() {
        let path = tmp("torn");
        {
            let j = CheckpointJournal::open(&path, "fp", false).expect("open");
            j.record("F", "A", &sample_run(), 1.0, Faults::disabled());
            j.record("F", "B", &sample_run(), 2.0, Faults::disabled());
        }
        // Simulate a crash-torn journal: chop the last line in half.
        let text = std::fs::read_to_string(&path).expect("read");
        let keep = text.len() - text.lines().last().expect("line").len() / 2 - 1;
        std::fs::write(&path, &text.as_bytes()[..keep]).expect("tear");
        let j = CheckpointJournal::open(&path, "fp", true).expect("resume over torn tail");
        assert_eq!(j.cells(), 1, "only the intact cell survives");
        assert!(j.lookup("F", "A", 3).is_some());
        assert!(j.lookup("F", "B", 3).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_absurd_query_count_is_skipped_not_allocated() {
        let path = tmp("absurd");
        {
            let j = CheckpointJournal::open(&path, "fp", false).expect("open");
            j.record("F", "A", &sample_run(), 1.0, Faults::disabled());
            j.record("F", "B", &sample_run(), 2.0, Faults::disabled());
        }
        let text = std::fs::read_to_string(&path).expect("read");
        let (good, bad) = text.trim_end().rsplit_once('\n').expect("two cells");
        let bad = bad.replace("\"queries\":3", "\"queries\":999999999999999999");
        std::fs::write(&path, format!("{good}\n{bad}\n")).expect("poison");
        let j = CheckpointJournal::open(&path, "fp", true).expect("resume over the bad line");
        assert_eq!(j.cells(), 1, "the bad cell re-executes");
        assert!(j.lookup("F", "A", 3).is_some());
        assert!(j.lookup("F", "B", 3).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_resumes_as_empty() {
        let path = tmp("missing");
        std::fs::remove_file(&path).ok();
        let j = CheckpointJournal::open(&path, "fp", true).expect("open missing");
        assert_eq!(j.cells(), 0);
        j.finish().expect("finish with nothing on disk");
    }

    /// Every line of the journal fixture an earlier build wrote
    /// re-renders to the same bytes: the codec moved no byte of
    /// `tab-checkpoint-v1`.
    #[test]
    fn fixture_lines_re_render_byte_identical() {
        let fixture = include_str!("../../../ci/fixtures/checkpoint_v1.jsonl");
        let mut lines = fixture.lines();
        let header = lines.next().expect("a header");
        let fingerprint = Fields::scan(header, SCHEMA_PREFIX)
            .ok()
            .and_then(|f| f.str("fingerprint"))
            .expect("the header scans");
        assert_eq!(header_line(&fingerprint), header);
        for line in lines {
            let ((family, config), cell) = parse_cell(line).expect("the fixture parses");
            assert_eq!(cell_line(&family, &config, &cell), line);
        }
    }

    /// Seeded cells with adversarial names round-trip through `record`,
    /// `open(resume)` and `lookup`; damaged or random journals resume to
    /// a typed error or fewer cells, never a panic. Restoring the old
    /// scanner rule (a quote ends a string unless the byte before it is
    /// a backslash) fails the round trip on names ending in `\`.
    #[test]
    fn seeded_cells_round_trip_and_damage_never_panics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let alphabet = [
            '"', ' ', '\\', ',', ':', '{', '}', '\n', '\t', '\u{1}', 'é', '漢',
        ];
        let mut rng = StdRng::seed_from_u64(60);
        let name = |rng: &mut StdRng| {
            let mut s: String = (0..rng.random_range(1usize..8))
                .map(|_| alphabet[rng.random_range(0..alphabet.len())])
                .collect();
            if rng.random_bool(0.25) {
                s.push('\\');
            }
            s
        };
        let path = tmp("seeded");
        let fingerprint = name(&mut rng);
        let mut cells = Vec::new();
        {
            let j = CheckpointJournal::open(&path, &fingerprint, false).expect("open");
            for i in 0..40 {
                let run = WorkloadRun {
                    config: String::new(),
                    outcomes: (0..rng.random_range(0usize..6))
                        .map(|_| match rng.random_bool(0.7) {
                            true => Outcome::Done {
                                units: rng.random::<f64>() * 1e4,
                                rows: rng.random_range(0u64..1000),
                            },
                            false => Outcome::Timeout {
                                budget: rng.random::<f64>() * 1e5,
                            },
                        })
                        .collect(),
                    io: PoolStats {
                        hits: rng.random_range(0u64..3),
                        ..PoolStats::default()
                    },
                };
                let key = (format!("{i}{}", name(&mut rng)), name(&mut rng));
                j.record(&key.0, &key.1, &run, rng.random(), Faults::disabled());
                cells.push((key, run));
            }
        }
        let j = CheckpointJournal::open(&path, &fingerprint, true).expect("resume");
        assert_eq!(j.cells(), cells.len());
        for ((family, config), run) in &cells {
            let (got, _) = j
                .lookup(family, config, run.outcomes.len())
                .unwrap_or_else(|| panic!("cell {family:?}/{config:?} did not replay"));
            assert_eq!(got.outcomes, run.outcomes);
            assert_eq!(got.io, run.io);
        }

        let journal = std::fs::read(&path).expect("read");
        for case in 0..300 {
            let mut bytes = journal.clone();
            if rng.random_bool(0.9) {
                let i = rng.random_range(0..bytes.len());
                bytes[i] ^= 1 << rng.random_range(0u32..8);
                if rng.random_bool(0.5) {
                    bytes.truncate(rng.random_range(0..bytes.len()));
                }
            } else {
                bytes = (0..rng.random_range(0usize..200))
                    .map(|_| rng.random::<u64>() as u8)
                    .collect();
            }
            std::fs::write(&path, &bytes).expect("write");
            match CheckpointJournal::open(&path, &fingerprint, true) {
                Ok(j) => assert!(j.cells() <= cells.len(), "case {case}"),
                Err(CheckpointError::Io(_) | CheckpointError::Mismatch { .. }) => {}
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_checkpoint_enospc_is_stashed_not_raised() {
        let path = tmp("enospc");
        let plan = FaultPlan::parse("enospc:checkpoint").expect("spec");
        let j = CheckpointJournal::open(&path, "fp", false).expect("open");
        j.record("F", "A", &sample_run(), 1.0, Faults::to(&plan));
        let e = j.io_error().expect("stashed error");
        assert!(e.to_string().contains("checkpoint"), "{e}");
        assert!(j.io_error().is_none(), "taking clears it");
        std::fs::remove_file(&path).ok();
    }
}
