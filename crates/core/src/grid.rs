//! The experiment grid: every (family, configuration) cell of the
//! reproduction, executed as one flat pool of per-query jobs.
//!
//! The repro driver measures each sampled workload on several built
//! configurations. Cells vary enormously in cost — a configuration that
//! times out on most of its workload spends the full timeout budget per
//! query — so parallelizing cell-by-cell would leave threads idle behind
//! the slowest cell. Instead [`run_grid`] flattens the whole grid into
//! (cell, query) jobs and lets the dynamic scheduler in
//! [`tab_storage::par_map`] balance them; outcomes are reassembled per
//! cell in workload order, so every [`WorkloadRun`] is identical to what
//! the serial loop would have produced.
//!
//! Each cell also gets a [`CellTiming`]: real wall-clock spent on its
//! queries plus the modeled cost units the paper's analysis is based
//! on. [`timings_json`] renders those machine-readably for CI trend
//! tracking.

use std::collections::BTreeSet;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

use tab_engine::{ChargePolicy, ExecOpts, Outcome, PoolOpts, Session};
use tab_sqlq::Query;
use tab_storage::framed::json_escape;
use tab_storage::trace::{event, Num};
use tab_storage::{
    par_map_catch, BuiltConfiguration, Database, Faults, JobPanic, Pager, Parallelism, PoolStats,
    Trace,
};

use crate::checkpoint::{self, CheckpointJournal};
use crate::measure::WorkloadRun;

/// One (family, configuration) cell of the experiment grid, borrowed
/// from the driver that owns the databases and configurations.
pub struct GridCell<'a> {
    /// Family name, e.g. `NREF2J`.
    pub family: &'a str,
    /// Database the workload runs on.
    pub db: &'a Database,
    /// Built configuration to measure.
    pub built: &'a BuiltConfiguration,
    /// The sampled workload, in order.
    pub workload: &'a [Query],
    /// Timeout budget in cost units.
    pub timeout_units: f64,
    /// Intra-query worker threads for morsel-driven execution, *inside*
    /// each (cell, query) job — distinct from the grid-level `par`
    /// fan-out across jobs. Outcomes are identical at any setting.
    pub query_par: Parallelism,
    /// Rows per execution morsel (see [`tab_engine::exec`];
    /// [`tab_engine::DEFAULT_MORSEL_ROWS`] unless sweeping).
    pub morsel_rows: usize,
    /// Buffer-pool capacity in 8 KiB frames for each query of the cell
    /// (`0` = no pool, the legacy purely-modeled charge path). Each
    /// query gets a fresh pool, so eviction state never leaks between
    /// queries and outcomes stay order-independent.
    pub buffer_pages: usize,
    /// How the meter charges pool traffic; ignored when
    /// `buffer_pages == 0`. [`ChargePolicy::Metered`] keeps every cost
    /// total byte-identical to the pool-less path.
    pub charge: ChargePolicy,
    /// Spill-to-disk pager backing the pool's frames (optional; without
    /// one, evicted dirty pages are re-materialized from the in-memory
    /// heap on re-fetch and only the byte counters move).
    pub pager: Option<&'a Pager>,
}

/// Timing record for one executed grid cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Family name, e.g. `NREF2J`.
    pub family: String,
    /// Configuration display name, e.g. `NREF_P`.
    pub config: String,
    /// Queries in the cell.
    pub queries: usize,
    /// Queries that hit the timeout budget.
    pub timeouts: usize,
    /// Real wall-clock seconds summed over the cell's queries. Under a
    /// parallel run this is aggregate compute time, not elapsed time.
    pub wall_seconds: f64,
    /// Modeled cost units, timeouts charged at the budget (the §4.3
    /// lower bound).
    pub cost_units: f64,
}

/// One grid cell that failed because a job inside it panicked —
/// whether from an injected `panic:cell:<family>/<config>` fault or a
/// genuine bug.
#[derive(Debug)]
pub struct FailedCell {
    /// Family name of the failed cell.
    pub family: String,
    /// Configuration display name of the failed cell.
    pub config: String,
    /// The first captured panic from the cell's jobs.
    pub panic: JobPanic,
}

/// Why a checkpointed grid run could not produce a full result set.
#[derive(Debug)]
pub enum GridError {
    /// One or more cells had a panicking job. Every other cell ran to
    /// completion and — when a journal was attached — was checkpointed,
    /// so a `--resume` rerun only re-executes the failed cells.
    Poisoned {
        /// The failed cells, in grid order.
        failed: Vec<FailedCell>,
        /// Cells that completed (executed or replayed) this run.
        completed: usize,
    },
    /// The checkpoint journal itself could not be written; crash
    /// consistency is compromised even though the grid may have
    /// finished.
    Journal(io::Error),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Poisoned { failed, completed } => {
                write!(
                    f,
                    "{} grid cell(s) failed ({} completed and checkpointed):",
                    failed.len(),
                    completed
                )?;
                for cell in failed {
                    write!(
                        f,
                        " {}/{}: {};",
                        cell.family, cell.config, cell.panic.message
                    )?;
                }
                Ok(())
            }
            GridError::Journal(e) => write!(f, "checkpoint journal write failed: {e}"),
        }
    }
}

impl std::error::Error for GridError {}

/// Per-cell accumulator: jobs land out of order across worker threads,
/// so each cell collects its outcomes behind a mutex and assembles the
/// `(WorkloadRun, CellTiming)` pair when its last query completes —
/// which is the moment the cell is journaled, giving true mid-run crash
/// consistency rather than journal-at-the-end.
struct Slab {
    got: Vec<Option<(Outcome, f64, PoolStats)>>,
    filled: usize,
    done: Option<(WorkloadRun, CellTiming)>,
}

/// Execute every cell of the grid and return, per cell in input order,
/// the workload run and its timing — fault-aware and crash-consistent.
///
/// - **Trace**: one `query` event and a set of per-operator `operator`
///   events per (cell, query) job go to `trace`. Tracing is
///   observational only: the outcomes, timings, and every downstream
///   benchmark output are byte-identical to an untraced run. Parallel
///   workers interleave event lines, so every event carries the
///   `family`/`config`/`query` fields needed to regroup it.
/// - **Replay**: cells present in `journal` (matched by
///   `(family, config)` and query count) are *not* executed; their
///   journaled outcomes are returned bit-exactly. Replayed cells emit
///   no trace events — a resumed run's trace covers only the work it
///   actually performed.
/// - **Checkpoint**: each cell that completes all its queries is
///   recorded to `journal` immediately, via write-temp-then-rename.
/// - **Isolation**: a panicking job (injected via
///   `panic:cell:<family>/<config>`, or real) fails only its own cell;
///   sibling cells run to completion and are journaled. The failure
///   surfaces as [`GridError::Poisoned`].
///
/// The per-cell ordering of outcomes and the wall-clock summation order,
/// and therefore every downstream artifact, are identical at any thread
/// count.
pub fn run_grid(
    cells: &[GridCell<'_>],
    par: Parallelism,
    trace: Trace<'_>,
    faults: Faults<'_>,
    journal: Option<&CheckpointJournal>,
) -> Result<Vec<(WorkloadRun, CellTiming)>, GridError> {
    // Resolve replayed (and degenerate zero-query) cells up front.
    let mut resolved: Vec<Option<(WorkloadRun, CellTiming)>> = cells
        .iter()
        .map(|cell| {
            let config = cell.built.config.name.as_str();
            if let Some(j) = journal {
                if let Some(pair) = j.lookup(cell.family, config, cell.workload.len()) {
                    return Some(pair);
                }
            }
            if cell.workload.is_empty() {
                return Some(checkpoint::assemble(
                    cell.family,
                    config,
                    Vec::new(),
                    0.0,
                    PoolStats::default(),
                ));
            }
            None
        })
        .collect();

    let slabs: Vec<Mutex<Slab>> = cells
        .iter()
        .map(|cell| {
            Mutex::new(Slab {
                got: vec![None; cell.workload.len()],
                filled: 0,
                done: None,
            })
        })
        .collect();

    // Flatten the *missing* cells to (cell, query) jobs so the dynamic
    // scheduler balances across cells, exactly as before.
    let jobs: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .filter(|(c, _)| resolved[*c].is_none())
        .flat_map(|(c, cell)| (0..cell.workload.len()).map(move |q| (c, q)))
        .collect();

    let results = par_map_catch(par, &jobs, |&(c, q)| {
        let cell = &cells[c];
        if faults.is_enabled() {
            // Identity-matched site: fires for every job of the named
            // cell at any thread count, so the poisoned cell is
            // deterministic.
            faults.panic_if_armed(&format!("cell:{}/{}", cell.family, cell.built.config.name));
        }
        let (outcome, wall, io) = run_query(cell, q, trace, faults);
        let mut slab = slabs[c].lock().expect("cell slab poisoned");
        slab.got[q] = Some((outcome, wall, io));
        slab.filled += 1;
        if slab.filled == cell.workload.len() {
            // Last query in: assemble in workload order (deterministic
            // f64 summation) and checkpoint the finished cell.
            let outcomes: Vec<Outcome> = slab
                .got
                .iter()
                .map(|s| s.as_ref().expect("slab filled").0.clone())
                .collect();
            let wall_seconds: f64 = slab
                .got
                .iter()
                .map(|s| s.as_ref().expect("slab filled").1)
                .sum();
            let mut cell_io = PoolStats::default();
            for s in &slab.got {
                cell_io.merge(&s.as_ref().expect("slab filled").2);
            }
            let (run, timing) = checkpoint::assemble(
                cell.family,
                &cell.built.config.name,
                outcomes,
                wall_seconds,
                cell_io,
            );
            if let Some(j) = journal {
                j.record(cell.family, &run.config, &run, wall_seconds, faults);
            }
            slab.done = Some((run, timing));
        }
    });

    // Fold job verdicts back to cell verdicts.
    let mut poisoned: BTreeSet<usize> = BTreeSet::new();
    let mut failed: Vec<FailedCell> = Vec::new();
    for (r, &(c, _)) in results.into_iter().zip(&jobs) {
        if let Err(panic) = r {
            if poisoned.insert(c) {
                failed.push(FailedCell {
                    family: cells[c].family.to_string(),
                    config: cells[c].built.config.name.clone(),
                    panic,
                });
            }
        }
    }
    if !failed.is_empty() {
        let completed = resolved.iter().filter(|r| r.is_some()).count()
            + slabs
                .iter()
                .filter(|s| s.lock().expect("cell slab poisoned").done.is_some())
                .count();
        return Err(GridError::Poisoned { failed, completed });
    }
    if let Some(e) = journal.and_then(|j| j.io_error()) {
        return Err(GridError::Journal(e));
    }

    let mut out = Vec::with_capacity(cells.len());
    for (c, slot) in resolved.iter_mut().enumerate() {
        match slot.take() {
            Some(pair) => out.push(pair),
            None => out.push(
                slabs[c]
                    .lock()
                    .expect("cell slab poisoned")
                    .done
                    .take()
                    .expect("no failures, so every executed cell completed"),
            ),
        }
    }
    Ok(out)
}

/// Execute one (cell, query) job, optionally tracing it, under the
/// cell's morsel-driven [`ExecOpts`] with the
/// `panic:morsel:<family>/<config>` fault site armed inside the
/// executor's morsel workers.
fn run_query(
    cell: &GridCell<'_>,
    q: usize,
    trace: Trace<'_>,
    faults: Faults<'_>,
) -> (Outcome, f64, PoolStats) {
    // The site strings only exist when injection is on; the disabled
    // path must not pay a per-morsel format.
    let site = if faults.is_enabled() {
        Some(format!("morsel:{}/{}", cell.family, cell.built.config.name))
    } else {
        None
    };
    let evict_site = if faults.is_enabled() && cell.buffer_pages > 0 {
        Some(format!("evict:{}/{}", cell.family, cell.built.config.name))
    } else {
        None
    };
    let pool = (cell.buffer_pages > 0).then(|| {
        let mut p = PoolOpts::new(cell.buffer_pages);
        p.policy = cell.charge;
        p.pager = cell.pager;
        p.trace = trace;
        p.evict_site = evict_site.as_deref();
        p
    });
    let exec = ExecOpts {
        par: cell.query_par,
        morsel_rows: cell.morsel_rows,
        faults,
        fault_site: site.as_deref(),
        pool,
        ..ExecOpts::default()
    };
    let session = Session::new(cell.db, cell.built).with_exec(exec);
    let t0 = Instant::now();
    let result = session
        .run(&cell.workload[q], Some(cell.timeout_units))
        .expect("grid workloads bind against their databases");
    if trace.is_enabled() {
        let config = cell.built.config.name.as_str();
        let labels = result.plan.op_labels();
        for (op, label) in labels.iter().enumerate() {
            trace.emit(|| {
                let mut ev = event("operator")
                    .str("family", cell.family)
                    .str("config", config)
                    .int("query", q as u64)
                    .int("op", op as u64)
                    .str("label", label);
                if let Some(est) = result.plan.op_ests.get(op) {
                    ev = ev
                        .token("est_cost", Num(est.cost))
                        .token("est_rows", Num(est.rows));
                }
                if let Some(act) = result.ops.get(op) {
                    ev = ev
                        .int("rows_in", act.rows_in)
                        .int("rows_out", act.rows_out)
                        .int("probes", act.probes)
                        .token("units", Num(act.units));
                    // Pool-mode only: absent fields keep pool-less
                    // traces byte-identical to earlier versions.
                    if act.page_hits + act.page_misses > 0 {
                        ev = ev
                            .int("page_hits", act.page_hits)
                            .int("page_misses", act.page_misses);
                    }
                }
                ev
            });
        }
        trace.emit(|| {
            let (label, units) = match result.outcome {
                Outcome::Done { units, .. } => ("done", units),
                // A timeout is charged at the budget — the §4.3
                // lower bound the analysis uses.
                Outcome::Timeout { budget } => ("timeout", budget),
            };
            event("query")
                .str("family", cell.family)
                .str("config", config)
                .int("query", q as u64)
                .str("outcome", label)
                .token("units", Num(units))
        });
    }
    (result.outcome, t0.elapsed().as_secs_f64(), result.io)
}

/// Render cell timings as a `timings.json` document:
///
/// ```json
/// {
///   "threads": 4,
///   "total_wall_seconds": 12.3,
///   "cells": [ { "family": "NREF2J", "config": "NREF_P", ... }, ... ]
/// }
/// ```
pub fn timings_json(threads: usize, total_wall_seconds: f64, cells: &[CellTiming]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!(
        "  \"total_wall_seconds\": {total_wall_seconds:.3},\n"
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"config\": \"{}\", \"queries\": {}, \"timeouts\": {}, \"wall_seconds\": {:.6}, \"cost_units\": {:.3}}}{}\n",
            json_escape(&c.family),
            json_escape(&c.config),
            c.queries,
            c.timeouts,
            c.wall_seconds,
            c.cost_units,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One (family, configuration) cell's pool traffic, reported in
/// `BENCH_io.json`.
#[derive(Debug, Clone)]
pub struct IoBenchCell {
    /// Family name, e.g. `NREF2J`.
    pub family: String,
    /// Configuration display name, e.g. `NREF_P`.
    pub config: String,
    /// Pool traffic summed over the cell's completed queries.
    pub io: PoolStats,
}

/// Render per-cell buffer-pool traffic as a `BENCH_io.json` document.
///
/// Schema (`tab-io-bench-v1`):
///
/// ```json
/// {
///   "schema": "tab-io-bench-v1",
///   "mode": "pool",            // "pool" when buffer_pages > 0, else "compat"
///   "buffer_pages": 64,        // pool capacity in 8 KiB frames (0 = off)
///   "charge": "metered",       // ChargePolicy the run used
///   "cells": [
///     {"family": "NREF2J", "config": "NREF_P", "hits": 812, "misses_seq": 90,
///      "misses_random": 14, "evictions": 40, "spill_bytes_written": 327680,
///      "spill_bytes_read": 81920, "hit_rate": 0.886}
///   ]
/// }
/// ```
///
/// Unlike its `BENCH_*` siblings this document contains **no
/// wall-clock**: every field is a pure function of the logical access
/// stream, so determinism checks byte-compare it across thread counts
/// (like `BENCH_convergence.json`) rather than skipping it.
pub fn io_bench_json(buffer_pages: usize, charge: ChargePolicy, cells: &[IoBenchCell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tab-io-bench-v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if buffer_pages > 0 { "pool" } else { "compat" }
    ));
    s.push_str(&format!("  \"buffer_pages\": {buffer_pages},\n"));
    s.push_str(&format!("  \"charge\": \"{}\",\n", charge.name()));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"family\": \"{}\", \"config\": \"{}\", \"hits\": {}, \"misses_seq\": {}, \
             \"misses_random\": {}, \"evictions\": {}, \"spill_bytes_written\": {}, \
             \"spill_bytes_read\": {}, \"hit_rate\": {:.3}}}{}\n",
            json_escape(&c.family),
            json_escape(&c.config),
            c.io.hits,
            c.io.misses_seq,
            c.io.misses_random,
            c.io.evictions,
            c.io.spill_bytes_written,
            c.io.spill_bytes_read,
            c.io.hit_rate(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{build_1c, build_p};
    use crate::measure::run_workload;
    use tab_datagen::{generate_nref, NrefParams};
    use tab_engine::DEFAULT_MORSEL_ROWS;
    use tab_sqlq::parse;

    fn setup() -> (Database, Vec<Query>) {
        let db = generate_nref(NrefParams {
            proteins: 200,
            seed: 9,
        });
        let qs: Vec<Query> = (0..6)
            .map(|i| {
                parse(&format!(
                    "SELECT p.p_name, COUNT(*) FROM protein p \
                     WHERE p.last_updated = {i} GROUP BY p.p_name"
                ))
                .unwrap()
            })
            .collect();
        (db, qs)
    }

    #[test]
    fn grid_matches_per_cell_run_workload_at_any_thread_count() {
        let (db, qs) = setup();
        let p = build_p(&db, "NREF");
        let c1 = build_1c(&db, "NREF");
        let cells = [
            GridCell {
                family: "F1",
                db: &db,
                built: &p,
                workload: &qs,
                timeout_units: 500.0,
                query_par: Parallelism::new(2),
                morsel_rows: 64,
                buffer_pages: 0,
                charge: ChargePolicy::Observed,
                pager: None,
            },
            GridCell {
                family: "F1",
                db: &db,
                built: &c1,
                workload: &qs,
                timeout_units: 500.0,
                query_par: Parallelism::new(2),
                morsel_rows: 64,
                buffer_pages: 0,
                charge: ChargePolicy::Observed,
                pager: None,
            },
            GridCell {
                family: "F2",
                db: &db,
                built: &p,
                workload: &qs[..3],
                timeout_units: 10.0,
                query_par: Parallelism::new(2),
                morsel_rows: 64,
                buffer_pages: 0,
                charge: ChargePolicy::Observed,
                pager: None,
            },
        ];
        let seq = Parallelism::sequential();
        let serial: Vec<WorkloadRun> = cells
            .iter()
            .map(|c| run_workload(c.db, c.built, c.workload, c.timeout_units, seq))
            .collect();
        for threads in [1, 2, 4] {
            let grid = run_grid(
                &cells,
                Parallelism::new(threads),
                Trace::disabled(),
                Faults::disabled(),
                None,
            )
            .expect("clean grid");
            assert_eq!(grid.len(), serial.len());
            for ((run, timing), want) in grid.iter().zip(&serial) {
                assert_eq!(run.config, want.config);
                assert_eq!(run.outcomes.len(), want.outcomes.len());
                for (a, b) in run.outcomes.iter().zip(&want.outcomes) {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "threads={threads}");
                }
                assert_eq!(timing.queries, run.outcomes.len());
                assert_eq!(timing.timeouts, run.timeout_count());
                assert!(timing.wall_seconds >= 0.0);
                assert!(timing.cost_units > 0.0);
            }
        }
    }

    #[test]
    fn traced_grid_matches_untraced_and_emits_query_events() {
        let (db, qs) = setup();
        let p = build_p(&db, "NREF");
        let cells = [GridCell {
            family: "F1",
            db: &db,
            built: &p,
            workload: &qs,
            timeout_units: 500.0,
            query_par: Parallelism::sequential(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            buffer_pages: 0,
            charge: ChargePolicy::Observed,
            pager: None,
        }];
        let seq = Parallelism::sequential();
        let plain =
            run_grid(&cells, seq, Trace::disabled(), Faults::disabled(), None).expect("clean grid");
        let sink = tab_storage::MemoryTraceSink::new();
        let traced =
            run_grid(&cells, seq, Trace::to(&sink), Faults::disabled(), None).expect("clean grid");
        for ((a, ta), (b, tb)) in plain.iter().zip(&traced) {
            assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
            assert_eq!(ta.cost_units, tb.cost_units);
        }
        let lines = sink.lines();
        let queries: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"query\""))
            .collect();
        assert_eq!(queries.len(), qs.len());
        assert!(queries[0].contains("\"family\":\"F1\""));
        assert!(queries[0].contains("\"outcome\":\"done\""));
        // Each operator event carries both estimates and actuals.
        let op = lines
            .iter()
            .find(|l| l.contains("\"event\":\"operator\""))
            .expect("operator events");
        assert!(op.contains("\"est_cost\":"), "missing estimates: {op}");
        assert!(op.contains("\"units\":"), "missing actuals: {op}");
    }

    #[test]
    fn poisoned_cell_fails_alone_and_resume_completes_bit_exactly() {
        let (db, qs) = setup();
        let p = build_p(&db, "NREF");
        let c1 = build_1c(&db, "NREF");
        let cells = [
            GridCell {
                family: "F1",
                db: &db,
                built: &p,
                workload: &qs,
                timeout_units: 500.0,
                query_par: Parallelism::new(2),
                morsel_rows: 64,
                buffer_pages: 0,
                charge: ChargePolicy::Observed,
                pager: None,
            },
            GridCell {
                family: "F1",
                db: &db,
                built: &c1,
                workload: &qs,
                timeout_units: 500.0,
                query_par: Parallelism::new(2),
                morsel_rows: 64,
                buffer_pages: 0,
                charge: ChargePolicy::Observed,
                pager: None,
            },
            GridCell {
                family: "F2",
                db: &db,
                built: &p,
                workload: &qs[..3],
                timeout_units: 10.0,
                query_par: Parallelism::new(2),
                morsel_rows: 64,
                buffer_pages: 0,
                charge: ChargePolicy::Observed,
                pager: None,
            },
        ];
        let clean = run_grid(
            &cells,
            Parallelism::sequential(),
            Trace::disabled(),
            Faults::disabled(),
            None,
        )
        .expect("clean grid");

        let path = std::env::temp_dir().join(format!("tab_grid_ckpt_{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let plan = tab_storage::FaultPlan::parse("panic:cell:F1/NREF_1C").expect("spec");
        for threads in [1, 4] {
            // Crash: the poisoned cell fails, siblings are journaled.
            let journal = CheckpointJournal::open(&path, "t", false).expect("open journal");
            let err = run_grid(
                &cells,
                Parallelism::new(threads),
                Trace::disabled(),
                Faults::to(&plan),
                Some(&journal),
            )
            .expect_err("poisoned cell must fail the grid");
            match &err {
                GridError::Poisoned { failed, completed } => {
                    assert_eq!(failed.len(), 1, "threads={threads}");
                    assert_eq!(failed[0].family, "F1");
                    assert_eq!(failed[0].config, "NREF_1C");
                    assert!(failed[0].panic.message.contains("cell:F1/NREF_1C"));
                    assert_eq!(*completed, 2, "threads={threads}");
                }
                other => panic!("unexpected error: {other}"),
            }
            assert_eq!(journal.cells(), 2);

            // Resume: only the poisoned cell re-executes (faults now
            // disarmed), and the merged result matches a clean run
            // outcome-for-outcome.
            let journal = CheckpointJournal::open(&path, "t", true).expect("reopen");
            assert_eq!(journal.cells(), 2);
            let resumed = run_grid(
                &cells,
                Parallelism::new(threads),
                Trace::disabled(),
                Faults::disabled(),
                Some(&journal),
            )
            .expect("resume completes");
            assert_eq!(resumed.len(), clean.len());
            for ((run, timing), (want, _)) in resumed.iter().zip(&clean) {
                assert_eq!(run.config, want.config);
                assert_eq!(run.outcomes, want.outcomes, "threads={threads}");
                assert_eq!(timing.cost_units, want.total_lower_bound_units());
            }
            journal.finish().expect("journal removed after success");
            assert!(!path.exists());
        }
    }

    #[test]
    fn timings_json_shape() {
        let cells = vec![
            CellTiming {
                family: "NREF2J".into(),
                config: "NREF_P".into(),
                queries: 30,
                timeouts: 4,
                wall_seconds: 1.25,
                cost_units: 42.0,
            },
            CellTiming {
                family: "SkTH3J".into(),
                config: "SkTH_\"q\"".into(),
                queries: 30,
                timeouts: 0,
                wall_seconds: 0.5,
                cost_units: 7.0,
            },
        ];
        let j = timings_json(4, 3.0, &cells);
        assert!(j.contains("\"threads\": 4"));
        assert!(j.contains("\"total_wall_seconds\": 3.000"));
        assert!(j.contains("\"family\": \"NREF2J\""));
        assert!(j.contains("SkTH_\\\"q\\\""));
        // A comma between the two cell objects, none trailing.
        assert!(j.contains("},\n"));
        assert!(!j.contains("},\n  ]"));
    }
}
