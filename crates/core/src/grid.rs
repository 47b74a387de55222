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
//!
//! The executor is deterministic, so running a plan a second time over
//! the same data under the same budget measures nothing new. Within one
//! [`run_grid`] call every job is planned first and looked up by its
//! [`ExecKey`]; the first job with a key executes the plan and the rest
//! copy its outcome and actuals. P, 1C and R of one family often choose
//! the same plan, so this skips about a third of the grid's jobs.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use tab_engine::{ExecKey, OpActuals, Outcome, RunResult, Session};
use tab_sqlq::Query;
use tab_storage::framed::json_escape;
use tab_storage::trace::{event, Num};
use tab_storage::{
    par_map_catch, BuiltConfiguration, Database, Faults, JobPanic, PoolStats, Trace,
};

use crate::experiment::BenchSpec;
use crate::measure::WorkloadRun;

/// One (family, configuration) cell of the experiment grid, borrowed
/// from the driver that owns the databases and configurations. What is
/// the same for every cell (timeout, threads, morsels, pool) comes from
/// the [`BenchSpec`] the grid runs under.
pub struct GridCell<'a> {
    /// Family name, e.g. `NREF2J`.
    pub family: &'a str,
    /// Database the workload runs on.
    pub db: &'a Database,
    /// Built configuration to measure.
    pub built: &'a BuiltConfiguration,
    /// The sampled workload, in order.
    pub workload: &'a [Query],
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
    /// Queries whose execution key an earlier job in grid order also
    /// holds: they copied that job's execution instead of running the
    /// plan again. Zero for every cell when the memo is off (a buffer
    /// pool, or fault injection).
    pub reused: usize,
    /// Real wall-clock seconds summed over the cell's queries. Under a
    /// parallel run this is aggregate compute time, not elapsed time; a
    /// reused query's share is its planning and lookup, not an
    /// execution.
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

/// Why a grid run could not produce a full result set.
#[derive(Debug)]
pub enum GridError {
    /// One or more cells had a panicking job. Every other cell ran to
    /// completion; a rerun executes the whole grid again.
    Poisoned {
        /// The failed cells, in grid order.
        failed: Vec<FailedCell>,
        /// Cells that completed this run.
        completed: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Poisoned { failed, completed } => {
                write!(
                    f,
                    "{} grid cell(s) failed ({} completed):",
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
        }
    }
}

impl std::error::Error for GridError {}

/// What one execution leaves for later jobs with the same key. Rows are
/// not kept: the grid drops them.
struct Executed {
    outcome: Outcome,
    ops: Vec<OpActuals>,
    io: PoolStats,
}

impl From<RunResult> for Executed {
    fn from(r: RunResult) -> Self {
        Executed {
            outcome: r.outcome,
            ops: r.ops,
            io: r.io,
        }
    }
}

/// The plan memo of one [`run_grid`] call: one slot per execution key,
/// numbered in the order keys arrive. A job that finds its slot being
/// filled waits for it rather than running the plan again.
#[derive(Default)]
struct Memo(Mutex<HashMap<ExecKey, (usize, Slot)>>);

/// One execution, filled by the first job that needs it.
type Slot = Arc<OnceLock<Executed>>;

impl Memo {
    fn slot(&self, key: ExecKey) -> (usize, Slot) {
        let mut slots = self.0.lock().expect("plan memo poisoned");
        let n = slots.len();
        let (id, slot) = slots.entry(key).or_insert_with(|| (n, Arc::default()));
        (*id, Arc::clone(slot))
    }
}

/// Per-cell accumulator: jobs land out of order across worker threads,
/// so each cell collects its outcomes behind a mutex and assembles the
/// `(WorkloadRun, CellTiming)` pair when its last query completes.
struct Slab {
    got: Vec<Option<(Outcome, f64, PoolStats)>>,
    filled: usize,
    done: Option<(WorkloadRun, CellTiming)>,
}

/// Execute every cell of the grid and return, per cell in input order,
/// the workload run and its timing — fault-aware and panic-isolated.
///
/// - **Trace**: one `query` event and a set of per-operator `operator`
///   events per (cell, query) job go to `trace`. Tracing is
///   observational only: the outcomes, timings, and every downstream
///   benchmark output are byte-identical to an untraced run. Parallel
///   workers interleave event lines, so every event carries the
///   `family`/`config`/`query` fields needed to regroup it.
/// - **Isolation**: a panicking job (injected via
///   `panic:cell:<family>/<config>`, or real) fails only its own cell;
///   sibling cells run to completion. The failure surfaces as
///   [`GridError::Poisoned`], and nothing is kept for a rerun.
/// - **Reuse**: a job whose [`ExecKey`] another job already executed
///   (or is executing: it waits) copies that execution's outcome,
///   actuals and pool traffic, and still
///   emits its own trace events with its own plan's estimates. The memo
///   is off when `spec.buffer_pages > 0` (pool state makes units depend
///   on history) and when `faults` is enabled (every cell's `morsel:`
///   and `evict:` sites must fire). [`CellTiming::reused`] counts the
///   cell's jobs whose key an earlier job *in grid order* holds, so it
///   does not depend on which worker ran first.
///
/// Jobs fan out over `spec.threads`; each query runs under
/// [`BenchSpec::exec_opts`] with `spec.timeout_units` as its budget. The
/// per-cell ordering of outcomes and the wall-clock summation order,
/// and therefore every downstream artifact, are identical at any thread
/// count. Every cell's configuration must have been built over the
/// cell's database.
pub fn run_grid(
    spec: &BenchSpec,
    cells: &[GridCell<'_>],
    trace: Trace<'_>,
    faults: Faults<'_>,
) -> Result<Vec<(WorkloadRun, CellTiming)>, GridError> {
    // A zero-query cell has no job to complete it: resolve it up front.
    let mut resolved: Vec<Option<(WorkloadRun, CellTiming)>> = cells
        .iter()
        .map(|cell| {
            cell.workload.is_empty().then(|| {
                let config = &cell.built.config.name;
                assemble(cell.family, config, Vec::new(), 0.0, PoolStats::default())
            })
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

    // Flatten the grid to (cell, query) jobs so the dynamic scheduler
    // balances across cells.
    let jobs: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| (0..cell.workload.len()).map(move |q| (c, q)))
        .collect();

    let memo = (spec.buffer_pages == 0 && !faults.is_enabled()).then(Memo::default);
    let results = par_map_catch(spec.threads, &jobs, |&(c, q)| {
        let cell = &cells[c];
        if faults.is_enabled() {
            // Identity-matched site: fires for every job of the named
            // cell at any thread count, so the poisoned cell is
            // deterministic.
            faults.panic_if_armed(&format!("cell:{}/{}", cell.family, cell.built.config.name));
        }
        let (outcome, wall, io, key) = run_query(spec, cell, q, trace, faults, memo.as_ref());
        let mut slab = slabs[c].lock().expect("cell slab poisoned");
        slab.got[q] = Some((outcome, wall, io));
        slab.filled += 1;
        if slab.filled == cell.workload.len() {
            // Last query in: assemble in workload order (deterministic
            // f64 summation).
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
            slab.done = Some(assemble(
                cell.family,
                &cell.built.config.name,
                outcomes,
                wall_seconds,
                cell_io,
            ));
        }
        key
    });

    // Fold job verdicts back to cell verdicts, and count in grid order
    // the jobs whose key an earlier job holds.
    let mut poisoned: BTreeSet<usize> = BTreeSet::new();
    let mut failed: Vec<FailedCell> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut reused = vec![0; cells.len()];
    for (r, &(c, _)) in results.into_iter().zip(&jobs) {
        match r {
            Ok(Some(key)) => reused[c] += usize::from(!seen.insert(key)),
            Ok(None) => {}
            Err(panic) if poisoned.insert(c) => {
                failed.push(FailedCell {
                    family: cells[c].family.to_string(),
                    config: cells[c].built.config.name.clone(),
                    panic,
                });
            }
            Err(_) => {}
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

    let mut out = Vec::with_capacity(cells.len());
    for (c, slot) in resolved.iter_mut().enumerate() {
        match slot.take() {
            Some(pair) => out.push(pair),
            None => {
                let (run, mut timing) = slabs[c]
                    .lock()
                    .expect("cell slab poisoned")
                    .done
                    .take()
                    .expect("no failures, so every executed cell completed");
                timing.reused = reused[c];
                out.push((run, timing));
            }
        }
    }
    Ok(out)
}

/// Build one cell's `(WorkloadRun, CellTiming)` pair from its outcomes
/// in workload order. `reused` is filled in once the grid has finished.
fn assemble(
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
        reused: 0,
        wall_seconds,
        cost_units: run.total_lower_bound_units(),
    };
    (run, timing)
}

/// Execute one (cell, query) job, optionally tracing it, under the
/// spec's morsel-driven [`tab_engine::ExecOpts`] with the
/// `panic:morsel:<family>/<config>` fault site armed inside the
/// executor's morsel workers. With a `memo`, the plan runs only if no
/// other job holds its key, and the job's slot number comes back.
fn run_query(
    spec: &BenchSpec,
    cell: &GridCell<'_>,
    q: usize,
    trace: Trace<'_>,
    faults: Faults<'_>,
    memo: Option<&Memo>,
) -> (Outcome, f64, PoolStats, Option<usize>) {
    // The site strings only exist when injection is on; the disabled
    // path must not pay a per-morsel format.
    let site = if faults.is_enabled() {
        Some(format!("morsel:{}/{}", cell.family, cell.built.config.name))
    } else {
        None
    };
    let evict_site = if faults.is_enabled() && spec.buffer_pages > 0 {
        Some(format!("evict:{}/{}", cell.family, cell.built.config.name))
    } else {
        None
    };
    let mut exec = spec.exec_opts();
    exec.faults = faults;
    exec.fault_site = site.as_deref();
    if let Some(pool) = exec.pool.as_mut() {
        pool.trace = trace;
        pool.evict_site = evict_site.as_deref();
    }
    let session = Session::new(cell.db, cell.built).with_exec(exec);
    let budget = Some(spec.timeout_units);
    let t0 = Instant::now();
    let plan = session
        .plan_query(&cell.workload[q])
        .expect("grid workloads bind against their databases");
    let (key, slot) = match memo {
        Some(memo) => {
            let (key, slot) = memo.slot(session.execution_key(&plan, budget));
            (Some(key), slot)
        }
        None => (None, Arc::default()),
    };
    let result = slot.get_or_init(|| session.run_plan(plan.clone(), budget).into());
    if trace.is_enabled() {
        let config = cell.built.config.name.as_str();
        let labels = plan.op_labels();
        for (op, label) in labels.iter().enumerate() {
            trace.emit(|| {
                let mut ev = event("operator")
                    .str("family", cell.family)
                    .str("config", config)
                    .int("query", q as u64)
                    .int("op", op as u64)
                    .str("label", label);
                if let Some(est) = plan.op_ests.get(op) {
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
    (
        result.outcome.clone(),
        t0.elapsed().as_secs_f64(),
        result.io,
        key,
    )
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
            "    {{\"family\": \"{}\", \"config\": \"{}\", \"queries\": {}, \"timeouts\": {}, \"reused\": {}, \"wall_seconds\": {:.6}, \"cost_units\": {:.3}}}{}\n",
            json_escape(&c.family),
            json_escape(&c.config),
            c.queries,
            c.timeouts,
            c.reused,
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
///   "mode": "pool",            // "pool" when spec.buffer_pages > 0, else "compat"
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
pub fn io_bench_json(spec: &BenchSpec, cells: &[IoBenchCell]) -> String {
    let buffer_pages = spec.buffer_pages;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tab-io-bench-v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if buffer_pages > 0 { "pool" } else { "compat" }
    ));
    s.push_str(&format!("  \"buffer_pages\": {buffer_pages},\n"));
    s.push_str(&format!("  \"charge\": \"{}\",\n", spec.charge.name()));
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
    use crate::experiment::{build_1c, build_p, prepare_workload_db};
    use crate::measure::run_workload;
    use tab_datagen::{generate_nref, NrefParams};
    use tab_families::Family;
    use tab_sqlq::parse;
    use tab_storage::{
        ColType, ColumnDef, Configuration, FaultPlan, MViewDef, MViewSpec, Parallelism, Table,
        TableSchema, Value,
    };

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

    /// A 500-unit budget at `threads`, two query threads over 64-row
    /// morsels.
    fn spec(threads: usize) -> BenchSpec {
        BenchSpec {
            timeout_units: 500.0,
            threads: Parallelism::new(threads),
            query_threads: Parallelism::new(2),
            morsel_rows: 64,
            ..BenchSpec::small()
        }
    }

    /// P and 1C on F1's workload, then P on F2's three queries.
    fn three_cells<'a>(
        db: &'a Database,
        p: &'a BuiltConfiguration,
        c1: &'a BuiltConfiguration,
        qs: &'a [Query],
    ) -> [GridCell<'a>; 3] {
        let cell = |family, built, workload| GridCell {
            family,
            db,
            built,
            workload,
        };
        [
            cell("F1", p, qs),
            cell("F1", c1, qs),
            cell("F2", p, &qs[..3]),
        ]
    }

    #[test]
    fn grid_matches_per_cell_run_workload_at_any_thread_count() {
        let (db, qs) = setup();
        let p = build_p(&db, "NREF");
        let c1 = build_1c(&db, "NREF");
        // F2 repeats F1's first three P queries, and F3 the last four of
        // F1's 1C queries: the memo serves them, and every outcome must
        // still equal a memo-free run.
        let [f1_p, f1_1c, f2] = three_cells(&db, &p, &c1, &qs);
        let f3 = GridCell {
            family: "F3",
            db: &db,
            built: &c1,
            workload: &qs[2..],
        };
        let cells = [f1_p, f1_1c, f2, f3];
        let seq = Parallelism::sequential();
        let serial: Vec<WorkloadRun> = cells
            .iter()
            .map(|c| run_workload(c.db, c.built, c.workload, 500.0, seq))
            .collect();
        for threads in [1, 2, 4] {
            let grid = run_grid(
                &spec(threads),
                &cells,
                Trace::disabled(),
                Faults::disabled(),
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
            assert_eq!(grid[2].1.reused, 3, "threads={threads}");
            assert_eq!(grid[3].1.reused, 4, "threads={threads}");
        }
    }

    /// Plan `q` in `x` and in `y` under the grid's budget: whether the
    /// plans agree on everything but their estimates, and whether their
    /// execution keys are equal.
    fn plan_and_key_match(
        db: &Database,
        x: &BuiltConfiguration,
        y: &BuiltConfiguration,
        q: &Query,
        budget: f64,
    ) -> (bool, bool) {
        let (sx, sy) = (Session::new(db, x), Session::new(db, y));
        let (px, py) = (sx.plan_query(q).unwrap(), sy.plan_query(q).unwrap());
        let same_plan = px.query == py.query
            && px.driver == py.driver
            && px.steps == py.steps
            && px.mviews_used == py.mviews_used;
        let budget = Some(budget);
        (
            same_plan,
            sx.execution_key(&px, budget) == sy.execution_key(&py, budget),
        )
    }

    /// Run `q` alone in `x`, then in `y`, as one grid: the second cell
    /// must miss the memo and measure its own units, each equal to a
    /// memo-free run.
    fn assert_second_cell_misses(
        db: &Database,
        x: &BuiltConfiguration,
        y: &BuiltConfiguration,
        q: &Query,
    ) {
        let spec = BenchSpec {
            threads: Parallelism::new(2),
            ..BenchSpec::small()
        };
        let workload = std::slice::from_ref(q);
        let cell = |built| GridCell {
            family: "F",
            db,
            built,
            workload,
        };
        let grid = run_grid(
            &spec,
            &[cell(x), cell(y)],
            Trace::disabled(),
            Faults::disabled(),
        )
        .expect("clean grid");
        assert_eq!(grid[1].1.reused, 0, "the second cell reused the first");
        for ((run, _), built) in grid.iter().zip([x, y]) {
            let alone = Session::new(db, built).run(q, Some(spec.timeout_units));
            assert_eq!(run.outcomes[0], alone.unwrap().outcome, "{}", run.config);
        }
        let units = |c: usize| grid[c].0.outcomes[0].units().expect("completes");
        assert_ne!(units(0), units(1));
    }

    /// Two configurations may give different views the same name: the
    /// key holds each view's definition, not just its name.
    #[test]
    fn a_view_name_with_another_definition_misses() {
        let mut db = Database::new();
        for (name, rows) in [("a", 20_000i64), ("b", 40)] {
            let cols = (0..2).map(|i| ColumnDef::new(format!("c{i}"), ColType::Int));
            let mut t = Table::new(TableSchema::new(name, cols.collect()));
            for i in 0..rows {
                t.insert(vec![Value::Int(i % 400), Value::Int(i)]);
            }
            db.add_table(t);
        }
        db.collect_stats();
        let with_view = |name: &str, projection| {
            let mut cfg = Configuration::named(name);
            cfg.mviews.push(MViewDef {
                spec: MViewSpec::join_of("ab", "a", "b", vec![(0, 0)], projection),
                indexes: vec![],
            });
            BuiltConfiguration::build(cfg, &db)
        };
        let narrow = with_view("narrow", vec![(0, 1), (1, 1)]);
        let wide = with_view("wide", vec![(0, 1), (1, 1), (0, 0), (1, 0)]);
        let q = parse("SELECT a.c1, COUNT(*) FROM a, b WHERE a.c0 = b.c0 GROUP BY a.c1").unwrap();
        let plan = Session::new(&db, &wide).plan_query(&q).unwrap();
        assert_eq!(plan.mviews_used, ["ab"]);
        let budget = BenchSpec::small().timeout_units;
        let (same_plan, same_key) = plan_and_key_match(&db, &narrow, &wide, &q, budget);
        assert!(same_plan, "both read `ab` the same way");
        assert!(!same_key, "the key must tell the two `ab`s apart");
        assert_second_cell_misses(&db, &narrow, &wide, &q);
    }

    /// P and 1C often run the same NREF2J plan, but 1C answers the
    /// frequency subquery from an index where P reads the heap. The
    /// `FreqSetup` label does not say which, so the key must.
    #[test]
    fn a_frequency_setup_on_another_index_misses() {
        let (db, _) = setup();
        let p = build_p(&db, "NREF");
        let c1 = build_1c(&db, "NREF");
        let workload = prepare_workload_db(&db, Family::Nref2J, &p, 30, 7);
        let budget = BenchSpec::small().timeout_units;
        let q = workload
            .iter()
            .find(|q| plan_and_key_match(&db, &p, &c1, q, budget) == (true, false))
            .expect("an NREF2J query whose plans differ only in the setup's index");
        assert_second_cell_misses(&db, &p, &c1, q);
    }

    /// A buffer pool makes a query's units depend on what ran before it,
    /// and fault sites must fire in every cell: either turns reuse off.
    #[test]
    fn memo_is_off_under_a_pool_and_under_fault_injection() {
        let (db, qs) = setup();
        let p = build_p(&db, "NREF");
        let cell = |family| GridCell {
            family,
            db: &db,
            built: &p,
            workload: &qs,
        };
        let cells = [cell("F1"), cell("F2")];
        let reused = |spec: &BenchSpec, faults| -> Vec<usize> {
            let grid = run_grid(spec, &cells, Trace::disabled(), faults).expect("clean grid");
            grid.iter().map(|(_, t)| t.reused).collect()
        };
        let plain = spec(2);
        assert_eq!(reused(&plain, Faults::disabled()), [0, qs.len()]);
        let pooled = BenchSpec {
            buffer_pages: 64,
            ..spec(2)
        };
        assert_eq!(reused(&pooled, Faults::disabled()), [0, 0]);
        let unarmed = FaultPlan::parse("panic:cell:F9/NREF_P").expect("fault spec");
        assert_eq!(reused(&plain, Faults::to(&unarmed)), [0, 0]);
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
        }];
        let seq = BenchSpec {
            threads: Parallelism::sequential(),
            ..BenchSpec::small()
        };
        let plain =
            run_grid(&seq, &cells, Trace::disabled(), Faults::disabled()).expect("clean grid");
        let sink = tab_storage::MemoryTraceSink::new();
        let traced =
            run_grid(&seq, &cells, Trace::to(&sink), Faults::disabled()).expect("clean grid");
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

    /// A poisoned cell fails alone with a typed error; a clean rerun of
    /// the same grid then matches a clean run outcome for outcome.
    #[test]
    fn poisoned_cell_fails_alone_and_resume_completes_bit_exactly() {
        let (db, qs) = setup();
        let p = build_p(&db, "NREF");
        let c1 = build_1c(&db, "NREF");
        let cells = three_cells(&db, &p, &c1, &qs);
        let clean =
            run_grid(&spec(1), &cells, Trace::disabled(), Faults::disabled()).expect("clean grid");

        let plan = tab_storage::FaultPlan::parse("panic:cell:F1/NREF_1C").expect("spec");
        for (crash, rerun) in [(1, 4), (4, 1)] {
            let err = run_grid(&spec(crash), &cells, Trace::disabled(), Faults::to(&plan))
                .expect_err("poisoned cell must fail the grid");
            let GridError::Poisoned { failed, completed } = &err;
            assert_eq!(failed.len(), 1, "threads={crash}");
            assert_eq!(failed[0].family, "F1");
            assert_eq!(failed[0].config, "NREF_1C");
            assert!(failed[0].panic.message.contains("cell:F1/NREF_1C"));
            assert_eq!(*completed, 2, "threads={crash}");

            let rerun = run_grid(&spec(rerun), &cells, Trace::disabled(), Faults::disabled())
                .expect("a clean rerun completes");
            assert_eq!(rerun.len(), clean.len());
            for ((run, timing), (want, want_timing)) in rerun.iter().zip(&clean) {
                assert_eq!(run.config, want.config);
                assert_eq!(run.outcomes, want.outcomes, "threads={crash}");
                assert_eq!(timing.cost_units, want_timing.cost_units);
                assert_eq!(timing.reused, want_timing.reused);
            }
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
                reused: 7,
                wall_seconds: 1.25,
                cost_units: 42.0,
            },
            CellTiming {
                family: "SkTH3J".into(),
                config: "SkTH_\"q\"".into(),
                queries: 30,
                timeouts: 0,
                reused: 0,
                wall_seconds: 0.5,
                cost_units: 7.0,
            },
        ];
        let j = timings_json(4, 3.0, &cells);
        assert!(j.contains("\"threads\": 4"));
        assert!(j.contains("\"total_wall_seconds\": 3.000"));
        assert!(j.contains("\"family\": \"NREF2J\""));
        assert!(j.contains("\"timeouts\": 4, \"reused\": 7, \"wall_seconds\": 1.250000"));
        assert!(j.contains("SkTH_\\\"q\\\""));
        // A comma between the two cell objects, none trailing.
        assert!(j.contains("},\n"));
        assert!(!j.contains("},\n  ]"));
    }
}
