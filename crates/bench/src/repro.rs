//! The reproduction driver: regenerates every table and figure of the
//! paper into an output directory, and checks the paper's qualitative
//! claims ("shape claims") along the way.
//!
//! See DESIGN.md §4 for the experiment ↔ module ↔ output index.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use crate::converge::{run_convergence, ConvergenceSpec};
use tab_advisor::{AdvisorInput, Recommender, SystemA, SystemB, SystemC};
use tab_core::convergence::{
    convergence_csv_rows, fig12_csv_rows, render_convergence_curve, render_convergence_table,
    CSV_HEADER, FIG12_HEADER,
};
use tab_core::report::{
    cfc_csv_rows, render_cfc_ascii, render_histogram_ascii, write_bytes, write_csv,
};
use tab_core::{
    build_1c_par, build_p, estimate_workload, estimate_workload_hypothetical, improvement_ratios,
    insertion_breakeven, io_bench_json, prepare_workload_db_with, run_grid, space_budget,
    table1_row, timings_json, workload_seed, Accepts, Args, BenchSpec, CellTiming, Cfc, FaultPlan,
    Faults, FileTraceSink, Goal, GridCell, GridError, IoBenchCell, LogHistogram, RatioHistogram,
    Trace, WorkloadRun,
};
use tab_families::Family;
use tab_sqlq::Query;
use tab_storage::{BuiltConfiguration, Configuration, Database};

/// The flags `repro` reads: the spec's (see [`BenchSpec::from_args`])
/// and the operational ones, which never change an output byte.
pub const REPRO_FLAGS: Accepts = Accepts {
    switches: &["small", "check"],
    options: &[
        "threads",
        "query-threads",
        "morsel-rows",
        "buffer-pages",
        "charge",
        "expect",
        "out",
        "trace",
        "faults",
    ],
    positional: false,
};

/// A reproduction run: the spec it measures and where and how it runs.
pub struct ReproConfig {
    /// Scales, seed, timeout, and execution settings.
    pub spec: BenchSpec,
    /// Output directory for CSVs and rendered figures.
    pub out_dir: PathBuf,
    /// Optional `tab-trace-v1` JSONL trace file capturing per-query and
    /// per-operator events for every grid cell plus advisor rounds.
    /// Tracing is observational only: every file under `out_dir` is
    /// byte-identical with or without it (`tests/observability.rs`).
    pub trace: Option<PathBuf>,
    /// Optional deterministic fault plan (`--faults`) —
    /// see [`FaultPlan::parse`] for the spec grammar. `None` costs one
    /// branch per probe site.
    pub faults: Option<FaultPlan>,
}

impl ReproConfig {
    /// The run a `repro` command line names (parsed against
    /// [`REPRO_FLAGS`]). Without `--out` it writes to `results/`, or
    /// `results-small/` under `--small`.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let default_out = if args.switch("small") {
            "results-small"
        } else {
            "results"
        };
        Ok(ReproConfig {
            spec: BenchSpec::from_args(args)?,
            out_dir: PathBuf::from(args.get("out").unwrap_or(default_out)),
            trace: args.get("trace").map(PathBuf::from),
            faults: args.faults().map_err(|e| format!("--faults: {e}"))?,
        })
    }
}

/// Why a reproduction run could not produce its full output set. Every
/// variant names the artifact or subsystem that failed, so an operator
/// (or CI log reader) knows exactly what is missing. The run is
/// deterministic, so a clean rerun into the same `out_dir` writes what
/// an uninterrupted run would have.
#[derive(Debug)]
pub enum ReproError {
    /// An artifact under `out_dir` could not be written. The underlying
    /// error names the injected fault site when one fired.
    Artifact {
        /// Final path of the artifact that failed to write.
        path: PathBuf,
        /// Underlying I/O failure.
        source: io::Error,
    },
    /// A database generator crashed (`panic:build:<table>`, caught) or
    /// hit an injected I/O failure (`enospc:datagen`).
    Datagen {
        /// Label of the database being generated (NREF, SkTH, UnTH).
        label: String,
        /// The caught panic message or injected I/O error.
        message: String,
    },
    /// One or more grid cells panicked (injected poisoned cell or a
    /// real bug); their sibling cells still completed.
    Grid {
        /// Rendered [`GridError`] listing the failed cells.
        message: String,
    },
    /// The trace sink swallowed a write failure (injected or real); the
    /// partial trace is left at `<path>.tmp` and the run fails *after*
    /// writing its artifacts.
    TraceSink {
        /// Final path the trace would have been published to.
        path: PathBuf,
        /// What went wrong, including the line count written so far.
        message: String,
    },
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Artifact { path, source } => {
                write!(f, "cannot write artifact {}: {source}", path.display())
            }
            ReproError::Datagen { label, message } => {
                write!(f, "generating {label} failed: {message}")
            }
            ReproError::Grid { message } => write!(f, "measurement grid failed: {message}"),
            ReproError::TraceSink { path, message } => {
                write!(f, "trace sink {} failed: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for ReproError {}

/// One checked qualitative claim from the paper.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier, e.g. `fig3-1c-beats-p`.
    pub id: String,
    /// What the paper asserts.
    pub(crate) statement: String,
    /// Whether our reproduction observes it.
    pub holds: bool,
    /// Measured evidence.
    pub evidence: String,
}

/// Collected results of a full reproduction.
#[derive(Debug)]
pub struct ReproSummary {
    /// All checked claims.
    pub claims: Vec<Claim>,
    /// Rendered ASCII figures (also written to `figures.txt`).
    pub figures_text: String,
}

impl ReproSummary {
    /// Number of claims that held.
    pub fn passed(&self) -> usize {
        self.claims.iter().filter(|c| c.holds).count()
    }
}

struct Ctx<'a> {
    out: PathBuf,
    /// Fault handle threaded to every artifact write (one branch when
    /// no plan is armed).
    faults: Faults<'a>,
    claims: Vec<Claim>,
    figures: String,
    timings: Vec<CellTiming>,
    /// Per-cell buffer-pool traffic for `BENCH_io.json`, in grid
    /// completion order (deterministic: cells finish in issue order).
    io_cells: Vec<IoBenchCell>,
    t0: Instant,
    /// The process's minor-fault count at the last section end.
    minor_faults: u64,
}

/// A field of `/proc/self/status` (`VmHWM`, in kB); `None` off Linux.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    line.trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Minor page faults so far (`/proc/self/stat`, the tenth field: the
/// eighth after the parenthesised command name); `None` off Linux.
fn proc_minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

impl Ctx<'_> {
    /// Write one CSV artifact atomically, with the per-file fault probe.
    fn csv(&self, file: &str, header: &[&str], rows: &[Vec<String>]) -> Result<(), ReproError> {
        let path = self.out.join(file);
        write_csv(&path, header, rows, self.faults)
            .map_err(|source| ReproError::Artifact { path, source })
    }

    /// Write one non-CSV artifact atomically, with the fault probe.
    fn bytes(&self, file: &str, bytes: &[u8]) -> Result<(), ReproError> {
        let path = self.out.join(file);
        write_bytes(&path, bytes, self.faults)
            .map_err(|source| ReproError::Artifact { path, source })
    }

    fn log(&self, msg: &str) {
        eprintln!("[{:8.1?}] {msg}", self.t0.elapsed());
    }

    /// Log the end of a section with what it cost: the process's peak
    /// resident set so far and the minor faults taken since the previous
    /// section end. Stderr only; silently bare where `/proc` is absent.
    fn log_section_end(&mut self, msg: &str) {
        let cost = proc_status_kb("VmHWM").zip(proc_minor_faults());
        let note = cost.map_or(String::new(), |(hwm_kb, faults)| {
            let since = faults.saturating_sub(std::mem::replace(&mut self.minor_faults, faults));
            format!(" [VmHWM {} MB, +{since} minor faults]", hwm_kb / 1024)
        });
        self.log(&format!("{msg}{note}"));
    }

    fn claim(&mut self, id: &str, statement: &str, holds: bool, evidence: String) {
        self.log(&format!(
            "claim {id}: {} ({evidence})",
            if holds { "HOLDS" } else { "DIVERGES" }
        ));
        self.claims.push(Claim {
            id: id.to_string(),
            statement: statement.to_string(),
            holds,
            evidence,
        });
    }

    fn figure(&mut self, title: &str, body: &str) {
        self.figures
            .push_str(&format!("\n=== {title} ===\n{body}\n"));
    }

    fn write_cfc_figure(
        &mut self,
        file: &str,
        title: &str,
        curves: &[(&str, &Cfc)],
        max_x: f64,
    ) -> Result<(), ReproError> {
        let (header, rows) = cfc_csv_rows(curves, 0.1, max_x, 60);
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        self.csv(file, &header_refs, &rows)?;
        let ascii = render_cfc_ascii(curves, 0.1, max_x, 64, 16);
        self.figure(title, &ascii);
        Ok(())
    }
}

/// Run a database generator through its fault-checked path, catching a
/// fired `panic:build:<table>` crash and translating it (or an injected
/// `enospc:datagen`) into [`ReproError::Datagen`]. `AssertUnwindSafe`
/// is sound here: on panic the half-built tables are dropped and the
/// error propagates — nothing broken is observed afterwards.
fn generate_step<F>(label: &str, generate: F) -> Result<Database, ReproError>
where
    F: FnOnce() -> io::Result<Database>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(generate)) {
        Ok(Ok(db)) => Ok(db),
        Ok(Err(e)) => Err(ReproError::Datagen {
            label: label.to_string(),
            message: e.to_string(),
        }),
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "generator panicked".to_string());
            Err(ReproError::Datagen {
                label: label.to_string(),
                message,
            })
        }
    }
}

/// Run one grid, translating a poisoned cell to [`ReproError::Grid`],
/// and log how many of its queries reused an execution.
fn grid_step(
    ctx: &Ctx,
    label: &str,
    spec: &BenchSpec,
    cells: &[GridCell<'_>],
    trace: Trace<'_>,
    faults: Faults<'_>,
) -> Result<Vec<(WorkloadRun, CellTiming)>, ReproError> {
    let grid = run_grid(spec, cells, trace, faults).map_err(|e: GridError| ReproError::Grid {
        message: e.to_string(),
    })?;
    let queries: usize = grid.iter().map(|(_, t)| t.queries).sum();
    let reused: usize = grid.iter().map(|(_, t)| t.reused).sum();
    ctx.log(&format!(
        "{label}: grid ran {} plans for {queries} queries ({reused} reused)",
        queries - reused
    ));
    Ok(grid)
}

/// Run the full reproduction.
///
/// On success every artifact is in place. Each artifact is written via
/// write-temp-then-rename, so a failed run leaves no half-written file;
/// a clean rerun into the same `out_dir` then replaces every artifact
/// with the bytes an uninterrupted run writes.
pub fn run_all(cfg: &ReproConfig) -> Result<ReproSummary, ReproError> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|source| ReproError::Artifact {
        path: cfg.out_dir.clone(),
        source,
    })?;
    let faults = match &cfg.faults {
        Some(plan) => Faults::to(plan),
        None => Faults::disabled(),
    };
    let spec = &cfg.spec;

    let t0 = Instant::now();
    let mut ctx = Ctx {
        out: cfg.out_dir.clone(),
        faults,
        claims: Vec::new(),
        figures: String::new(),
        timings: Vec::new(),
        io_cells: Vec::new(),
        t0,
        minor_faults: 0,
    };
    let timeout_s = tab_engine::units_to_sim_seconds(spec.timeout_units);
    let par = spec.threads;
    ctx.log(&format!("parallelism: {} threads", par.threads()));
    if let Some(plan) = &cfg.faults {
        ctx.log(&format!("fault plan armed: {plan}"));
    }

    // Optional structured trace, staged at `<path>.tmp` and published
    // by `finish()` only if the whole run (and the sink itself)
    // succeeds. The sink lives for the whole run; the `Trace` handle it
    // backs is `Copy` and threads through the grids and advisor calls
    // below. Disabled (`None`) costs one branch per emission site.
    let sink = match cfg.trace.as_deref() {
        Some(path) => Some(
            match &cfg.faults {
                Some(plan) => FileTraceSink::create_with_faults(path, plan),
                None => FileTraceSink::create(path),
            }
            .map_err(|e| ReproError::TraceSink {
                path: path.to_path_buf(),
                message: e.to_string(),
            })?,
        ),
        None => None,
    };
    let trace = sink
        .as_ref()
        .map(|s| Trace::to(s))
        .unwrap_or_else(Trace::disabled);

    let mut table1: Vec<Vec<String>> = Vec::new();
    let mut table2: Vec<Vec<String>> = Vec::new();
    let mut table3: Vec<Vec<String>> = Vec::new();
    let mut runs_csv: Vec<Vec<String>> = Vec::new();
    let mut totals_csv: Vec<Vec<String>> = Vec::new();

    let record_run = |runs_csv: &mut Vec<Vec<String>>,
                      totals_csv: &mut Vec<Vec<String>>,
                      family: &str,
                      run: &WorkloadRun| {
        for (i, s) in run.sim_seconds().iter().enumerate() {
            runs_csv.push(vec![
                family.to_string(),
                run.config.clone(),
                i.to_string(),
                if s.is_finite() {
                    format!("{s:.3}")
                } else {
                    "timeout".to_string()
                },
            ]);
        }
        totals_csv.push(vec![
            family.to_string(),
            run.config.clone(),
            format!("{:.1}", run.total_lower_bound_sim_seconds()),
            run.timeout_count().to_string(),
        ]);
    };

    // ================= NREF (Systems A and B) =================
    // Databases are generated one at a time and dropped at section end
    // to bound resident memory.
    trace.span_begin("NREF");
    ctx.log("NREF: generating database");
    let nref_db = generate_step("NREF", || spec.database("NREF", &faults))?;
    let nref = &nref_db;
    ctx.log("NREF: building P and 1C");
    let p = build_p(nref, "NREF");
    let c1 = build_1c_par(nref, "NREF", par, &[&p]);
    let budget = space_budget(nref, "NREF");
    ctx.log(&format!("NREF budget = {} MiB", budget / (1 << 20)));

    ctx.log("NREF: preparing workloads");
    let draw = |family: Family| {
        let seed = workload_seed(spec.seed, family);
        prepare_workload_db_with(nref, family, &p, spec.workload_size, seed, par)
            .unwrap_or_default()
    };
    let (w2, w3) = (draw(Family::Nref2J), draw(Family::Nref3J));

    let input2 = AdvisorInput {
        db: nref,
        current: &p,
        workload: &w2,
        budget_bytes: budget,
        par,
        trace,
    };
    let input3 = AdvisorInput {
        db: nref,
        current: &p,
        workload: &w3,
        budget_bytes: budget,
        par,
        trace,
    };

    ctx.log("NREF: System A recommending for NREF2J");
    let a2_cfg = SystemA::default().recommend(&input2);
    ctx.log("NREF: System A recommending for NREF3J (expected to fail)");
    let a3_cfg = SystemA::default().recommend(&input3);
    ctx.claim(
        "sec4.2-a-fails-nref3j",
        "System A produces no recommendation for the 100-query NREF3J workload",
        a3_cfg.is_none(),
        format!(
            "A on NREF3J returned {}",
            if a3_cfg.is_some() { "Some" } else { "None" }
        ),
    );
    // ... but succeeds on smaller NREF3J workloads (the paper tried 25/12/6/3).
    let small3: Vec<Query> = w3.iter().take(25).cloned().collect();
    let a3_small = SystemA::default().recommend(&AdvisorInput {
        db: nref,
        current: &p,
        workload: &small3,
        budget_bytes: budget,
        par,
        trace,
    });
    ctx.claim(
        "sec4.2-a-small-workloads",
        "System A can produce recommendations for smaller NREF3J workloads",
        a3_small.is_some(),
        format!(
            "A on 25-query NREF3J returned {}",
            if a3_small.is_some() { "Some" } else { "None" }
        ),
    );

    ctx.log("NREF: System B recommending for NREF2J and NREF3J");
    let b2_cfg = SystemB.recommend(&input2).expect("B always recommends");
    let b3_cfg = SystemB.recommend(&input3).expect("B always recommends");

    let named = |mut c: Configuration, name: &str| {
        c.name = name.to_string();
        c
    };
    // Each R shares the indexes that P, 1C and the earlier R's built.
    let a2 = a2_cfg
        .map(|c| BuiltConfiguration::build_par(named(c, "A_NREF2J_R"), nref, par, &[&p, &c1]));
    let mut reuse = vec![&p, &c1];
    reuse.extend(&a2);
    let b2 = BuiltConfiguration::build_par(named(b2_cfg, "B_NREF2J_R"), nref, par, &reuse);
    reuse.push(&b2);
    let b3 = BuiltConfiguration::build_par(named(b3_cfg, "B_NREF3J_R"), nref, par, &reuse);

    ctx.log("NREF: running the NREF2J/NREF3J x P/1C/R grid");
    let cell = move |family: &'static str, built, workload| GridCell {
        family,
        db: nref,
        built,
        workload,
    };
    let mut cells = vec![
        cell("NREF2J", &p, w2.as_slice()),
        cell("NREF2J", &c1, &w2),
        cell("NREF2J", &b2, &w2),
        cell("NREF3J", &p, &w3),
        cell("NREF3J", &c1, &w3),
        cell("NREF3J", &b3, &w3),
    ];
    if let Some(a) = &a2 {
        cells.push(cell("NREF2J", a, &w2));
    }
    let mut grid: std::collections::VecDeque<(WorkloadRun, CellTiming)> =
        grid_step(&ctx, "NREF", spec, &cells, trace, faults)?.into();
    drop(cells);
    let mut take = |ctx: &mut Ctx| -> WorkloadRun {
        let (run, timing) = grid.pop_front().expect("one result per grid cell");
        ctx.io_cells.push(IoBenchCell {
            family: timing.family.clone(),
            config: run.config.clone(),
            io: run.io,
        });
        ctx.timings.push(timing);
        run
    };
    let r2_p = take(&mut ctx);
    let r2_1c = take(&mut ctx);
    let r2_b = take(&mut ctx);
    let r3_p = take(&mut ctx);
    let r3_1c = take(&mut ctx);
    let r3_b = take(&mut ctx);
    let r2_a = a2.as_ref().map(|_| take(&mut ctx));

    for (fam, run) in [
        ("NREF2J", &r2_p),
        ("NREF2J", &r2_1c),
        ("NREF2J", &r2_b),
        ("NREF3J", &r3_p),
        ("NREF3J", &r3_1c),
        ("NREF3J", &r3_b),
    ] {
        record_run(&mut runs_csv, &mut totals_csv, fam, run);
    }
    if let Some(r) = &r2_a {
        record_run(&mut runs_csv, &mut totals_csv, "NREF2J", r);
    }

    // Figures 1 and 2: histograms of NREF2J on A's initial and
    // recommended configurations.
    let max_x = timeout_s * 1.1;
    {
        let h1 = LogHistogram::new(&r2_p.sim_seconds(), 0.1, timeout_s, 2);
        let h2 = LogHistogram::new(
            &r2_a.as_ref().unwrap_or(&r2_b).sim_seconds(),
            0.1,
            timeout_s,
            2,
        );
        for (file, title, h) in [
            (
                "fig01_hist_nref2j_P.csv",
                "Figure 1: NREF2J on A_NREF_P (histogram)",
                &h1,
            ),
            (
                "fig02_hist_nref2j_R.csv",
                "Figure 2: NREF2J on A_NREF2J_R (histogram)",
                &h2,
            ),
        ] {
            let mut rows: Vec<Vec<String>> = Vec::new();
            let labels = h.labels();
            let mut counts = h.counts.clone();
            counts.push(h.timeout_count);
            let cums = h.cumulative_fractions();
            for (i, l) in labels.iter().enumerate() {
                rows.push(vec![
                    l.clone(),
                    counts[i].to_string(),
                    if i < cums.len() {
                        format!("{:.3}", cums[i])
                    } else {
                        String::new()
                    },
                ]);
            }
            ctx.csv(file, &["bin", "count", "cumulative"], &rows)?;
            ctx.figure(title, &render_histogram_ascii(h, 40));
        }
    }

    // Figure 3: CFC of P / 1C / R (System A) on NREF2J.
    let cfc2_p = r2_p.cfc();
    let cfc2_1c = r2_1c.cfc();
    let cfc2_b = r2_b.cfc();
    {
        let cfc_a;
        let mut curves: Vec<(&str, &Cfc)> = vec![("P", &cfc2_p), ("1C", &cfc2_1c)];
        if let Some(ra) = &r2_a {
            cfc_a = ra.cfc();
            curves.push(("R", &cfc_a));
        }
        ctx.write_cfc_figure(
            "fig03_cfc_A_nref2j.csv",
            "Figure 3: System A on NREF2J",
            &curves,
            max_x,
        )?;
        let x = 31.6;
        ctx.claim(
            "fig3-1c-best-at-31s",
            "On NREF2J, 1C completes the largest fraction under 31.6 s (paper: 41% vs 27% R vs 7% P)",
            cfc2_1c.at(x) > cfc2_p.at(x),
            format!(
                "CFC(31.6s): P={:.2} 1C={:.2} R(A)={:.2}",
                cfc2_p.at(x),
                cfc2_1c.at(x),
                r2_a.as_ref().map(|r| r.cfc().at(x)).unwrap_or(f64::NAN)
            ),
        );
    }

    // Figure 4: System A on NREF3J — only P and 1C (no recommendation).
    let cfc3_p = r3_p.cfc();
    let cfc3_1c = r3_1c.cfc();
    ctx.write_cfc_figure(
        "fig04_cfc_A_nref3j.csv",
        "Figure 4: System A on NREF3J (no R: recommender failed)",
        &[("P", &cfc3_p), ("1C", &cfc3_1c)],
        max_x,
    )?;
    {
        // The paper's own arithmetic: "it takes 98 seconds to complete
        // 60% of the queries on 1C, while it takes 4 hours and 45
        // minutes to complete 60% of the queries on P: an improvement of
        // 174 times!" — i.e. the sum of the fastest 60% of times.
        let sum60 = |run: &WorkloadRun| -> f64 {
            let mut v: Vec<f64> = run.sim_seconds();
            v.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
            let k = (v.len() * 6) / 10;
            v.iter().take(k).filter(|x| x.is_finite()).sum()
        };
        let (s_p, s_1c) = (sum60(&r3_p), sum60(&r3_1c));
        let ratio = s_p / s_1c.max(1e-9);
        // The paper's 174x rides on its 65 MB-3.9 GB table-size spread;
        // scaled down, the spread (and with it the achievable ratio)
        // compresses — see EXPERIMENTS.md. The claim checks that the
        // gap is large and in the paper's direction at our scale.
        ctx.claim(
            "fig4-large-gap",
            "On NREF3J, completing 60% of the workload takes substantially longer on P than on 1C (paper: 174x at full scale)",
            ratio > 1.5,
            format!("time to complete 60%: P={s_p:.0}s 1C={s_1c:.0}s ratio={ratio:.1}x"),
        );
    }

    // Figures 5 and 6: System B.
    let cfc3_b = r3_b.cfc();
    ctx.write_cfc_figure(
        "fig05_cfc_B_nref2j.csv",
        "Figure 5: System B on NREF2J",
        &[("P", &cfc2_p), ("1C", &cfc2_1c), ("R", &cfc2_b)],
        max_x,
    )?;
    ctx.write_cfc_figure(
        "fig06_cfc_B_nref3j.csv",
        "Figure 6: System B on NREF3J",
        &[("P", &cfc3_p), ("1C", &cfc3_1c), ("R", &cfc3_b)],
        max_x,
    )?;
    ctx.claim(
        "fig5-B-R-near-P",
        "System B's NREF2J recommendation performs close to P, far from 1C",
        r2_b.total_lower_bound_sim_seconds() > 0.5 * r2_p.total_lower_bound_sim_seconds()
            && r2_1c.total_lower_bound_sim_seconds() < 0.8 * r2_b.total_lower_bound_sim_seconds(),
        format!(
            "totals: P={:.0}s R={:.0}s 1C={:.0}s",
            r2_p.total_lower_bound_sim_seconds(),
            r2_b.total_lower_bound_sim_seconds(),
            r2_1c.total_lower_bound_sim_seconds()
        ),
    );
    ctx.claim(
        "fig6-B-R-between",
        "System B's NREF3J recommendation improves on P but a gap to 1C remains",
        r3_b.total_lower_bound_sim_seconds() <= r3_p.total_lower_bound_sim_seconds()
            && r3_1c.total_lower_bound_sim_seconds() <= r3_b.total_lower_bound_sim_seconds(),
        format!(
            "totals: P={:.0}s R={:.0}s 1C={:.0}s",
            r3_p.total_lower_bound_sim_seconds(),
            r3_b.total_lower_bound_sim_seconds(),
            r3_1c.total_lower_bound_sim_seconds()
        ),
    );

    // Example 2 / §2.2: the performance goal, scaled to this timeout.
    {
        let goal = Goal::from_steps(vec![
            (timeout_s / 180.0, 0.1),
            (timeout_s / 30.0, 0.5),
            (timeout_s, 0.9),
        ]);
        let sat = |c: &Cfc| goal.satisfied_by(c);
        let rows: Vec<Vec<String>> = [("P", &cfc2_p), ("1C", &cfc2_1c), ("R_B", &cfc2_b)]
            .iter()
            .map(|(n, c)| vec![n.to_string(), sat(c).to_string()])
            .collect();
        ctx.csv("goal_example2.csv", &["config", "satisfied"], &rows)?;
        ctx.claim(
            "ex2-goal-separates",
            "The Example-2-style goal is satisfied by 1C but not by P (Figure 3 reading)",
            sat(&cfc2_1c) && !sat(&cfc2_p),
            format!("P={} 1C={} R={}", sat(&cfc2_p), sat(&cfc2_1c), sat(&cfc2_b)),
        );
    }

    // Figure 10: estimate curves for NREF3J on System B.
    ctx.log("NREF: computing Figure 10 estimate curves");
    {
        let ep = estimate_workload(nref, &p, &w3, par);
        let er = estimate_workload(nref, &b3, &w3, par);
        let e1c = estimate_workload(nref, &c1, &w3, par);
        let hr = estimate_workload_hypothetical(nref, &p, &b3.config, &w3, par);
        let h1c = estimate_workload_hypothetical(nref, &p, &c1.config, &w3, par);
        let curves: Vec<(&str, Cfc)> = vec![
            ("EP", Cfc::from_values(&ep)),
            ("ER", Cfc::from_values(&er)),
            ("E1C", Cfc::from_values(&e1c)),
            ("HR", Cfc::from_values(&hr)),
            ("H1C", Cfc::from_values(&h1c)),
        ];
        let refs: Vec<(&str, &Cfc)> = curves.iter().map(|(l, c)| (*l, c)).collect();
        let lo = 1.0;
        let hi = ep
            .iter()
            .chain(&hr)
            .chain(&h1c)
            .copied()
            .fold(10.0f64, f64::max)
            * 1.2;
        let (header, rows) = cfc_csv_rows(&refs, lo, hi, 60);
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        ctx.csv("fig10_estimates_nref3j.csv", &header_refs, &rows)?;
        ctx.figure(
            "Figure 10: estimate curves for NREF3J on System B (estimation units)",
            &render_cfc_ascii(&refs, lo, hi, 64, 16),
        );
        // Figure 10 contrasts paired per-query estimates; unpaired
        // quantiles of the vectors can mask the effect, so the claims
        // use the paired median ratio.
        let q25 = |v: &[f64]| {
            let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            s[(s.len() / 4).min(s.len() - 1)]
        };
        let paired_median_ratio = |num: &[f64], den: &[f64]| {
            let mut r: Vec<f64> = num
                .iter()
                .zip(den)
                .filter(|(a, b)| a.is_finite() && b.is_finite() && **b > 0.0)
                .map(|(a, b)| a / b)
                .collect();
            r.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            r[r.len() / 2]
        };
        ctx.claim(
            "fig10-ordering",
            "Optimizer estimates improve from P to the indexed configurations (EP above ER and E1C at the selective quartile)",
            q25(&ep) >= q25(&er) * 0.99 && q25(&ep) >= q25(&e1c) * 0.99,
            format!(
                "q25: EP={:.0} ER={:.0} E1C={:.0} (paper additionally has ER >= E1C; our R's covering indexes estimate below 1C)",
                q25(&ep),
                q25(&er),
                q25(&e1c)
            ),
        );
        ctx.claim(
            "fig10-h1c-conservative",
            "H1C is more conservative about 1C than E1C for the typical query (paired)",
            paired_median_ratio(&h1c, &e1c) > 1.05,
            format!(
                "paired median H1C/E1C = {:.2}, HR/ER = {:.2}",
                paired_median_ratio(&h1c, &e1c),
                paired_median_ratio(&hr, &er)
            ),
        );

        // Figure 11: improvement-ratio histograms (R vs 1C).
        let a_r: Vec<f64> = r3_b.sim_seconds();
        let a_1c: Vec<f64> = r3_1c.sim_seconds();
        let air = improvement_ratios(&a_r, &a_1c);
        let eir = improvement_ratios(&er, &e1c);
        let hir = improvement_ratios(&hr, &h1c);
        let mut rows: Vec<Vec<String>> = Vec::new();
        let hists = [
            ("AIR", RatioHistogram::new(&air, 3)),
            ("EIR", RatioHistogram::new(&eir, 3)),
            ("HIR", RatioHistogram::new(&hir, 3)),
        ];
        for d in -3i32..=3 {
            rows.push(vec![
                format!("10^{d}"),
                hists[0].1.at_decade(d).to_string(),
                hists[1].1.at_decade(d).to_string(),
                hists[2].1.at_decade(d).to_string(),
            ]);
        }
        ctx.csv(
            "fig11_improvement_ratios_nref3j.csv",
            &["ratio", "AIR", "EIR", "HIR"],
            &rows,
        )?;
        let mut fig11 = String::new();
        for d in -3i32..=3 {
            fig11.push_str(&format!(
                "ratio 10^{d:>2}: AIR={:>3} EIR={:>3} HIR={:>3}\n",
                hists[0].1.at_decade(d),
                hists[1].1.at_decade(d),
                hists[2].1.at_decade(d)
            ));
        }
        ctx.figure(
            "Figure 11: improvement ratios R vs 1C on NREF3J (B)",
            &fig11,
        );
        let mass_above_one = |h: &RatioHistogram| -> f64 {
            let above: usize = (1..=3).map(|d| h.at_decade(d)).sum();
            let total: usize = h.counts.iter().sum();
            above as f64 / total.max(1) as f64
        };
        ctx.claim(
            "fig11-hir-flatter",
            "HIR shows fewer queries improved by 1C than AIR does (hypothetical estimates understate 1C)",
            mass_above_one(&hists[2].1) <= mass_above_one(&hists[0].1) + 1e-9,
            format!(
                "fraction of ratios > 1: AIR={:.2} EIR={:.2} HIR={:.2}",
                mass_above_one(&hists[0].1),
                mass_above_one(&hists[1].1),
                mass_above_one(&hists[2].1)
            ),
        );
    }

    // §4.4: insertions into neighboring_seq.
    {
        let analysis = insertion_breakeven(&p, &b2, &c1, &r2_b, &r2_1c, "neighboring_seq");
        let rows = vec![vec![
            format!("{:.1}", analysis.per_insert_p),
            format!("{:.1}", analysis.per_insert_r),
            format!("{:.1}", analysis.per_insert_1c),
            format!("{:.0}", analysis.workload_r),
            format!("{:.0}", analysis.workload_1c),
            analysis
                .breakeven_tuples
                .map(|b| format!("{b:.0}"))
                .unwrap_or_else(|| "none".into()),
        ]];
        ctx.csv(
            "sec4_4_insertions.csv",
            &[
                "per_insert_P_units",
                "per_insert_R_units",
                "per_insert_1C_units",
                "workload_R_s",
                "workload_1C_s",
                "breakeven_tuples",
            ],
            &rows,
        )?;
        ctx.claim(
            "sec4.4-breakeven",
            "1C pays more per insert than R, yielding a finite break-even insert count (paper: ~400k tuples)",
            analysis.per_insert_1c > analysis.per_insert_r
                && analysis.breakeven_tuples.is_some(),
            format!(
                "per-insert P/R/1C = {:.1}/{:.1}/{:.1} units, breakeven = {:?} tuples",
                analysis.per_insert_p,
                analysis.per_insert_r,
                analysis.per_insert_1c,
                analysis.breakeven_tuples.map(|b| b.round())
            ),
        );
    }

    // Table 1 rows for the NREF configurations (A and B share the
    // engine, hence the same P and 1C builds, listed under both names as
    // the paper lists them per system).
    for (name, built) in [
        ("A_NREF_P", &p),
        ("A_NREF_1C", &c1),
        ("B_NREF_P", &p),
        ("B_NREF_1C", &c1),
        ("B_NREF2J_R", &b2),
        ("B_NREF3J_R", &b3),
    ] {
        let row = table1_row(nref, built);
        table1.push(vec![
            name.to_string(),
            format!("{:.1}", row.size_mib),
            format!("{:.1}", row.build_sim_minutes),
        ]);
    }
    if let Some(a) = &a2 {
        let row = table1_row(nref, a);
        table1.push(vec![
            "A_NREF2J_R".into(),
            format!("{:.1}", row.size_mib),
            format!("{:.1}", row.build_sim_minutes),
        ]);
    }

    // Table 2: index width counts per table for the NREF recommendations.
    {
        let mut recs: Vec<(&str, &Configuration)> = Vec::new();
        if let Some(a) = &a2 {
            recs.push(("A_NREF2J_R", &a.config));
        }
        recs.push(("B_NREF2J_R", &b2.config));
        recs.push(("B_NREF3J_R", &b3.config));
        table2.extend(index_width_rows(&recs, &p.config));
    }

    drop(a2);
    drop(b2);
    drop(b3);
    drop(c1);

    // Convergence harness: profiles A/B/C over the default what-if
    // budget ladder on NREF2J (the one family every profile can
    // handle). Each budgeted search picks a prefix of the unbudgeted
    // one, so the curves carry no wall-clock and byte-compare across
    // runs and thread counts.
    ctx.log("NREF: convergence harness (profiles A/B/C x what-if ladder on NREF2J)");
    trace.span_begin("convergence");
    let convergence = run_convergence(
        nref,
        &p,
        "NREF2J",
        &w2,
        budget,
        par,
        trace,
        &ConvergenceSpec::default(),
    )
    .expect("default spec names valid profiles");
    trace.span_end("convergence");
    ctx.figure(
        "Convergence: objective vs what-if budget, NREF2J (profiles A/B/C)",
        &render_convergence_table(&convergence),
    );

    drop(p);
    drop(nref_db);
    trace.span_end("NREF");
    ctx.log_section_end("NREF: section done");

    // ================= TPC-H (System C) =================
    for (label, families) in [
        ("SkTH", vec![Family::SkTH3J, Family::SkTH3Js]),
        ("UnTH", vec![Family::UnTH3J]),
    ] {
        trace.span_begin(label);
        ctx.log(&format!("{label}: generating database"));
        let tpch_db = generate_step(label, || spec.database(label, &faults))?;
        let db = &tpch_db;
        ctx.log(&format!("{label}: building P and 1C"));
        let p = build_p(db, label);
        let c1 = build_1c_par(db, label, par, &[&p]);
        let budget = space_budget(db, label);
        let mut family_runs: BTreeMap<&'static str, (WorkloadRun, WorkloadRun, WorkloadRun)> =
            BTreeMap::new();

        // Phase 1: per family, sample the workload and let System C
        // recommend (enumeration and stratification are parallel inside).
        let mut preps: Vec<(Family, Vec<Query>, BuiltConfiguration)> = Vec::new();
        for fam in families {
            ctx.log(&format!("{label}: preparing {}", fam.name()));
            let seed = workload_seed(spec.seed, fam);
            let w = prepare_workload_db_with(db, fam, &p, spec.workload_size, seed, par)
                .unwrap_or_default();
            ctx.log(&format!(
                "{label}: System C recommending for {}",
                fam.name()
            ));
            let rec = SystemC
                .recommend(&AdvisorInput {
                    db,
                    current: &p,
                    workload: &w,
                    budget_bytes: budget,
                    par,
                    trace,
                })
                .expect("C always recommends");
            let rec_name = format!("C_{}_R", fam.name());
            // Share the indexes that P, 1C and the earlier R's built.
            let earlier = preps.iter().map(|(_, _, built)| built);
            let reuse: Vec<_> = [&p, &c1].into_iter().chain(earlier).collect();
            let built = BuiltConfiguration::build_par(named(rec, &rec_name), db, par, &reuse);
            preps.push((fam, w, built));
        }

        // Phase 2: one flat family x {P, 1C, R} grid per database.
        ctx.log(&format!("{label}: running the family x P/1C/R grid"));
        let cells: Vec<GridCell> = preps
            .iter()
            .flat_map(|(fam, w, built)| {
                [&p, &c1, built].map(|b| GridCell {
                    family: fam.name(),
                    db,
                    built: b,
                    workload: w,
                })
            })
            .collect();
        let mut grid = grid_step(&ctx, label, spec, &cells, trace, faults)?.into_iter();
        drop(cells);

        for (fam, _w, built) in &preps {
            let mut next = || {
                let (run, timing) = grid.next().expect("one result per grid cell");
                ctx.io_cells.push(IoBenchCell {
                    family: timing.family.clone(),
                    config: run.config.clone(),
                    io: run.io,
                });
                ctx.timings.push(timing);
                run
            };
            let run_p = next();
            let run_1c = next();
            let run_r = next();
            for r in [&run_p, &run_1c, &run_r] {
                record_run(&mut runs_csv, &mut totals_csv, fam.name(), r);
            }

            let (file, title) = match fam {
                Family::SkTH3Js => ("fig07_cfc_C_skth3js.csv", "Figure 7: System C on SkTH3Js"),
                Family::SkTH3J => ("fig08_cfc_C_skth3j.csv", "Figure 8: System C on SkTH3J"),
                _ => ("fig09_cfc_C_unth3j.csv", "Figure 9: System C on UnTH3J"),
            };
            let (cp, cc, cr) = (run_p.cfc(), run_1c.cfc(), run_r.cfc());
            ctx.write_cfc_figure(file, title, &[("P", &cp), ("1C", &cc), ("R", &cr)], max_x)?;

            let row = table1_row(db, built);
            table1.push(vec![
                built.config.name.clone(),
                format!("{:.1}", row.size_mib),
                format!("{:.1}", row.build_sim_minutes),
            ]);
            table3.extend(index_width_rows(
                &[(built.config.name.as_str(), &built.config)],
                &p.config,
            ));

            family_runs.insert(fam.name(), (run_p, run_1c, run_r));
        }

        for (name, built) in [(format!("C_{label}_P"), &p), (format!("C_{label}_1C"), &c1)] {
            let row = table1_row(db, built);
            table1.push(vec![
                name,
                format!("{:.1}", row.size_mib),
                format!("{:.1}", row.build_sim_minutes),
            ]);
        }

        // §4.3 totals for SkTH3J, and the Figure 7/8/9 claims.
        if label == "SkTH" {
            if let Some((run_p, run_1c, run_r)) = family_runs.get("SkTH3J") {
                let (tp, t1, tr) = (
                    run_p.total_lower_bound_sim_seconds(),
                    run_1c.total_lower_bound_sim_seconds(),
                    run_r.total_lower_bound_sim_seconds(),
                );
                ctx.claim(
                    "sec4.3-1c-vs-r-totals",
                    "On SkTH3J the conservative totals favour 1C over R by a large factor (paper: ~17x)",
                    t1 * 2.0 < tr,
                    format!(
                        "lower bounds: P={tp:.0}s 1C={t1:.0}s R={tr:.0}s (1C {:.1}x better than R)",
                        tr / t1.max(1e-9)
                    ),
                );
                ctx.claim(
                    "fig8-timeout-ordering",
                    "Timeout counts on SkTH3J order as 1C < R < P (paper: 1 / 50 / 78)",
                    run_1c.timeout_count() <= run_r.timeout_count()
                        && run_r.timeout_count() <= run_p.timeout_count(),
                    format!(
                        "timeouts: P={} R={} 1C={}",
                        run_p.timeout_count(),
                        run_r.timeout_count(),
                        run_1c.timeout_count()
                    ),
                );
            }
            if let Some((_, run_1c, run_r)) = family_runs.get("SkTH3Js") {
                let (c1c, cr) = (run_1c.cfc(), run_r.cfc());
                // Does R beat 1C anywhere on the expensive tail?
                let crosses = c1c
                    .breakpoints()
                    .iter()
                    .chain(cr.breakpoints())
                    .any(|&x| cr.at(x * 1.0001) > c1c.at(x * 1.0001) + 1e-9);
                ctx.claim(
                    "fig7-r-wins-tail",
                    "On SkTH3Js the recommendation outperforms 1C on part of the workload (the only such case)",
                    crosses,
                    format!(
                        "curves cross: {crosses} (R timeouts {}, 1C timeouts {})",
                        run_r.timeout_count(),
                        run_1c.timeout_count()
                    ),
                );
            }
        } else if let Some((run_p, run_1c, run_r)) = family_runs.get("UnTH3J") {
            let gap = run_r.total_lower_bound_sim_seconds()
                / run_1c.total_lower_bound_sim_seconds().max(1e-9);
            ctx.claim(
                "fig9-uniform-better",
                "On uniform data the recommender performs relatively better, yet 1C remains best overall",
                gap < 4.0 && run_1c.total_lower_bound_sim_seconds()
                    <= run_r.total_lower_bound_sim_seconds() * 1.05,
                format!(
                    "totals: P={:.0}s R={:.0}s 1C={:.0}s (R/1C = {gap:.2})",
                    run_p.total_lower_bound_sim_seconds(),
                    run_r.total_lower_bound_sim_seconds(),
                    run_1c.total_lower_bound_sim_seconds()
                ),
            );
        }
        trace.span_end(label);
        ctx.log_section_end(&format!("{label}: section done"));
    }

    // ================= Tables and summary files =================
    ctx.csv(
        "table1_configurations.csv",
        &["configuration", "size_mib", "build_sim_minutes"],
        &table1,
    )?;
    ctx.csv(
        "table2_nref_indexes.csv",
        &["configuration", "table", "w1", "w2", "w3", "w4"],
        &table2,
    )?;
    ctx.csv(
        "table3_tpch_indexes.csv",
        &["configuration", "table", "w1", "w2", "w3", "w4"],
        &table3,
    )?;
    ctx.csv(
        "runs_raw.csv",
        &["family", "configuration", "query", "sim_seconds"],
        &runs_csv,
    )?;
    ctx.csv(
        "totals_lower_bounds.csv",
        &["family", "configuration", "total_lb_s", "timeouts"],
        &totals_csv,
    )?;

    // Convergence curves (profiles x what-if ladder). No wall-clock:
    // `convergence.csv` participates in the determinism byte-compare
    // like every other CSV.
    ctx.csv(
        "convergence.csv",
        &CSV_HEADER,
        &convergence_csv_rows(&convergence),
    )?;

    // Figure 12 companion artifacts: the convergence trajectories as a
    // dedicated CSV (objective scaled to % of initial) and an ASCII
    // step plot in `figures.txt`. Both derive purely from the what-if
    // ladder data above, so they byte-compare across runs and thread
    // counts like `convergence.csv` does.
    ctx.csv(
        "fig12_convergence_curve.csv",
        &FIG12_HEADER,
        &fig12_csv_rows(&convergence),
    )?;
    ctx.figure(
        "Figure 12: convergence curves, objective vs what-if calls (NREF2J)",
        &render_convergence_curve(&convergence),
    );

    let claim_rows: Vec<Vec<String>> = ctx
        .claims
        .iter()
        .map(|c| {
            vec![
                c.id.clone(),
                c.statement.clone(),
                if c.holds { "HOLDS" } else { "DIVERGES" }.to_string(),
                c.evidence.clone(),
            ]
        })
        .collect();
    ctx.csv(
        "claims.csv",
        &["id", "paper_claim", "status", "evidence"],
        &claim_rows,
    )?;
    let figures = std::mem::take(&mut ctx.figures);
    ctx.bytes("figures.txt", figures.as_bytes())?;
    ctx.figures = figures;

    // Per-grid-cell timings. Wall-clock varies run to run, so this file
    // is excluded from determinism comparisons (see tests/determinism.rs).
    let timings = timings_json(par.threads(), ctx.t0.elapsed().as_secs_f64(), &ctx.timings);
    ctx.bytes("timings.json", timings.as_bytes())?;

    // Buffer-pool traffic per grid cell (schema `tab-io-bench-v1`,
    // documented on `io_bench_json`). Wall-clock-free: eviction is a
    // pure function of the logical access stream, so the file
    // byte-compares across thread counts (`tests/determinism.rs` holds
    // us to it).
    let io_bench = io_bench_json(spec, &ctx.io_cells);
    ctx.bytes("BENCH_io.json", io_bench.as_bytes())?;

    // Publish the trace last: a sink that silently swallowed a write
    // failure (injected `enospc:trace` / `truncate:trace`, or a real
    // full disk) fails the run after every artifact is written, and the
    // partial trace stays at `<path>.tmp`.
    if let Some(s) = sink {
        let path = s.finish().map_err(|e| ReproError::TraceSink {
            path: cfg.trace.clone().unwrap_or_default(),
            message: e.to_string(),
        })?;
        ctx.log(&format!("trace published to {}", path.display()));
    }

    ctx.log_section_end(&format!(
        "done: {}/{} claims hold",
        ctx.claims.iter().filter(|c| c.holds).count(),
        ctx.claims.len()
    ));
    Ok(ReproSummary {
        claims: ctx.claims,
        figures_text: ctx.figures,
    })
}

/// Rows of Tables 2/3: per-table counts of 1..4-column indexes in a
/// recommended configuration, excluding the `P` baseline's primary-key
/// indexes; materialized-view indexes appear as `view:<name>` rows.
fn index_width_rows(recs: &[(&str, &Configuration)], p_config: &Configuration) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for (name, cfg) in recs {
        let mut per_table: BTreeMap<String, [usize; 4]> = BTreeMap::new();
        for idx in &cfg.indexes {
            if p_config.indexes.contains(idx) {
                continue; // pre-existing PK index
            }
            let w = idx.columns.len().min(4);
            per_table.entry(idx.table.clone()).or_default()[w - 1] += 1;
        }
        for def in &cfg.mviews {
            let entry = per_table
                .entry(format!("view:{}", def.spec.name))
                .or_default();
            for cols in &def.indexes {
                entry[cols.len().min(4) - 1] += 1;
            }
        }
        for (table, widths) in per_table {
            out.push(vec![
                name.to_string(),
                table,
                widths[0].to_string(),
                widths[1].to_string(),
                widths[2].to_string(),
                widths[3].to_string(),
            ]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_core::Parallelism;
    use tab_engine::ChargePolicy;

    /// What one `repro` command line must build.
    struct Want {
        spec: BenchSpec,
        out: &'static str,
        trace: Option<&'static str>,
        faults: Option<&'static str>,
        check: bool,
        expect: Option<&'static str>,
    }

    fn parse(line: &str) -> Result<(ReproConfig, Args), String> {
        let args = Args::parse(line.split_whitespace().map(String::from), &REPRO_FLAGS)?;
        Ok((ReproConfig::from_args(&args)?, args))
    }

    /// Every command line the gate, the ledger, DESIGN.md and
    /// EXPERIMENTS.md spell out builds the spec and the operational
    /// options the earlier per-binary parser built from it.
    #[test]
    fn documented_command_lines_build_their_runs() {
        let small = |threads| BenchSpec {
            threads: Parallelism::new(threads),
            ..BenchSpec::small()
        };
        let pooled = |threads, pages, charge| BenchSpec {
            buffer_pages: pages,
            charge,
            ..small(threads)
        };
        let run = |spec, out| Want {
            spec,
            out,
            trace: None,
            faults: None,
            check: false,
            expect: None,
        };
        const EXPECT: &str = "ci/expected_claims_small.csv";
        const POISON: &str = "panic:cell:NREF3J/NREF_1C";
        let cases = [
            ("", run(BenchSpec::paper(), "results")),
            ("--small", run(small(0), "results-small")),
            ("--small --threads 4", run(small(4), "results-small")),
            ("--small --threads 1", run(small(1), "results-small")),
            (
                "--small --threads 2 --check --expect ci/expected_claims_small.csv --out D",
                Want {
                    check: true,
                    expect: Some(EXPECT),
                    ..run(small(2), "D")
                },
            ),
            (
                "--small --threads 2 --check --expect ci/expected_claims_small.csv --out D \
                 --buffer-pages 256 --charge metered",
                Want {
                    check: true,
                    expect: Some(EXPECT),
                    ..run(pooled(2, 256, ChargePolicy::Metered), "D")
                },
            ),
            (
                "--small --threads 2 --out ci/golden_small --trace ci/golden_trace_small.jsonl",
                Want {
                    trace: Some("ci/golden_trace_small.jsonl"),
                    ..run(small(2), "ci/golden_small")
                },
            ),
            (
                "--small --threads 2 --buffer-pages 64 --charge metered --out /tmp/pool64",
                run(pooled(2, 64, ChargePolicy::Metered), "/tmp/pool64"),
            ),
            (
                "--small --buffer-pages 64 --charge observed --out results-observed",
                run(pooled(0, 64, ChargePolicy::Observed), "results-observed"),
            ),
            (
                "--small --threads 2 --faults panic:cell:NREF3J/NREF_1C",
                Want {
                    faults: Some(POISON),
                    ..run(small(2), "results-small")
                },
            ),
            (
                "--small --out results-chaos --faults panic:cell:NREF3J/NREF_1C",
                Want {
                    faults: Some(POISON),
                    ..run(small(0), "results-chaos")
                },
            ),
            (
                "--small --out results-chaos",
                run(small(0), "results-chaos"),
            ),
            (
                "--small --faults truncate:trace:40 --trace trace.jsonl",
                Want {
                    trace: Some("trace.jsonl"),
                    faults: Some("truncate:trace:40"),
                    ..run(small(0), "results-small")
                },
            ),
            (
                "--faults enospc:claims.csv",
                Want {
                    faults: Some("enospc:claims.csv"),
                    ..run(BenchSpec::paper(), "results")
                },
            ),
            (
                "--small --query-threads 4 --morsel-rows 64",
                run(
                    BenchSpec {
                        query_threads: Parallelism::new(4),
                        morsel_rows: 64,
                        ..small(0)
                    },
                    "results-small",
                ),
            ),
        ];
        for (line, want) in cases {
            let (cfg, args) = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(cfg.spec, want.spec, "{line}");
            assert_eq!(cfg.out_dir, PathBuf::from(want.out), "{line}");
            assert_eq!(cfg.trace, want.trace.map(PathBuf::from), "{line}");
            assert_eq!(
                cfg.faults.map(|p| p.to_string()),
                want.faults
                    .map(|s| FaultPlan::parse(s).unwrap().to_string()),
                "{line}"
            );
            assert_eq!(args.switch("check"), want.check, "{line}");
            assert_eq!(args.get("expect"), want.expect, "{line}");
        }
    }

    #[test]
    fn usage_errors_name_what_is_wrong() {
        for (line, want) in [
            ("--no-such-flag", "unknown flag `--no-such-flag`"),
            ("--resume", "unknown flag `--resume`"),
            ("--small 3", "--small takes no value, got `3`"),
            ("--threads", "--threads needs a value"),
            ("--threads two", "flag --threads: cannot parse `two`"),
            ("--morsel-rows 0", "--morsel-rows must be at least 1"),
            ("--small --small", "duplicate flag --small"),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(want), "{line}");
        }
        let bogus = parse("--charge bogus").err().expect("bad charge policy");
        assert!(bogus.starts_with("--charge: "), "{bogus}");
    }
}
