//! The workloads, and what they share: the run context, the sizes, and
//! failure accounting.

pub mod advisor;
pub mod grid;
pub mod pool;
pub mod repro;
pub mod serve;

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::proc::RunDir;
use crate::trace::Tracer;

/// Each workload with the one-line reason it exists, in the order they
/// are run and reported.
pub const WHY: [(&str, &str); 7] = [
    (
        "repro_pipeline",
        "The paper's product end to end through the CLI: every layer does a little, none dominates; bypasses the buffer pool",
    ),
    (
        "pool_sweep",
        "Buffer pool and spill pager only: a fixed page stream at 256 frames that never fits, spills and reads back, then a hot set that fits",
    ),
    (
        "grid_exec",
        "Executor only: sampled 2- and 3-way joins over skewed and uniform keys under P and 1C; advisor, wire and WAL do nothing",
    ),
    (
        "advisor_search",
        "Planner as what-if optimizer: profiles A, B, C search recommendations for 100-query workloads; the executor does nothing",
    ),
    (
        "serve_read",
        "Read-only serving over the wire: two closed-loop connections, small queries; wire, connection loop, snapshot, executor",
    ),
    (
        "serve_durable",
        "Keyed INSERTs beside reads on a durable server: state clone, WAL append and fsync, publish under the writer latch",
    ),
    (
        "serve_recover",
        "kill -9 then restart on the same WAL until the first PING answers: boot plus replay of every logged record",
    ),
];

/// Workload names, in [`WHY`]'s order.
pub const NAMES: [&str; 7] = {
    let mut names = [""; 7];
    let mut i = 0;
    while i < names.len() {
        names[i] = WHY[i].0;
        i += 1;
    }
    names
};

/// Set-ups per run; the median is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Input sizes. Time is bounded by `--seconds`, work by these.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `grid_exec`: NREF proteins, UnTH scale factor, queries per family.
    pub grid_nref: usize,
    pub grid_unth: f64,
    pub grid_queries: usize,
    /// `advisor_search`: NREF proteins, queries per family.
    pub advisor_nref: usize,
    pub advisor_queries: usize,
    /// `pool_sweep`: NREF proteins.
    pub pool_nref: usize,
    /// `serve_read`: NREF proteins, distinct queries.
    pub read_nref: usize,
    pub read_queries: usize,
    /// `serve_durable`: NREF proteins, keyed inserts.
    pub durable_nref: usize,
    pub durable_inserts: usize,
    /// `serve_recover`: NREF proteins, WAL records replayed per restart.
    pub recover_nref: usize,
    pub recover_records: usize,
    /// Layer probes: NREF proteins, UnTH scale factor, queries, inserts.
    pub probe_nref: usize,
    pub probe_unth: f64,
    pub probe_queries: usize,
    pub probe_inserts: usize,
}

impl Scale {
    /// The benchmark of record, sized for a 2-core box.
    pub const RECORD: Scale = Scale {
        grid_nref: 2000,
        grid_unth: 0.01,
        grid_queries: 100,
        advisor_nref: 1500,
        advisor_queries: 100,
        pool_nref: 2000,
        read_nref: 1500,
        read_queries: 32,
        durable_nref: 100,
        durable_inserts: 96,
        recover_nref: 300,
        recover_records: 24,
        probe_nref: 300,
        probe_unth: 0.004,
        probe_queries: 16,
        probe_inserts: 16,
    };

    /// The self-test: every code path in a few seconds.
    pub const TOY: Scale = Scale {
        grid_nref: 100,
        grid_unth: 0.001,
        grid_queries: 8,
        advisor_nref: 100,
        advisor_queries: 8,
        pool_nref: 100,
        read_nref: 100,
        read_queries: 8,
        durable_nref: 100,
        durable_inserts: 8,
        recover_nref: 100,
        recover_records: 4,
        probe_nref: 100,
        probe_unth: 0.001,
        probe_queries: 8,
        probe_inserts: 4,
    };
}

/// What every workload needs to know about this run.
pub struct Ctx<'a> {
    /// The checkout root (the working directory).
    pub root: &'a Path,
    /// Where `repro` and `tab` were built.
    pub bin_dir: &'a Path,
    pub run_dir: &'a RunDir,
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    pub scale: Scale,
}

impl Ctx<'_> {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// Operations attempted, failed and timed. A wrong answer, an error
/// envelope, a refused connection or a harness timeout is a failed
/// operation with a named reason and no latency sample.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few reasons, for the report.
    pub reasons: Vec<String>,
    /// Latency of each correct, measured operation.
    pub samples_ms: Vec<f64>,
}

impl Tally {
    /// Record one attempted operation: `Ok` with its latency (`None`
    /// for a correct but unmeasured warm-up), `Err` with the reason.
    pub fn record(&mut self, outcome: Result<Option<f64>, String>) {
        self.attempted += 1;
        match outcome {
            Ok(Some(ms)) => self.samples_ms.push(ms),
            Ok(None) => {}
            Err(reason) => {
                self.failed += 1;
                if self.reasons.len() < 8 {
                    self.reasons.push(reason);
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples_ms.extend(other.samples_ms);
        let room = 8usize.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Wall-clock of the measured phase.
    pub measured_s: f64,
    /// Peak resident set of the process doing the program's work: the
    /// child for CLI and wire workloads, this process otherwise.
    pub peak_rss_mb: f64,
    /// Counters that must repeat bit for bit at a fixed seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Diagnostics printed beside the metrics, not part of the contract.
    pub notes: Vec<String>,
}

/// Run `setup` [`SETUP_REPS`] times, keeping the last result; each
/// earlier one is dropped before the next is built.
pub fn repeat_setup<T>(
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let span = tr.begin("bench.setup");
        let t0 = Instant::now();
        let built = setup(tr);
        times.push(t0.elapsed().as_secs_f64());
        tr.end(span);
        last = Some(built?);
    }
    Ok((last.expect("SETUP_REPS is at least one"), times))
}

/// Run one workload by name.
pub fn run(name: &str, ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "repro_pipeline" => repro::run(ctx, tr, &[]),
        "pool_sweep" => pool::run(ctx, tr),
        // By hand only: it writes 2.4 GB of spill files per run.
        "repro_memcap" => repro::run(ctx, tr, &["--buffer-pages", "256", "--charge", "metered"]),
        "grid_exec" => grid::run(ctx, tr),
        "advisor_search" => advisor::run(ctx, tr),
        "serve_read" => serve::read(ctx, tr),
        "serve_durable" => serve::durable(ctx, tr),
        "serve_recover" => serve::recover(ctx, tr),
        other => Err(format!(
            "unknown workload `{other}` (one of: {}; by hand: repro_memcap)",
            NAMES.join(", ")
        )),
    }
}
