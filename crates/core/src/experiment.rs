//! The benchmark suite: databases, configurations, workloads, one
//! recommendation request as the front ends make it, and the §4.4
//! insertion analysis.
//!
//! This module assembles the paper's experimental setup (§4.1): three
//! databases (NREF, skewed TPC-H, uniform TPC-H), the `P`/`1C`/`R`
//! configurations per family, 100-query workloads sampled from each
//! family, and the measurement protocol (30-minute timeout, statistics
//! collected before recommending and before running).

use std::io;

use tab_advisor::{one_column_configuration, p_configuration, profile, AdvisorInput, SearchStats};
use tab_datagen::{
    generate_nref_checked, generate_tpch_checked, Distribution, NrefParams, TpchParams,
};
use tab_engine::{ChargePolicy, EngineState, ExecOpts, PoolOpts, RANDOM_PAGE_COST, SEQ_PAGE_COST};
use tab_families::{sample_preserving, Family};
use tab_sqlq::Query;
use tab_storage::{
    BuiltConfiguration, Configuration, Database, Faults, IndexSpec, Parallelism, Trace, PAGE_SIZE,
};

use crate::args::Args;
use crate::measure::WorkloadRun;

/// Everything a benchmark run is measured under, in one record: the
/// scales, workload size, timeout and seed that shape its outcomes, and
/// the execution settings (threads, morsels, buffer pool) that must not.
/// Two presets name the runs the repository makes; [`BenchSpec::from_args`]
/// is the one way a command line changes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchSpec {
    /// Proteins in the synthetic NREF (other tables follow the paper's
    /// ratios; the paper preset yields ~1 M total rows).
    pub nref_proteins: usize,
    /// TPC-H scale factor for both the skewed and uniform instances.
    pub tpch_scale: f64,
    /// Queries per sampled workload (the paper uses 100).
    pub workload_size: usize,
    /// Timeout budget in cost units.
    pub timeout_units: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the measurement fan-out (`--threads`; 0 = all
    /// cores). Results are identical at any setting.
    pub threads: Parallelism,
    /// Intra-query workers for morsel-driven execution inside each
    /// measured query (`--query-threads`). Sequential by default: the
    /// fan-out above already saturates the cores. Results are identical
    /// at any setting.
    pub query_threads: Parallelism,
    /// Rows per execution morsel (`--morsel-rows`). Results are
    /// identical at any setting.
    pub morsel_rows: usize,
    /// Buffer-pool capacity in 8 KiB frames for each measured query
    /// (`--buffer-pages`; `0` = no pool, the purely modeled charge path).
    /// Each query gets a fresh pool, so eviction state never leaks
    /// between queries.
    pub buffer_pages: usize,
    /// How the meter charges pool traffic (`--charge`); ignored when
    /// `buffer_pages == 0`. [`ChargePolicy::Metered`] keeps every cost
    /// total byte-identical to the pool-less path.
    pub charge: ChargePolicy,
}

impl BenchSpec {
    /// The paper-shaped run `repro` makes without `--small`.
    pub fn paper() -> Self {
        BenchSpec {
            nref_proteins: 10_000,
            // lineitem at this scale occupies about as many pages as the
            // largest NREF table, so the shared 30-minute timeout has the
            // same bite on both databases (as it did in the paper, whose
            // databases were all 6.5-10 GB).
            tpch_scale: 0.1,
            workload_size: 100,
            timeout_units: tab_engine::DEFAULT_TIMEOUT_UNITS,
            ..Self::small()
        }
    }

    /// The fast run behind `--small`, the gate and the tests.
    pub fn small() -> Self {
        BenchSpec {
            nref_proteins: 1_500,
            tpch_scale: 0.004,
            workload_size: 30,
            timeout_units: tab_engine::DEFAULT_TIMEOUT_UNITS / 10.0,
            seed: 2005,
            threads: Parallelism::available(),
            query_threads: Parallelism::sequential(),
            morsel_rows: tab_engine::DEFAULT_MORSEL_ROWS,
            buffer_pages: 0,
            charge: ChargePolicy::Observed,
        }
    }

    /// The spec a command line names: the `--small` preset or the paper
    /// one, with whichever of `--threads`, `--query-threads`,
    /// `--morsel-rows`, `--buffer-pages` and `--charge` it gives.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let mut spec = if args.switch("small") {
            Self::small()
        } else {
            Self::paper()
        };
        if let Some(n) = args.get_parsed("threads")? {
            spec.threads = Parallelism::new(n);
        }
        if let Some(n) = args.get_parsed("query-threads")? {
            spec.query_threads = Parallelism::new(n);
        }
        if let Some(n) = args.get_parsed("morsel-rows")? {
            if n == 0 {
                return Err("--morsel-rows must be at least 1".into());
            }
            spec.morsel_rows = n;
        }
        if let Some(n) = args.get_parsed("buffer-pages")? {
            spec.buffer_pages = n;
        }
        if let Some(c) = args.get("charge") {
            spec.charge = ChargePolicy::parse(c).map_err(|e| format!("--charge: {e}"))?;
        }
        Ok(spec)
    }

    /// The benchmark database `label` names (§4.1): `NREF` is synthetic
    /// NREF at `nref_proteins` with `seed`; `SkTH` is TPC-H at
    /// `tpch_scale` with Zipf(1.0) values and `seed + 1`; `UnTH` is
    /// uniform TPC-H with `seed + 2`. The one owner of that rule: each
    /// database owns its seed, so it is the same whichever others a
    /// caller generates. `faults` arms the generator's
    /// `panic:build:<table>` and `enospc:datagen` sites; any other label
    /// is an `InvalidInput` error.
    pub fn database(&self, label: &str, faults: &Faults) -> io::Result<Database> {
        let tpch = |distribution, seed| {
            generate_tpch_checked(
                TpchParams {
                    scale: self.tpch_scale,
                    distribution,
                    seed,
                },
                faults,
            )
        };
        match label {
            "NREF" => generate_nref_checked(
                NrefParams {
                    proteins: self.nref_proteins,
                    seed: self.seed,
                },
                faults,
            ),
            "SkTH" => tpch(Distribution::Zipf(1.0), self.seed + 1),
            "UnTH" => tpch(Distribution::Uniform, self.seed + 2),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("no benchmark database is labelled `{other}`"),
            )),
        }
    }

    /// The options one measured query executes under, with its pool
    /// when `buffer_pages > 0`. Tracing and fault sites start disabled;
    /// the grid arms them per job.
    pub fn exec_opts<'a>(&self) -> ExecOpts<'a> {
        let pool = (self.buffer_pages > 0).then(|| PoolOpts {
            policy: self.charge,
            ..PoolOpts::new(self.buffer_pages)
        });
        ExecOpts {
            par: self.query_threads,
            morsel_rows: self.morsel_rows,
            pool,
            ..ExecOpts::default()
        }
    }
}

/// Build the `P` configuration for a database label.
pub fn build_p(db: &Database, label: &str) -> BuiltConfiguration {
    BuiltConfiguration::build(p_configuration(db, format!("{label}_P")), db)
}

/// Build the `1C` configuration for a database label.
pub fn build_1c(db: &Database, label: &str) -> BuiltConfiguration {
    build_1c_par(db, label, Parallelism::sequential(), &[])
}

/// [`build_1c`] with its index builds (34 on NREF, 46 on TPC-H; `P` has
/// one per table) fanned out over `par`, sharing the indexes `reuse`
/// already holds. Every configuration in `reuse` must have been built
/// over this same `db`; see [`BuiltConfiguration::build_par`].
pub fn build_1c_par(
    db: &Database,
    label: &str,
    par: Parallelism,
    reuse: &[&BuiltConfiguration],
) -> BuiltConfiguration {
    let config = one_column_configuration(db, format!("{label}_1C"));
    BuiltConfiguration::build_par(config, db, par, reuse)
}

/// The configuration `tab` names `p` or `1c` (compared
/// case-insensitively) for a database label, 1C's index builds fanned
/// out over `par`; `None` for any other name. The one table behind
/// `--config`, `--configs` and [`served_state`].
pub fn build_config(
    db: &Database,
    label: &str,
    name: &str,
    par: Parallelism,
) -> Option<BuiltConfiguration> {
    match name.to_ascii_lowercase().as_str() {
        "p" => Some(build_p(db, label)),
        "1c" => Some(build_1c_par(db, label, par, &[])),
        _ => None,
    }
}

/// The state `tab serve` boots: `db` serving its `p` and `1c`
/// configurations, and nothing more (this is the work a restart
/// repeats before it replays the log).
pub fn served_state(db: Database, label: &str, par: Parallelism) -> EngineState {
    let p = build_p(&db, label);
    let c1 = build_1c_par(&db, label, par, &[]);
    EngineState::new(db)
        .with_config("p", p)
        .with_config("1c", c1)
}

/// The paper's space budget for recommendations on this database: the
/// size of `1C` minus the size of `P` (§3.2.3), from row counts and
/// schema widths — neither configuration is built.
pub fn space_budget(db: &Database, label: &str) -> u64 {
    let one_c = one_column_configuration(db, label).index_pages(db);
    one_c.saturating_sub(p_configuration(db, label).index_pages(db)) * PAGE_SIZE as u64
}

/// The draw seed of `tab`'s workloads, `tab serve`'s `ADVISE` and the
/// gate's serving rows: fixed, not derived from `--seed` the way
/// [`workload_seed`] derives the benchmark's.
pub const DRAW_SEED: u64 = 2005;

/// The seed a benchmark run with master seed `seed` draws `family`'s
/// workload with.
pub fn workload_seed(seed: u64, family: Family) -> u64 {
    seed ^ family.name().len() as u64
}

/// The benchmark workload of a run with master seed `seed`: `family`
/// enumerated on `db` and sampled with [`workload_seed`], preserving
/// the family's cost distribution (§4.1.1; stratified on estimated cost
/// in `p_built`, see `tab-families::sample`). Sequential; see
/// [`prepare_workload_db_with`] for the draw itself.
pub fn prepare_workload_db(
    db: &Database,
    family: Family,
    p_built: &BuiltConfiguration,
    workload_size: usize,
    seed: u64,
) -> Vec<Query> {
    prepare_workload_db_with(
        db,
        family,
        p_built,
        workload_size,
        workload_seed(seed, family),
        Parallelism::sequential(),
    )
    .unwrap_or_default()
}

/// The workload draw: enumerate `family` on `db` and sample
/// `workload_size` queries from it with `seed`, stratified on estimated
/// cost in `p_built` (§4.1.1). Enumeration and cost estimation fan out
/// over `par`; the sample is identical at any thread count. A family
/// with no query on `db` is an error.
pub fn prepare_workload_db_with(
    db: &Database,
    family: Family,
    p_built: &BuiltConfiguration,
    workload_size: usize,
    seed: u64,
    par: Parallelism,
) -> Result<Vec<Query>, String> {
    let all = family.enumerate(db, par);
    if all.is_empty() {
        return Err(format!(
            "family {} is empty on this database",
            family.name()
        ));
    }
    let session = tab_engine::Session::new(db, p_built);
    Ok(sample_preserving(
        &all,
        |q| session.estimate(q).unwrap_or(f64::INFINITY),
        workload_size,
        seed,
        par,
    ))
}

/// What one recommendation request produced.
#[derive(Debug)]
pub struct Advice {
    /// The profile's name (`A`, `B` or `C`).
    pub system: &'static str,
    /// Queries in the drawn workload.
    pub workload: usize,
    /// The space budget the search ran under, in bytes.
    pub budget_bytes: u64,
    /// The recommended configuration; `None` when the profile gave up.
    pub recommendation: Option<Configuration>,
    /// The recommendation's indexes that `P` does not already hold, in
    /// recommendation order.
    pub new_indexes: Vec<IndexSpec>,
    /// The search's counters.
    pub stats: SearchStats,
}

/// Ask profile `system` ([`tab_advisor::profile`]) for a configuration
/// for `family` on `db`: draw `workload` queries with [`DRAW_SEED`],
/// then search from `P` within the space budget of database `label`,
/// fanned out over `par` and traced into `trace`. An unknown profile
/// (checked before any work) or an empty family is an error.
pub fn advise(
    db: &Database,
    label: &str,
    family: Family,
    system: &str,
    workload: usize,
    par: Parallelism,
    trace: Trace<'_>,
) -> Result<Advice, String> {
    let rec = profile(system)
        .ok_or_else(|| format!("unknown system `{}`", system.to_ascii_uppercase()))?;
    let p = build_p(db, label);
    let w = prepare_workload_db_with(db, family, &p, workload, DRAW_SEED, par)?;
    let budget_bytes = space_budget(db, label);
    let (recommendation, stats) = rec.recommend_with_stats(&AdvisorInput {
        db,
        current: &p,
        workload: &w,
        budget_bytes,
        par,
        trace,
    });
    let new_indexes = recommendation
        .iter()
        .flat_map(|cfg| &cfg.indexes)
        .filter(|i| !p.config.indexes.contains(i))
        .cloned()
        .collect();
    Ok(Advice {
        system: rec.name(),
        workload: w.len(),
        budget_bytes,
        recommendation,
        new_indexes,
        stats,
    })
}

/// One row of Table 1: configuration size and build time.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration name, e.g. `B_NREF2J_R`.
    pub name: String,
    /// Total size (base heaps + auxiliary structures) in MiB of the
    /// scaled instance. The paper reports GB at its 6.5–10 GB scales;
    /// relative sizes are the reproduction target.
    pub size_mib: f64,
    /// Modeled build time in simulated minutes (pages written charged at
    /// the sequential-write rate).
    pub build_sim_minutes: f64,
}

/// Compute a Table 1 row for a built configuration.
pub fn table1_row(db: &Database, built: &BuiltConfiguration) -> Table1Row {
    let bytes = db.heap_bytes() + built.report.aux_bytes();
    let build_units = built.report.pages_written as f64 * SEQ_PAGE_COST;
    Table1Row {
        name: built.config.name.clone(),
        size_mib: bytes as f64 / (1024.0 * 1024.0),
        build_sim_minutes: tab_engine::units_to_sim_seconds(build_units) / 60.0,
    }
}

/// §4.4's insertion analysis for one base table.
#[derive(Debug, Clone)]
pub struct InsertionAnalysis {
    /// Modeled per-tuple maintenance cost (cost units) in `P`.
    pub per_insert_p: f64,
    /// Per-tuple cost in the recommended configuration.
    pub per_insert_r: f64,
    /// Per-tuple cost in `1C`.
    pub per_insert_1c: f64,
    /// Workload lower-bound totals (sim seconds) on `R` and `1C`.
    pub workload_r: f64,
    /// See `workload_r`.
    pub workload_1c: f64,
    /// Number of inserted tuples at which `1C`'s faster queries are
    /// overtaken by its slower inserts (`None` when `1C` never loses,
    /// i.e. its insert cost does not exceed `R`'s).
    pub breakeven_tuples: Option<f64>,
}

/// Per-tuple insert maintenance cost (cost units) for a configuration,
/// from the same cost model the executor charges: one heap page write
/// plus a descent-and-leaf write per index on the table, plus a
/// delta-join charge per dependent view.
pub fn per_insert_cost(built: &BuiltConfiguration, table: &str) -> f64 {
    let mut pages = 1u64;
    for idx in built.indexes_on(table) {
        pages += idx.height() + 1;
    }
    for (mv, _) in built.mviews.iter() {
        if mv.spec.base.iter().any(|b| b == table) {
            pages += 3;
        }
    }
    pages as f64 * RANDOM_PAGE_COST
}

/// Compute the §4.4 break-even point: inserting `n` tuples costs
/// `n * per_insert(C)`; the workload costs `total(C)`. The break-even is
/// the `n` where `1C`'s total catches up with `R`'s.
pub fn insertion_breakeven(
    p: &BuiltConfiguration,
    r: &BuiltConfiguration,
    one_c: &BuiltConfiguration,
    run_r: &WorkloadRun,
    run_1c: &WorkloadRun,
    table: &str,
) -> InsertionAnalysis {
    let per_insert_p = per_insert_cost(p, table);
    let per_insert_r = per_insert_cost(r, table);
    let per_insert_1c = per_insert_cost(one_c, table);
    let workload_r = run_r.total_lower_bound_sim_seconds();
    let workload_1c = run_1c.total_lower_bound_sim_seconds();
    // In sim seconds: workload_1c + n*i_1c = workload_r + n*i_r.
    let di = tab_engine::units_to_sim_seconds(per_insert_1c - per_insert_r);
    let dw = workload_r - workload_1c;
    let breakeven_tuples = if di > 0.0 && dw > 0.0 {
        Some(dw / di)
    } else {
        None
    };
    InsertionAnalysis {
        per_insert_p,
        per_insert_r,
        per_insert_1c,
        workload_r,
        workload_1c,
        breakeven_tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_engine::Outcome;

    fn tiny_params() -> BenchSpec {
        BenchSpec {
            nref_proteins: 400,
            tpch_scale: 0.002,
            workload_size: 10,
            timeout_units: 500.0,
            seed: 7,
            threads: Parallelism::sequential(),
            ..BenchSpec::small()
        }
    }

    fn tiny_nref() -> Database {
        tiny_params()
            .database("NREF", &Faults::disabled())
            .expect("no faults armed")
    }

    #[test]
    fn database_maps_each_label_to_its_generator() {
        let spec = tiny_params();
        let db = |label| spec.database(label, &Faults::disabled());
        let nref = db("NREF").unwrap();
        assert_eq!(nref.table_names().count(), 6);
        assert!(nref.table("neighboring_seq").is_some());
        let skth = db("SkTH").unwrap();
        assert_eq!(skth.table_names().count(), 8);
        let unth = db("UnTH").unwrap();
        assert_eq!(unth.table_names().count(), 8);
        assert_eq!(
            skth.table("lineitem").unwrap().n_rows(),
            unth.table("lineitem").unwrap().n_rows()
        );
        let err = db("NREF2J").expect_err("a family is not a database label");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn workload_draw_is_identical_at_one_and_three_threads() {
        let spec = tiny_params();
        let db = tiny_nref();
        let p = build_p(&db, "NREF");
        let seed = workload_seed(spec.seed, Family::Nref2J);
        let draw = |n| {
            prepare_workload_db_with(
                &db,
                Family::Nref2J,
                &p,
                spec.workload_size,
                seed,
                Parallelism::new(n),
            )
        };
        assert_eq!(draw(1).unwrap(), draw(3).unwrap());
    }

    #[test]
    fn workload_prepared_at_requested_size() {
        let spec = tiny_params();
        let db = tiny_nref();
        let p = build_p(&db, "NREF");
        let w = prepare_workload_db(&db, Family::Nref2J, &p, spec.workload_size, spec.seed);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn one_c_is_larger_and_slower_to_build_than_p() {
        let db = tiny_nref();
        let p = build_p(&db, "NREF");
        let c1 = build_1c(&db, "NREF");
        let rp = table1_row(&db, &p);
        let r1 = table1_row(&db, &c1);
        assert!(r1.size_mib > rp.size_mib);
        assert!(r1.build_sim_minutes > rp.build_sim_minutes);
        assert!(space_budget(&db, "NREF") > 0);
    }

    #[test]
    fn space_budget_equals_the_built_difference() {
        for (nref_proteins, tpch_scale) in [(150, 0.001), (400, 0.003)] {
            let spec = BenchSpec {
                nref_proteins,
                tpch_scale,
                ..tiny_params()
            };
            for label in ["NREF", "SkTH", "UnTH"] {
                let db = spec.database(label, &Faults::disabled()).unwrap();
                let p = build_p(&db, label);
                let c1 = build_1c_par(&db, label, Parallelism::new(3), &[]);
                let built = c1.report.aux_bytes() - p.report.aux_bytes();
                assert!(built > 0, "{label} at {nref_proteins}/{tpch_scale}");
                assert_eq!(
                    space_budget(&db, label),
                    built,
                    "{label} at {nref_proteins}/{tpch_scale}"
                );
            }
        }
    }

    #[test]
    fn insertion_breakeven_math() {
        let db = tiny_nref();
        let p = build_p(&db, "NREF");
        let c1 = build_1c(&db, "NREF");
        // Synthetic runs: R slower on queries, cheaper on inserts.
        let run_r = WorkloadRun {
            config: "R".into(),
            outcomes: vec![Outcome::Done {
                units: 60_000.0,
                rows: 1,
            }],
            io: tab_storage::PoolStats::default(),
        };
        let run_1c = WorkloadRun {
            config: "1C".into(),
            outcomes: vec![Outcome::Done {
                units: 10_000.0,
                rows: 1,
            }],
            io: tab_storage::PoolStats::default(),
        };
        let a = insertion_breakeven(&p, &p, &c1, &run_r, &run_1c, "neighboring_seq");
        assert!(a.per_insert_1c > a.per_insert_r);
        let be = a.breakeven_tuples.expect("finite break-even");
        // Sanity: inserting `be` tuples equalizes the totals.
        let lhs = a.workload_1c + be * tab_engine::units_to_sim_seconds(a.per_insert_1c);
        let rhs = a.workload_r + be * tab_engine::units_to_sim_seconds(a.per_insert_r);
        assert!((lhs - rhs).abs() < 1e-6);
    }
}
