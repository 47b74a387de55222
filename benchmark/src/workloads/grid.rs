//! `grid_exec`: the executor, and nothing else.
//!
//! Sampled workloads of three join families (skewed NREF keys and
//! uniform TPC-H keys, 2- and 3-way joins) run one query at a time
//! through `Session::run` under configurations P and 1C, with the suite
//! timeout. Advisor, wire and WAL do nothing here, so a change to them
//! should leave this workload alone.
//!
//! Correct means: every query that completes under both configurations
//! returns the same rows (different plans, same answer), and every pass
//! repeats the first pass's verdict and cost units bit for bit.

use std::time::Instant;

use tab_core::{build_1c, build_p, prepare_workload_db};
use tab_datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_engine::{Session, DEFAULT_TIMEOUT_UNITS};
use tab_families::Family;
use tab_sqlq::Query;
use tab_storage::{BuiltConfiguration, Database, Value};

use super::{repeat_setup, Ctx, Outcome, Tally};
use crate::proc::own_peak_rss_mb;
use crate::trace::Tracer;
use crate::wire::Answer;

/// The suite's small-scale timeout, in cost units.
const BUDGET: f64 = DEFAULT_TIMEOUT_UNITS / 10.0;

/// One database with both baseline configurations built.
pub struct Built {
    pub db: Database,
    pub p: BuiltConfiguration,
    pub c1: BuiltConfiguration,
}

/// Generate NREF at `proteins` and build P and 1C over it.
pub fn build_nref(tr: &mut Tracer, proteins: usize, seed: u64) -> Built {
    let span = tr.begin("datagen.generate_nref");
    let db = generate_nref(NrefParams { proteins, seed });
    tr.end(span);
    build_configs(tr, db, "NREF")
}

fn build_configs(tr: &mut Tracer, db: Database, label: &str) -> Built {
    let span = tr.begin("storage.build_p");
    let p = build_p(&db, label);
    tr.end(span);
    let span = tr.begin("storage.build_1c");
    let c1 = build_1c(&db, label);
    tr.end(span);
    Built { db, p, c1 }
}

/// How many times more queries [`sample`] draws than it keeps.
const OVERSAMPLE: usize = 10;

/// Sample `n` queries of a family. `prepare_workload_db` draws a sample
/// stratified on estimated cost under P by order of magnitude; that
/// leaves a tenfold range inside each stratum, and two seeds' workloads
/// then differ in work by a quarter. So draw [`OVERSAMPLE`] times too
/// many and keep every tenth by estimated cost: the kept workload
/// matches the family's cost distribution quantile for quantile, and
/// runs on different seeds do comparable work.
pub fn sample(tr: &mut Tracer, built: &Built, family: Family, n: usize, seed: u64) -> Vec<Query> {
    let span = tr.begin("families.prepare_workload_db");
    let drawn = prepare_workload_db(&built.db, family, &built.p, n * OVERSAMPLE, seed);
    tr.end(span);
    let session = Session::new(&built.db, &built.p);
    let mut costed: Vec<(f64, Query)> = drawn
        .into_iter()
        .map(|q| (session.estimate(&q).unwrap_or(f64::INFINITY), q))
        .collect();
    costed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let step = costed.len() as f64 / n as f64;
    (0..n.min(costed.len()))
        .map(|i| {
            costed[((i as f64 + 0.5) * step.max(1.0)) as usize]
                .1
                .clone()
        })
        .collect()
}

struct Inputs {
    nref: Built,
    unth: Built,
    /// `(family, runs on NREF, queries)`.
    workloads: Vec<(Family, bool, Vec<Query>)>,
}

fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Inputs {
    let nref = build_nref(tr, ctx.scale.grid_nref, ctx.seed);
    let span = tr.begin("datagen.generate_tpch");
    let unth_db = generate_tpch(TpchParams {
        scale: ctx.scale.grid_unth,
        distribution: Distribution::Uniform,
        seed: ctx.seed,
    });
    tr.end(span);
    let unth = build_configs(tr, unth_db, "UnTH");
    let n = ctx.scale.grid_queries;
    let workloads = [Family::Nref2J, Family::Nref3J, Family::UnTH3J]
        .into_iter()
        .map(|f| {
            let on_nref = f != Family::UnTH3J;
            let built = if on_nref { &nref } else { &unth };
            (f, on_nref, sample(tr, built, f, n, ctx.seed))
        })
        .collect();
    Inputs {
        nref,
        unth,
        workloads,
    }
}

/// FNV-1a over the sorted rows: equal for equal answers whatever order
/// the plan produced them in.
fn digest(mut rows: Vec<Vec<Value>>) -> u64 {
    rows.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &rows {
        for b in format!("{row:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One query of the grid: where it runs and what to call it.
struct Cell<'a> {
    session: Session<'a>,
    query: &'a Query,
    /// `<family>/<config>/q<i>`, for failure reasons.
    at: String,
    /// Whether the query's cost units count towards the exact counter.
    /// UnTH3J's do not: `tab_families::constants::count_tiers` breaks
    /// ties between equal masses in `HashMap` order, so on uniform data
    /// the enumerated family — and a few queries of its sample — differ
    /// from one process to the next at the same seed.
    repeats: bool,
}

/// The grid, flattened: per family a block of P cells then a block of
/// 1C cells, each `queries` long.
fn cells(inputs: &Inputs) -> Vec<Cell<'_>> {
    let mut cells = Vec::new();
    for (family, on_nref, queries) in &inputs.workloads {
        let built = if *on_nref { &inputs.nref } else { &inputs.unth };
        for (config, b) in [("P", &built.p), ("1C", &built.c1)] {
            cells.extend(queries.iter().enumerate().map(|(i, query)| Cell {
                session: Session::new(&built.db, b),
                query,
                at: format!("{}/{config}/q{i}", family.name()),
                repeats: *on_nref,
            }));
        }
    }
    cells
}

/// The reference pass: unmeasured (it also warms caches), it fixes what
/// every later pass must repeat and checks 1C's rows against P's.
fn reference_pass(cells: &[Cell<'_>], per_config: usize, tally: &mut Tally) -> Vec<Option<Answer>> {
    // Per cell: what it returned and the digest of its rows.
    let ran: Vec<Result<(Answer, Option<u64>), String>> = cells
        .iter()
        .map(|c| match c.session.run(c.query, Some(BUDGET)) {
            Ok(r) => Ok((Answer::of(&r.outcome), r.rows.map(digest))),
            Err(e) => Err(e.message),
        })
        .collect();
    let digest_of = |i: usize| ran[i].as_ref().ok().and_then(|(_, d)| *d);
    for (i, (cell, r)) in cells.iter().zip(&ran).enumerate() {
        let under_1c = (i / per_config) % 2 == 1;
        tally.record(match r {
            Err(e) => Err(format!("{}: {e}", cell.at)),
            Ok(_) if under_1c => match (digest_of(i - per_config), digest_of(i)) {
                (Some(p), Some(c1)) if p != c1 => {
                    Err(format!("{}: rows differ from the rows under P", cell.at))
                }
                _ => Ok(None),
            },
            Ok(_) => Ok(None),
        });
    }
    ran.iter()
        .map(|r| r.as_ref().ok().map(|(a, _)| *a))
        .collect()
}

/// One measured pass: every cell once, each a latency sample if it
/// repeats the reference. Returns the cost units of the pass's NREF
/// cells.
fn measured_pass(
    cells: &[Cell<'_>],
    reference: &[Option<Answer>],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> f64 {
    let mut units = 0.0;
    for (cell, want) in cells.iter().zip(reference) {
        let (ran, secs) = tr.timed("engine.run", |_| cell.session.run(cell.query, Some(BUDGET)));
        let got = ran.ok().map(|r| Answer::of(&r.outcome));
        if cell.repeats {
            units += got.map_or(0.0, |s| f64::from_bits(s.units_bits));
        }
        tally.record(if got == *want && got.is_some() {
            Ok(Some(secs * 1e3))
        } else {
            Err(format!(
                "{}: {got:?} differs from the first pass's {want:?}",
                cell.at
            ))
        });
    }
    units
}

pub fn run(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Outcome, String> {
    let (inputs, setup_s) = repeat_setup(tr, |tr| Ok(setup(ctx, tr)))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let cells = cells(&inputs);
    let reference = reference_pass(&cells, ctx.scale.grid_queries, &mut out.tally);

    let measure = tr.begin("bench.measure");
    let t0 = Instant::now();
    let mut passes = 0;
    let mut units = 0.0;
    // Whole passes until the time is up.
    while passes == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        units = measured_pass(&cells, &reference, tr, &mut out.tally);
        passes += 1;
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    tr.end(measure);
    out.peak_rss_mb = own_peak_rss_mb();
    out.exact.push(("grid.nref_pass_units", units));
    let timeouts = reference.iter().flatten().filter(|s| !s.done).count();
    out.notes.push(format!(
        "{passes} measured passes of {} queries ({timeouts} time out), mean pass {:.3} s",
        cells.len(),
        out.measured_s / passes as f64
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::RunDir;
    use crate::workloads::Scale;

    #[test]
    fn digest_ignores_row_order_and_sees_values() {
        let a = vec![vec![Value::Int(1), Value::str("x")], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1), Value::str("x")]];
        let c = vec![vec![Value::Int(2)], vec![Value::Int(1), Value::str("y")]];
        assert_eq!(digest(a.clone()), digest(b));
        assert_ne!(digest(a), digest(c));
    }

    /// Failure accounting: a wrong expected `units` is one failed
    /// operation with a named reason — not a panic, and not a sample.
    #[test]
    fn a_wrong_expected_units_is_one_failed_operation_with_a_reason() {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/grid-test");
        let run_dir = RunDir::create(&out).unwrap();
        let ctx = Ctx {
            root: std::path::Path::new("."),
            bin_dir: std::path::Path::new("unused"),
            run_dir: &run_dir,
            seed: 2005,
            seconds: 0.1,
            scale: Scale::TOY,
        };
        let mut tr = Tracer::new(false);
        let inputs = setup(&ctx, &mut tr);
        let cells = cells(&inputs);
        let mut tally = Tally::default();
        let mut reference = reference_pass(&cells, ctx.scale.grid_queries, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (cells.len() as u64, 0));

        let wrong = reference
            .iter()
            .position(|s| s.is_some_and(|s| s.done))
            .unwrap();
        reference[wrong].as_mut().unwrap().units_bits ^= 1;
        let mut tally = Tally::default();
        measured_pass(&cells, &reference, &mut tr, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (cells.len() as u64, 1));
        assert_eq!(tally.samples_ms.len(), cells.len() - 1);
        assert!(
            tally.reasons[0].contains(&cells[wrong].at),
            "{:?}",
            tally.reasons
        );
        assert!(
            tally.reasons[0].contains("units_bits"),
            "{:?}",
            tally.reasons
        );
    }
}
