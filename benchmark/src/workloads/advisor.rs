//! `advisor_search`: the recommenders' what-if search, and nothing else.
//!
//! Profiles A, B and C each answer a recommendation request for the
//! NREF2J and NREF3J workloads at the paper's 100 queries. The time goes
//! to the planner, called tens of thousands of times as the what-if
//! optimizer; the executor runs nothing. A change to the executor
//! should leave this workload alone.
//!
//! Correct means: every pass repeats the first pass's outcome (gave up,
//! or the same configuration), and every recommended configuration
//! builds. Whether profile A gives up on NREF3J (the paper's §4.2
//! observation) depends on the sampled workload, so it is reported, not
//! asserted.

use std::time::Instant;

use tab_advisor::{AdvisorInput, Recommender, SystemA, SystemB, SystemC};
use tab_core::space_budget;
use tab_families::Family;
use tab_sqlq::Query;
use tab_storage::{BuiltConfiguration, Configuration, Parallelism, Trace};

use super::grid::{build_nref, sample, Built};
use super::{repeat_setup, Ctx, Outcome};
use crate::proc::own_peak_rss_mb;
use crate::trace::Tracer;

/// The three profiles with the span each is recorded under.
pub fn profiles() -> [(&'static str, Box<dyn Recommender>); 3] {
    [
        ("advisor.recommend_a", Box::new(SystemA::default())),
        ("advisor.recommend_b", Box::new(SystemB)),
        ("advisor.recommend_c", Box::new(SystemC)),
    ]
}

struct Inputs {
    nref: Built,
    budget_bytes: u64,
    workloads: Vec<(Family, Vec<Query>)>,
}

fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Inputs {
    let nref = build_nref(tr, ctx.scale.advisor_nref, ctx.seed);
    let span = tr.begin("storage.space_budget");
    let budget_bytes = space_budget(&nref.db, "NREF");
    tr.end(span);
    let workloads = [Family::Nref2J, Family::Nref3J]
        .into_iter()
        .map(|f| (f, sample(tr, &nref, f, ctx.scale.advisor_queries, ctx.seed)))
        .collect();
    Inputs {
        nref,
        budget_bytes,
        workloads,
    }
}

/// One pass: every profile answers every family's request. Returns the
/// outcomes in request order.
fn pass(inputs: &Inputs, tr: &mut Tracer) -> Vec<Option<Configuration>> {
    let mut outcomes = Vec::new();
    for (_, workload) in &inputs.workloads {
        for (span, profile) in profiles() {
            let input = AdvisorInput {
                db: &inputs.nref.db,
                current: &inputs.nref.p,
                workload,
                budget_bytes: inputs.budget_bytes,
                par: Parallelism::available(),
                trace: Trace::disabled(),
            };
            let open = tr.begin(span);
            outcomes.push(profile.recommend(&input));
            tr.end(open);
        }
    }
    outcomes
}

pub fn run(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Outcome, String> {
    let (inputs, setup_s) = repeat_setup(tr, |tr| Ok(setup(ctx, tr)))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    // Reference pass: unmeasured; every recommendation must build.
    let reference = pass(&inputs, tr);
    let mut picks = 0;
    for cfg in reference.iter().flatten() {
        picks += cfg.indexes.len() + cfg.mviews.len();
        let span = tr.begin("storage.build_r");
        let built = BuiltConfiguration::build(cfg.clone(), &inputs.nref.db);
        tr.end(span);
        out.tally.record(if built.config.name == cfg.name {
            Ok(None)
        } else {
            Err(format!("{} built as {}", cfg.name, built.config.name))
        });
    }
    let gave_up: Vec<String> = reference
        .iter()
        .zip(
            inputs
                .workloads
                .iter()
                .flat_map(|(f, _)| ["A", "B", "C"].map(|p| format!("{p}/{}", f.name()))),
        )
        .filter_map(|(cfg, who)| cfg.is_none().then_some(who))
        .collect();

    let measure = tr.begin("bench.measure");
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let (outcomes, secs) = tr.timed("bench.advise_pass", |tr_| pass(&inputs, tr_));
        out.tally.record(if outcomes == reference {
            Ok(Some(secs * 1e3))
        } else {
            Err(format!(
                "pass {passes}: outcomes differ from the first pass's"
            ))
        });
        passes += 1;
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    tr.end(measure);
    out.peak_rss_mb = own_peak_rss_mb();
    out.exact.push(("advisor.pass_picks", picks as f64));
    out.notes.push(format!(
        "one operation is a pass of {} requests; gave up: {}",
        reference.len(),
        if gave_up.is_empty() {
            "none".to_string()
        } else {
            gave_up.join(", ")
        }
    ));
    Ok(out)
}
