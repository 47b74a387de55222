//! Ablation benchmarks for the design choices DESIGN.md §7 calls out.
//!
//! These measure search-time implications of the ablations (the quality
//! implications are reported by the `ablation` binary, which compares
//! actual workload costs under each variant):
//!
//! - what-if estimation with vs without the uniformity assumption;
//! - total-cost vs percentile objective in the greedy search.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use tab_advisor::{
    generate_candidates, greedy_select, p_configuration, CandidateStyle, GreedyOptions, Objective,
};
use tab_datagen::{generate_nref, NrefParams};
use tab_sqlq::parse;
use tab_storage::{BuiltConfiguration, Trace};

fn bench_ablations(c: &mut Criterion) {
    let db = generate_nref(NrefParams {
        proteins: 1_000,
        seed: 4,
    });
    let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
    let workload: Vec<_> = (0..15)
        .map(|i| {
            parse(&format!(
                "SELECT t.lineage, COUNT(*) FROM taxonomy t, source s \
                 WHERE t.taxon_id = s.taxon_id AND s.p_id = {} GROUP BY t.lineage",
                i % 3
            ))
            .unwrap()
        })
        .collect();
    let cands = generate_candidates(&db, &workload, CandidateStyle::Covering);

    let mut run = |name: &str, opts: GreedyOptions| {
        let cands = cands.clone();
        let db = &db;
        let p = &p;
        let workload = &workload;
        c.bench_function(name, move |b| {
            b.iter(|| {
                black_box(
                    greedy_select(
                        db,
                        p,
                        workload,
                        cands.clone(),
                        64 << 20,
                        "R",
                        opts,
                        Trace::disabled(),
                    )
                    .0
                    .indexes
                    .len(),
                )
            })
        });
    };

    run("greedy_uniform_whatif", GreedyOptions::default());
    run(
        "greedy_perfect_whatif",
        GreedyOptions {
            perfect_estimates: true,
            ..Default::default()
        },
    );
    run(
        "greedy_percentile_objective",
        GreedyOptions {
            objective: Objective::Percentile(0.9),
            ..Default::default()
        },
    );
}

fn configured() -> Criterion {
    // Keep full-workspace bench runs to minutes, not hours: these are
    // coarse-grained operations (whole queries, whole advisor searches),
    // so ten samples at ~3 s each is plenty to see regressions.
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
}

criterion_group!(name = benches; config = configured(); targets = bench_ablations);
criterion_main!(benches);
