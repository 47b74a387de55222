//! Recommender search benchmarks: candidate generation and greedy
//! what-if selection, sequential and with the 8-thread candidate
//! fan-out, plus a one-shot report of the what-if cache's hit rate.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use tab_advisor::{
    generate_candidates, greedy_select, p_configuration, CandidateStyle, GreedyOptions,
};
use tab_datagen::{generate_nref, NrefParams};
use tab_sqlq::parse;
use tab_storage::{BuiltConfiguration, Parallelism, Trace};

fn bench_advisor(c: &mut Criterion) {
    let db = generate_nref(NrefParams {
        proteins: 4_000,
        seed: 2,
    });
    let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
    // A mixed workload shaped like real tuning inputs: a join family
    // with a deep ladder of distinct index opportunities, plus broad
    // single-table report traffic that no new structure can improve
    // (its covering candidates duplicate the primary keys). The cost
    // cache lives off that split — every pick lands on the join
    // family's tables, so the report traffic's cache signatures never
    // change and its re-pricing never re-invokes the planner.
    let mut shapes: Vec<String> = Vec::new();
    // The pick ladder: NREF3J-style protein self-joins against source,
    // whose distinct filter and group-by column combinations yield many
    // distinct covering candidates, each with its own incremental gain.
    // Three relations per query keeps the per-plan work substantial, so
    // the candidate fan-out has something to parallelize.
    for (filter, group) in [
        ("p1.length = 120", "p1.p_name"),
        ("p1.length = 130", "p1.last_updated"),
        ("p1.last_updated = 30", "p1.p_name"),
        ("s.p_id = 0", "s.source"),
        ("s.p_id = 1", "s.accession"),
        ("s.taxon_id = 77", "s.source"),
        ("p1.length = 140", "s.accession"),
        ("s.p_id = 2", "p1.p_name"),
    ] {
        shapes.push(format!(
            "SELECT {group}, COUNT(*) FROM protein p1, protein p2, source s \
             WHERE p1.length = p2.length AND p1.nref_id = s.nref_id \
             AND {filter} GROUP BY {group}"
        ));
        shapes.push(format!(
            "SELECT {group}, COUNT(*) FROM protein p1, protein p2, source s \
             WHERE p1.last_updated = p2.last_updated AND p1.nref_id = s.nref_id \
             AND {filter} GROUP BY {group}"
        ));
    }
    // The report traffic: primary-key lookups on the other four tables.
    // Their covering candidates equal the existing primary-key indexes,
    // so they are never picked — but the search still re-prices every
    // (candidate, query) pair each round.
    for i in 0..192 {
        shapes.push(format!(
            "SELECT t.taxon_id, COUNT(*) FROM taxonomy t \
             WHERE t.nref_id = {} GROUP BY t.taxon_id",
            i * 41
        ));
        shapes.push(format!(
            "SELECT n.ordinal, COUNT(*) FROM neighboring_seq n \
             WHERE n.nref_id_1 = {} GROUP BY n.ordinal",
            i * 37
        ));
        shapes.push(format!(
            "SELECT o.ordinal, COUNT(*) FROM organism o \
             WHERE o.nref_id = {} GROUP BY o.ordinal",
            i * 31
        ));
        shapes.push(format!(
            "SELECT i.ordinal, COUNT(*) FROM identical_seq i \
             WHERE i.nref_id_1 = {} GROUP BY i.ordinal",
            i * 29
        ));
    }
    let workload: Vec<_> = shapes.iter().map(|q| parse(q).unwrap()).collect();
    let cands = generate_candidates(&db, &workload, CandidateStyle::Covering);

    let run = |opts: GreedyOptions| {
        greedy_select(
            &db,
            &p,
            &workload,
            cands.clone(),
            512 << 20,
            "R",
            opts,
            Trace::disabled(),
        )
    };
    // One-shot report: how many of the search's what-if requests reached
    // the planner.
    let (_, stats) = run(GreedyOptions::default());
    eprintln!(
        "[advisor_search] {} what-if calls: {} planner invocations \
         ({:.0}% hit rate); {} cores available \
         (the 8-thread fan-out only beats sequential wall-clock on multi-core hosts)",
        stats.whatif_calls,
        stats.planner_calls,
        stats.cache_hit_rate() * 100.0,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    c.bench_function("candidate_generation_covering", |b| {
        b.iter(|| black_box(generate_candidates(&db, &workload, CandidateStyle::Covering).len()))
    });
    c.bench_function("greedy_whatif_selection", |b| {
        b.iter(|| black_box(run(GreedyOptions::default()).0.indexes.len()))
    });
    c.bench_function("greedy_whatif_selection_8threads", |b| {
        b.iter(|| {
            let opts = GreedyOptions {
                par: Parallelism::new(8),
                ..GreedyOptions::default()
            };
            black_box(run(opts).0.indexes.len())
        })
    });
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

criterion_group!(name = benches; config = configured(); targets = bench_advisor);
criterion_main!(benches);
