//! Query-family enumeration and sampling benchmarks.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use tab_datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_families::{sample_preserving, Family};
use tab_storage::Parallelism;

fn bench_families(c: &mut Criterion) {
    let nref = generate_nref(NrefParams {
        proteins: 1_000,
        seed: 3,
    });
    let tpch = generate_tpch(TpchParams {
        scale: 0.003,
        distribution: Distribution::Zipf(1.0),
        seed: 3,
    });

    let seq = Parallelism::sequential();
    c.bench_function("enumerate_nref2j", |b| {
        b.iter(|| black_box(Family::Nref2J.enumerate(&nref, seq).len()))
    });
    c.bench_function("enumerate_nref3j", |b| {
        b.iter(|| black_box(Family::Nref3J.enumerate(&nref, seq).len()))
    });
    c.bench_function("enumerate_skth3j", |b| {
        b.iter(|| black_box(Family::SkTH3J.enumerate(&tpch, seq).len()))
    });
    c.bench_function("sample_100_preserving", |b| {
        let family = Family::Nref2J.enumerate(&nref, seq);
        let cost = |q: &tab_sqlq::Query| q.to_string().len() as f64;
        b.iter(|| black_box(sample_preserving(&family, cost, 100, 7, seq).len()))
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

criterion_group!(name = benches; config = configured(); targets = bench_families);
criterion_main!(benches);
