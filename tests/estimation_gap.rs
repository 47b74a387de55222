//! Integration tests for §5's estimation-gap findings: hypothetical
//! estimates are systematically more conservative than real estimates on
//! skewed data, and the gap shrinks on uniform data.

use tab_bench::eval::{
    build_1c, build_p, estimate_workload, estimate_workload_hypothetical, prepare_workload,
    BenchSpec, Parallelism, Suite,
};
use tab_bench::families::Family;

fn suite() -> Suite {
    Suite::build(BenchSpec {
        nref_proteins: 2_000,
        tpch_scale: 0.005,
        workload_size: 25,
        timeout_units: 3_000.0,
        seed: 7,
        ..BenchSpec::small()
    })
}

/// Median of a sample.
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// q-quantile of a sample.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    s[((s.len() as f64 * q) as usize).min(s.len() - 1)]
}

#[test]
fn hypothetical_1c_more_conservative_than_real_1c() {
    let seq = Parallelism::sequential();
    // Figure 10's key contrast: H1C is "much more conservative about the
    // advantages of 1C than E1C".
    let s = suite();
    let db = &s.nref;
    let p = build_p(db, "NREF");
    let c1 = build_1c(db, "NREF");
    let w = prepare_workload(&s, Family::Nref3J, &p);

    let e1c = estimate_workload(db, &c1, &w, seq);
    let h1c = estimate_workload_hypothetical(db, &p, &c1.config, &w, seq);
    // Figure 10 contrasts paired per-query estimates: for the typical
    // query the uniformity assumption overstates 1C's cost (selective
    // constants look average), so per-query H1C/E1C sits above 1.
    let ratios: Vec<f64> = h1c
        .iter()
        .zip(&e1c)
        .filter(|(a, b)| a.is_finite() && b.is_finite() && **b > 0.0)
        .map(|(a, b)| a / b)
        .collect();
    let ratio = median(&ratios);
    assert!(
        ratio > 1.05,
        "paired median H1C/E1C should exceed 1 (conservatism), got {ratio:.3}"
    );
}

#[test]
fn estimates_order_p_above_1c() {
    let seq = Parallelism::sequential();
    // Figure 10: "The optimizer correctly estimates that the behavior of
    // R improves over P and that 1C improves even further."
    let s = suite();
    let db = &s.nref;
    let p = build_p(db, "NREF");
    let c1 = build_1c(db, "NREF");
    let w = prepare_workload(&s, Family::Nref3J, &p);
    // At the selective quartile the probe-based 1C plans are estimated
    // far cheaper than P's scans (the head of Figure 10's curves).
    let ep = quantile(&estimate_workload(db, &p, &w, seq), 0.25);
    let e1c = quantile(&estimate_workload(db, &c1, &w, seq), 0.25);
    assert!(
        e1c < ep,
        "q25 E1C ({e1c:.0}) should be below q25 EP ({ep:.0})"
    );
}

#[test]
fn hypothetical_gap_smaller_on_uniform_data() {
    let seq = Parallelism::sequential();
    // The uniformity assumption is *correct* on UnTH, so H should track
    // E much more closely there than on NREF (skewed).
    let s = suite();

    // Gap metric: median absolute log-ratio between H and E — zero when
    // hypothetical estimates are perfect, large under estimation error.
    let gap = |db: &tab_bench::storage::Database, label: &str, fam: Family| {
        let p = build_p(db, label);
        let c1 = build_1c(db, label);
        let w = prepare_workload(&s, fam, &p);
        let e = estimate_workload(db, &c1, &w, seq);
        let h = estimate_workload_hypothetical(db, &p, &c1.config, &w, seq);
        let devs: Vec<f64> = e
            .iter()
            .zip(&h)
            .filter(|(a, b)| a.is_finite() && b.is_finite() && **a > 0.0 && **b > 0.0)
            .map(|(a, b)| (b / a).ln().abs())
            .collect();
        median(&devs)
    };

    let gap_skewed = gap(&s.nref, "NREF", Family::Nref3J);
    let gap_uniform = gap(&s.unth, "UnTH", Family::UnTH3J);
    assert!(
        gap_uniform < gap_skewed,
        "uniform-data hypothetical gap ({gap_uniform:.3}) should be below skewed ({gap_skewed:.3})"
    );
}
