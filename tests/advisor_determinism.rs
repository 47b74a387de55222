//! The advisor-side determinism guarantee, checked against a
//! differential oracle: the greedy what-if search returns a
//! byte-identical recommendation — and bit-identical per-round gains
//! and objective values — to a naive search that shares none of its
//! machinery, at any thread count.
//!
//! [`naive_greedy`] is the `engine::naive` of the advisor: no
//! `WhatIfService`, no cost cache, no relevance. Every live candidate is
//! priced against *every* workload query through
//! `estimate_hypothetical` on the materialised `chosen + candidate`
//! configuration. A relevance rule that skips a query the candidate
//! could change, or a cache key that conflates two configurations,
//! shows up as a different pick, gain or objective.

use tab_advisor::{
    candidate_bytes, generate_candidates, greedy_select, Candidate, CandidateStyle, GreedyOptions,
};
use tab_core::{build_p, prepare_workload_db, space_budget};
use tab_datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_engine::estimate_hypothetical;
use tab_families::Family;
use tab_sqlq::{parse, Query};
use tab_storage::{
    BuiltConfiguration, ColType, ColumnDef, Configuration, Database, IndexSpec, Parallelism, Table,
    TableSchema, Trace, Value,
};

/// `(candidate, gain bits, objective-after bits)` of one accepted round.
type Pick = (usize, u64, u64);

fn with_candidate(base: &Configuration, cand: &Candidate) -> Configuration {
    let mut cfg = base.clone();
    match cand {
        Candidate::Index(i) => cfg.indexes.push(i.clone()),
        Candidate::MView(m) => cfg.mviews.push(m.clone()),
    }
    cfg
}

/// The reference search: `greedy_select`'s selection rule (total-cost
/// objective, `min(costs[qi])`, initial-cost threshold, benefit density,
/// strict-`>` lowest-index tie) with every estimate taken the long way.
fn naive_greedy(
    db: &Database,
    current: &BuiltConfiguration,
    workload: &[Query],
    candidates: &[Candidate],
    budget_bytes: u64,
    opts: GreedyOptions,
) -> (Configuration, Vec<Pick>) {
    let price = |cfg: &Configuration| -> Vec<f64> {
        workload
            .iter()
            .map(|q| estimate_hypothetical(db, current, cfg, q).unwrap_or(f64::INFINITY))
            .collect()
    };
    let total = |costs: &[f64]| -> f64 { costs.iter().filter(|c| c.is_finite()).sum() };

    let mut chosen = current.config.clone();
    chosen.name = "R".to_string();
    let mut costs = price(&chosen);
    let threshold = opts.min_gain_fraction * total(&costs).max(1.0);
    let sizes: Vec<u64> = candidates
        .iter()
        .map(|c| candidate_bytes(db, current, c))
        .collect();
    let mut remaining = budget_bytes;
    let mut active = vec![true; candidates.len()];
    let mut picks = Vec::new();
    for _ in 0..opts.max_structures {
        let before = total(&costs);
        // (candidate, gain, density, costs after)
        let mut best: Option<(usize, f64, f64, Vec<f64>)> = None;
        for (ci, cand) in candidates.iter().enumerate() {
            if !active[ci] || sizes[ci] > remaining {
                continue;
            }
            let trial: Vec<f64> = price(&with_candidate(&chosen, cand))
                .iter()
                .zip(&costs)
                .map(|(c, cur)| c.min(*cur))
                .collect();
            let gain = (before - total(&trial)).max(0.0);
            let density = gain / sizes[ci].max(1) as f64;
            if gain > threshold && best.as_ref().is_none_or(|b| density > b.2) {
                best = Some((ci, gain, density, trial));
            }
        }
        let Some((ci, gain, _, trial)) = best else {
            break;
        };
        chosen = with_candidate(&chosen, &candidates[ci]);
        costs = trial;
        remaining = remaining.saturating_sub(sizes[ci]);
        active[ci] = false;
        picks.push((ci, gain.to_bits(), total(&costs).to_bits()));
    }
    chosen.normalize();
    (chosen, picks)
}

/// `greedy_select` at 1, 2 and 8 threads against the oracle. Returns the
/// oracle's picks.
fn check_against_oracle(
    db: &Database,
    current: &BuiltConfiguration,
    workload: &[Query],
    candidates: &[Candidate],
    budget_bytes: u64,
    label: &str,
) -> Vec<Pick> {
    let (want_cfg, want) = naive_greedy(
        db,
        current,
        workload,
        candidates,
        budget_bytes,
        GreedyOptions::default(),
    );
    let mut calls = None;
    for threads in [1, 2, 8] {
        let tag = format!("{label} threads={threads}");
        let (cfg, got) = greedy_select(
            db,
            current,
            workload,
            candidates.to_vec(),
            budget_bytes,
            "R",
            GreedyOptions {
                par: Parallelism::new(threads),
                ..GreedyOptions::default()
            },
            Trace::disabled(),
        );
        let picks: Vec<Pick> = got
            .rounds
            .iter()
            .map(|r| (r.candidate, r.gain.to_bits(), r.objective_after.to_bits()))
            .collect();
        assert_eq!(picks, want, "{tag}: picks, gains or objectives differ");
        assert_eq!(cfg, want_cfg, "{tag}: recommendation differs");
        assert_eq!(
            got.planner_calls + got.cache_hits,
            got.whatif_calls,
            "{tag}: counters inconsistent"
        );
        // The counters are the convergence ladder's x-axis: they may not
        // depend on the thread count.
        let counters = (got.whatif_calls, got.planner_calls, got.cache_hits);
        assert_eq!(*calls.get_or_insert(counters), counters, "{tag}: counters");
    }
    want
}

/// Returns the picked candidates.
fn check_family(
    db: &Database,
    label: &str,
    family: Family,
    style: CandidateStyle,
) -> Vec<Candidate> {
    let p = build_p(db, label);
    let w = prepare_workload_db(db, family, &p, 8, 7);
    let cands = generate_candidates(db, &w, style);
    assert!(!cands.is_empty(), "{label}: no candidates generated");
    let tag = format!("{label} {} {style:?}", family.name());
    let picks = check_against_oracle(db, &p, &w, &cands, space_budget(db, label), &tag);
    assert!(
        !picks.is_empty(),
        "{tag}: the search should accept at least one structure"
    );
    picks.iter().map(|&(ci, ..)| cands[ci].clone()).collect()
}

const STYLES: [CandidateStyle; 3] = [
    CandidateStyle::SingleColumn,
    CandidateStyle::Covering,
    CandidateStyle::CoveringWithViews,
];

#[test]
fn nref_recommendation_identical_across_cache_and_threads() {
    let db = generate_nref(NrefParams {
        proteins: 400,
        seed: 7,
    });
    for style in STYLES {
        check_family(&db, "NREF", Family::Nref2J, style);
    }
}

#[test]
fn nref3j_recommendation_matches_oracle() {
    let db = generate_nref(NrefParams {
        proteins: 400,
        seed: 7,
    });
    for style in STYLES {
        check_family(&db, "NREF", Family::Nref3J, style);
    }
}

/// SkTH3J under System C's candidates is the family whose picks are
/// materialized views.
#[test]
fn tpch_recommendation_identical_across_cache_and_threads() {
    let db = generate_tpch(TpchParams {
        scale: 0.002,
        distribution: Distribution::Zipf(1.0),
        seed: 8,
    });
    let picked = check_family(
        &db,
        "SkTH",
        Family::SkTH3J,
        CandidateStyle::CoveringWithViews,
    );
    assert!(
        picked.iter().any(|c| matches!(c, Candidate::MView(_))),
        "expected a view among the picks: {picked:?}"
    );
}

/// A frequency subquery may scan a table the outer query never names:
/// `freq_eval_cost` prices an index on `u(a)` for it. `FROM`-list
/// relevance never trialled that index against the query.
#[test]
fn index_on_a_frequency_subquery_table_is_trialled() {
    let mut db = Database::new();
    for name in ["t", "u"] {
        let mut t = Table::new(
            TableSchema::new(
                name,
                vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("a", ColType::Int),
                ],
            )
            .primary_key(&["id"]),
        );
        for i in 0..5_000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 500)]);
        }
        db.add_table(t);
    }
    db.collect_stats();
    let p = build_p(&db, "P");
    let w = vec![parse(
        "SELECT t.a, COUNT(*) FROM t \
         WHERE t.a IN (SELECT a FROM u GROUP BY a HAVING COUNT(*) < 4) GROUP BY t.a",
    )
    .unwrap()];
    let cands = vec![Candidate::Index(IndexSpec::new("u", vec![1]))];
    let picks = check_against_oracle(&db, &p, &w, &cands, 50 << 20, "freq subquery on u");
    assert_eq!(picks.len(), 1, "the oracle picks u(a)");
}
