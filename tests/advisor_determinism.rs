//! The advisor-side determinism guarantee: the greedy what-if search
//! returns a byte-identical recommendation — and bit-identical
//! per-round gains and objective values — with the cost cache on or
//! off, at any thread count.

use tab_advisor::{generate_candidates, greedy_select, CandidateStyle, GreedyOptions, SearchStats};
use tab_core::{build_p, prepare_workload_db_with, space_budget};
use tab_datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_families::Family;
use tab_storage::{Configuration, Database, Parallelism, Trace};

fn check_equivalence(db: &Database, label: &str, family: Family, style: CandidateStyle) {
    let p = build_p(db, label);
    let budget = space_budget(db, label);
    let w = prepare_workload_db_with(db, family, &p, 8, 7, Parallelism::sequential());
    let cands = generate_candidates(db, &w, style);
    assert!(!cands.is_empty(), "{label}: no candidates generated");

    let run = |cache: bool, threads: usize| -> (Configuration, SearchStats) {
        greedy_select(
            db,
            &p,
            &w,
            cands.clone(),
            budget,
            "R",
            GreedyOptions {
                cache,
                par: Parallelism::new(threads),
                ..GreedyOptions::default()
            },
            Trace::disabled(),
        )
    };

    // Reference: cache off, sequential — the pre-memoization search.
    let (want_cfg, want) = run(false, 1);
    assert!(
        !want.rounds.is_empty(),
        "{label}: the search should accept at least one structure"
    );
    for (cache, threads) in [(true, 1), (true, 2), (true, 8), (false, 2)] {
        let (cfg, got) = run(cache, threads);
        let tag = format!("{label} cache={cache} threads={threads}");
        assert_eq!(cfg, want_cfg, "{tag}: recommendation differs");
        assert_eq!(got.rounds.len(), want.rounds.len(), "{tag}: round count");
        for (a, b) in got.rounds.iter().zip(&want.rounds) {
            assert_eq!(a.candidate, b.candidate, "{tag}: pick differs");
            assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "{tag}: gain differs");
            assert_eq!(
                a.objective_after.to_bits(),
                b.objective_after.to_bits(),
                "{tag}: objective differs"
            );
        }
        // The search issues the same requests in every mode; with the
        // cache on, some are answered without planning.
        assert_eq!(got.whatif_calls, want.whatif_calls, "{tag}: what-if calls");
        assert_eq!(
            got.planner_calls + got.cache_hits,
            got.whatif_calls,
            "{tag}: counters inconsistent"
        );
        if cache {
            assert!(got.cache_hits > 0, "{tag}: expected cache hits");
            assert!(
                got.planner_calls < want.planner_calls,
                "{tag}: cache saved no planner invocations"
            );
        } else {
            assert_eq!(got.cache_hits, 0, "{tag}: hits with cache disabled");
            assert_eq!(
                got.planner_calls, want.planner_calls,
                "{tag}: uncached planner calls"
            );
        }
    }
}

#[test]
fn nref_recommendation_identical_across_cache_and_threads() {
    let db = generate_nref(NrefParams {
        proteins: 400,
        seed: 7,
    });
    check_equivalence(&db, "NREF", Family::Nref2J, CandidateStyle::Covering);
}

#[test]
fn tpch_recommendation_identical_across_cache_and_threads() {
    let db = generate_tpch(TpchParams {
        scale: 0.002,
        distribution: Distribution::Zipf(1.0),
        seed: 8,
    });
    check_equivalence(
        &db,
        "SkTH",
        Family::SkTH3J,
        CandidateStyle::CoveringWithViews,
    );
}
