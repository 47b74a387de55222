//! Greedy what-if search over candidate structures.
//!
//! This is the search architecture §2.2 describes: "the recommender
//! relies on a heuristic search to compute estimates for a subset of the
//! configurations", evaluating each hypothetical configuration through
//! the optimizer's what-if interface (`H(q, Ch, Ca)`), under a storage
//! budget, with **total estimated workload cost** as the objective —
//! the very objective whose blind spots the paper exposes.
//!
//! What-if calls go through the memoized [`crate::whatif::WhatIfService`]
//! and candidate trials fan out over [`tab_storage::par_map`]. The
//! selection reduces sequentially in candidate order with a strict `>`
//! density comparison, so on equal benefit density the lowest candidate
//! index wins and the recommendation is byte-identical at any thread
//! count.

use std::time::Instant;

use tab_engine::stats_view::{HypotheticalStats, StatsView};
use tab_sqlq::Query;
use tab_storage::trace::{event, Num};
use tab_storage::{
    par_map, BuiltConfiguration, Configuration, Database, Parallelism, Trace, PAGE_SIZE,
};

use crate::candidates::Candidate;
use crate::whatif::WhatIfService;

/// Short human-readable label for a candidate, used in trace events.
fn candidate_desc(c: &Candidate) -> String {
    match c {
        Candidate::Index(i) => format!("INDEX {i}"),
        Candidate::MView(m) => format!("MVIEW {}", m.spec.name),
    }
}

/// What the greedy search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Total estimated workload cost — what the 2005 tools optimize
    /// ("the goal used by System C's recommender is total cost", §4.3).
    #[default]
    TotalCost,
    /// The given percentile of per-query estimated cost — the CFC-style
    /// quality-of-service objective the paper argues recommenders should
    /// accept (§2.2). Used by the objective ablation.
    Percentile(f64),
}

/// Tunables for the greedy search.
#[derive(Debug, Clone, Copy)]
pub struct GreedyOptions {
    /// Stop after this many accepted structures (the 2005 tools
    /// recommended 5–20 structures per workload; see Tables 2–3).
    pub max_structures: usize,
    /// Stop when the best candidate's estimated gain falls below this
    /// fraction of the current total estimated workload cost (the
    /// "improvement below x%" stopping rule the commercial tools used).
    pub min_gain_fraction: f64,
    /// Optimization objective.
    pub objective: Objective,
    /// Ablation: evaluate hypothetical configurations with full
    /// distribution statistics instead of the uniformity assumption.
    pub perfect_estimates: bool,
    /// Thread budget for the candidate fan-out. The recommendation is
    /// identical at any setting; only wall-clock changes.
    pub par: Parallelism,
    /// Stop before a round whose preceding what-if call count has
    /// reached this budget (the convergence harness's planner-invocation
    /// ladder). The check runs between rounds on the service's
    /// deterministic counters, so a budgeted search picks an identical
    /// prefix of the unbudgeted search at any thread count. `None`
    /// leaves the search unbudgeted.
    pub max_whatif_calls: Option<u64>,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            max_structures: 12,
            min_gain_fraction: 0.002,
            objective: Objective::TotalCost,
            perfect_estimates: false,
            par: Parallelism::sequential(),
            max_whatif_calls: None,
        }
    }
}

/// One accepted structure in a greedy search, for diagnostics and the
/// differential-oracle tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Index of the picked candidate in the input candidate vector.
    pub candidate: usize,
    /// The pick's estimated objective gain.
    pub gain: f64,
    /// Objective value after applying the pick.
    pub objective_after: f64,
    /// Cumulative what-if requests issued up to and including this
    /// round — the x-axis of an objective-vs-budget convergence curve.
    pub whatif_calls: u64,
    /// Cumulative planner invocations up to and including this round.
    pub planner_calls: u64,
    /// Cumulative cache hits up to and including this round.
    pub cache_hits: u64,
}

/// Instrumentation from one greedy search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Number of candidate structures considered.
    pub candidates: usize,
    /// Total what-if cost requests issued.
    pub whatif_calls: u64,
    /// Requests that invoked the planner (cache misses).
    pub planner_calls: u64,
    /// Requests answered from the cost cache.
    pub cache_hits: u64,
    /// Accepted structures, in pick order.
    pub rounds: Vec<RoundStats>,
    /// Objective value of the starting configuration, anchoring round 0
    /// of a convergence curve.
    pub initial_objective: f64,
    /// Wall-clock seconds spent in the search.
    pub wall_seconds: f64,
}

impl SearchStats {
    /// Fraction of what-if requests answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.whatif_calls == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.whatif_calls as f64
        }
    }
}

/// The scalar statistic the objective tracks over per-query costs.
fn objective_value(costs: &[f64], objective: Objective) -> f64 {
    match objective {
        Objective::TotalCost => costs.iter().filter(|c| c.is_finite()).sum(),
        Objective::Percentile(p) => {
            let mut v: Vec<f64> = costs.iter().copied().filter(|c| c.is_finite()).collect();
            if v.is_empty() {
                return 0.0;
            }
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let k = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
            // Optimize the tail mass at and above the percentile, so the
            // objective still moves when single queries improve.
            v[k - 1..].iter().sum()
        }
    }
}

/// Estimated size in bytes of a candidate, using the same hypothetical
/// geometry the optimizer sees.
pub fn candidate_bytes(db: &Database, current: &BuiltConfiguration, cand: &Candidate) -> u64 {
    let mut probe = Configuration::named("size-probe");
    match cand {
        Candidate::Index(i) => probe.indexes.push(i.clone()),
        Candidate::MView(m) => probe.mviews.push(m.clone()),
    }
    let hv = HypotheticalStats::new(db, current, &probe);
    let mut pages = 0.0;
    match cand {
        Candidate::Index(i) => {
            for m in hv.indexes_on(&i.table) {
                pages += m.pages;
            }
        }
        Candidate::MView(m) => {
            pages += hv.rel_pages(&m.spec.name);
            for im in hv.indexes_on(&m.spec.name) {
                pages += im.pages;
            }
        }
    }
    (pages * PAGE_SIZE as f64) as u64
}

/// Greedily select candidates maximizing estimated workload benefit per
/// byte, subject to `budget_bytes`. Returns the recommended
/// configuration (the current configuration's structures plus the
/// selected candidates) and the search's [`SearchStats`].
///
/// `trace` receives structured `advisor_begin` / `advisor_round` /
/// `advisor_stop` / `advisor_end` events. Tracing never changes the
/// recommendation.
#[allow(clippy::too_many_arguments)]
pub fn greedy_select(
    db: &Database,
    current: &BuiltConfiguration,
    workload: &[Query],
    candidates: Vec<Candidate>,
    budget_bytes: u64,
    name: &str,
    opts: GreedyOptions,
    trace: Trace<'_>,
) -> (Configuration, SearchStats) {
    let t_start = Instant::now();
    let mut chosen = current.config.clone();
    chosen.name = name.to_string();

    let svc = WhatIfService::new(db, current, workload, &candidates, opts.perfect_estimates);
    // Ids (candidate-vector indices) of the picks appended to `chosen`,
    // in pick order: the cache-signature input.
    let mut chosen_ids: Vec<u32> = Vec::new();

    // Per-query cost under the evolving hypothetical configuration.
    let qidx: Vec<usize> = (0..workload.len()).collect();
    let mut costs: Vec<f64> = par_map(opts.par, &qidx, |&qi| {
        svc.estimate(&chosen, &chosen_ids, None, qi)
    });
    // The stopping threshold is anchored to the *initial* workload cost:
    // a workload dominated by a few queries no structure can improve
    // must not mask genuine gains on the rest.
    let initial_total = objective_value(&costs, opts.objective);
    let threshold = opts.min_gain_fraction * initial_total.max(1.0);

    // Sizing a candidate builds a full `HypotheticalStats`; candidates
    // affecting no query can never be picked, so skip sizing them.
    let sizes: Vec<u64> = candidates
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            if svc.affected(ci).is_empty() {
                0
            } else {
                candidate_bytes(db, current, c)
            }
        })
        .collect();

    let mut remaining = budget_bytes;
    let mut active: Vec<bool> = vec![true; candidates.len()];
    trace.emit(|| {
        event("advisor_begin")
            .str("advisor", name)
            .int("candidates", candidates.len() as u64)
            .int("budget_mib", budget_bytes >> 20)
            .token("initial_total", Num(initial_total))
            .token("threshold", Num(threshold))
    });

    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut w_prev = svc.stats();
    for _round in 0..opts.max_structures {
        // The what-if budget gates *entry* into a round: counters are
        // deterministic between rounds at any thread count, so a
        // budgeted search picks a prefix of the unbudgeted one.
        if let Some(budget) = opts.max_whatif_calls {
            if svc.stats().whatif_calls >= budget {
                trace.emit(|| {
                    event("advisor_stop")
                        .str("advisor", name)
                        .int("round", rounds.len() as u64)
                        .str("reason", "whatif budget exhausted")
                        .int("whatif_calls", svc.stats().whatif_calls)
                        .int("max_whatif_calls", budget)
                });
                break;
            }
        }
        // Invariant within the round (hoisted out of the candidate loop:
        // under `Objective::Percentile` it re-sorts the cost vector).
        let before = objective_value(&costs, opts.objective);
        let live: Vec<usize> = (0..candidates.len())
            .filter(|&ci| active[ci] && sizes[ci] <= remaining && !svc.affected(ci).is_empty())
            .collect();
        // Fan the trials out; `par_map` returns results in input order,
        // so the reduction below is independent of thread count.
        let mut evals: Vec<(f64, Vec<f64>)> = par_map(opts.par, &live, |&ci| {
            let mut trial_costs = costs.clone();
            let mut new_costs = Vec::with_capacity(svc.affected(ci).len());
            for &qi in svc.affected(ci) {
                let c = svc
                    .estimate(&chosen, &chosen_ids, Some(ci as u32), qi)
                    .min(costs[qi]);
                trial_costs[qi] = c;
                new_costs.push(c);
            }
            let after = objective_value(&trial_costs, opts.objective);
            ((before - after).max(0.0), new_costs)
        });
        // Strict `>` in candidate order: equal densities keep the
        // lowest-index candidate.
        let mut best: Option<(usize, f64, f64)> = None;
        for (pos, &ci) in live.iter().enumerate() {
            let gain = evals[pos].0;
            let density = gain / sizes[ci].max(1) as f64;
            let best_density = best.map(|(_, _, d)| d).unwrap_or(f64::NEG_INFINITY);
            if gain > threshold && density > best_density {
                best = Some((pos, gain, density));
            }
        }
        if best.is_none() {
            trace.emit(|| {
                // Report the best rejected gain for diagnosis, reusing
                // this round's evaluations.
                let mut top: Option<(usize, f64)> = None;
                for (pos, &ci) in live.iter().enumerate() {
                    if top.is_none_or(|(_, g)| evals[pos].0 > g) {
                        top = Some((ci, evals[pos].0));
                    }
                }
                let ev = event("advisor_stop")
                    .str("advisor", name)
                    .int("round", rounds.len() as u64)
                    .token("threshold", Num(threshold));
                match top {
                    Some((ci, g)) => ev
                        .int("best_rejected_candidate", ci as u64)
                        .str("best_rejected_desc", &candidate_desc(&candidates[ci]))
                        .token("best_rejected_gain", Num(g)),
                    None => ev.str("reason", "no live candidates"),
                }
            });
        }
        let Some((pos, gain, density)) = best else {
            break;
        };
        let ci = live[pos];
        let new_costs = std::mem::take(&mut evals[pos].1);
        match &candidates[ci] {
            Candidate::Index(i) => chosen.indexes.push(i.clone()),
            Candidate::MView(m) => {
                if !chosen.mviews.iter().any(|x| x.spec.name == m.spec.name) {
                    chosen.mviews.push(m.clone());
                }
            }
        }
        for (p, &qi) in svc.affected(ci).iter().enumerate() {
            costs[qi] = new_costs[p];
        }
        remaining = remaining.saturating_sub(sizes[ci]);
        active[ci] = false;
        chosen_ids.push(ci as u32);
        let objective_after = objective_value(&costs, opts.objective);
        let w_now = svc.stats();
        let delta = w_now - w_prev;
        w_prev = w_now;
        rounds.push(RoundStats {
            candidate: ci,
            gain,
            objective_after,
            whatif_calls: w_now.whatif_calls,
            planner_calls: w_now.planner_calls,
            cache_hits: w_now.cache_hits,
        });
        if trace.is_enabled() {
            trace.emit(|| {
                event("advisor_round")
                    .str("advisor", name)
                    .int("round", rounds.len() as u64 - 1)
                    .int("candidate", ci as u64)
                    .str("desc", &candidate_desc(&candidates[ci]))
                    .token("gain", Num(gain))
                    .token("density", Num(density))
                    .int("size_bytes", sizes[ci])
                    .token("objective_after", Num(objective_after))
                    .int("whatif_calls", delta.whatif_calls)
                    .int("planner_calls", delta.planner_calls)
                    .int("cache_hits", delta.cache_hits)
            });
        }
    }

    chosen.normalize();
    let w = svc.stats();
    trace.emit(|| {
        event("advisor_end")
            .str("advisor", name)
            .int("rounds", rounds.len() as u64)
            .token(
                "objective_final",
                Num(objective_value(&costs, opts.objective)),
            )
            .int("whatif_calls", w.whatif_calls)
            .int("planner_calls", w.planner_calls)
            .int("cache_hits", w.cache_hits)
    });
    let stats = SearchStats {
        candidates: candidates.len(),
        whatif_calls: w.whatif_calls,
        planner_calls: w.planner_calls,
        cache_hits: w.cache_hits,
        rounds,
        initial_objective: initial_total,
        wall_seconds: t_start.elapsed().as_secs_f64(),
    };
    (chosen, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate, CandidateStyle};
    use crate::config_builders::p_configuration;
    use tab_sqlq::parse;
    use tab_storage::{ColType, ColumnDef, IndexSpec, Table, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("a", ColType::Int),
                    ColumnDef::new("g", ColType::Int),
                ],
            )
            .primary_key(&["id"]),
        );
        for i in 0..20_000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 2000), Value::Int(i % 5)]);
        }
        db.add_table(t);
        db.collect_stats();
        db
    }

    #[test]
    fn selects_beneficial_index_within_budget() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w: Vec<_> = (0..5)
            .map(|i| {
                parse(&format!(
                    "SELECT t.g, COUNT(*) FROM t WHERE t.a = {i} GROUP BY t.g"
                ))
                .unwrap()
            })
            .collect();
        let cands = generate(&db, &w, CandidateStyle::SingleColumn);
        let (cfg, _) = greedy_select(
            &db,
            &p,
            &w,
            cands,
            50 * 1024 * 1024,
            "R",
            GreedyOptions::default(),
            Trace::disabled(),
        );
        assert!(
            cfg.indexes.contains(&IndexSpec::new("t", vec![1])),
            "expected an index on the filter column, got {:?}",
            cfg.indexes
        );
    }

    #[test]
    fn respects_zero_budget() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w = vec![parse("SELECT t.g, COUNT(*) FROM t WHERE t.a = 1 GROUP BY t.g").unwrap()];
        let cands = generate(&db, &w, CandidateStyle::SingleColumn);
        let opts = GreedyOptions::default();
        let (cfg, _) = greedy_select(&db, &p, &w, cands, 0, "R", opts, Trace::disabled());
        assert_eq!(cfg.indexes, p.config.indexes);
    }

    #[test]
    fn candidate_size_estimates_are_sane() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let b = candidate_bytes(&db, &p, &Candidate::Index(IndexSpec::new("t", vec![1])));
        // 20k rows at ~20 bytes/entry: a few hundred KB at most.
        assert!(b > 8 * 1024 && b < 4 * 1024 * 1024, "b={b}");
    }

    #[test]
    fn whatif_budget_stops_search_on_a_prefix() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w: Vec<_> = (0..5)
            .map(|i| {
                parse(&format!(
                    "SELECT t.g, COUNT(*) FROM t WHERE t.a = {i} GROUP BY t.g"
                ))
                .unwrap()
            })
            .collect();
        let cands = generate(&db, &w, CandidateStyle::SingleColumn);
        let (_, full) = greedy_select(
            &db,
            &p,
            &w,
            cands.clone(),
            50 * 1024 * 1024,
            "R",
            GreedyOptions::default(),
            Trace::disabled(),
        );
        assert!(!full.rounds.is_empty());
        assert!(full.initial_objective > 0.0);
        // Cumulative per-round counters are monotone and end at the
        // search totals.
        for pair in full.rounds.windows(2) {
            assert!(pair[0].whatif_calls <= pair[1].whatif_calls);
        }
        assert_eq!(
            full.rounds.last().unwrap().whatif_calls,
            full.whatif_calls,
            "last round's cumulative counter is the total"
        );
        // A budget below the initial pricing cost stops before round 1,
        // and any budgeted run picks a prefix of the unbudgeted rounds.
        for budget in [1, full.rounds[0].whatif_calls] {
            let (_, b) = greedy_select(
                &db,
                &p,
                &w,
                cands.clone(),
                50 * 1024 * 1024,
                "R",
                GreedyOptions {
                    max_whatif_calls: Some(budget),
                    ..GreedyOptions::default()
                },
                Trace::disabled(),
            );
            assert!(b.rounds.len() <= full.rounds.len());
            for (br, fr) in b.rounds.iter().zip(&full.rounds) {
                assert_eq!(br.candidate, fr.candidate, "budgeted picks a prefix");
            }
        }
        let (_, tiny) = greedy_select(
            &db,
            &p,
            &w,
            cands,
            50 * 1024 * 1024,
            "R",
            GreedyOptions {
                max_whatif_calls: Some(1),
                ..GreedyOptions::default()
            },
            Trace::disabled(),
        );
        assert!(tiny.rounds.is_empty(), "{tiny:?}");
    }

    /// Two independent tables: a pick on one table leaves the other
    /// table's queries' cache signatures unchanged, so re-pricing them
    /// in the next round must hit the cache.
    fn db2() -> Database {
        let mut db = Database::new();
        for name in ["t", "u"] {
            let mut t = Table::new(
                TableSchema::new(
                    name,
                    vec![
                        ColumnDef::new("id", ColType::Int),
                        ColumnDef::new("a", ColType::Int),
                        ColumnDef::new("g", ColType::Int),
                    ],
                )
                .primary_key(&["id"]),
            );
            for i in 0..20_000i64 {
                t.insert(vec![Value::Int(i), Value::Int(i % 2000), Value::Int(i % 5)]);
            }
            db.add_table(t);
        }
        db.collect_stats();
        db
    }

    #[test]
    fn stats_counters_are_consistent_and_cache_hits_occur() {
        let db = db2();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w: Vec<_> = (0..5)
            .flat_map(|i| {
                ["t", "u"].map(|tbl| {
                    parse(&format!(
                        "SELECT {tbl}.g, COUNT(*) FROM {tbl} WHERE {tbl}.a = {i} GROUP BY {tbl}.g"
                    ))
                    .unwrap()
                })
            })
            .collect();
        let cands = generate(&db, &w, CandidateStyle::SingleColumn);
        let n_cands = cands.len();
        let (cfg, stats) = greedy_select(
            &db,
            &p,
            &w,
            cands,
            50 * 1024 * 1024,
            "R",
            GreedyOptions::default(),
            Trace::disabled(),
        );
        assert_eq!(stats.candidates, n_cands);
        assert_eq!(stats.planner_calls + stats.cache_hits, stats.whatif_calls);
        assert!(
            stats.cache_hits > 0,
            "re-pricing across rounds should hit the cache: {stats:?}"
        );
        assert_eq!(
            stats.rounds.len(),
            cfg.indexes.len() - p.config.indexes.len()
        );
    }
}
