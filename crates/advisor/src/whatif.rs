//! Memoized what-if evaluation service for the greedy search.
//!
//! The greedy search prices O(rounds × candidates × affected-queries)
//! hypothetical configurations through the optimizer's what-if
//! interface. Most of those calls are redundant: a structure can only
//! change a query's plan if it is *relevant* to that query, meaning the
//! planner could use it. The rule is the planner's own —
//! [`tab_engine::planner::index_usable`] (the index's leading column is
//! a filter, join or frequency-subquery column of the query) and
//! [`tab_engine::planner::view_usable`] (some join edge rewrites onto
//! the view) — the same one each plan filters its index lists through,
//! so an irrelevant structure leaves the estimate bit-identical by
//! construction. [`WhatIfService`] exploits that with a cost cache keyed
//! by `(query index, sorted relevant-candidate-id signature)`:
//!
//! * Within a round, a trial candidate irrelevant to a query reuses the
//!   query's current cost without invoking the planner at all.
//! * Across rounds, picking a candidate that is irrelevant to a query
//!   leaves that query's signature unchanged, so every re-pricing of it
//!   is a cache hit.
//!
//! Cache entries are never invalidated: the key *is* the relevant
//! structure set, so adding a structure relevant to a query changes the
//! query's key rather than staling an entry. The base configuration the
//! search starts from is constant for the lifetime of the service and
//! therefore needs no encoding in the key.
//!
//! The service also pre-binds every workload query once (the sequential
//! search re-bound each query on every estimate) and evaluates trials
//! through [`tab_engine::estimate_hypothetical_layered`], which layers
//! the one trial structure over the shared base configuration instead
//! of cloning it per candidate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tab_engine::planner::{index_usable, view_usable};
use tab_engine::{bind, estimate_hypothetical_layered, BoundQuery};
use tab_sqlq::Query;
use tab_storage::{BuiltConfiguration, Configuration, Database, IndexSpec, MViewDef};

use crate::candidates::Candidate;

/// Cache key: `(workload query index, sorted relevant-candidate-id
/// signature)`. The full key is stored, so lookups are exact — no
/// fingerprint collisions.
type CostKey = (u32, Box<[u32]>);

/// Cache shard count. The cache is sharded by workload query index so
/// the parallel candidate fan-out — whose jobs mostly touch different
/// queries at any instant — does not serialize on one mutex.
const SHARDS: usize = 64;

/// One cache shard: keys whose query index maps to this shard.
type Shard = Mutex<HashMap<CostKey, f64>>;

/// Counters describing one search's use of the what-if interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhatIfStats {
    /// Total what-if cost requests issued by the search.
    pub whatif_calls: u64,
    /// Requests that actually invoked the planner (cache misses with a
    /// bindable query).
    pub planner_calls: u64,
    /// Requests answered from the cost cache.
    pub cache_hits: u64,
}

impl std::ops::Sub for WhatIfStats {
    type Output = WhatIfStats;

    /// Counter delta between two snapshots (later minus earlier) — how
    /// the advisor trace attributes what-if work to individual rounds.
    fn sub(self, earlier: WhatIfStats) -> WhatIfStats {
        WhatIfStats {
            whatif_calls: self.whatif_calls - earlier.whatif_calls,
            planner_calls: self.planner_calls - earlier.planner_calls,
            cache_hits: self.cache_hits - earlier.cache_hits,
        }
    }
}

/// A memoized what-if evaluator over a fixed workload and candidate set.
///
/// All methods take `&self`; the service is safe to share across the
/// `par_map` candidate fan-out. The counters are deterministic at any
/// thread count: within a round every trial's signature contains its
/// own candidate id, so no two concurrent estimates ever race on the
/// same cache key.
pub struct WhatIfService<'a> {
    db: &'a Database,
    current: &'a BuiltConfiguration,
    candidates: &'a [Candidate],
    /// Workload queries bound once up front; `None` for unbindable ones
    /// (estimated as `f64::INFINITY`, matching `estimate_hypothetical`).
    bound: Vec<Option<BoundQuery>>,
    /// For each candidate, the sorted indices of workload queries it can
    /// affect (queries the planner could use it for).
    affected: Vec<Vec<usize>>,
    perfect: bool,
    /// Sharded by `qi % SHARDS`.
    cache: Box<[Shard]>,
    calls: AtomicU64,
    hits: AtomicU64,
    plans: AtomicU64,
}

impl<'a> WhatIfService<'a> {
    /// Build a service for one greedy search.
    pub fn new(
        db: &'a Database,
        current: &'a BuiltConfiguration,
        workload: &[Query],
        candidates: &'a [Candidate],
        perfect: bool,
    ) -> Self {
        let bound: Vec<Option<BoundQuery>> = workload.iter().map(|q| bind(q, db).ok()).collect();
        let affected = candidates
            .iter()
            .map(|c| {
                bound
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| {
                        b.as_ref().is_some_and(|b| match c {
                            Candidate::Index(i) => index_usable(b, &i.table, &i.columns),
                            Candidate::MView(m) => view_usable(b, &m.spec),
                        })
                    })
                    .map(|(qi, _)| qi)
                    .collect()
            })
            .collect();
        WhatIfService {
            db,
            current,
            candidates,
            bound,
            affected,
            perfect,
            cache: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            calls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            plans: AtomicU64::new(0),
        }
    }

    /// The sorted workload-query indices candidate `ci` can affect.
    pub fn affected(&self, ci: usize) -> &[usize] {
        &self.affected[ci]
    }

    /// Whether candidate `ci` is relevant to workload query `qi`.
    fn relevant(&self, ci: u32, qi: usize) -> bool {
        self.affected[ci as usize].binary_search(&qi).is_ok()
    }

    /// The cache key's structure signature: the sorted ids of the chosen
    /// candidates relevant to `qi`, plus the trial candidate if relevant.
    fn signature(&self, chosen_ids: &[u32], trial: Option<u32>, qi: usize) -> Box<[u32]> {
        let mut sig: Vec<u32> = chosen_ids
            .iter()
            .copied()
            .filter(|&ci| self.relevant(ci, qi))
            .collect();
        if let Some(t) = trial {
            if self.relevant(t, qi) {
                sig.push(t);
            }
        }
        sig.sort_unstable();
        sig.into_boxed_slice()
    }

    /// Estimated cost of workload query `qi` under `base` (the evolving
    /// chosen configuration, whose appended candidates are `chosen_ids`)
    /// plus the optional `trial` candidate layered on top.
    ///
    /// Bit-identical to pricing the fully materialized configuration
    /// through `estimate_hypothetical`: the layered statistics view
    /// presents the same structures in the same order as cloning `base`
    /// and pushing the trial.
    pub fn estimate(
        &self,
        base: &Configuration,
        chosen_ids: &[u32],
        trial: Option<u32>,
        qi: usize,
    ) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let shard = &self.cache[qi % SHARDS];
        let key = (qi as u32, self.signature(chosen_ids, trial, qi));
        if let Some(&c) = shard.lock().expect("whatif cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return c;
        }
        let cost = match &self.bound[qi] {
            None => f64::INFINITY,
            Some(bound) => {
                self.plans.fetch_add(1, Ordering::Relaxed);
                let (extra_indexes, extra_mviews): (&[IndexSpec], &[MViewDef]) =
                    match trial.map(|ci| &self.candidates[ci as usize]) {
                        Some(Candidate::Index(i)) => (std::slice::from_ref(i), &[]),
                        Some(Candidate::MView(m)) => (&[], std::slice::from_ref(m)),
                        None => (&[], &[]),
                    };
                estimate_hypothetical_layered(
                    self.db,
                    self.current,
                    base,
                    extra_indexes,
                    extra_mviews,
                    bound,
                    self.perfect,
                )
            }
        };
        shard
            .lock()
            .expect("whatif cache poisoned")
            .insert(key, cost);
        cost
    }

    /// Snapshot of the service's counters.
    pub fn stats(&self) -> WhatIfStats {
        WhatIfStats {
            whatif_calls: self.calls.load(Ordering::Relaxed),
            planner_calls: self.plans.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate, CandidateStyle};
    use crate::config_builders::p_configuration;
    use tab_engine::estimate_hypothetical;
    use tab_sqlq::parse;
    use tab_storage::{ColType, ColumnDef, Table, TableSchema, Value};

    fn db() -> Database {
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
        db
    }

    #[test]
    fn irrelevant_trial_is_a_cache_hit_and_costs_match_materialized() {
        let db = db();
        let p = BuiltConfiguration::build(p_configuration(&db, "P"), &db);
        let w = vec![
            parse("SELECT t.a, COUNT(*) FROM t WHERE t.a = 3 GROUP BY t.a").unwrap(),
            parse("SELECT u.a, COUNT(*) FROM u WHERE u.a = 3 GROUP BY u.a").unwrap(),
        ];
        let cands = generate(&db, &w, CandidateStyle::SingleColumn);
        let ti = cands
            .iter()
            .position(|c| matches!(c, Candidate::Index(i) if i.table == "t"))
            .expect("an index candidate on t");
        let svc = WhatIfService::new(&db, &p, &w, &cands, false);

        let base = p.config.clone();
        // Query 1 (on `u`) is unaffected by an index on `t`: after the
        // baseline estimate, the trial must be answered from the cache.
        let c0 = svc.estimate(&base, &[], None, 1);
        let c1 = svc.estimate(&base, &[], Some(ti as u32), 1);
        assert_eq!(c0.to_bits(), c1.to_bits());
        let s = svc.stats();
        assert_eq!(s.whatif_calls, 2);
        assert_eq!(s.planner_calls, 1);
        assert_eq!(s.cache_hits, 1);

        // A relevant trial matches pricing the materialized trial config.
        let layered = svc.estimate(&base, &[], Some(ti as u32), 0);
        let mut trial = base.clone();
        match &cands[ti] {
            Candidate::Index(i) => trial.indexes.push(i.clone()),
            Candidate::MView(m) => trial.mviews.push(m.clone()),
        }
        let materialized = estimate_hypothetical(&db, &p, &trial, &w[0]).unwrap();
        assert_eq!(layered.to_bits(), materialized.to_bits());
    }
}
