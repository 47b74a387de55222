//! The cost-based optimizer.
//!
//! For the benchmark's query shapes (≤ 4 relations) the planner searches
//! exhaustively: every materialized-view rewrite of the bound query,
//! every relation permutation, and for each step the cheapest access
//! path (sequential scan vs index probe) and join method (hash join vs
//! index nested-loops). Costs come from a [`StatsView`], so the same
//! search produces real estimates `E(q,C)` and hypothetical estimates
//! `H(q,Ch,Ca)` — the two quantities §5 of the paper contrasts.

use std::collections::BTreeSet;

use tab_sqlq::RangeOp;
use tab_storage::{MViewSpec, Value};

use crate::catalog::{BoundQuery, BoundRel, FreqFilter, JoinEdge};
use crate::cost::{RANDOM_PAGE_COST, ROW_COST, SEQ_PAGE_COST};
use crate::plan::{
    access_desc, Access, JoinMethod, JoinStep, OpEstimate, PhysicalPlan, ProbeSource, RelOp,
};
use crate::stats_view::{IndexMeta, StatsView};

/// One access path or join method the planner priced while choosing a
/// plan — the planner's decision trace, surfaced by `tab explain`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Human-readable option, e.g. `IndexScan(protein cols=[3])`.
    pub description: String,
    /// The option's estimated cost in cost units.
    pub cost: f64,
    /// Whether this option is part of the chosen plan.
    pub chosen: bool,
}

/// Why the chosen plan won: every alternative the planner priced, at the
/// candidate level (materialized-view rewrites) and per operator slot of
/// the winning join order.
#[derive(Debug, Clone)]
pub struct PlanExplanation {
    /// Query-level candidates: the original query and each view rewrite,
    /// with the best full-plan cost found for each.
    pub candidates: Vec<PlanChoice>,
    /// Access-path/join-method options per pipeline slot of the chosen
    /// plan (`per_op[0]` is the driver, `per_op[i]` join step `i-1`).
    /// Options the planner never priced (e.g. an index with no usable
    /// prefix) do not appear.
    pub per_op: Vec<Vec<PlanChoice>>,
}

/// Plan a bound query against a statistics view.
///
/// # Panics
/// Panics if the query has more than [`MAX_RELATIONS`] relations.
pub fn plan(bound: &BoundQuery, stats: &dyn StatsView) -> PhysicalPlan {
    search(bound, stats, None)
}

/// Plan a bound query and record the planner's decision trace: the cost
/// of each query-level candidate (original vs. each materialized-view
/// rewrite), and every access path / join method priced for each slot of
/// the winning plan. Used by `tab explain`; the hot path is [`plan`],
/// which skips all recording.
///
/// # Panics
/// Panics if the query has more than [`MAX_RELATIONS`] relations.
pub fn plan_explained(
    bound: &BoundQuery,
    stats: &dyn StatsView,
) -> (PhysicalPlan, PlanExplanation) {
    let mut explanation = PlanExplanation {
        candidates: Vec::new(),
        per_op: Vec::new(),
    };
    let plan = search(bound, stats, Some(&mut explanation));
    (plan, explanation)
}

/// Maximum relations per query (the families use at most 3).
pub const MAX_RELATIONS: usize = 6;

/// Whether some plan of `bound` could read an index on `table` with key
/// `columns` — the planner's own usability rule, and the what-if
/// search's relevance test. Every index loop below needs a usable
/// *leading* column, so the index is usable iff `columns[0]` is
///
/// * an equality-filter, range-filter, self-referential
///   frequency-filter or join column of some relation scanning `table`
///   (`rel_can_lead`, through which each plan candidate filters its
///   per-relation index lists before any loop runs), or
/// * the grouped column of some frequency subquery over `table`
///   (`freq_eval_cost`'s index-only path).
///
/// Covering alone is not an access path here. An index that is not
/// usable leaves the query's estimated cost bit-identical.
pub fn index_usable(bound: &BoundQuery, table: &str, columns: &[usize]) -> bool {
    let Some(&lead) = columns.first() else {
        return false;
    };
    bound
        .freqs
        .iter()
        .any(|f| f.sub_table == table && f.sub_col == lead)
        || bound
            .rels
            .iter()
            .enumerate()
            .any(|(r, rel)| rel.source == table && rel_can_lead(bound, r, lead))
}

/// Whether relation `rel` carries a predicate an index on its source
/// led by column `lead` could serve.
fn rel_can_lead(bound: &BoundQuery, rel: usize, lead: usize) -> bool {
    let source = &bound.rels[rel].source;
    bound.filters.iter().any(|f| f.rel == rel && f.col == lead)
        || bound.ranges.iter().any(|f| f.rel == rel && f.col == lead)
        || bound
            .freqs
            .iter()
            .any(|f| f.rel == rel && f.col == lead && f.sub_table == *source && f.sub_col == lead)
        || bound.joins.iter().any(|e| {
            (e.a == rel && e.cols.iter().any(|&(ca, _)| ca == lead))
                || (e.b == rel && e.cols.iter().any(|&(_, cb)| cb == lead))
        })
}

/// Whether some plan of `bound` could scan materialized view `spec` in
/// place of one of its join edges — [`index_usable`]'s counterpart for
/// views: the planner enumerates exactly these rewrites.
pub fn view_usable(bound: &BoundQuery, spec: &MViewSpec) -> bool {
    rewrites_with(bound, spec).next().is_some()
}

/// Outcome of costing one relation's access.
struct CostedRelOp {
    op: RelOp,
    cost: f64,
    /// Rows emitted after all filters and frequency filters.
    out_rows: f64,
}

/// One usable index of a relation, resolved once per plan candidate.
struct RelIndex {
    meta: IndexMeta,
    /// Whether the index holds every column the plan needs from the
    /// relation (no heap fetches).
    covering: bool,
}

impl RelIndex {
    /// Label of a priced option over this index, e.g.
    /// `IndexScan(protein cols=[3] covering)`.
    fn describe(&self, kind: &str, source: &str) -> String {
        format!(
            "{kind}({source} cols={:?}{})",
            self.meta.columns,
            if self.covering { " covering" } else { "" }
        )
    }
}

/// Everything about one relation that does not depend on the join order.
struct RelCtx {
    rows: f64,
    pages: f64,
    /// The source's indexes that pass [`rel_can_lead`], in the
    /// statistics view's order.
    indexes: Vec<RelIndex>,
    /// The relation's constant filters `(col, value)`.
    filters: Vec<(usize, Value)>,
    /// Selectivity of each of `filters`.
    eq_sels: Vec<f64>,
    /// The relation's range filters `(col, op, value)`.
    ranges: Vec<(usize, RangeOp, Value)>,
    /// Selectivity of each of `ranges`.
    range_sels: Vec<f64>,
    /// Indices into `BoundQuery::freqs` of the relation's frequency
    /// filters.
    freqs: Vec<usize>,
    /// Qualifying fraction of each of `freqs`.
    freq_fracs: Vec<f64>,
    /// Product of `eq_sels` then `range_sels`.
    filter_sel: f64,
    /// Product of `freq_fracs`.
    freq_sel: f64,
}

/// What the join-order search of one plan candidate reads: the
/// order-independent facts about each relation and each relation's best
/// single-relation access, computed once up front. The permutation loop
/// prices a join order from these and never asks the statistics view
/// for an index list again.
struct Ctx<'a> {
    bound: &'a BoundQuery,
    stats: &'a dyn StatsView,
    rels: Vec<RelCtx>,
    /// `best_rel_op` of each relation (driver and hash-join inner use
    /// the same access).
    best: Vec<CostedRelOp>,
}

impl<'a> Ctx<'a> {
    fn new(bound: &'a BoundQuery, stats: &'a dyn StatsView) -> Self {
        let need = bound.needed_columns();
        let rels: Vec<RelCtx> = (0..bound.rels.len())
            .map(|rel| RelCtx::new(bound, stats, rel, &need[rel]))
            .collect();
        let best = (0..rels.len())
            .map(|rel| best_rel_op(bound, stats, rel, &rels[rel], None))
            .collect();
        Ctx {
            bound,
            stats,
            rels,
            best,
        }
    }
}

impl RelCtx {
    fn new(bound: &BoundQuery, stats: &dyn StatsView, rel: usize, need: &BTreeSet<usize>) -> Self {
        let source = &bound.rels[rel].source;
        let filters: Vec<(usize, Value)> = bound
            .filters
            .iter()
            .filter(|f| f.rel == rel)
            .map(|f| (f.col, f.value.clone()))
            .collect();
        let ranges: Vec<(usize, RangeOp, Value)> = bound
            .ranges
            .iter()
            .filter(|f| f.rel == rel)
            .map(|f| (f.col, f.op, f.value.clone()))
            .collect();
        let freqs: Vec<usize> = bound
            .freqs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.rel == rel)
            .map(|(i, _)| i)
            .collect();
        let eq_sels: Vec<f64> = filters
            .iter()
            .map(|(c, v)| stats.eq_selectivity(source, *c, v))
            .collect();
        let range_sels: Vec<f64> = ranges
            .iter()
            .map(|(c, op, v)| stats.range_selectivity(source, *c, *op, v))
            .collect();
        let filter_sel = eq_sels
            .iter()
            .chain(&range_sels)
            .fold(1.0, |acc, s| acc * s);
        let freq_fracs: Vec<f64> = freqs
            .iter()
            .map(|&fi| {
                let f = &bound.freqs[fi];
                stats.freq_fraction(&f.sub_table, f.sub_col, f.op, f.k)
            })
            .collect();
        let freq_sel = freq_fracs.iter().fold(1.0, |acc, s| acc * s);
        let indexes = stats
            .indexes_on(source)
            .into_iter()
            .filter(|m| {
                m.columns
                    .first()
                    .is_some_and(|&c| rel_can_lead(bound, rel, c))
            })
            .map(|meta| RelIndex {
                covering: need.iter().all(|c| meta.columns.contains(c)),
                meta,
            })
            .collect();
        RelCtx {
            rows: stats.rel_rows(source),
            pages: stats.rel_pages(source),
            indexes,
            filters,
            eq_sels,
            ranges,
            range_sels,
            freqs,
            freq_fracs,
            filter_sel,
            freq_sel,
        }
    }
}

/// A plan candidate's winning join order and its full-plan estimates.
struct Costed {
    /// Total estimated cost, aggregation and sort included.
    total: f64,
    /// Estimated output rows.
    rows: f64,
    freq_cost: f64,
    perm: &'static [usize],
}

/// The one search behind [`plan`] and [`plan_explained`]: cost the
/// original query and every view rewrite, then build the
/// [`PhysicalPlan`] once, for the winner.
fn search(
    bound: &BoundQuery,
    stats: &dyn StatsView,
    mut explain: Option<&mut PlanExplanation>,
) -> PhysicalPlan {
    assert!(
        bound.rels.len() <= MAX_RELATIONS,
        "planner supports at most {MAX_RELATIONS} relations"
    );
    let rewrites = mv_rewrites(bound, stats);
    let candidates =
        std::iter::once((bound, None)).chain(rewrites.iter().map(|(q, view)| (q, Some(view))));
    let mut best: Option<(usize, Ctx<'_>, Costed, Option<&String>)> = None;
    for (i, (cand, view)) in candidates.enumerate() {
        let ctx = Ctx::new(cand, stats);
        let costed = cost_candidate(&ctx);
        if let Some(ex) = explain.as_deref_mut() {
            ex.candidates.push(PlanChoice {
                description: match view {
                    None => "original query".to_string(),
                    Some(view) => format!("rewrite using view `{view}`"),
                },
                cost: costed.total,
                chosen: false,
            });
        }
        if best
            .as_ref()
            .is_none_or(|(_, _, b, _)| costed.total < b.total)
        {
            best = Some((i, ctx, costed, view));
        }
    }
    let (i, ctx, costed, view) = best.expect("at least the original candidate plans");
    if let Some(ex) = explain.as_deref_mut() {
        ex.candidates[i].chosen = true;
    }

    // Re-cost the winning join order with materialisation (and, for
    // `plan_explained`, logging) on: the search is deterministic, so the
    // per-slot winners are the ones the cost came from.
    let mut built = PermBuild {
        steps: Vec::new(),
        ests: Vec::new(),
        logs: explain.map(|ex| &mut ex.per_op),
    };
    let _ = cost_perm(&ctx, costed.perm, Some(&mut built));

    // Operator-slot estimates: whatever `total` carries beyond the freq
    // setup and the join pipeline is attributed to the output operator
    // (aggregation / sort), matching the executor's actuals layout.
    let pipeline_cost: f64 = built.ests.iter().map(|e| e.cost).sum();
    let mut op_ests = Vec::with_capacity(built.ests.len() + 2);
    op_ests.push(OpEstimate {
        cost: costed.freq_cost,
        rows: 0.0,
    });
    op_ests.extend(built.ests);
    op_ests.push(OpEstimate {
        cost: costed.total - costed.freq_cost - pipeline_cost,
        rows: costed.rows,
    });
    PhysicalPlan {
        query: ctx.bound.clone(),
        driver: ctx.best[costed.perm[0]].op.clone(),
        steps: built.steps,
        est_cost: costed.total,
        est_rows: costed.rows,
        mviews_used: view.into_iter().cloned().collect(),
        op_ests,
    }
}

/// Search one candidate's join orders and add what sits on top of the
/// pipeline (frequency subqueries, aggregation, sort, limit).
fn cost_candidate(ctx: &Ctx<'_>) -> Costed {
    let (bound, stats) = (ctx.bound, ctx.stats);
    let freq_cost: f64 = bound.freqs.iter().map(|f| freq_eval_cost(f, stats)).sum();

    let mut best: Option<(f64, f64, &'static [usize])> = None;
    for perm in permutations(bound.rels.len()) {
        let (cost, rows) = cost_perm(ctx, perm, None);
        let total = cost + freq_cost;
        if best.is_none_or(|(c, ..)| total < c) {
            best = Some((total, rows, perm.as_slice()));
        }
    }
    let (mut total, mut rows, perm) = best.expect("some permutation");

    // Aggregation on top.
    if !bound.aggs.is_empty() || !bound.group_by.is_empty() {
        let distinct_extra = bound
            .aggs
            .iter()
            .filter(|a| matches!(a, crate::catalog::BoundAgg::CountDistinct(..)))
            .count() as f64;
        total += rows * ROW_COST * (1.0 + distinct_extra);
        // Hash aggregation over more rows than memory holds spills too.
        total += crate::cost::spill_pages(rows as u64, 0) as f64 * SEQ_PAGE_COST;
        let groups = if bound.group_by.is_empty() {
            1.0
        } else {
            let mut g = 1.0f64;
            for &(r, c) in &bound.group_by {
                g *= stats.n_distinct(&bound.rels[r].source, c).max(1.0);
                if g > 1e15 {
                    break;
                }
            }
            g.min(rows.max(1.0))
        };
        rows = groups;
    }
    if !bound.order_by.is_empty() {
        let log = rows.max(2.0).log2().ceil();
        total +=
            rows * log * ROW_COST + crate::cost::spill_pages(rows as u64, 0) as f64 * SEQ_PAGE_COST;
    }
    if let Some(limit) = bound.limit {
        rows = rows.min(limit as f64);
    }
    Costed {
        total,
        rows,
        freq_cost,
        perm,
    }
}

/// What [`cost_perm`] materialises for the winning join order only.
struct PermBuild<'l> {
    steps: Vec<JoinStep>,
    /// Per-slot estimates: driver first, then each join step.
    ests: Vec<OpEstimate>,
    /// When supplied, every access path and join method priced for each
    /// pipeline slot is appended (one inner `Vec` per slot, in `ests`
    /// order).
    logs: Option<&'l mut Vec<Vec<PlanChoice>>>,
}

/// Cost a fixed relation order from the candidate's context. Returns
/// `(cost, out_rows)`. The search passes `build: None` and builds no
/// operator; the winner is re-costed with `Some` to materialise its own.
fn cost_perm(ctx: &Ctx<'_>, perm: &[usize], mut build: Option<&mut PermBuild<'_>>) -> (f64, f64) {
    let d = &ctx.best[perm[0]];
    if let Some(b) = build.as_deref_mut() {
        if let Some(ls) = b.logs.as_deref_mut() {
            // Re-price the driver with logging on, to list every option
            // in pricing order.
            let mut log = Vec::new();
            let rc = &ctx.rels[perm[0]];
            best_rel_op(ctx.bound, ctx.stats, perm[0], rc, Some(&mut log));
            ls.push(log);
        }
        b.ests.push(OpEstimate {
            cost: d.cost,
            rows: d.out_rows,
        });
    }
    let mut total = d.cost;
    let mut tuples = d.out_rows;

    let mut pairs: Vec<((usize, usize), usize)> = Vec::new();
    for k in 1..perm.len() {
        let r = perm[k];
        // All join pairs connecting r to the relations placed so far.
        pairs.clear();
        for e in &ctx.bound.joins {
            collect_pairs(e, r, &perm[..k], &mut pairs);
        }
        let mut log = build
            .as_deref()
            .is_some_and(|b| b.logs.is_some())
            .then(Vec::new);
        let (pick, cost, out) = best_join_step(ctx, r, &pairs, tuples, log.as_mut());
        if let Some(b) = build.as_deref_mut() {
            if let (Some(ls), Some(log)) = (b.logs.as_deref_mut(), log) {
                ls.push(log);
            }
            b.steps.push(join_step(ctx, r, &pairs, pick));
            b.ests.push(OpEstimate { cost, rows: out });
        }
        total += cost;
        tuples = out;
    }
    (total, tuples)
}

fn collect_pairs(
    e: &JoinEdge,
    r: usize,
    placed: &[usize],
    pairs: &mut Vec<((usize, usize), usize)>,
) {
    if e.b == r && placed.contains(&e.a) {
        for &(ca, cb) in &e.cols {
            pairs.push(((e.a, ca), cb));
        }
    } else if e.a == r && placed.contains(&e.b) {
        for &(ca, cb) in &e.cols {
            pairs.push(((e.b, cb), ca));
        }
    }
}

/// Best access path for a single relation (used for drivers and hash-join
/// inners). When `log` is supplied, every priced option is appended as a
/// [`PlanChoice`], with the winner marked `chosen`.
fn best_rel_op(
    bound: &BoundQuery,
    stats: &dyn StatsView,
    rel: usize,
    rc: &RelCtx,
    mut log: Option<&mut Vec<PlanChoice>>,
) -> CostedRelOp {
    let source = &bound.rels[rel].source;
    let (rows, pages) = (rc.rows, rc.pages);
    let out_rows = rows * rc.freq_fracs.iter().fold(rc.filter_sel, |acc, s| acc * s);
    // Appends one priced option to the log; returns its position.
    let mut note = |kind: &str, idx: Option<&RelIndex>, cost: f64| -> Option<usize> {
        let l = log.as_deref_mut()?;
        l.push(PlanChoice {
            description: match idx {
                None => format!("{kind}({source})"),
                Some(idx) => idx.describe(kind, source),
            },
            cost,
            chosen: false,
        });
        Some(l.len() - 1)
    };

    // Sequential scan baseline.
    let mut best_cost = pages * SEQ_PAGE_COST + rows * ROW_COST;
    let mut best_access = Access::Seq;
    let mut best_log = note("SeqScan", None, best_cost);

    // Index-filtered frequency scans: an index whose leading column
    // carries a frequency filter reads only the qualifying entries'
    // rows, skipping the heap for everything else.
    for idx in &rc.indexes {
        let lead = idx.meta.columns[0];
        let Some(pos) = rc.freqs.iter().position(|&fi| bound.freqs[fi].col == lead) else {
            continue;
        };
        let fi = rc.freqs[pos];
        let f = &bound.freqs[fi];
        // Only self-referential filters (subquery over this very column)
        // can drive the scan: the qualifying key set is then exactly the
        // index's own leading-key groups.
        if f.sub_table != *source || f.sub_col != lead {
            continue;
        }
        let qual_rows = rows * rc.freq_fracs[pos];
        let distinct = stats.n_distinct(source, lead);
        let fetch = if idx.covering {
            0.0
        } else {
            (qual_rows * idx.meta.clustering).ceil().min(pages)
        };
        let cost = idx.meta.pages * SEQ_PAGE_COST
            + (distinct + qual_rows) * ROW_COST
            + fetch * RANDOM_PAGE_COST;
        let entry = note("IndexFreqScan", Some(idx), cost);
        if cost < best_cost {
            (best_cost, best_log) = (cost, entry);
            best_access = Access::IndexFreqScan {
                columns: idx.meta.columns.clone(),
                freq: fi,
                covering: idx.covering,
            };
        }
    }

    // Index range scans: an index whose leading column carries a range
    // filter reads only the qualifying key span.
    for idx in &rc.indexes {
        let lead = idx.meta.columns[0];
        // Tightest bounds over the leading column.
        let mut lo: Option<(&Value, bool)> = None;
        let mut hi: Option<(&Value, bool)> = None;
        let mut span_sel = 1.0;
        for ((_, op, v), sel) in rc
            .ranges
            .iter()
            .zip(&rc.range_sels)
            .filter(|((c, ..), _)| *c == lead)
        {
            span_sel *= sel;
            match op {
                RangeOp::Gt | RangeOp::Ge => {
                    if lo.is_none_or(|(cur, _)| v > cur) {
                        lo = Some((v, matches!(op, RangeOp::Gt)));
                    }
                }
                RangeOp::Lt | RangeOp::Le => {
                    if hi.is_none_or(|(cur, _)| v < cur) {
                        hi = Some((v, matches!(op, RangeOp::Lt)));
                    }
                }
            }
        }
        if lo.is_none() && hi.is_none() {
            continue;
        }
        let matches = rows * span_sel;
        let leaf = (matches / idx.meta.entries_per_page).ceil().max(1.0);
        let fetch = if idx.covering {
            0.0
        } else {
            (matches * idx.meta.clustering).ceil().min(pages)
        };
        let cost = (idx.meta.height + leaf) * RANDOM_PAGE_COST
            + fetch * RANDOM_PAGE_COST
            + matches * ROW_COST;
        let entry = note("IndexRangeScan", Some(idx), cost);
        if cost < best_cost {
            (best_cost, best_log) = (cost, entry);
            best_access = Access::IndexRange {
                columns: idx.meta.columns.clone(),
                lo: lo.map(|(v, strict)| (v.clone(), strict)),
                hi: hi.map(|(v, strict)| (v.clone(), strict)),
                covering: idx.covering,
            };
        }
    }

    // Index probes on constant-filter prefixes.
    for idx in &rc.indexes {
        let mut prefix = Vec::new();
        let mut prefix_sel = 1.0;
        for &col in &idx.meta.columns {
            match rc.filters.iter().position(|(c, _)| *c == col) {
                Some(p) => {
                    prefix_sel *= rc.eq_sels[p];
                    prefix.push(&rc.filters[p].1);
                }
                None => break,
            }
        }
        if prefix.is_empty() {
            continue;
        }
        let cost = probe_cost(&idx.meta, rows * prefix_sel, pages, idx.covering);
        let entry = note("IndexScan", Some(idx), cost);
        if cost < best_cost {
            (best_cost, best_log) = (cost, entry);
            best_access = Access::Index {
                columns: idx.meta.columns.clone(),
                prefix: prefix.into_iter().cloned().collect(),
                covering: idx.covering,
            };
        }
    }
    if let (Some(l), Some(e)) = (log, best_log) {
        l[e].chosen = true;
    }
    // A constant-prefix probe consumes the filters on its bound columns;
    // every other access leaves them all residual.
    let bound_cols: &[usize] = match &best_access {
        Access::Index {
            columns, prefix, ..
        } => &columns[..prefix.len()],
        _ => &[],
    };
    let filters = rc
        .filters
        .iter()
        .filter(|(c, _)| !bound_cols.contains(c))
        .cloned()
        .collect();
    CostedRelOp {
        op: RelOp {
            rel,
            access: best_access,
            filters,
            ranges: rc.ranges.clone(),
            freqs: rc.freqs.clone(),
        },
        cost: best_cost,
        out_rows,
    }
}

/// Cost of one index probe returning `matches` rows. Heap fetches are
/// scaled by the index's clustering factor (rows co-located with their
/// key cost far fewer pages).
fn probe_cost(idx: &IndexMeta, matches: f64, heap_pages: f64, covering: bool) -> f64 {
    let leaf = (matches / idx.entries_per_page).ceil().max(1.0);
    let heap = if covering {
        0.0
    } else {
        (matches * idx.clustering).ceil().min(heap_pages)
    };
    (idx.height + leaf + heap) * RANDOM_PAGE_COST + matches * ROW_COST
}

/// Choose the cheapest join method bringing `rel` into the pipeline:
/// `None` is a hash join over the relation's best access, `Some(i)` an
/// index nested-loops join over `ctx.rels[rel].indexes[i]`. Returns
/// `(pick, cost, out_rows)`; [`join_step`] turns the pick into an
/// operator. When `log` is supplied, every priced option is appended as
/// a [`PlanChoice`], with the winner marked `chosen`.
fn best_join_step(
    ctx: &Ctx<'_>,
    rel: usize,
    pairs: &[((usize, usize), usize)],
    outer_rows: f64,
    mut log: Option<&mut Vec<PlanChoice>>,
) -> (Option<usize>, f64, f64) {
    let (bound, stats) = (ctx.bound, ctx.stats);
    let source = &bound.rels[rel].source;
    let rc = &ctx.rels[rel];

    // Join selectivity over all pairs, used for output estimation.
    let mut join_sel = 1.0;
    for &((orel, ocol), icol) in pairs {
        let nd_o = stats.n_distinct(&bound.rels[orel].source, ocol);
        let nd_i = stats.n_distinct(source, icol);
        join_sel /= nd_o.max(nd_i).max(1.0);
    }

    // Hash join with best inner access, spilling when the build side
    // exceeds working memory.
    let inner = &ctx.best[rel];
    let out = (outer_rows * inner.out_rows * join_sel).max(0.0);
    let spill =
        crate::cost::spill_pages(inner.out_rows as u64, outer_rows as u64) as f64 * SEQ_PAGE_COST;
    let hash_cost =
        inner.cost + inner.out_rows * ROW_COST + outer_rows * ROW_COST + out * ROW_COST + spill;
    if let Some(l) = log.as_deref_mut() {
        l.push(PlanChoice {
            description: format!("HashJoin[{}]", access_desc(source, &inner.op.access)),
            cost: hash_cost,
            chosen: false,
        });
    }
    let mut best_log = 0usize;
    let mut best = (None, hash_cost, out);

    // Index nested-loops over each index whose prefix can be bound from
    // join columns and constant filters.
    for (i, idx) in rc.indexes.iter().enumerate() {
        let mut probe_sel = 1.0;
        let mut has_outer = false;
        for &col in &idx.meta.columns {
            if pairs.iter().any(|(_, ic)| *ic == col) {
                probe_sel /= stats.n_distinct(source, col).max(1.0);
                has_outer = true;
            } else if let Some(p) = rc.filters.iter().position(|(c, _)| *c == col) {
                probe_sel *= rc.eq_sels[p];
            } else {
                break;
            }
        }
        if !has_outer {
            continue;
        }
        let matches_pp = rc.rows * probe_sel;
        let cost = outer_rows * probe_cost(&idx.meta, matches_pp, rc.pages, idx.covering)
            + outer_rows * matches_pp * ROW_COST;
        let entry = log.as_deref_mut().map(|l| {
            l.push(PlanChoice {
                description: idx.describe("IndexNLJoin", source),
                cost,
                chosen: false,
            });
            l.len() - 1
        });
        if cost < best.1 {
            if let Some(e) = entry {
                best_log = e;
            }
            let out = (outer_rows * rc.rows * join_sel * rc.filter_sel * rc.freq_sel).max(0.0);
            best = (Some(i), cost, out);
        }
    }
    if let Some(l) = log {
        l[best_log].chosen = true;
    }
    best
}

/// Materialise the join step [`best_join_step`] picked.
fn join_step(
    ctx: &Ctx<'_>,
    rel: usize,
    pairs: &[((usize, usize), usize)],
    pick: Option<usize>,
) -> JoinStep {
    let rc = &ctx.rels[rel];
    let Some(i) = pick else {
        return JoinStep {
            inner: ctx.best[rel].op.clone(),
            method: JoinMethod::Hash,
            pairs: pairs.to_vec(),
        };
    };
    let idx = &rc.indexes[i];
    let mut probe = Vec::new();
    // Only columns bound from a *constant* may drop their filter from
    // the residual list; a column bound from the outer join value
    // still needs its constant filter re-checked after the probe.
    let mut used_const_cols = BTreeSet::new();
    for &col in &idx.meta.columns {
        if let Some(&((orel, ocol), _)) = pairs.iter().find(|(_, ic)| *ic == col) {
            probe.push(ProbeSource::Outer(orel, ocol));
        } else if let Some((_, v)) = rc.filters.iter().find(|(c, _)| *c == col) {
            probe.push(ProbeSource::Const(v.clone()));
            used_const_cols.insert(col);
        } else {
            break;
        }
    }
    JoinStep {
        inner: RelOp {
            rel,
            access: Access::Seq, // unused for IndexNl
            filters: rc
                .filters
                .iter()
                .filter(|(c, _)| !used_const_cols.contains(c))
                .cloned()
                .collect(),
            ranges: rc.ranges.clone(),
            freqs: rc.freqs.clone(),
        },
        method: JoinMethod::IndexNl {
            columns: idx.meta.columns.clone(),
            probe,
            covering: idx.covering,
        },
        pairs: pairs.to_vec(),
    }
}

/// Cost of evaluating a frequency subquery once. With an index leading
/// on the grouped column the group sizes are read off the leaf level —
/// one operation per *distinct key*, not per row; without one, the
/// whole table is scanned and hashed.
fn freq_eval_cost(f: &FreqFilter, stats: &dyn StatsView) -> f64 {
    let index_only = stats
        .indexes_on(&f.sub_table)
        .into_iter()
        .find(|i| i.columns.first() == Some(&f.sub_col));
    match index_only {
        Some(idx) => {
            idx.pages * SEQ_PAGE_COST + stats.n_distinct(&f.sub_table, f.sub_col) * ROW_COST
        }
        None => {
            stats.rel_pages(&f.sub_table) * SEQ_PAGE_COST
                + 2.0 * stats.rel_rows(&f.sub_table) * ROW_COST
        }
    }
}

/// All permutations of `0..n` in lexicographic order, computed once per
/// relation count and shared: the what-if search re-plans the same query
/// shapes thousands of times, and `n` never exceeds [`MAX_RELATIONS`].
fn permutations(n: usize) -> &'static [Vec<usize>] {
    use std::sync::OnceLock;
    static TABLES: [OnceLock<Vec<Vec<usize>>>; MAX_RELATIONS + 1] =
        [const { OnceLock::new() }; MAX_RELATIONS + 1];
    TABLES[n].get_or_init(|| enumerate_permutations(n))
}

fn enumerate_permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..n).collect();
    let mut free: Vec<bool> = vec![true; n];
    fn rec(
        n: usize,
        depth: usize,
        cur: &mut Vec<usize>,
        free: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if depth == n {
            out.push(cur[..n].to_vec());
            return;
        }
        for i in 0..n {
            if free[i] {
                free[i] = false;
                cur[depth] = i;
                rec(n, depth + 1, cur, free, out);
                free[i] = true;
            }
        }
    }
    rec(n, 0, &mut cur, &mut free, &mut out);
    out
}

/// Enumerate single-view rewrites of `bound` using the views visible in
/// `stats`. Each result replaces one join edge (two relations) with a
/// scan of the view.
fn mv_rewrites(bound: &BoundQuery, stats: &dyn StatsView) -> Vec<(BoundQuery, String)> {
    let views = stats.mviews();
    views
        .iter()
        .flat_map(|m| rewrites_with(bound, &m.spec).map(|rw| (rw, m.spec.name.clone())))
        .collect()
}

/// Every rewrite of `bound` that replaces one join edge with a scan of
/// the two-table join view `spec`, in either orientation.
fn rewrites_with<'a>(
    bound: &'a BoundQuery,
    spec: &'a MViewSpec,
) -> impl Iterator<Item = BoundQuery> + 'a {
    let edges: &[JoinEdge] = if spec.base.len() == 2 {
        &bound.joins
    } else {
        &[]
    };
    edges.iter().flat_map(move |e| {
        [false, true]
            .into_iter()
            .filter_map(move |flip| try_rewrite(bound, spec, e, flip))
    })
}

/// Try to replace edge `e` (rels `e.a`, `e.b`) with view `spec`.
/// `flip=false` maps `e.a → base[0]`; `flip=true` maps `e.a → base[1]`.
fn try_rewrite(
    bound: &BoundQuery,
    spec: &MViewSpec,
    e: &JoinEdge,
    flip: bool,
) -> Option<BoundQuery> {
    let (i, j) = (e.a, e.b);
    let (base_i, base_j) = if flip {
        (&spec.base[1], &spec.base[0])
    } else {
        (&spec.base[0], &spec.base[1])
    };
    if &bound.rels[i].source != base_i || &bound.rels[j].source != base_j {
        return None;
    }
    // Edge column pairs must exactly match the view's join definition.
    let mut edge_cols: Vec<(usize, usize)> = if flip {
        e.cols.iter().map(|&(ca, cb)| (cb, ca)).collect()
    } else {
        e.cols.clone()
    };
    let mut view_cols = spec.join_on.clone();
    edge_cols.sort_unstable();
    view_cols.sort_unstable();
    if edge_cols != view_cols {
        return None;
    }

    // Needed columns once this edge is gone.
    let mut without_edge = bound.clone();
    without_edge
        .joins
        .retain(|x| !(x.a == e.a && x.b == e.b && x.cols == e.cols));
    let need = without_edge.needed_columns();

    // Base-table position within the view for each of our two relations.
    let tpos = |rel: usize| -> usize {
        match (rel == i, flip) {
            (true, false) | (false, true) => 0,
            _ => 1,
        }
    };
    // Every needed column of i and j must be projected.
    for rel in [i, j] {
        for &c in &need[rel] {
            spec.view_column_of(tpos(rel), c)?;
        }
    }

    // New relation list: everything but i and j, view appended last.
    let mut new_rels: Vec<BoundRel> = Vec::new();
    let mut old_to_new = vec![usize::MAX; bound.rels.len()];
    for (k, r) in bound.rels.iter().enumerate() {
        if k != i && k != j {
            old_to_new[k] = new_rels.len();
            new_rels.push(r.clone());
        }
    }
    let view_idx = new_rels.len();
    new_rels.push(BoundRel {
        alias: format!("${}", spec.name),
        source: spec.name.clone(),
    });

    let remap = |rel: usize, col: usize| -> Option<(usize, usize)> {
        if rel == i || rel == j {
            Some((view_idx, spec.view_column_of(tpos(rel), col)?))
        } else {
            Some((old_to_new[rel], col))
        }
    };

    // Remap joins (matched edge already removed), merging duplicates.
    let mut joins: Vec<JoinEdge> = Vec::new();
    for x in &without_edge.joins {
        let mut cols = Vec::new();
        let mut endpoints = None;
        for &(ca, cb) in &x.cols {
            let (ra, ca2) = remap(x.a, ca)?;
            let (rb, cb2) = remap(x.b, cb)?;
            let (a, b, ca3, cb3) = if ra <= rb {
                (ra, rb, ca2, cb2)
            } else {
                (rb, ra, cb2, ca2)
            };
            if a == b {
                // Edge collapsed inside the view: it held by construction
                // of the view only if the view joined on it; since the
                // matched edge was removed, any residual self-edge means
                // the rewrite is invalid.
                return None;
            }
            endpoints = Some((a, b));
            cols.push((ca3, cb3));
        }
        let (a, b) = endpoints?;
        match joins.iter_mut().find(|g| g.a == a && g.b == b) {
            Some(g) => g.cols.extend(cols),
            None => joins.push(JoinEdge { a, b, cols }),
        }
    }

    let mut filters = Vec::new();
    for f in &bound.filters {
        let (rel, col) = remap(f.rel, f.col)?;
        filters.push(crate::catalog::ConstFilter {
            rel,
            col,
            value: f.value.clone(),
        });
    }
    let mut ranges = Vec::new();
    for f in &bound.ranges {
        let (rel, col) = remap(f.rel, f.col)?;
        ranges.push(crate::catalog::RangeFilter {
            rel,
            col,
            op: f.op,
            value: f.value.clone(),
        });
    }
    let mut freqs = Vec::new();
    for f in &bound.freqs {
        let (rel, col) = remap(f.rel, f.col)?;
        freqs.push(crate::catalog::FreqFilter {
            rel,
            col,
            ..f.clone()
        });
    }
    let mut group_by = Vec::new();
    for &(r, c) in &bound.group_by {
        group_by.push(remap(r, c)?);
    }
    let mut aggs = Vec::new();
    for a in &bound.aggs {
        aggs.push(match a {
            crate::catalog::BoundAgg::CountStar => crate::catalog::BoundAgg::CountStar,
            crate::catalog::BoundAgg::CountDistinct(r, c) => {
                let (r2, c2) = remap(*r, *c)?;
                crate::catalog::BoundAgg::CountDistinct(r2, c2)
            }
        });
    }
    let mut select = Vec::new();
    for s in &bound.select {
        select.push(match s {
            crate::catalog::BoundItem::Column(r, c) => {
                let (r2, c2) = remap(*r, *c)?;
                crate::catalog::BoundItem::Column(r2, c2)
            }
            crate::catalog::BoundItem::Agg(k) => crate::catalog::BoundItem::Agg(*k),
        });
    }

    Some(BoundQuery {
        rels: new_rels,
        joins,
        filters,
        ranges,
        freqs,
        group_by,
        aggs,
        select,
        order_by: bound.order_by.clone(),
        limit: bound.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_count_and_order() {
        let p = permutations(3);
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], vec![0, 1, 2]);
        assert_eq!(p[5], vec![2, 1, 0]);
        assert_eq!(permutations(1), vec![vec![0]]);
    }
}

#[cfg(test)]
mod planner_behavior_tests {
    use super::*;
    use crate::catalog::bind;
    use crate::stats_view::RealStats;
    use tab_sqlq::parse;
    use tab_storage::{
        BuiltConfiguration, ColType, ColumnDef, Configuration, Database, MViewDef, MViewSpec,
        Table, TableSchema, Value,
    };

    fn db() -> Database {
        let mut db = Database::new();
        // `a` is large and scattered; `b` is a small dimension, so the
        // materialized join is smaller than scanning and joining the
        // bases -- the regime where the view rewrite must win.
        for (name, rows, key_mod) in [("a", 20_000i64, 400), ("b", 40, 400)] {
            let mut t = Table::new(TableSchema::new(
                name,
                (0..2)
                    .map(|i| ColumnDef::new(format!("c{i}"), ColType::Int))
                    .collect(),
            ));
            for i in 0..rows {
                t.insert(vec![Value::Int(i % key_mod), Value::Int(i)]);
            }
            db.add_table(t);
        }
        db.collect_stats();
        db
    }

    fn mv_config() -> Configuration {
        let mut cfg = Configuration::named("mv");
        cfg.mviews.push(MViewDef {
            spec: MViewSpec::join_of("ab", "a", "b", vec![(0, 0)], vec![(0, 1), (1, 1)]),
            indexes: vec![],
        });
        cfg
    }

    #[test]
    fn stale_views_are_not_planned() {
        let mut dbx = db();
        let mut built = BuiltConfiguration::build(mv_config(), &dbx);
        let q = parse("SELECT a.c1, COUNT(*) FROM a, b WHERE a.c0 = b.c0 GROUP BY a.c1").unwrap();
        let bound = bind(&q, &dbx).unwrap();
        // Fresh view: rewrite used.
        let fresh_plan = plan(&bound, &RealStats::new(&dbx, &built));
        assert_eq!(fresh_plan.mviews_used, vec!["ab".to_string()]);
        // Stale view: rewrite must disappear.
        let id = dbx
            .table_mut("a")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(9)]);
        built.apply_insert("a", &[Value::Int(1), Value::Int(9)], id);
        dbx.collect_stats();
        let stale_plan = plan(&bound, &RealStats::new(&dbx, &built));
        assert!(stale_plan.mviews_used.is_empty());
    }

    #[test]
    fn spill_raises_hash_join_estimate() {
        // Join estimates must include the spill term once the build side
        // exceeds working memory.
        let small = crate::cost::spill_pages(100, 100);
        let big = crate::cost::spill_pages(100_000, 50_000);
        assert_eq!(small, 0);
        assert!(big > 1000);
    }
}
