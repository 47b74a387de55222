//! The physical-plan executor.
//!
//! Executes a [`PhysicalPlan`] against real storage, charging every page
//! and row to a [`CostMeter`]. The meter's total is the paper's actual
//! cost `A(q, C)`; when a budget is set, exceeding it aborts execution —
//! the 30-minute timeout of the paper's protocol.
//!
//! # Late materialization
//!
//! Intermediate tuples are **not** vectors of values. A tuple is a
//! fixed-width array of [`RowId`]s — one `u32` slot per relation in the
//! bound query — stored back to back in a flat `Arena`. Joins append
//! row ids; column values are fetched from base tables (or materialized
//! views) only at predicate evaluation, join-key extraction, and final
//! projection/aggregation. This removes the per-step `clone` + `extend`
//! of value vectors that dominated the old executor's profile.
//!
//! Join keys, group-by keys, `COUNT(DISTINCT)` operands, equality
//! filters and frequency-set members are never `Value`s: they are the
//! `u64` keys of the base tables' typed columns ([`Column::key`] — the
//! `i64` itself, a float's bits, a string's dictionary code), compared
//! and hashed as fixed-width integer tuples in a [`CodeTable`]. A value
//! crossing from one column to another (a join's probe side, a frequency
//! subquery's result) is translated once through [`Column::key_from`];
//! a value the other column has never seen matches nothing.
//!
//! # Morsel-driven intra-query parallelism
//!
//! Every bulk loop — scan filtering, hash build, hash probe, index
//! nested-loop probing, grouping, projection — runs over fixed-size
//! **morsels** (contiguous row-id ranges of [`ExecOpts::morsel_rows`]
//! rows) dispatched on the deterministic `par_map` pool from
//! `tab-storage`. Workers produce per-morsel outputs and per-morsel
//! counts; the coordinator concatenates outputs **in morsel index
//! order** and charges the counts to the meter in that same order.
//! Because the meter derives units from counter totals and its
//! budget check is monotone (see [`CostMeter`]), results, cost totals,
//! and the Done/Timeout verdict are byte-identical at any thread count
//! and morsel size — including the sequential in-place path that
//! `par_map` takes at one thread.
//!
//! Both joins charge, then fill. A hash-join probe first looks up every
//! outer tuple's bucket once and sums the bucket lengths; an index
//! nested-loop join first charges the floor every probe pays (a descent
//! and one leaf page), then probes each morsel, keeps each probe's
//! borrowed id run and charges the rest of its pages and rows into its
//! own clone of the meter, stopping at the first charge the clone
//! refuses. Either way the coordinator charges the counts in morsel
//! order before any match is materialized, so an over-budget join times
//! out having built nothing, and how much work it did depends on the
//! plan, the data, the budget and the morsel size, never on thread
//! timing. Otherwise the fill pass emits each morsel's matches in morsel
//! order: a hash probe into its disjoint slice of one exact-size arena,
//! at the offset a prefix sum of the per-morsel counts gives, reading
//! the buckets the count pass kept; an index join into per-morsel arenas
//! filtered from the kept id runs and concatenated. Before its fill a
//! hash join also prices its consumer: what the next step or the output
//! operator charges before reading a tuple depends only on the match
//! count, so the step charges it on a clone of the meter, and a clone
//! that refuses ends the query there, the step's slot reported and
//! nothing filled. Runs with a buffer pool skip this price, since there
//! the consumer's first charges also move pool state.
//!
//! Predicate evaluation over a morsel takes a columnar fast path when
//! every constant in the relation's filters and ranges is an `Int` and
//! every column they name is stored as `i64`s: the predicates are swept
//! branch-reduced over the column slices and their NULL masks. Anything
//! else takes the scalar row-at-a-time path, whose semantics the
//! vectorized path reproduces exactly (`Int`/`Int` comparisons are exact
//! in both).
//!
//! # Cost accounting is execution-strategy independent
//!
//! The meter's totals are *what* the plan touches, not *how* the
//! executor iterates: n pages for a scan, one row per tuple entering an
//! operator, one row per emitted match. Charges here are batched (one
//! `charge_rows(n)` per operator input and per hash-probe match count,
//! per-morsel counters reduced in morsel order), which is safe because
//! charges are non-negative and the budget check is monotone — see the
//! invariant note on [`CostMeter`].

use std::sync::Mutex;

use tab_sqlq::{CmpOp, RangeOp};
use tab_storage::{
    index_rel_id, key_tuple, par_map, table_rel_id, temp_rel_id, BTreeIndex, BufferPool,
    BuiltConfiguration, CodeTable, Column, Database, Faults, Fetched, MaterializedView, NullMask,
    PageHint, PageKey, Parallelism, PoolStats, Probe, RowBuckets, RowId, Table, Trace, Value,
};

use crate::catalog::{BoundAgg, BoundItem, BoundQuery, FreqFilter};
use crate::cost::{ChargePolicy, CostMeter, TimedOut, HASH_SPILL_ROWS, SPILL_ROWS_PER_PAGE};
use crate::plan::{Access, JoinMethod, PhysicalPlan, ProbeSource, RelOp};

/// Resolves plan references to physical structures.
pub struct Resolver<'a> {
    db: &'a Database,
    built: &'a BuiltConfiguration,
}

impl<'a> Resolver<'a> {
    /// A resolver over a database and a built configuration.
    pub fn new(db: &'a Database, built: &'a BuiltConfiguration) -> Self {
        Resolver { db, built }
    }

    fn table(&self, source: &str) -> &'a Table {
        if let Some(t) = self.db.table(source) {
            return t;
        }
        self.view(source)
            .map(|mv| &*mv.table)
            .unwrap_or_else(|| panic!("unknown source `{source}`"))
    }

    /// The view a source names, when it is not a base table.
    pub(crate) fn view(&self, source: &str) -> Option<&'a MaterializedView> {
        if self.db.table(source).is_some() {
            return None;
        }
        let views = self.built.mviews.iter();
        views.map(|(mv, _)| mv).find(|mv| mv.spec.name == source)
    }

    /// The index that answers a frequency filter's value counts: the
    /// first on the subquery's table that leads with its column. `None`
    /// means the heap answers them.
    pub(crate) fn freq_index(&self, f: &FreqFilter) -> Option<&'a BTreeIndex> {
        self.built
            .indexes_on(&f.sub_table)
            .find(|i| i.spec().columns.first() == Some(&f.sub_col))
    }

    fn index(&self, source: &str, columns: &[usize]) -> &'a BTreeIndex {
        self.built
            .indexes_on(source)
            .find(|i| i.spec().columns == columns)
            .unwrap_or_else(|| panic!("no index on `{source}` with columns {columns:?}"))
    }
}

/// A hash-join outer tuple's bucket when it joins nothing: a NULL or
/// untranslatable key cell, or a key the build side never held.
const NO_BUCKET: u32 = u32::MAX;

/// Default rows per execution morsel. Large enough that per-morsel
/// bookkeeping is noise, small enough that the dynamic scheduler can
/// balance skewed operators across workers.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Execution knobs for morsel-driven intra-query parallelism.
///
/// The defaults — sequential, [`DEFAULT_MORSEL_ROWS`], vectorization on
/// — reproduce the historical executor byte for byte; so does **every
/// other** setting, because cost totals derive from per-morsel counters
/// reduced in morsel index order (see the module docs). The knobs only
/// change wall-clock.
#[derive(Clone, Copy)]
pub struct ExecOpts<'a> {
    /// Worker threads for intra-query morsel dispatch. Distinct from
    /// the grid-level fan-out across (family, config, query) jobs: this
    /// parallelism lives *inside* one query execution.
    pub par: Parallelism,
    /// Rows per morsel (clamped to at least 1).
    pub morsel_rows: usize,
    /// Columnar `Int` fast path for predicate evaluation. Off forces
    /// the scalar row-at-a-time path everywhere; results and costs are
    /// identical either way (the microbenches flip this to measure the
    /// vectorized speedup).
    pub vectorize: bool,
    /// Fault-injection hook: when `fault_site` is armed in `faults`,
    /// every morsel worker panics at morsel start — the
    /// `panic:morsel:<family>/<config>` site of DESIGN.md §10.
    pub faults: Faults<'a>,
    /// The site string morsel workers check, e.g. `morsel:NREF3J/NREF_1C`.
    pub fault_site: Option<&'a str>,
    /// Buffer-pool configuration; `None` (the default) charges modeled
    /// page counts directly with no pool, exactly as before the pool
    /// existed.
    pub pool: Option<PoolOpts<'a>>,
}

impl Default for ExecOpts<'_> {
    fn default() -> Self {
        ExecOpts {
            par: Parallelism::sequential(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            vectorize: true,
            faults: Faults::disabled(),
            fault_site: None,
            pool: None,
        }
    }
}

/// Buffer-pool knobs for one query execution.
///
/// A fresh [`BufferPool`] of `pages` frames is created per execution and
/// driven **only by the coordinator** — morsel workers collect page-key
/// access lists that the coordinator replays in morsel index order — so
/// hits, misses, and evictions are a pure function of the logical access
/// stream and every output stays byte-identical at any thread count.
#[derive(Clone, Copy)]
pub struct PoolOpts<'a> {
    /// Pool capacity in 8 KiB frames; `0` disables the pool entirely.
    pub pages: usize,
    /// Whether the meter charges observed pool misses or the modeled
    /// page counts (see [`ChargePolicy`]).
    pub policy: ChargePolicy,
    /// Fault site checked at every eviction, e.g. `evict:NREF3J/NREF_1C`
    /// (the `panic:evict:*` site of DESIGN.md §10).
    pub evict_site: Option<&'a str>,
    /// Trace receiving `page` events (hit/miss/evict).
    pub trace: Trace<'a>,
}

impl<'a> PoolOpts<'a> {
    /// A pool of `pages` frames with default policy and no tracing or
    /// fault site.
    pub fn new(pages: usize) -> Self {
        PoolOpts {
            pages,
            policy: ChargePolicy::default(),
            evict_site: None,
            trace: Trace::disabled(),
        }
    }
}

/// Live pool state for one execution: the pool itself, the charge
/// policy, and a bump allocator for spill-stream page numbers (each
/// spilling operator writes a fresh page range of the shared `spill`
/// temp relation).
struct PoolState<'a> {
    pool: BufferPool<'a>,
    policy: ChargePolicy,
    spill_next_page: u64,
}

impl<'a> PoolState<'a> {
    fn of(opts: &ExecOpts<'a>) -> Option<Self> {
        let p = opts.pool.filter(|p| p.pages > 0)?;
        Some(PoolState {
            pool: BufferPool::new(p.pages, None, opts.faults, p.trace, p.evict_site),
            policy: p.policy,
            spill_next_page: 0,
        })
    }
}

/// Pool counters so far (zero when no pool is active).
fn pool_stats_now(ps: &Option<PoolState<'_>>) -> PoolStats {
    ps.as_ref()
        .map_or_else(PoolStats::default, |s| s.pool.stats())
}

/// Charge a sequential sweep of `n` pages `start..start + n` of `rel`.
/// Without a pool this is the historical `charge_seq_pages(n)`; with one,
/// the pages stream through the pool and [`ChargePolicy::Observed`]
/// charges only the misses (on a cold pool every page misses once, so
/// the observed cost of a cold scan equals the modeled cost exactly).
fn pool_charge_seq(
    ps: &mut Option<PoolState<'_>>,
    meter: &mut CostMeter,
    rel: u64,
    start: u64,
    n: u64,
    dirty: bool,
) -> Result<(), TimedOut> {
    match ps {
        None => meter.charge_seq_pages(n),
        Some(st) => {
            let mut misses = 0u64;
            for page in start..start + n {
                if st.pool.fetch(PageKey { rel, page }, PageHint::Seq, dirty) != Fetched::Hit {
                    misses += 1;
                }
            }
            match st.policy {
                ChargePolicy::Metered => meter.charge_seq_pages(n),
                ChargePolicy::Observed => meter.charge_seq_pages(misses),
            }
        }
    }
}

/// Charge `n` random page accesses. `keys` materializes the page
/// identities and is only invoked when a pool is active; it must yield
/// exactly the `n` pages the modeled count stands for.
fn pool_charge_random(
    ps: &mut Option<PoolState<'_>>,
    meter: &mut CostMeter,
    n: u64,
    keys: impl FnOnce() -> Vec<PageKey>,
) -> Result<(), TimedOut> {
    match ps {
        None => meter.charge_random_pages(n),
        Some(st) => {
            let mut misses = 0u64;
            for k in keys() {
                if st.pool.fetch(k, PageHint::Random, false) != Fetched::Hit {
                    misses += 1;
                }
            }
            match st.policy {
                ChargePolicy::Metered => meter.charge_random_pages(n),
                ChargePolicy::Observed => meter.charge_random_pages(misses),
            }
        }
    }
}

/// The build-side row threshold above which a hash operator spills. In
/// [`ChargePolicy::Observed`] mode a pool smaller than the modeled
/// workspace spills earlier — the build side genuinely does not fit —
/// while the metered/compat paths keep the historical constant so golden
/// totals never move.
fn spill_threshold(ps: &Option<PoolState<'_>>) -> u64 {
    match ps {
        Some(st) if st.policy == ChargePolicy::Observed => {
            HASH_SPILL_ROWS.min(st.pool.capacity() as u64 * SPILL_ROWS_PER_PAGE)
        }
        _ => HASH_SPILL_ROWS,
    }
}

/// Charge a spilling operator's partition passes: `n` sequential pages,
/// streamed through the pool as *dirty* writes of a fresh page range of
/// the shared `spill` temp relation (dirty frames evicted under pressure
/// count as spill writes).
fn pool_charge_spill(
    ps: &mut Option<PoolState<'_>>,
    meter: &mut CostMeter,
    build_rows: u64,
    probe_rows: u64,
) -> Result<(), TimedOut> {
    let n = crate::cost::spill_pages_with(build_rows, probe_rows, spill_threshold(ps));
    let Some(st) = ps.as_mut() else {
        return meter.charge_seq_pages(n);
    };
    let start = st.spill_next_page;
    st.spill_next_page += n;
    pool_charge_seq(ps, meter, temp_rel_id("spill"), start, n, true)
}

/// Split `n` items into contiguous `(start, end)` morsel ranges.
fn morsel_ranges(n: usize, morsel_rows: usize) -> Vec<(usize, usize)> {
    let m = morsel_rows.max(1);
    (0..n).step_by(m).map(|s| (s, (s + m).min(n))).collect()
}

/// Minimum items in a parallel region before worker threads are used;
/// below it the scoped-thread spawn cost of [`par_map`] outweighs the
/// work and the region runs on the coordinator. Purely a wall-clock
/// heuristic — morsel boundaries, charge order, and results are
/// computed identically either way, so the gate needs no determinism
/// caveat (and `panic:morsel:*` faults still fire: the sequential
/// fallback runs the same morsel closures in place).
const PAR_MIN_ITEMS: usize = 2 * DEFAULT_MORSEL_ROWS;

/// The parallelism a region of `items` work items should run at.
fn region_par(opts: &ExecOpts<'_>, items: usize) -> Parallelism {
    if items < PAR_MIN_ITEMS {
        Parallelism::sequential()
    } else {
        opts.par
    }
}

/// The ranges the workers of a *merging* operator (hash build, group-by)
/// take: the morsels — or, on one thread, the whole input at once.
/// Per-morsel states exist to be merged in morsel order, which replays
/// every key a second time; one worker has nothing to merge. The merged
/// state is the same either way (first-seen order is input order).
fn merge_ranges(region: Parallelism, morsels: &[(usize, usize)]) -> Vec<(usize, usize)> {
    match (region.threads(), morsels.last()) {
        (1, Some(&(_, n))) => vec![(0, n)],
        _ => morsels.to_vec(),
    }
}

/// Fire the armed `panic:morsel:*` fault, if any. Called at the start
/// of every morsel job so a poisoned worker is deterministic at any
/// thread count and morsel size.
#[inline]
fn morsel_prologue(opts: &ExecOpts<'_>) {
    if let Some(site) = opts.fault_site {
        opts.faults.panic_if_armed(site);
    }
}

/// Flat arena of late-materialized tuples: `stride` row-id slots per
/// tuple, slot `r` holding the row id of bound relation `r` (slots of
/// not-yet-joined relations are zero and never read).
struct Arena {
    ids: Vec<RowId>,
    stride: usize,
}

impl Arena {
    fn new(stride: usize) -> Self {
        Arena {
            ids: Vec::new(),
            stride,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.ids.len() / self.stride
    }

    #[inline]
    fn tuple(&self, i: usize) -> &[RowId] {
        &self.ids[i * self.stride..(i + 1) * self.stride]
    }

    /// The driver's tuples, allocated once: only `slot` is meaningful.
    fn of_driver(stride: usize, slot: usize, driver: &[RowId]) -> Self {
        let mut ids = vec![0; driver.len() * stride];
        for (t, &id) in ids.chunks_exact_mut(stride).zip(driver) {
            t[slot] = id;
        }
        Arena { ids, stride }
    }

    /// Append a joined tuple: `outer`'s slots plus `id` at `slot`.
    #[inline]
    fn push_joined(&mut self, outer: &[RowId], slot: usize, id: RowId) {
        let start = self.ids.len();
        self.ids.extend_from_slice(outer);
        self.ids[start + slot] = id;
    }

    /// Append another arena's tuples wholesale (morsel concatenation).
    fn append(&mut self, mut chunk: Arena) {
        debug_assert_eq!(self.stride, chunk.stride);
        self.ids.append(&mut chunk.ids);
    }
}

/// One frequency filter's value set, in the key space of the *outer*
/// column the filter tests.
struct FreqSet {
    /// Keys of the outer column whose value qualifies.
    members: CodeTable,
    /// Distinct values of the subquery's column that qualify.
    n_values: u64,
}

impl FreqSet {
    #[inline]
    fn contains(&self, key: Option<u64>) -> bool {
        key.is_some_and(|k| self.members.lookup(&[k]).is_some())
    }
}

/// Shared read-only execution state: the bound query, one resolved table
/// per relation, and the frequency-filter value sets.
struct Exec<'a> {
    q: &'a BoundQuery,
    tables: Vec<&'a Table>,
    freq_sets: Vec<FreqSet>,
}

impl<'a> Exec<'a> {
    /// The column `(rel, col)` of the bound query.
    #[inline]
    fn col(&self, rel: usize, col: usize) -> &'a Column {
        self.tables[rel].column(col)
    }

    /// The value of `(rel, col)` for a tuple.
    #[inline]
    fn val(&self, tuple: &[RowId], rel: usize, col: usize) -> Value {
        self.tables[rel].value(tuple[rel], col)
    }

    /// Whether row `id` of relation `rel` passes the frequency filters
    /// `freqs` (positions into the query's list) applied there.
    #[inline]
    fn passes_freqs(&self, rel: usize, id: RowId, freqs: &[usize]) -> bool {
        freqs.iter().all(|&fi| {
            let key = self.col(rel, self.q.freqs[fi].col).key(id);
            self.freq_sets[fi].contains(key)
        })
    }
}

/// Measured per-operator actuals, in the operator-slot layout shared
/// with [`PhysicalPlan::op_ests`]: `[FreqSetup, driver, step…, output]`.
/// Units are the [`CostMeter`] delta across the operator's execution, so
/// the slots sum to the run's total cost.
///
/// Under morsel-driven execution every field aggregates its per-morsel
/// parts order-independently (`u64` sums; units from counter totals),
/// so actuals are identical at any thread count and morsel size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpActuals {
    /// Rows entering the operator (outer tuples for joins, rows examined
    /// for scans; zero for the frequency setup).
    pub rows_in: u64,
    /// Rows flowing out of the operator.
    pub rows_out: u64,
    /// Hash-bucket lookups or index probes performed (zero for scans).
    pub probes: u64,
    /// Cost units charged while this operator ran.
    pub units: f64,
    /// Morsel jobs dispatched while this operator ran (scan-filter,
    /// build, and probe morsels summed; zero for the frequency setup).
    /// A pure function of data size and [`ExecOpts::morsel_rows`] —
    /// never of the thread count.
    pub morsels: u64,
    /// Buffer-pool hits while this operator ran (zero when no pool is
    /// configured).
    pub page_hits: u64,
    /// Buffer-pool misses (sequential + random) while this operator ran.
    pub page_misses: u64,
}

/// Execute `plan`, returning the result rows in select-list order.
///
/// Row order is deterministic for a fixed plan (morsel outputs are
/// concatenated in morsel index order) but unspecified to callers;
/// callers that compare results should sort.
///
/// `opts` carries intra-query parallelism, morsel size, vectorization,
/// fault injection and the optional buffer pool;
/// `&ExecOpts::default()` is sequential, vectorized and pool-less.
///
/// When `ops` is supplied it receives one [`OpActuals`] per operator
/// slot (layout `[FreqSetup, driver, step…, output]`, matching
/// [`PhysicalPlan::op_labels`]). On timeout the vector holds the slots
/// that completed before the budget ran out. Instrumentation is
/// observational only: the meter sees identical charges either way.
///
/// When `io_out` is supplied and [`ExecOpts::pool`] configures a pool,
/// it receives the buffer-pool counters. With no pool the counters stay
/// zero and execution is byte-identical to the historical path. On
/// timeout `io_out` is left untouched: a timed-out run reports its
/// verdict, not partial pool counters.
pub fn execute(
    plan: &PhysicalPlan,
    resolver: &Resolver<'_>,
    meter: &mut CostMeter,
    opts: &ExecOpts<'_>,
    mut ops: Option<&mut Vec<OpActuals>>,
    io_out: Option<&mut PoolStats>,
) -> Result<Vec<Vec<Value>>, TimedOut> {
    let q = &plan.query;
    let mut ps = PoolState::of(opts);
    let tables: Vec<&Table> = q.rels.iter().map(|r| resolver.table(&r.source)).collect();

    // 1. Frequency-filter value sets, evaluated once each.
    let mut at = meter.units();
    let mut io_at = pool_stats_now(&ps);
    let freq_sets = eval_freq_sets(q, &tables, resolver, meter, &mut ps)?;
    if let Some(v) = ops.as_deref_mut() {
        let io = pool_stats_now(&ps);
        v.push(OpActuals {
            rows_in: 0,
            rows_out: freq_sets.iter().map(|s| s.n_values).sum(),
            probes: 0,
            units: meter.units() - at,
            morsels: 0,
            page_hits: io.hits - io_at.hits,
            page_misses: io.misses() - io_at.misses(),
        });
    }
    let exec = Exec {
        q,
        tables,
        freq_sets,
    };

    // 2. Driver.
    at = meter.units();
    io_at = pool_stats_now(&ps);
    let stride = q.rels.len();
    let (driver_ids, driver_examined, driver_morsels) =
        scan_rel(&plan.driver, &exec, resolver, meter, opts, &mut ps)?;
    let mut tuples = Arena::of_driver(stride, plan.driver.rel, &driver_ids);
    if let Some(v) = ops.as_deref_mut() {
        let io = pool_stats_now(&ps);
        v.push(OpActuals {
            rows_in: driver_examined,
            rows_out: tuples.len() as u64,
            probes: 0,
            units: meter.units() - at,
            morsels: driver_morsels,
            page_hits: io.hits - io_at.hits,
            page_misses: io.misses() - io_at.misses(),
        });
    }

    // 3. Join steps.
    for (si, step) in plan.steps.iter().enumerate() {
        at = meter.units();
        io_at = pool_stats_now(&ps);
        let rows_in = tuples.len() as u64;
        let rows_out;
        let mut probes = 0u64;
        let mut morsels = 0u64;
        // A charge the step's consumer must refuse: the step reports its
        // slot, then the query times out.
        let mut refused = None;
        let rel = step.inner.rel;
        match &step.method {
            JoinMethod::Hash => {
                let (inner_ids, _, scan_morsels) =
                    scan_rel(&step.inner, &exec, resolver, meter, opts, &mut ps)?;
                morsels += scan_morsels;
                // Grace-style spill when the build side exceeds memory.
                pool_charge_spill(&mut ps, meter, inner_ids.len() as u64, tuples.len() as u64)?;
                // Build on inner join cols; one row of work per inner
                // tuple, charged up front.
                meter.charge_rows(inner_ids.len() as u64)?;
                let build_cols: Vec<&Column> =
                    step.inner_cols().map(|c| exec.col(rel, c)).collect();
                let (ht, build_morsels) = build_hash_table(&inner_ids, &build_cols, opts);
                morsels += build_morsels;
                // Each probe cell is translated into its build column's
                // key space; a value that column never held joins nothing.
                let probe_cols: Vec<(usize, &Column)> = step
                    .outer_cols()
                    .map(|(orel, ocol)| (orel, exec.col(orel, ocol)))
                    .collect();
                // Probe with the outer arena; one row of work per outer
                // tuple up front, then one per match, counted before any
                // is materialized.
                meter.charge_rows(tuples.len() as u64)?;
                let ranges = morsel_ranges(tuples.len(), opts.morsel_rows);
                morsels += ranges.len() as u64;
                let region = region_par(opts, tuples.len());
                // Count: each outer tuple's bucket, looked up once and
                // kept for the fill (`NO_BUCKET`: joins nothing).
                let counted: Vec<(u64, u64, Vec<u32>)> = par_map(region, &ranges, |&(s, e)| {
                    morsel_prologue(opts);
                    let (mut m_probes, mut matches) = (0u64, 0u64);
                    let mut buckets = vec![NO_BUCKET; e - s];
                    let mut key: Vec<u64> = Vec::with_capacity(build_cols.len());
                    for (i, b) in (s..e).zip(&mut buckets) {
                        let t = tuples.tuple(i);
                        // A NULL never joins, and is not a probe.
                        if probe_cols.iter().any(|&(orel, ocol)| ocol.is_null(t[orel])) {
                            continue;
                        }
                        m_probes += 1;
                        let cells = probe_cols.iter().zip(&build_cols);
                        let cells = cells.map(|(&(orel, ocol), bcol)| bcol.key_from(ocol, t[orel]));
                        if !key_tuple(&mut key, cells) {
                            continue;
                        }
                        if let Some(found) = ht.lookup(&key) {
                            *b = found;
                            matches += ht.rows(found).len() as u64;
                        }
                    }
                    (m_probes, matches, buckets)
                });
                // Charge every match before materializing one: an
                // over-budget probe times out here, having built nothing.
                let total: u64 = counted.iter().map(|&(_, m, _)| m).sum();
                meter.charge_rows(total)?;
                probes += counted.iter().map(|&(p, _, _)| p).sum::<u64>();
                rows_out = total;
                // Price the consumer before filling: what the next step
                // or `finish` charges before reading a tuple depends on
                // `total` alone, so a clone of the meter that refuses it
                // proves the query times out, and the output is never
                // built. A pool run skips this: there the consumer's
                // first charges also move pool state.
                if ps.is_none() {
                    let mut next = meter.clone();
                    let priced = if si + 1 < plan.steps.len() {
                        next.charge_rows(total)
                    } else {
                        finish_entry_charge(q, total, &mut next, &mut None)
                    };
                    refused = priced.err();
                }
                if refused.is_none() {
                    tuples = hash_fill(&tuples, &ht, &ranges, &counted, rel, region, opts);
                }
            }
            JoinMethod::IndexNl {
                columns,
                probe,
                covering,
            } => {
                let table = exec.tables[rel];
                let index = resolver.index(&q.rels[rel].source, columns);
                // Residual join pairs not enforced by the probe prefix.
                let probed = &columns[..probe.len()];
                let residual_pairs: Vec<(usize, &Column, &Column)> = step
                    .pairs
                    .iter()
                    .filter(|(_, ic)| !probed.contains(ic))
                    .map(|&((orel, ocol), ic)| (orel, exec.col(orel, ocol), table.column(ic)))
                    .collect();
                let filters = FilterKeys::of(&step.inner, table);
                let pool_on = ps.is_some();
                let observed = matches!(&ps, Some(st) if st.policy == ChargePolicy::Observed);
                let index_rel = index_rel_id(&index.spec().to_string());
                let table_rel = table_rel_id(&q.rels[rel].source);
                let height = index.height();
                // One row of work per outer tuple, charged up front.
                meter.charge_rows(tuples.len() as u64)?;
                // A NULL probe key matches nothing, and is not a probe.
                let key_null = |t: &[RowId]| {
                    probe.iter().any(|p| match p {
                        ProbeSource::Outer(orel, ocol) => exec.col(*orel, *ocol).is_null(t[*orel]),
                        ProbeSource::Const(v) => v.is_null(),
                    })
                };
                probes = (0..tuples.len())
                    .filter(|&i| !key_null(tuples.tuple(i)))
                    .count() as u64;
                // Every probe pays at least a descent and one leaf page.
                // Modeled charging takes that floor before any probe
                // runs; observed charging cannot, as a resident page is
                // free.
                if !observed {
                    meter.charge_random_pages(probes * (height + 1))?;
                }
                let ranges = morsel_ranges(tuples.len(), opts.morsel_rows);
                morsels += ranges.len() as u64;
                let region = region_par(opts, tuples.len());
                // Count: each morsel probes its tuples, keeps each
                // probe's id run, and charges the rest of the probe into
                // its own clone of the meter (rows only when observed:
                // misses are known only on the replay below). A charge
                // the clone refuses makes the ordered charge below
                // refuse too, at or before this morsel, so the morsel
                // stops there. Workers never touch the pool: they
                // collect the page keys each probe touches.
                let base = meter.clone();
                let counted = par_map(region, &ranges, |&(s, e)| {
                    morsel_prologue(opts);
                    let mut own = base.clone();
                    let (mut runs, mut keys) = (Vec::new(), Vec::new());
                    let mut scratch: Vec<Value> = Vec::with_capacity(probe.len());
                    let mut pages: Vec<u64> = Vec::new();
                    for i in s..e {
                        let t = tuples.tuple(i);
                        if key_null(t) {
                            continue;
                        }
                        scratch.clear();
                        scratch.extend(probe.iter().map(|p| match p {
                            ProbeSource::Outer(orel, ocol) => exec.val(t, *orel, *ocol),
                            ProbeSource::Const(v) => v.clone(),
                        }));
                        let pr = index.probe(&scratch);
                        // Leaf pages beyond the floor's one.
                        let mut extra = pr.pages_touched - height - 1;
                        if pool_on {
                            keys.extend(index_page_keys(index, index_rel, &pr));
                        }
                        if !covering && !pr.row_ids.is_empty() {
                            heap_pages(table, pr.row_ids, &mut pages);
                            extra += pages.len() as u64;
                            if pool_on {
                                keys.extend(pages.iter().map(|&page| PageKey {
                                    rel: table_rel,
                                    page,
                                }));
                            }
                        }
                        let rows = pr.row_ids.len() as u64;
                        if rows > 0 {
                            runs.push((i, pr.row_ids));
                        }
                        let charged = if observed {
                            own.charge_rows(rows)
                        } else {
                            own.charge_random_pages(extra)
                                .and_then(|()| own.charge_rows(rows))
                        };
                        if charged.is_err() {
                            break;
                        }
                    }
                    (own, runs, keys)
                });
                // Charge what each morsel's clone took, in morsel order.
                for (own, _, _) in &counted {
                    meter.charge_random_pages(own.random_pages() - base.random_pages())?;
                    meter.charge_rows(own.rows() - base.rows())?;
                }
                // Replay collected page accesses in morsel index order —
                // the pool's access stream is identical at any thread
                // count. Observed mode then charges the misses.
                if let Some(st) = ps.as_mut() {
                    let mut misses = 0u64;
                    for &k in counted.iter().flat_map(|(_, _, keys)| keys) {
                        if st.pool.fetch(k, PageHint::Random, false) != Fetched::Hit {
                            misses += 1;
                        }
                    }
                    if st.policy == ChargePolicy::Observed {
                        meter.charge_random_pages(misses)?;
                    }
                }
                // Fill: residual predicates, then residual join pairs (a
                // NULL outer cell equals nothing), over the kept runs.
                let chunks: Vec<Arena> = par_map(region, &counted, |(_, runs, _)| {
                    morsel_prologue(opts);
                    let mut out = Arena::new(stride);
                    for &(i, ids) in runs {
                        let t = tuples.tuple(i);
                        for &id in ids {
                            if filters.pass(id)
                                && passes_ranges(table, id, &step.inner.ranges)
                                && exec.passes_freqs(rel, id, &step.inner.freqs)
                                && residual_pairs.iter().all(|&(orel, ocol, icol)| {
                                    let key = icol.key(id);
                                    key.is_some() && key == icol.key_from(ocol, t[orel])
                                })
                            {
                                out.push_joined(t, rel, id);
                            }
                        }
                    }
                    out
                });
                let mut out = Arena::new(stride);
                chunks.into_iter().for_each(|c| out.append(c));
                rows_out = out.len() as u64;
                tuples = out;
            }
        }
        if let Some(v) = ops.as_deref_mut() {
            let io = pool_stats_now(&ps);
            v.push(OpActuals {
                rows_in,
                rows_out,
                probes,
                units: meter.units() - at,
                morsels,
                page_hits: io.hits - io_at.hits,
                page_misses: io.misses() - io_at.misses(),
            });
        }
        if let Some(timed_out) = refused {
            return Err(timed_out);
        }
    }

    // 4. Aggregation / projection.
    at = meter.units();
    io_at = pool_stats_now(&ps);
    let rows_in = tuples.len() as u64;
    let (result, finish_morsels) = finish(&exec, &tuples, meter, opts, &mut ps)?;
    if let Some(v) = ops {
        let io = pool_stats_now(&ps);
        v.push(OpActuals {
            rows_in,
            rows_out: result.len() as u64,
            probes: 0,
            units: meter.units() - at,
            morsels: finish_morsels,
            page_hits: io.hits - io_at.hits,
            page_misses: io.misses() - io_at.misses(),
        });
    }
    if let (Some(st), Some(io_out)) = (&ps, io_out) {
        *io_out = st.pool.stats();
    }
    Ok(result)
}

/// Fill a hash join's output from its count pass: `counted` holds, per
/// morsel of `ranges`, its probes, its match count and each outer
/// tuple's bucket in `ht`. One exact-size arena, each morsel writing its
/// disjoint slice at its prefix-sum offset, so tuples land in morsel
/// order.
fn hash_fill(
    tuples: &Arena,
    ht: &RowBuckets,
    ranges: &[(usize, usize)],
    counted: &[(u64, u64, Vec<u32>)],
    rel: usize,
    region: Parallelism,
    opts: &ExecOpts<'_>,
) -> Arena {
    let stride = tuples.stride;
    let len = usize::try_from(counted.iter().map(|&(_, m, _)| m).sum::<u64>())
        .ok()
        .and_then(|n| n.checked_mul(stride))
        .expect("hash-join output exceeds the address space");
    let mut ids: Vec<RowId> = vec![0; len];
    let mut rest = ids.as_mut_slice();
    let mut jobs = Vec::with_capacity(ranges.len());
    for (&(s, _), (_, matches, buckets)) in ranges.iter().zip(counted) {
        let (slice, tail) = std::mem::take(&mut rest).split_at_mut(*matches as usize * stride);
        rest = tail;
        jobs.push((s, buckets, Mutex::new(slice)));
    }
    par_map(region, &jobs, |(s, buckets, slice)| {
        morsel_prologue(opts);
        let mut slice = slice.lock().expect("morsel slice poisoned");
        let mut out = slice.chunks_exact_mut(stride);
        for (i, &b) in (*s..).zip(buckets.iter()) {
            if b == NO_BUCKET {
                continue;
            }
            let t = tuples.tuple(i);
            for (&id, slot) in ht.rows(b).iter().zip(&mut out) {
                slot.copy_from_slice(t);
                slot[rel] = id;
            }
        }
    });
    drop(jobs);
    Arena { ids, stride }
}

/// Build the hash-join build side: the inner relation's filtered row
/// ids bucketed by their key tuple over `cols`.
///
/// Each morsel buckets its own ids and the coordinator absorbs the
/// morsels in index order, so bucket ids follow first sight in the input
/// and every bucket's row-id list is in global input order — identical
/// to a sequential build. Returns the buckets plus the number of morsel
/// jobs dispatched.
fn build_hash_table(
    inner_ids: &[RowId],
    cols: &[&Column],
    opts: &ExecOpts<'_>,
) -> (RowBuckets, u64) {
    let ranges = morsel_ranges(inner_ids.len(), opts.morsel_rows);
    let region = region_par(opts, inner_ids.len());
    let mut parts = par_map(region, &merge_ranges(region, &ranges), |&(s, e)| {
        morsel_prologue(opts);
        RowBuckets::build(cols, inner_ids[s..e].iter().copied())
    })
    .into_iter();
    let mut merged = parts.next().unwrap_or_else(|| RowBuckets::build(cols, []));
    parts.for_each(|p| merged.absorb(p));
    (merged, ranges.len() as u64)
}

/// Evaluate the value sets of the query's frequency filters.
///
/// The counts come from [`Table::value_counts`] — NULLs are not a value
/// — whichever structure is charged for reading them; each qualifying
/// value is then translated into the key space of the outer column the
/// filter tests (`tables[f.rel]`, column `f.col`).
fn eval_freq_sets(
    q: &BoundQuery,
    tables: &[&Table],
    resolver: &Resolver<'_>,
    meter: &mut CostMeter,
    ps: &mut Option<PoolState<'_>>,
) -> Result<Vec<FreqSet>, TimedOut> {
    let mut sets = Vec::with_capacity(q.freqs.len());
    for f in &q.freqs {
        let table = resolver.table(&f.sub_table);
        // Index-only evaluation when a built index leads with the column.
        match resolver.freq_index(f) {
            Some(idx) => {
                // Group sizes read off the leaf level: one operation per
                // distinct key (id-list lengths are stored), not per row.
                let rel = index_rel_id(&idx.spec().to_string());
                pool_charge_seq(ps, meter, rel, 0, idx.n_pages(), false)?;
                meter.charge_rows(idx.n_distinct_keys() as u64)?;
            }
            None => {
                let rel = table_rel_id(&f.sub_table);
                pool_charge_seq(ps, meter, rel, 0, table.n_pages(), false)?;
                meter.charge_rows(table.n_rows() as u64)?;
            }
        }
        let (sub, outer) = (table.column(f.sub_col), tables[f.rel].column(f.col));
        let mut set = FreqSet {
            members: CodeTable::new(1),
            n_values: 0,
        };
        for (first, count) in table.value_counts(f.sub_col) {
            if qualifies(f.op, count, f.k) {
                set.n_values += 1;
                if let Some(k) = outer.key_from(sub, first) {
                    set.members.intern(&[k]);
                }
            }
        }
        sets.push(set);
    }
    Ok(sets)
}

fn qualifies(op: CmpOp, count: u64, k: i64) -> bool {
    match op {
        CmpOp::Lt => (count as i64) < k,
        CmpOp::Eq => (count as i64) == k,
    }
}

/// A relation's constant-equality filters as key comparisons: each
/// constant translated once into its column's key space (`None`: no cell
/// of the column can equal it).
struct FilterKeys<'a>(Vec<(&'a Column, Option<u64>)>);

impl<'a> FilterKeys<'a> {
    fn of(op: &RelOp, table: &'a Table) -> Self {
        let key = |(c, v): &(usize, Value)| (table.column(*c), table.column(*c).key_of(v));
        FilterKeys(op.filters.iter().map(key).collect())
    }

    #[inline]
    fn pass(&self, id: RowId) -> bool {
        self.0
            .iter()
            .all(|&(col, k)| k.is_some() && col.key(id) == k)
    }
}

fn passes_ranges(table: &Table, id: RowId, ranges: &[(usize, RangeOp, Value)]) -> bool {
    ranges
        .iter()
        .all(|(c, op, v)| op.eval(&table.value(id, *c), v))
}

/// The source of row ids a scan filters: a dense heap prefix (`Seq`
/// scans — ids are `0..n`) or an explicit id list (index probe
/// results). Both morselize the same way: a morsel is a contiguous
/// index range into the source.
enum IdSpan<'s> {
    Dense(usize),
    List(&'s [RowId]),
}

impl IdSpan<'_> {
    fn len(&self) -> usize {
        match self {
            IdSpan::Dense(n) => *n,
            IdSpan::List(ids) => ids.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> RowId {
        match self {
            IdSpan::Dense(_) => i as RowId,
            IdSpan::List(ids) => ids[i],
        }
    }
}

/// One `i64` column as the vectorized path reads it.
type IntCells<'a> = (&'a [i64], &'a NullMask);

/// The vectorizable form of a relation's residual predicates: every
/// filter and range constant is an `Int` and every column they name is
/// stored as `i64`s. `Int`/`Int` comparison is exact `i64` comparison
/// under [`Value`]'s ordering, so sweeping the column slices reproduces
/// the scalar semantics bit for bit.
struct VecPredicates<'a> {
    filters: Vec<(IntCells<'a>, i64)>,
    ranges: Vec<(IntCells<'a>, RangeOp, i64)>,
}

/// Admission check for the columnar path, decided once per scan.
fn vec_predicates<'a>(op: &RelOp, table: &'a Table, vectorize: bool) -> Option<VecPredicates<'a>> {
    if !vectorize || (op.filters.is_empty() && op.ranges.is_empty()) {
        return None;
    }
    let int = |c: usize, v: &Value| Some((table.column(c).as_ints()?, v.as_int()?));
    let filters = op.filters.iter().map(|(c, v)| int(*c, v));
    let ranges = op
        .ranges
        .iter()
        .map(|(c, r, v)| int(*c, v).map(|(cells, k)| (cells, *r, k)));
    Some(VecPredicates {
        filters: filters.collect::<Option<_>>()?,
        ranges: ranges.collect::<Option<_>>()?,
    })
}

/// AND `cmp` over one column into a morsel's survivor mask (`mask[j]` is
/// row `ids[j]`); NULL fails. Monomorphic in the comparison.
#[inline]
fn sweep(
    mask: &mut [bool],
    ids: impl Fn(usize) -> RowId,
    (vals, nulls): IntCells<'_>,
    cmp: impl Fn(i64) -> bool,
) {
    for (j, live) in mask.iter_mut().enumerate().filter(|(_, live)| **live) {
        let i = ids(j) as usize;
        *live = !nulls.get(i) && cmp(vals[i]);
    }
}

/// Evaluate `vp` columnar over one morsel, appending surviving ids to
/// `out`. Each predicate column is swept as one tight `i64` loop over
/// the morsel, ANDing into the survivor mask; rows already dead skip
/// the cell read entirely, so later columns cost only the survivors
/// (the columnar analogue of the scalar path's short-circuit).
fn filter_morsel_vectorized(
    vp: &VecPredicates<'_>,
    op: &RelOp,
    exec: &Exec<'_>,
    ids: &IdSpan<'_>,
    (start, end): (usize, usize),
    out: &mut Vec<RowId>,
) {
    let mut mask = vec![true; end - start];
    let id = |j: usize| ids.get(start + j);
    for &(cells, k) in &vp.filters {
        sweep(&mut mask, id, cells, |v| v == k);
    }
    for &(cells, r, k) in &vp.ranges {
        match r {
            RangeOp::Lt => sweep(&mut mask, id, cells, |v| v < k),
            RangeOp::Le => sweep(&mut mask, id, cells, |v| v <= k),
            RangeOp::Gt => sweep(&mut mask, id, cells, |v| v > k),
            RangeOp::Ge => sweep(&mut mask, id, cells, |v| v >= k),
        }
    }
    // Frequency filters are a key lookup, applied only to rows that
    // survived the vectorized predicates.
    let live = mask.iter().enumerate().filter(|(_, live)| **live);
    out.extend(
        live.map(|(j, _)| id(j))
            .filter(|&id| exec.passes_freqs(op.rel, id, &op.freqs)),
    );
}

/// Filter a scan's candidate rows through the relation's residual
/// predicates, morsel-parallel. Output order equals input order (morsel
/// chunks concatenated in morsel index order), so the result is
/// identical to a sequential pass at any thread count and morsel size.
/// Charges nothing — scan costs are charged up front by the caller from
/// page/row counts that do not depend on the iteration strategy.
/// Returns the surviving ids plus the number of morsel jobs dispatched.
fn filter_rows(
    op: &RelOp,
    exec: &Exec<'_>,
    table: &Table,
    ids: IdSpan<'_>,
    opts: &ExecOpts<'_>,
) -> (Vec<RowId>, u64) {
    let vp = vec_predicates(op, table, opts.vectorize);
    let filters = FilterKeys::of(op, table);
    let ranges = morsel_ranges(ids.len(), opts.morsel_rows);
    let n_morsels = ranges.len() as u64;
    let chunks: Vec<Vec<RowId>> = par_map(region_par(opts, ids.len()), &ranges, |&(s, e)| {
        morsel_prologue(opts);
        let mut out = Vec::new();
        match &vp {
            Some(vp) => filter_morsel_vectorized(vp, op, exec, &ids, (s, e), &mut out),
            None => out.extend((s..e).map(|i| ids.get(i)).filter(|&id| {
                filters.pass(id)
                    && passes_ranges(table, id, &op.ranges)
                    && exec.passes_freqs(op.rel, id, &op.freqs)
            })),
        }
        out
    });
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for c in chunks {
        out.extend(c);
    }
    (out, n_morsels)
}

/// Scan one relation per its `RelOp`, returning the ids of the rows
/// that survive its residual filters plus the number of rows examined
/// (for instrumentation) and morsel jobs dispatched. Values are not
/// materialized.
fn scan_rel(
    op: &RelOp,
    exec: &Exec<'_>,
    resolver: &Resolver<'_>,
    meter: &mut CostMeter,
    opts: &ExecOpts<'_>,
    ps: &mut Option<PoolState<'_>>,
) -> Result<(Vec<RowId>, u64, u64), TimedOut> {
    let q = exec.q;
    let source = &q.rels[op.rel].source;
    let table = exec.tables[op.rel];
    match &op.access {
        Access::Seq => {
            pool_charge_seq(ps, meter, table_rel_id(source), 0, table.n_pages(), false)?;
            meter.charge_rows(table.n_rows() as u64)?;
            let examined = table.n_rows() as u64;
            let (out, morsels) = filter_rows(op, exec, table, IdSpan::Dense(table.n_rows()), opts);
            Ok((out, examined, morsels))
        }
        Access::Index {
            columns,
            prefix,
            covering,
        } => {
            let index = resolver.index(source, columns);
            let pr = index.probe(prefix);
            charge_probe(&pr, table, *covering, meter, ps, index, source)?;
            let examined = pr.row_ids.len() as u64;
            let (out, morsels) = filter_rows(op, exec, table, IdSpan::List(pr.row_ids), opts);
            Ok((out, examined, morsels))
        }
        Access::IndexRange {
            columns,
            lo,
            hi,
            covering,
        } => {
            let index = resolver.index(source, columns);
            let pr = index.probe_leading_range(
                lo.as_ref().map(|(v, s)| (v, *s)),
                hi.as_ref().map(|(v, s)| (v, *s)),
            );
            charge_probe(&pr, table, *covering, meter, ps, index, source)?;
            let examined = pr.row_ids.len() as u64;
            let (out, morsels) = filter_rows(op, exec, table, IdSpan::List(pr.row_ids), opts);
            Ok((out, examined, morsels))
        }
        Access::IndexFreqScan {
            columns,
            freq,
            covering,
        } => {
            let index = resolver.index(source, columns);
            let set = &exec.freq_sets[*freq];
            // One pass over the leaf level; only qualifying keys' rows
            // are examined and (if not covering) fetched.
            let index_rel = index_rel_id(&index.spec().to_string());
            pool_charge_seq(ps, meter, index_rel, 0, index.n_pages(), false)?;
            meter.charge_rows(index.n_distinct_keys() as u64)?;
            let lead = table.column(columns[0]);
            let mut matched: Vec<RowId> = Vec::new();
            for (_, ids) in index.scan() {
                // Every row of a group holds the group's leading value.
                if set.contains(lead.key(ids[0])) {
                    matched.extend_from_slice(ids);
                }
            }
            meter.charge_rows(matched.len() as u64)?;
            if !covering && !matched.is_empty() {
                charge_heap_pages(ps, meter, table, &matched, source)?;
            }
            let examined = matched.len() as u64;
            let (out, morsels) = filter_rows(op, exec, table, IdSpan::List(&matched), opts);
            Ok((out, examined, morsels))
        }
    }
}

/// Charge an index probe: index pages touched (tree descent + leaf
/// span), plus the distinct heap pages fetched when the index does not
/// cover the relation. With a pool active the same pages stream through
/// it under their stable identities ([`index_rel_id`] descent/leaf
/// pages, [`table_rel_id`] heap pages) — the key count always equals
/// the modeled `pages_touched + heap_pages` charge.
fn charge_probe(
    pr: &Probe<'_>,
    table: &Table,
    covering: bool,
    meter: &mut CostMeter,
    ps: &mut Option<PoolState<'_>>,
    index: &BTreeIndex,
    source: &str,
) -> Result<(), TimedOut> {
    pool_charge_random(ps, meter, pr.pages_touched, || {
        let rel = index_rel_id(&index.spec().to_string());
        index_page_keys(index, rel, pr).collect()
    })?;
    if !covering && !pr.row_ids.is_empty() {
        charge_heap_pages(ps, meter, table, pr.row_ids, source)?;
    }
    meter.charge_rows(pr.row_ids.len() as u64)
}

/// Charge the distinct heap pages of `source` that hold `ids`.
fn charge_heap_pages(
    ps: &mut Option<PoolState<'_>>,
    meter: &mut CostMeter,
    table: &Table,
    ids: &[RowId],
    source: &str,
) -> Result<(), TimedOut> {
    let mut pages = Vec::new();
    heap_pages(table, ids, &mut pages);
    let rel = table_rel_id(source);
    pool_charge_random(ps, meter, pages.len() as u64, || {
        pages.iter().map(|&page| PageKey { rel, page }).collect()
    })
}

/// The distinct heap pages holding `ids`, ascending, into `pages`.
fn heap_pages(table: &Table, ids: &[RowId], pages: &mut Vec<u64>) {
    pages.clear();
    pages.extend(ids.iter().map(|&id| table.page_of(id)));
    pages.sort_unstable();
    pages.dedup();
}

/// The pool keys of the index pages a probe touches: its descent, then
/// its leaf span. `rel` is the index's [`index_rel_id`].
fn index_page_keys(index: &BTreeIndex, rel: u64, pr: &Probe<'_>) -> impl Iterator<Item = PageKey> {
    let leaves = pr.first_leaf..pr.first_leaf + (pr.pages_touched - index.height());
    let descent = index.descent_pages(pr.first_leaf).into_iter();
    descent.chain(leaves).map(move |page| PageKey { rel, page })
}

/// Hash-aggregation state over one contiguous run of input tuples (a
/// morsel's, or — once merged — the whole input's).
struct Groups {
    /// Group keys in first-seen order: one key word per group-by column
    /// (zero for NULL), then one bit per column saying which were NULL —
    /// NULL group keys form one group, as `Value`'s equality has it.
    keys: CodeTable,
    /// Arena index of each group's first tuple: where its output row's
    /// grouped columns are read from.
    first: Vec<usize>,
    /// `COUNT(*)` per group.
    counts: Vec<u64>,
    /// Per aggregate, the distinct `(group, operand key)` pairs seen;
    /// stays empty for `COUNT(*)`.
    distinct: Vec<CodeTable>,
}

impl Groups {
    fn new(q: &BoundQuery) -> Self {
        let k = q.group_by.len();
        Groups {
            keys: CodeTable::new(k + k.div_ceil(64)),
            first: Vec::new(),
            counts: Vec::new(),
            distinct: vec![CodeTable::new(2); q.aggs.len()],
        }
    }

    /// The group with this key, created on first sight at tuple `i`.
    #[inline]
    fn group(&mut self, key: &[u64], i: usize) -> u32 {
        let (g, new) = self.keys.intern(key);
        if new {
            self.first.push(i);
            self.counts.push(0);
        }
        g
    }

    /// Fold in the state of the run of tuples that follows this one's.
    fn absorb(&mut self, later: Groups) {
        let groups = 0..later.keys.len() as u32;
        let remap: Vec<u32> = groups
            .map(|l| {
                let g = self.group(later.keys.key(l), later.first[l as usize]);
                self.counts[g as usize] += later.counts[l as usize];
                g
            })
            .collect();
        for (mine, theirs) in self.distinct.iter_mut().zip(&later.distinct) {
            for pair in (0..theirs.len() as u32).map(|p| theirs.key(p)) {
                mine.intern(&[remap[pair[0] as usize] as u64, pair[1]]);
            }
        }
    }
}

/// What [`finish`] charges for `n` input tuples before it reads one: a
/// plain projection one row per tuple; an aggregation its spill pages
/// when the input exceeds working memory, one row per tuple, and one
/// more per tuple for every `COUNT(DISTINCT)` maintained — the per-tuple
/// charges of a tuple-at-a-time pass, paid up front. A hash-join step
/// charges it into a clone of the meter to learn, before it fills its
/// output, whether `finish` would refuse it.
fn finish_entry_charge(
    q: &BoundQuery,
    n: u64,
    meter: &mut CostMeter,
    ps: &mut Option<PoolState<'_>>,
) -> Result<(), TimedOut> {
    if q.aggs.is_empty() && q.group_by.is_empty() {
        return meter.charge_rows(n);
    }
    pool_charge_spill(ps, meter, n, 0)?;
    meter.charge_rows(n)?;
    let distinct = q.aggs.iter();
    let distinct = distinct.filter(|a| matches!(a, BoundAgg::CountDistinct(..)));
    meter.charge_rows(n * distinct.count() as u64)
}

/// Group, aggregate, and project in select-list order. Returns the
/// result rows plus the number of morsel jobs dispatched.
///
/// Grouping runs morsel-parallel on key codes: each morsel builds its
/// own [`Groups`], and the coordinator absorbs them **in morsel index
/// order**. A key's global first sight is its first in-morsel occurrence
/// in the earliest morsel containing it — i.e. exactly its first
/// occurrence in the input — so the merged group order (and therefore
/// the emitted row order) reproduces the sequential first-seen order at
/// any thread count and morsel size. Output rows are built straight from
/// each group's first tuple and its counts; no group key is ever
/// materialized in between.
fn finish(
    exec: &Exec<'_>,
    tuples: &Arena,
    meter: &mut CostMeter,
    opts: &ExecOpts<'_>,
    ps: &mut Option<PoolState<'_>>,
) -> Result<(Vec<Vec<Value>>, u64), TimedOut> {
    let q = exec.q;
    let n = tuples.len();
    let ranges = morsel_ranges(n, opts.morsel_rows);
    let n_morsels = ranges.len() as u64;
    finish_entry_charge(q, n as u64, meter, ps)?;
    if q.aggs.is_empty() && q.group_by.is_empty() {
        // Plain projection, morsel-parallel: chunks concatenate in
        // morsel order, reproducing the sequential row order.
        let chunks: Vec<Vec<Vec<Value>>> = par_map(region_par(opts, n), &ranges, |&(s, e)| {
            morsel_prologue(opts);
            let mut chunk = Vec::with_capacity(e - s);
            for i in s..e {
                let t = tuples.tuple(i);
                chunk.push(
                    q.select
                        .iter()
                        .map(|s| match s {
                            BoundItem::Column(r, c) => exec.val(t, *r, *c),
                            BoundItem::Agg(_) => unreachable!("no aggs"),
                        })
                        .collect(),
                );
            }
            chunk
        });
        let mut out = Vec::with_capacity(n);
        for c in chunks {
            out.extend(c);
        }
        return Ok((order_and_limit(q, out, meter, ps)?, n_morsels));
    }

    let distinct_aggs: Vec<(usize, usize, &Column)> = q
        .aggs
        .iter()
        .enumerate()
        .filter_map(|(ai, a)| match a {
            BoundAgg::CountDistinct(r, c) => Some((ai, *r, exec.col(*r, *c))),
            BoundAgg::CountStar => None,
        })
        .collect();

    // Per-morsel local aggregation.
    let group_cols: Vec<(usize, &Column)> =
        (q.group_by.iter().map(|&(r, c)| (r, exec.col(r, c)))).collect();
    let k = group_cols.len();
    let region = region_par(opts, n);
    let locals: Vec<Groups> = par_map(region, &merge_ranges(region, &ranges), |&(s, e)| {
        morsel_prologue(opts);
        let mut local = Groups::new(q);
        let mut key = vec![0u64; k + k.div_ceil(64)];
        for i in s..e {
            let t = tuples.tuple(i);
            for (w, cols) in group_cols.chunks(64).enumerate() {
                let mut nulls = 0u64;
                for (j, &(r, col)) in cols.iter().enumerate() {
                    key[w * 64 + j] = col.key(t[r]).unwrap_or_else(|| {
                        nulls |= 1 << j;
                        0
                    });
                }
                key[k + w] = nulls;
            }
            let g = local.group(&key, i);
            local.counts[g as usize] += 1;
            // COUNT(DISTINCT) skips NULL.
            for &(ai, r, col) in &distinct_aggs {
                if let Some(v) = col.key(t[r]) {
                    local.distinct[ai].intern(&[g as u64, v]);
                }
            }
        }
        local
    });

    // Ordered merge: global ids assigned in input first-seen order.
    let mut locals = locals.into_iter();
    let mut groups = locals.next().unwrap_or_else(|| Groups::new(q));
    locals.for_each(|l| groups.absorb(l));
    // Distinct operands per group, for the aggregates that count them.
    let mut n_distinct = vec![Vec::new(); q.aggs.len()];
    for &(ai, ..) in &distinct_aggs {
        let pairs = &groups.distinct[ai];
        n_distinct[ai] = vec![0i64; groups.first.len()];
        for p in 0..pairs.len() as u32 {
            n_distinct[ai][pairs.key(p)[0] as usize] += 1;
        }
    }

    // One row of work per output group; groups emit in first-seen order,
    // which is deterministic (the old executor's hash-map order was not,
    // though callers may still not rely on unordered output order).
    let agg = |ai: usize, g: usize| match &q.aggs[ai] {
        BoundAgg::CountStar => groups.counts[g] as i64,
        BoundAgg::CountDistinct(..) => n_distinct[ai][g],
    };
    // COUNT over an empty input with no GROUP BY still yields one row.
    let lone = groups.first.is_empty() && q.group_by.is_empty();
    meter.charge_rows(groups.first.len() as u64 + u64::from(lone))?;
    let mut out: Vec<Vec<Value>> = Vec::with_capacity(groups.first.len() + usize::from(lone));
    for (g, &first) in groups.first.iter().enumerate() {
        let t = tuples.tuple(first);
        let item = |s: &BoundItem| match s {
            BoundItem::Column(r, c) => exec.val(t, *r, *c),
            BoundItem::Agg(ai) => Value::Int(agg(*ai, g)),
        };
        out.push(q.select.iter().map(item).collect());
    }
    if lone {
        let item = |s: &BoundItem| match s {
            BoundItem::Column(..) => unreachable!("select column is grouped"),
            BoundItem::Agg(_) => Value::Int(0),
        };
        out.push(q.select.iter().map(item).collect());
    }
    Ok((order_and_limit(q, out, meter, ps)?, n_morsels))
}

/// Apply the bound query's ORDER BY (ties broken by the full row, so
/// the result is total) and LIMIT, charging sort work.
fn order_and_limit(
    q: &BoundQuery,
    mut rows: Vec<Vec<Value>>,
    meter: &mut CostMeter,
    ps: &mut Option<PoolState<'_>>,
) -> Result<Vec<Vec<Value>>, TimedOut> {
    if !q.order_by.is_empty() {
        // n log n comparisons' worth of row work, plus sort spill.
        let n = rows.len() as u64;
        let log = (n.max(2) as f64).log2().ceil() as u64;
        meter.charge_rows(n.saturating_mul(log))?;
        pool_charge_spill(ps, meter, n, 0)?;
        rows.sort_by(|a, b| {
            for &(pos, desc) in &q.order_by {
                let ord = a[pos].cmp(&b[pos]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(b) // total tie-break
        });
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit as usize);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{spill_pages, RANDOM_PAGE_COST, ROW_COST, SEQ_PAGE_COST};
    use crate::plan::JoinStep;
    use crate::session::Session;
    use tab_sqlq::parse;
    use tab_storage::{ColType, ColumnDef, Configuration, IndexSpec, TableSchema};

    /// `fact ⋈ dim` on `k`, skewed: half of `fact` and a quarter of `dim`
    /// hold key 0, so that one key's 5,000 × 100 matches dwarf the rest.
    /// `tag` holds each key below 50 once.
    fn skewed_db() -> Database {
        let mut db = Database::new();
        let schema = |name: &str| TableSchema::new(name, vec![ColumnDef::new("k", ColType::Int)]);
        let mut fact = Table::new(schema("fact"));
        for i in 0..10_000i64 {
            fact.insert(vec![Value::Int(if i % 2 == 0 { 0 } else { i })]);
        }
        let mut dim = Table::new(schema("dim"));
        for i in 0..400i64 {
            dim.insert(vec![Value::Int(if i % 4 == 0 { 0 } else { i })]);
        }
        let mut tag = Table::new(schema("tag"));
        for i in 0..50i64 {
            tag.insert(vec![Value::Int(i)]);
        }
        db.add_table(fact);
        db.add_table(dim);
        db.add_table(tag);
        db.collect_stats();
        db
    }

    /// Run `plan` at `budget` at query threads 1/2/8 × morsel rows
    /// 1/64/4096. Every run times out having completed exactly `full`'s
    /// first `slots` operator slots, and spends bit-equal units at every
    /// thread count. Returns the spent units per morsel size.
    fn assert_times_out_after(
        plan: &PhysicalPlan,
        resolver: &Resolver<'_>,
        budget: f64,
        full: &[OpActuals],
        slots: usize,
    ) -> Vec<f64> {
        let mut spent_by_morsel = Vec::new();
        for morsel_rows in [1, 64, 4096] {
            let mut spent = Vec::new();
            for threads in [1, 2, 8] {
                let opts = ExecOpts {
                    par: Parallelism::new(threads),
                    morsel_rows,
                    ..ExecOpts::default()
                };
                let mut ops = Vec::new();
                let mut meter = CostMeter::with_budget(budget);
                let got = execute(plan, resolver, &mut meter, &opts, Some(&mut ops), None);
                let label = format!("{threads} threads, morsel {morsel_rows}");
                spent.push(got.expect_err(&format!("{label}: completed")).spent);
                assert_eq!(ops.len(), slots, "{label}: {ops:?}");
                for (got, want) in ops.iter().zip(full) {
                    assert_eq!(
                        (got.rows_in, got.rows_out, got.probes, got.units),
                        (want.rows_in, want.rows_out, want.probes, want.units),
                        "{label}"
                    );
                }
            }
            let bits: Vec<u64> = spent.iter().map(|s| s.to_bits()).collect();
            assert!(
                bits.iter().all(|&b| b == bits[0]),
                "morsel {morsel_rows}: {spent:?}"
            );
            spent_by_morsel.push(spent[0]);
        }
        spent_by_morsel
    }

    /// The unbounded run's operator slots.
    fn full_run(plan: &PhysicalPlan, resolver: &Resolver<'_>) -> Vec<OpActuals> {
        let mut full = Vec::new();
        let mut meter = CostMeter::unbounded();
        let opts = ExecOpts::default();
        execute(plan, resolver, &mut meter, &opts, Some(&mut full), None).unwrap();
        full
    }

    /// A budget that pays for everything a hash join does before it
    /// emits, but not for its matches, times out in the probe having
    /// completed exactly the frequency setup and the driver, at any
    /// thread count and morsel size.
    #[test]
    fn over_budget_probe_times_out_with_setup_and_driver_slots() {
        let db = skewed_db();
        let built = BuiltConfiguration::build(Configuration::named("p"), &db);
        let q = parse("SELECT COUNT(*) FROM fact f, dim d WHERE f.k = d.k").unwrap();
        let plan = Session::new(&db, &built).plan_query(&q).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert!(matches!(plan.steps[0].method, JoinMethod::Hash));
        let resolver = Resolver::new(&db, &built);
        let full = full_run(&plan, &resolver);
        let matches = full[2].rows_out;
        assert!(matches > 500_000, "{matches} matches");
        let before_emit: f64 = full[..3].iter().map(|o| o.units).sum::<f64>();
        let budget = before_emit - matches as f64 * ROW_COST / 2.0;
        assert_times_out_after(&plan, &resolver, budget, &full, 2);
    }

    /// `fact ⋈ dim` through an index on `dim.k`. The driver filter
    /// `f.a = 0` keeps 10,000 of `fact`'s 20,000 rows, but `a` has no
    /// index, so the planner assumes a uniform 1/n_distinct, expects two
    /// outer tuples, and joins by index nested loops. A kept row's `k`
    /// matches exactly one `dim` row; its `s` is 0 on every thousandth
    /// kept row and NULL elsewhere. Half of `dim` holds `k = 0`: one
    /// skewed key with a row on every heap page.
    fn index_nl_plan(select: &str, join: &str) -> (Database, BuiltConfiguration, PhysicalPlan) {
        let mut db = Database::new();
        let int = |name: &str| ColumnDef::new(name, ColType::Int);
        let skew = |i: i64| Value::Int(if i % 2 == 0 { 0 } else { i });
        let mut fact = Table::new(TableSchema::new("fact", vec![int("a"), int("k"), int("s")]));
        let mut dim = Table::new(TableSchema::new("dim", vec![int("k"), int("w")]));
        for i in 0..20_000i64 {
            let s = if i % 2_000 == 0 {
                Value::Int(0)
            } else {
                Value::Null
            };
            fact.insert(vec![skew(i), Value::Int(i + 1), s]);
            dim.insert(vec![skew(i), Value::Int(i)]);
        }
        db.add_table(fact);
        db.add_table(dim);
        db.collect_stats();
        let mut cfg = Configuration::named("ix");
        cfg.indexes.push(IndexSpec::new("dim", vec![0]));
        let built = BuiltConfiguration::build(cfg, &db);
        let sql = format!("SELECT {select} FROM fact f, dim d WHERE f.a = 0 AND {join} = d.k");
        let plan = Session::new(&db, &built)
            .plan_query(&parse(&sql).unwrap())
            .unwrap();
        assert_eq!(plan.steps.len(), 1, "{sql}");
        assert!(
            matches!(plan.steps[0].method, JoinMethod::IndexNl { .. }),
            "{sql}: {:?}",
            plan.steps[0].method
        );
        (db, built, plan)
    }

    /// 10,000 cheap probes, each matching one row: a budget that pays
    /// for the step's input rows and one page per probe is crossed by
    /// the floor every probe pays, before any probe runs, so the spent
    /// units are the same at every morsel size too.
    #[test]
    fn index_nl_floor_times_out_before_probing() {
        let (db, built, plan) = index_nl_plan("COUNT(*)", "f.k");
        let resolver = Resolver::new(&db, &built);
        let full = full_run(&plan, &resolver);
        let step = &full[2];
        assert_eq!(
            (step.rows_in, step.probes, step.rows_out),
            (10_000, 10_000, 10_000)
        );
        let before: f64 = full[..2].iter().map(|o| o.units).sum();
        let budget =
            before + step.rows_in as f64 * ROW_COST + step.probes as f64 * RANDOM_PAGE_COST;
        let spent = assert_times_out_after(&plan, &resolver, budget, &full, 2);
        assert!(
            spent.iter().all(|s| s.to_bits() == spent[0].to_bits()),
            "{spent:?}"
        );
    }

    /// Ten heavy probes on the skewed key (the other kept rows' `s` is
    /// NULL: no probe), each fetching every heap page of `dim`: the floor
    /// fits the budget and the heap pages cross it.
    #[test]
    fn index_nl_heavy_probes_time_out_on_heap_pages() {
        let (db, built, plan) = index_nl_plan("COUNT(DISTINCT d.w)", "f.s");
        let resolver = Resolver::new(&db, &built);
        let full = full_run(&plan, &resolver);
        let step = &full[2];
        assert_eq!(
            (step.rows_in, step.probes, step.rows_out),
            (10_000, 10, 100_000)
        );
        let before: f64 = full[..2].iter().map(|o| o.units).sum();
        assert_times_out_after(&plan, &resolver, before + step.units / 4.0, &full, 2);
    }

    /// Run `plan` at `budget` without a pool and with one, Metered and
    /// Observed (every page fits, so Observed charges the modeled pages).
    /// A pool run never prices the consumer ahead: it fills, then the
    /// consumer's own charge refuses. Both must agree on the verdict and
    /// the completed slots' work; on the units spent too when
    /// `same_spent` (the look-ahead priced exactly what refused), else
    /// the pool run spent more: it also paid for what the consumer
    /// charges before the refused one.
    fn assert_pool_runs_agree(
        plan: &PhysicalPlan,
        resolver: &Resolver<'_>,
        budget: f64,
        same_spent: bool,
    ) {
        let run = |pool: Option<PoolOpts<'static>>| {
            let opts = ExecOpts {
                pool,
                ..ExecOpts::default()
            };
            let mut ops = Vec::new();
            let mut meter = CostMeter::with_budget(budget);
            let got = execute(plan, resolver, &mut meter, &opts, Some(&mut ops), None);
            let work: Vec<_> = ops
                .iter()
                .map(|o| (o.rows_in, o.rows_out, o.probes, o.units))
                .collect();
            (got.map(|_| meter.units()).map_err(|e| e.spent), work)
        };
        let (plain, plain_work) = run(None);
        for policy in [ChargePolicy::Metered, ChargePolicy::Observed] {
            let (pooled, work) = run(Some(PoolOpts {
                policy,
                ..PoolOpts::new(1024)
            }));
            assert_eq!(work, plain_work, "{policy:?} at {budget}");
            match (plain, pooled) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{policy:?}"),
                (Err(a), Err(b)) if same_spent => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{policy:?} at {budget}")
                }
                (Err(a), Err(b)) => assert!(b > a, "{policy:?} at {budget}: {b} <= {a}"),
                _ => panic!("{policy:?} at {budget}: {plain:?} without a pool, {pooled:?} with"),
            }
        }
    }

    /// `sql` over [`skewed_db`] ends in a hash join whose output feeds
    /// `finish`, and `charges(n)` lists in charge order, in units, what
    /// `finish` charges up front for that join's `n` tuples. A budget
    /// inside each charge times out with the join's slot reported, at any
    /// thread count and morsel size, and with or without a pool; a budget
    /// of twice the total completes with the same units either way.
    fn assert_finish_entry_trips(sql: &str, charges: impl Fn(u64) -> Vec<f64>) {
        let db = skewed_db();
        let built = BuiltConfiguration::build(Configuration::named("p"), &db);
        let plan = Session::new(&db, &built)
            .plan_query(&parse(sql).unwrap())
            .unwrap();
        let last = plan.steps.last().map(|s| &s.method);
        assert!(matches!(last, Some(JoinMethod::Hash)), "{sql}: {last:?}");
        let resolver = Resolver::new(&db, &built);
        let full = full_run(&plan, &resolver);
        let step = plan.steps.len() + 1;
        let n = full[step].rows_out;
        assert!(n > 500_000, "{sql}: {n} tuples");
        let through: f64 = full[..=step].iter().map(|o| o.units).sum();
        let mut before = 0.0;
        for c in charges(n) {
            assert!(c > 0.0, "{sql}");
            let budget = through + before + c / 2.0;
            assert_times_out_after(&plan, &resolver, budget, &full, step + 1);
            assert_pool_runs_agree(&plan, &resolver, budget, true);
            before += c;
        }
        let total: f64 = full.iter().map(|o| o.units).sum();
        assert_pool_runs_agree(&plan, &resolver, 2.0 * total, true);
    }

    #[test]
    fn projection_entry_charge_trips_before_the_fill() {
        assert_finish_entry_trips("SELECT f.k FROM fact f, dim d WHERE f.k = d.k", |n| {
            vec![n as f64 * ROW_COST]
        });
    }

    #[test]
    fn spilling_group_by_entry_charges_trip_before_the_fill() {
        let sql = "SELECT f.k, COUNT(*) FROM fact f, dim d WHERE f.k = d.k GROUP BY f.k";
        assert_finish_entry_trips(sql, |n| {
            let spill = spill_pages(n, 0) as f64 * SEQ_PAGE_COST;
            vec![spill, n as f64 * ROW_COST]
        });
    }

    #[test]
    fn count_distinct_entry_charges_trip_before_the_fill() {
        let sql = "SELECT COUNT(DISTINCT d.k) FROM fact f, dim d WHERE f.k = d.k";
        assert_finish_entry_trips(sql, |n| {
            let spill = spill_pages(n, 0) as f64 * SEQ_PAGE_COST;
            vec![spill, n as f64 * ROW_COST, n as f64 * ROW_COST]
        });
    }

    /// `fact ⋈ dim ⋈ tag`, joined in that order: the first step's half a
    /// million tuples are the second's outer input, and a budget that
    /// cannot pay a row for each times out with the first step reported.
    #[test]
    fn next_steps_outer_charge_trips_before_the_fill() {
        let db = skewed_db();
        let built = BuiltConfiguration::build(Configuration::named("p"), &db);
        let sql = "SELECT COUNT(*) FROM fact f, dim d, tag t WHERE f.k = d.k AND d.k = t.k";
        let mut plan = Session::new(&db, &built)
            .plan_query(&parse(sql).unwrap())
            .unwrap();
        let sources: Vec<&str> = plan.query.rels.iter().map(|r| r.source.as_str()).collect();
        assert_eq!(sources, ["fact", "dim", "tag"]);
        let scan = |rel| RelOp {
            rel,
            access: Access::Seq,
            filters: vec![],
            ranges: vec![],
            freqs: vec![],
        };
        let hash = |rel, outer| JoinStep {
            inner: scan(rel),
            method: JoinMethod::Hash,
            pairs: vec![((outer, 0), 0)],
        };
        plan.driver = scan(0);
        plan.steps = vec![hash(1, 0), hash(2, 1)];
        let resolver = Resolver::new(&db, &built);
        let full = full_run(&plan, &resolver);
        let n = full[2].rows_out;
        assert!(n > 500_000, "{n} tuples");
        let through: f64 = full[..3].iter().map(|o| o.units).sum();
        let budget = through + n as f64 * ROW_COST / 2.0;
        assert_times_out_after(&plan, &resolver, budget, &full, 3);
        assert_pool_runs_agree(&plan, &resolver, budget, false);
    }
}
