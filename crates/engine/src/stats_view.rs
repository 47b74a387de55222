//! Statistics views: what the optimizer believes about a configuration.
//!
//! The paper's §5 hinges on the difference between three kinds of cost:
//!
//! - `A(q, C)` — actual execution cost (measured by the executor);
//! - `E(q, C)` — the optimizer's estimate *in* configuration `C`, with
//!   statistics collected on `C`'s real structures;
//! - `H(q, Ch, Ca)` — a *hypothetical* estimate of configuration `Ch`
//!   made while the system runs configuration `Ca`, with `Ch`'s
//!   statistics synthesized rather than collected.
//!
//! [`RealStats`] implements the `E` view; [`HypotheticalStats`] the `H`
//! view. The planner is generic over [`StatsView`], so the same search
//! produces both kinds of estimate.
//!
//! The degradation rule (documented in DESIGN.md §1): **value-distribution
//! statistics (MCV lists) are available only for columns that are the
//! leading column of a *built* index**; all other equality selectivities
//! fall back to the uniformity assumption `1 / n_distinct`. Hypothetical
//! indexes are never built, so `H` estimates are uniform — on skewed data
//! this is precisely the estimation error the paper diagnoses.

use tab_sqlq::{CmpOp, RangeOp};
use tab_storage::{
    BuiltConfiguration, ColumnStats, Configuration, Database, IndexSpec, MViewDef, MViewSpec,
    Value, PAGE_SIZE,
};

/// Size and shape of one (real or hypothetical) index, for costing.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// Key column positions.
    pub columns: Vec<usize>,
    /// Leaf pages.
    pub pages: f64,
    /// Tree height (random pages per descent).
    pub height: f64,
    /// Leaf entries per page.
    pub entries_per_page: f64,
    /// Heap pages fetched per matching row on a probe (0 = clustered,
    /// 1 = scattered). Measured on built indexes; hypothetical indexes
    /// have never been built, so the what-if view conservatively assumes
    /// fully scattered rows — one more honest source of `H` pessimism.
    pub clustering: f64,
}

/// Size and definition of one (real or hypothetical) materialized view.
#[derive(Debug, Clone)]
pub struct MViewMeta {
    /// The view definition.
    pub spec: MViewSpec,
    /// Row count (actual for built views, estimated for hypothetical).
    pub rows: f64,
    /// Heap pages.
    pub pages: f64,
}

/// What the planner may ask about a configuration's statistics.
pub trait StatsView {
    /// Rows in a source (base table or view).
    fn rel_rows(&self, source: &str) -> f64;

    /// Heap pages of a source.
    fn rel_pages(&self, source: &str) -> f64;

    /// Distinct values in a column of a source.
    fn n_distinct(&self, source: &str, col: usize) -> f64;

    /// Selectivity of `source.col = value`.
    fn eq_selectivity(&self, source: &str, col: usize, value: &Value) -> f64;

    /// Fraction of `source.col`'s rows whose value occurs `op k` times
    /// in that column (the frequency-filter selectivity).
    fn freq_fraction(&self, source: &str, col: usize, op: CmpOp, k: i64) -> f64;

    /// Selectivity of `source.col op value` for a range operator.
    fn range_selectivity(&self, source: &str, col: usize, op: RangeOp, value: &Value) -> f64;

    /// Indexes available on a source in this configuration.
    fn indexes_on(&self, source: &str) -> Vec<IndexMeta>;

    /// Materialized views available in this configuration.
    fn mviews(&self) -> Vec<MViewMeta>;
}

/// Clamp a selectivity into a sane open interval, as real optimizers do.
pub fn clamp_sel(s: f64) -> f64 {
    s.clamp(1e-9, 1.0)
}

/// The System-R default range selectivity, used when no histogram is
/// available (non-indexed columns, hypothetical configurations).
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;

/// Histogram-based range selectivity over collected column stats.
fn range_sel_from_stats(stats: &ColumnStats, op: RangeOp, value: &Value) -> f64 {
    let lt = stats.lt_selectivity(value);
    let eq = stats.eq_selectivity(value);
    let non_null = if stats.n_rows == 0 {
        0.0
    } else {
        (stats.n_rows - stats.n_null) as f64 / stats.n_rows as f64
    };
    let s = match op {
        RangeOp::Lt => lt,
        RangeOp::Le => lt + eq,
        RangeOp::Gt => non_null - lt - eq,
        RangeOp::Ge => non_null - lt,
    };
    clamp_sel(s)
}

/// Estimate index geometry from schema widths and a row count, the same
/// formulas `BTreeIndex` uses, applied without building anything.
pub fn estimate_index_meta(columns: &[usize], key_width: u32, rows: f64) -> IndexMeta {
    let entry_width = (key_width + 12).max(1) as f64;
    let entries_per_page = (PAGE_SIZE as f64 / entry_width).max(1.0).floor();
    let pages = (rows / entries_per_page).ceil().max(1.0);
    let fanout = entries_per_page.max(2.0);
    let mut height = 1.0;
    let mut span = fanout;
    while span < pages {
        span *= fanout;
        height += 1.0;
    }
    IndexMeta {
        columns: columns.to_vec(),
        pages,
        height,
        entries_per_page,
        clustering: 1.0,
    }
}

/// Frequency-filter mass fraction from collected distribution stats:
/// read exactly off the frequency-of-frequency summary.
fn freq_fraction_from_stats(stats: &ColumnStats, op: CmpOp, k: i64) -> f64 {
    stats.freq_mass_fraction(matches!(op, CmpOp::Lt), k)
}

/// Uniformity-assumption frequency fraction: every value assumed to occur
/// `n/d` times, so the filter keeps everything or nothing (clamped).
fn freq_fraction_uniform(n_rows: f64, n_distinct: f64, op: CmpOp, k: i64) -> f64 {
    if n_rows == 0.0 || n_distinct == 0.0 {
        return 0.0;
    }
    let avg = (n_rows / n_distinct).round().max(1.0) as i64;
    let qualifies = match op {
        CmpOp::Lt => avg < k,
        CmpOp::Eq => avg == k,
    };
    if qualifies {
        1.0
    } else {
        // Real optimizers clamp rather than claim impossibility.
        0.005
    }
}

/// The `E(q, C)` view: statistics collected on a built configuration.
pub struct RealStats<'a> {
    db: &'a Database,
    built: &'a BuiltConfiguration,
}

impl<'a> RealStats<'a> {
    /// View over `built` against `db`. Table statistics must have been
    /// collected (`db.collect_stats()`).
    pub fn new(db: &'a Database, built: &'a BuiltConfiguration) -> Self {
        RealStats { db, built }
    }

    /// Column stats for a source: base tables from the database, views
    /// from their materialization-time stats.
    fn col_stats(&self, source: &str, col: usize) -> Option<&ColumnStats> {
        if let Some(s) = self.db.stats(source) {
            return s.columns.get(col);
        }
        self.built
            .mviews
            .iter()
            .find(|(mv, _)| mv.spec.name == source)
            .and_then(|(mv, _)| mv.stats.columns.get(col))
    }

    /// Distribution (MCV) statistics exist only for leading index columns.
    fn has_distribution(&self, source: &str, col: usize) -> bool {
        self.built
            .indexes_on(source)
            .any(|idx| idx.spec().columns.first() == Some(&col))
    }
}

impl StatsView for RealStats<'_> {
    fn rel_rows(&self, source: &str) -> f64 {
        if let Some(s) = self.db.stats(source) {
            return s.n_rows as f64;
        }
        self.built
            .mviews
            .iter()
            .find(|(mv, _)| mv.spec.name == source)
            .map(|(mv, _)| mv.stats.n_rows as f64)
            .unwrap_or(0.0)
    }

    fn rel_pages(&self, source: &str) -> f64 {
        if let Some(s) = self.db.stats(source) {
            return s.n_pages as f64;
        }
        self.built
            .mviews
            .iter()
            .find(|(mv, _)| mv.spec.name == source)
            .map(|(mv, _)| mv.stats.n_pages as f64)
            .unwrap_or(1.0)
    }

    fn n_distinct(&self, source: &str, col: usize) -> f64 {
        self.col_stats(source, col)
            .map(|c| c.n_distinct as f64)
            .unwrap_or(1.0)
    }

    fn eq_selectivity(&self, source: &str, col: usize, value: &Value) -> f64 {
        let Some(stats) = self.col_stats(source, col) else {
            return 1.0;
        };
        if self.has_distribution(source, col) {
            clamp_sel(stats.eq_selectivity(value))
        } else {
            clamp_sel(stats.eq_selectivity_uniform())
        }
    }

    fn freq_fraction(&self, source: &str, col: usize, op: CmpOp, k: i64) -> f64 {
        let Some(stats) = self.col_stats(source, col) else {
            return 1.0;
        };
        if self.has_distribution(source, col) {
            clamp_sel(freq_fraction_from_stats(stats, op, k))
        } else {
            clamp_sel(freq_fraction_uniform(
                stats.n_rows as f64,
                stats.n_distinct as f64,
                op,
                k,
            ))
        }
    }

    fn range_selectivity(&self, source: &str, col: usize, op: RangeOp, value: &Value) -> f64 {
        let Some(stats) = self.col_stats(source, col) else {
            return DEFAULT_RANGE_SEL;
        };
        if self.has_distribution(source, col) {
            range_sel_from_stats(stats, op, value)
        } else {
            DEFAULT_RANGE_SEL
        }
    }

    fn indexes_on(&self, source: &str) -> Vec<IndexMeta> {
        self.built
            .indexes_on(source)
            .map(|idx| IndexMeta {
                columns: idx.spec().columns.clone(),
                pages: idx.n_pages() as f64,
                height: idx.height() as f64,
                entries_per_page: idx.entries_per_page() as f64,
                clustering: idx.clustering(),
            })
            .collect()
    }

    fn mviews(&self) -> Vec<MViewMeta> {
        self.built
            .fresh_mviews()
            .map(|(mv, _)| MViewMeta {
                spec: mv.spec.clone(),
                rows: mv.stats.n_rows as f64,
                pages: mv.stats.n_pages as f64,
            })
            .collect()
    }
}

/// The `H(q, Ch, Ca)` view: a hypothetical configuration `hyp`, estimated
/// while the system actually runs `current`.
///
/// The hypothetical configuration is a *base* plus optional overlay
/// slices ([`HypotheticalStats::layered`]): the advisor's greedy search
/// trials hundreds of configurations per round that differ from a shared
/// base by exactly one structure, and the overlay lets it present
/// `base + candidate` without cloning the base configuration per trial.
/// A plain view ([`HypotheticalStats::new`]) is a layered view with
/// empty overlays; both present identical statistics for the same
/// effective structure list (base structures first, overlay appended —
/// the same order `clone`-and-`push` would produce).
pub struct HypotheticalStats<'a> {
    db: &'a Database,
    current: &'a BuiltConfiguration,
    hyp: &'a Configuration,
    extra_indexes: &'a [IndexSpec],
    extra_mviews: &'a [MViewDef],
    perfect_distributions: bool,
}

impl<'a> HypotheticalStats<'a> {
    /// Hypothetical view of `hyp` taken from `current`.
    pub fn new(db: &'a Database, current: &'a BuiltConfiguration, hyp: &'a Configuration) -> Self {
        HypotheticalStats {
            db,
            current,
            hyp,
            extra_indexes: &[],
            extra_mviews: &[],
            perfect_distributions: false,
        }
    }

    /// Incremental view of `base` with extra trial structures layered on
    /// top, equivalent to a plain view of `base + extras` but without
    /// materializing that configuration.
    pub fn layered(
        db: &'a Database,
        current: &'a BuiltConfiguration,
        base: &'a Configuration,
        extra_indexes: &'a [IndexSpec],
        extra_mviews: &'a [MViewDef],
        perfect_distributions: bool,
    ) -> Self {
        HypotheticalStats {
            db,
            current,
            hyp: base,
            extra_indexes,
            extra_mviews,
            perfect_distributions,
        }
    }

    /// All hypothetical index specs: base first, then the overlay.
    fn all_indexes(&self) -> impl Iterator<Item = &IndexSpec> {
        self.hyp.indexes.iter().chain(self.extra_indexes)
    }

    /// All hypothetical view definitions: base first, then the overlay.
    fn all_mviews(&self) -> impl Iterator<Item = &MViewDef> {
        self.hyp.mviews.iter().chain(self.extra_mviews)
    }

    /// Estimated rows of a hypothetical view: base cardinalities reduced
    /// by the textbook independence-assumption join selectivity.
    fn est_view_rows(&self, spec: &MViewSpec) -> f64 {
        let rows: Vec<f64> = spec
            .base
            .iter()
            .map(|t| self.db.stats(t).map(|s| s.n_rows as f64).unwrap_or(0.0))
            .collect();
        if spec.base.len() == 1 {
            return rows[0];
        }
        let mut sel = 1.0;
        for &(l, r) in &spec.join_on {
            let ndl = self
                .db
                .stats(&spec.base[0])
                .and_then(|s| s.columns.get(l))
                .map(|c| c.n_distinct as f64)
                .unwrap_or(1.0);
            let ndr = self
                .db
                .stats(&spec.base[1])
                .and_then(|s| s.columns.get(r))
                .map(|c| c.n_distinct as f64)
                .unwrap_or(1.0);
            sel /= ndl.max(ndr).max(1.0);
        }
        (rows[0] * rows[1] * sel).max(1.0)
    }

    /// For hypothetical-view columns, map to the underlying base column
    /// stats (`spec.projection[col]`).
    fn view_base_stats(&self, spec: &MViewSpec, col: usize) -> Option<&ColumnStats> {
        let (t, c) = *spec.projection.get(col)?;
        self.db.stats(&spec.base[t]).and_then(|s| s.columns.get(c))
    }

    fn hyp_view(&self, source: &str) -> Option<&MViewSpec> {
        self.all_mviews()
            .map(|d| &d.spec)
            .find(|s| s.name == source)
    }

    /// Average byte width of a source's columns, for index sizing.
    fn key_width(&self, source: &str, columns: &[usize]) -> u32 {
        if let Some(t) = self.db.table(source) {
            return columns
                .iter()
                .map(|&c| t.schema().columns[c].byte_width)
                .sum();
        }
        if let Some(spec) = self.hyp_view(source) {
            return columns
                .iter()
                .filter_map(|&c| spec.projection.get(c))
                .filter_map(|&(t, c)| {
                    self.db
                        .table(&spec.base[t])
                        .map(|bt| bt.schema().columns[c].byte_width)
                })
                .sum();
        }
        8 * columns.len() as u32
    }
}

impl StatsView for HypotheticalStats<'_> {
    fn rel_rows(&self, source: &str) -> f64 {
        if let Some(s) = self.db.stats(source) {
            return s.n_rows as f64;
        }
        self.hyp_view(source)
            .map(|spec| self.est_view_rows(spec))
            .unwrap_or(0.0)
    }

    fn rel_pages(&self, source: &str) -> f64 {
        if let Some(s) = self.db.stats(source) {
            return s.n_pages as f64;
        }
        if let Some(spec) = self.hyp_view(source) {
            let rows = self.est_view_rows(spec);
            let width: u32 = spec
                .projection
                .iter()
                .filter_map(|&(t, c)| {
                    self.db
                        .table(&spec.base[t])
                        .map(|bt| bt.schema().columns[c].byte_width)
                })
                .sum::<u32>()
                + 8;
            let rpp = (PAGE_SIZE / width.max(1)).max(1) as f64;
            return (rows / rpp).ceil().max(1.0);
        }
        1.0
    }

    fn n_distinct(&self, source: &str, col: usize) -> f64 {
        if let Some(s) = self.db.stats(source) {
            return s
                .columns
                .get(col)
                .map(|c| c.n_distinct as f64)
                .unwrap_or(1.0);
        }
        if let Some(spec) = self.hyp_view(source) {
            let nd = self
                .view_base_stats(spec, col)
                .map(|c| c.n_distinct as f64)
                .unwrap_or(1.0);
            return nd.min(self.est_view_rows(spec));
        }
        1.0
    }

    fn eq_selectivity(&self, source: &str, col: usize, value: &Value) -> f64 {
        // Distribution stats only from the *current* configuration's
        // built indexes; hypothetical indexes contribute none (unless
        // the perfect-distributions ablation is on).
        let current_has = self.perfect_distributions
            || self
                .current
                .indexes_on(source)
                .any(|idx| idx.spec().columns.first() == Some(&col));
        if current_has {
            if let Some(s) = self.db.stats(source).and_then(|s| s.columns.get(col)) {
                return clamp_sel(s.eq_selectivity(value));
            }
        }
        let nd = self.n_distinct(source, col);
        clamp_sel(1.0 / nd.max(1.0))
    }

    fn freq_fraction(&self, source: &str, col: usize, op: CmpOp, k: i64) -> f64 {
        let current_has = self.perfect_distributions
            || self
                .current
                .indexes_on(source)
                .any(|idx| idx.spec().columns.first() == Some(&col));
        if current_has {
            if let Some(s) = self.db.stats(source).and_then(|s| s.columns.get(col)) {
                return clamp_sel(freq_fraction_from_stats(s, op, k));
            }
        }
        clamp_sel(freq_fraction_uniform(
            self.rel_rows(source),
            self.n_distinct(source, col),
            op,
            k,
        ))
    }

    fn range_selectivity(&self, source: &str, col: usize, op: RangeOp, value: &Value) -> f64 {
        if self.perfect_distributions {
            if let Some(s) = self.db.stats(source).and_then(|s| s.columns.get(col)) {
                return range_sel_from_stats(s, op, value);
            }
        }
        DEFAULT_RANGE_SEL
    }

    fn indexes_on(&self, source: &str) -> Vec<IndexMeta> {
        let rows = self.rel_rows(source);
        self.all_indexes()
            .filter(|s| s.table == source)
            .map(|s| estimate_index_meta(&s.columns, self.key_width(source, &s.columns), rows))
            .chain(
                self.all_mviews()
                    .filter(|d| d.spec.name == source)
                    .flat_map(|d| {
                        d.indexes.iter().map(|cols| {
                            estimate_index_meta(cols, self.key_width(source, cols), rows)
                        })
                    }),
            )
            .collect()
    }

    fn mviews(&self) -> Vec<MViewMeta> {
        self.all_mviews()
            .map(|d| {
                let rows = self.est_view_rows(&d.spec);
                MViewMeta {
                    spec: d.spec.clone(),
                    rows,
                    pages: self.rel_pages(&d.spec.name),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_storage::{ColType, ColumnDef, IndexSpec, Table, TableSchema};

    fn skewed_db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Int),
            ],
        ));
        for _ in 0..900 {
            t.insert(vec![Value::Int(0), Value::Int(0)]);
        }
        for i in 1..=100 {
            t.insert(vec![Value::Int(i), Value::Int(i)]);
        }
        db.add_table(t);
        db.collect_stats();
        db
    }

    fn built_with_index(db: &Database, cols: Vec<usize>) -> BuiltConfiguration {
        let mut cfg = Configuration::named("c");
        cfg.indexes.push(IndexSpec::new("t", cols));
        BuiltConfiguration::build(cfg, db)
    }

    #[test]
    fn real_stats_use_mcv_only_when_indexed() {
        let db = skewed_db();
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let indexed = built_with_index(&db, vec![0]);
        let heavy = Value::Int(0);
        let sel_p = RealStats::new(&db, &p).eq_selectivity("t", 0, &heavy);
        let sel_i = RealStats::new(&db, &indexed).eq_selectivity("t", 0, &heavy);
        // Without an index: uniform 1/101; with: exact 0.9.
        assert!((sel_i - 0.9).abs() < 1e-9);
        assert!(sel_p < 0.02);
    }

    #[test]
    fn hypothetical_stays_uniform_even_for_hyp_indexes() {
        let db = skewed_db();
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let mut hyp = Configuration::named("h");
        hyp.indexes.push(IndexSpec::new("t", vec![0]));
        let h = HypotheticalStats::new(&db, &p, &hyp);
        let sel = h.eq_selectivity("t", 0, &Value::Int(0));
        assert!(sel < 0.02, "hypothetical index must not grant MCV stats");
        // But the hypothetical index is visible for access-path planning.
        assert_eq!(h.indexes_on("t").len(), 1);
    }

    #[test]
    fn hypothetical_index_geometry_close_to_real() {
        let db = skewed_db();
        let built = built_with_index(&db, vec![0, 1]);
        let real = RealStats::new(&db, &built).indexes_on("t");
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let hyp = built.config.clone();
        let hv = HypotheticalStats::new(&db, &p, &hyp);
        let est = hv.indexes_on("t");
        assert_eq!(real.len(), 1);
        assert_eq!(est.len(), 1);
        assert!((real[0].pages - est[0].pages).abs() <= 1.0);
    }

    #[test]
    fn freq_fraction_uniform_is_all_or_clamped_nothing() {
        // avg freq ~ 10; k=4 -> uniform says nothing qualifies (clamped).
        let f = freq_fraction_uniform(1000.0, 100.0, CmpOp::Lt, 4);
        assert!((f - 0.005).abs() < 1e-12);
        let f2 = freq_fraction_uniform(1000.0, 1000.0, CmpOp::Lt, 4);
        assert!((f2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn freq_fraction_from_stats_counts_rare_mass() {
        let db = skewed_db();
        let stats = db.stats("t").unwrap();
        // Values 1..=100 occur once (<4): mass 100/1000.
        let f = freq_fraction_from_stats(&stats.columns[0], CmpOp::Lt, 4);
        assert!((f - 0.1).abs() < 0.02, "f={f}");
    }

    #[test]
    fn hypothetical_view_rows_use_independence() {
        let db = skewed_db();
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let mut hyp = Configuration::named("h");
        hyp.mviews.push(tab_storage::MViewDef {
            spec: MViewSpec::join_of("v", "t", "t", vec![(0, 0)], vec![(0, 1)]),
            indexes: vec![],
        });
        let h = HypotheticalStats::new(&db, &p, &hyp);
        // Independence: 1000 * 1000 / 101 ~ 9900. Actual self-join on the
        // skewed column would be 900^2 + 100 = 810100 -- a 80x error.
        let est = h.rel_rows("v");
        assert!(est < 20_000.0, "est={est}");
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp_sel(5.0), 1.0);
        assert!(clamp_sel(0.0) > 0.0);
    }

    #[test]
    fn layered_view_matches_materialized_configuration() {
        let db = skewed_db();
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let mut base = Configuration::named("base");
        base.indexes.push(IndexSpec::new("t", vec![0]));
        let extra_ix = [IndexSpec::new("t", vec![1])];
        let extra_mv = [MViewDef {
            spec: MViewSpec::join_of("v", "t", "t", vec![(0, 0)], vec![(0, 1)]),
            indexes: vec![vec![0]],
        }];

        let mut merged = base.clone();
        merged.indexes.push(extra_ix[0].clone());
        merged.mviews.push(extra_mv[0].clone());

        let layered = HypotheticalStats::layered(&db, &p, &base, &extra_ix, &extra_mv, false);
        let plain = HypotheticalStats::new(&db, &p, &merged);
        for source in ["t", "v"] {
            let a = layered.indexes_on(source);
            let b = plain.indexes_on(source);
            assert_eq!(a.len(), b.len(), "{source}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.columns, y.columns);
                assert_eq!(x.pages, y.pages);
            }
            assert_eq!(layered.rel_rows(source), plain.rel_rows(source));
            assert_eq!(layered.rel_pages(source), plain.rel_pages(source));
        }
        assert_eq!(layered.mviews().len(), plain.mviews().len());
    }
}
