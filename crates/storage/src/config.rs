//! System configurations: the object the paper's recommenders recommend.
//!
//! A [`Configuration`] is a declarative set of index specs and
//! materialized-view definitions (the paper's `C_i`, §2.2). Building one
//! against a [`Database`] yields a [`BuiltConfiguration`] holding the
//! physical structures plus the *build cost* and *size* that populate
//! Table 1, and supporting the per-tuple insertion maintenance costs of
//! the §4.4 experiment.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::db::Database;
use crate::index::{BTreeIndex, IndexSpec};
use crate::mview::{MViewSpec, MaterializedView};
use crate::par::{par_map, Parallelism};
use crate::table::{RowId, PAGE_SIZE};
use crate::value::Value;

/// A materialized view together with the indexes to define over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MViewDef {
    /// The view definition.
    pub spec: MViewSpec,
    /// Index key column lists, positions into the view's projection.
    pub indexes: Vec<Vec<usize>>,
}

/// A declarative configuration: what to build, not the built artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Configuration {
    /// Display name, e.g. `A_NREF_P`, `B_NREF2J_R`, `C_SkTH_1C`.
    pub name: String,
    /// Secondary indexes over base tables.
    pub indexes: Vec<IndexSpec>,
    /// Materialized views with their indexes.
    pub mviews: Vec<MViewDef>,
}

impl Configuration {
    /// An empty configuration with a name.
    pub fn named(name: impl Into<String>) -> Self {
        Configuration {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Pages the base-table indexes will occupy once built against `db`,
    /// from row counts and schema widths alone: the same integers the
    /// built indexes report as [`BuildReport::aux_pages`]. Views, which
    /// must be materialized to be sized, are not counted.
    ///
    /// # Panics
    /// Panics if a spec references a table `db` does not have.
    pub fn index_pages(&self, db: &Database) -> u64 {
        let pages = |spec: &IndexSpec| {
            let table = db.table(&spec.table).expect("index on missing table");
            let width = BTreeIndex::entry_width(table.schema(), &spec.columns);
            BTreeIndex::pages_for(width, table.n_rows() as u64)
        };
        self.indexes.iter().map(pages).sum()
    }

    /// Deduplicate indexes and drop those subsumed by a wider index with
    /// the same prefix.
    pub fn normalize(&mut self) {
        self.indexes.sort();
        self.indexes.dedup();
        let all = self.indexes.clone();
        self.indexes
            .retain(|i| !all.iter().any(|j| j != i && j.subsumes(i)));
    }
}

/// Build-cost and size summary for one built configuration (Table 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildReport {
    /// Pages written while building indexes and materializing views.
    pub pages_written: u64,
    /// Pages occupied by the configuration's auxiliary structures
    /// (indexes + view heaps + view indexes), excluding base heaps.
    pub aux_pages: u64,
}

impl BuildReport {
    /// Auxiliary size in bytes.
    pub fn aux_bytes(&self) -> u64 {
        self.aux_pages * PAGE_SIZE as u64
    }

    /// Account for one built (or shared) index.
    fn add_index(&mut self, (idx, cost): (Arc<BTreeIndex>, u64)) -> Arc<BTreeIndex> {
        self.pages_written += cost;
        self.aux_pages += idx.n_pages();
        idx
    }
}

/// A configuration physically built against a database.
///
/// Cloning shares every index and every view's contents with the
/// original; [`BuiltConfiguration::apply_insert`] copies an index the
/// first time a clone writes to it. The concurrent engine's write path
/// clones every built configuration of a generation alongside the
/// database, maintains the clones, and publishes them together — so a
/// snapshot's indexes always match its heaps, and the next generation
/// copies only the indexes on the inserted table.
#[derive(Debug, Clone)]
pub struct BuiltConfiguration {
    /// The declarative description.
    pub config: Configuration,
    /// Built base-table indexes.
    pub indexes: Vec<Arc<BTreeIndex>>,
    /// Built views, each with its indexes.
    pub mviews: Vec<(MaterializedView, Vec<Arc<BTreeIndex>>)>,
    /// Build cost and size.
    pub report: BuildReport,
    /// Per-table index positions for fast maintenance lookups.
    by_table: BTreeMap<String, Vec<usize>>,
}

impl BuiltConfiguration {
    /// Build `config` against `db` on the calling thread.
    ///
    /// # Panics
    /// Panics if a spec references a missing table or column — configs
    /// are produced by in-repo advisors against the same database.
    pub fn build(config: Configuration, db: &Database) -> Self {
        Self::build_par(config, db, Parallelism::sequential(), &[])
    }

    /// [`BuiltConfiguration::build`] with the independent pieces — each
    /// base-table index, each view with its indexes — built on up to
    /// `par` threads. Pieces are collected in spec order and costs are
    /// integer sums, so the result is identical at any thread count.
    ///
    /// `reuse`: configurations whose base-table indexes this one may
    /// share. A spec one of them already holds is not built again: its
    /// `Arc<BTreeIndex>` is cloned and charged what a fresh build costs,
    /// so the [`BuildReport`] is the same as without `reuse`. Sound only
    /// when every configuration in `reuse` was built over this same `db`
    /// and neither has been written since; [`Self::apply_insert`] copies
    /// a shared index before changing it.
    pub fn build_par(
        config: Configuration,
        db: &Database,
        par: Parallelism,
        reuse: &[&BuiltConfiguration],
    ) -> Self {
        let table = |name: &str, what: &str| {
            db.table(name)
                .unwrap_or_else(|| panic!("{what} on missing table `{name}`"))
        };
        let built = par_map(par, &config.indexes, |spec| {
            let table = table(&spec.table, "index");
            let mut shared = reuse.iter().flat_map(|b| &b.indexes);
            match shared.find(|i| i.spec() == spec) {
                Some(idx) => (Arc::clone(idx), idx.build_pages(table)),
                None => {
                    let (idx, cost) = BTreeIndex::build(spec.clone(), table);
                    (Arc::new(idx), cost)
                }
            }
        });
        let views = par_map(par, &config.mviews, |def| {
            let bases: Vec<_> = def.spec.base.iter().map(|n| table(n, "mview")).collect();
            let (mv, cost) = MaterializedView::materialize(def.spec.clone(), &bases);
            let indexes: Vec<_> = def
                .indexes
                .iter()
                .map(|cols| {
                    let (idx, cost) = mv.build_index(cols.clone());
                    (Arc::new(idx), cost)
                })
                .collect();
            (mv, cost, indexes)
        });
        let mut report = BuildReport::default();
        let indexes = built.into_iter().map(|b| report.add_index(b)).collect();
        let mviews = views
            .into_iter()
            .map(|(mv, cost, mv_indexes)| {
                report.pages_written += cost;
                report.aux_pages += mv.table.n_pages();
                let mv_indexes = mv_indexes.into_iter().map(|b| report.add_index(b));
                (mv, mv_indexes.collect())
            })
            .collect();
        let mut by_table: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, spec) in config.indexes.iter().enumerate() {
            by_table.entry(spec.table.clone()).or_default().push(i);
        }
        BuiltConfiguration {
            config,
            indexes,
            mviews,
            report,
            by_table,
        }
    }

    /// Indexes defined over a given base table or view name.
    pub fn indexes_on<'a>(&'a self, table: &str) -> impl Iterator<Item = &'a BTreeIndex> {
        let table = table.to_string();
        let base = self
            .by_table
            .get(&table)
            .into_iter()
            .flatten()
            .map(|&i| &*self.indexes[i]);
        let views = self
            .mviews
            .iter()
            .filter(move |(mv, _)| mv.spec.name == table)
            .flat_map(|(_, idxs)| idxs.iter().map(Arc::as_ref));
        base.chain(views)
    }

    /// Non-stale materialized views.
    pub fn fresh_mviews(&self) -> impl Iterator<Item = &(MaterializedView, Vec<Arc<BTreeIndex>>)> {
        self.mviews.iter().filter(|(mv, _)| !mv.stale)
    }

    /// Apply an insertion into base table `table` (already appended to the
    /// heap as row id `id`), maintaining base-table indexes and marking
    /// dependent views stale.
    ///
    /// Returns the maintenance cost in pages: one amortized heap write
    /// plus a tree descent and leaf write per index on the table, plus a
    /// modeled delta-join charge per dependent view — the cost structure
    /// behind §4.4's "it takes longer to insert tuples in 1C than in the
    /// recommended configuration".
    pub fn apply_insert(&mut self, table: &str, row: &[Value], id: RowId) -> u64 {
        let mut pages = 1; // heap page write (worst-case, uncached)
        if let Some(positions) = self.by_table.get(table) {
            for &p in positions {
                pages += Arc::make_mut(&mut self.indexes[p]).insert(row, id);
            }
        }
        for (mv, _) in &mut self.mviews {
            if mv.spec.base.iter().any(|b| b == table) {
                // Delta maintenance: probe the other side + write the view.
                pages += 3;
                mv.stale = true;
            }
        }
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};
    use crate::table::Table;

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Int),
            ],
        ));
        for i in 0..1000 {
            t.insert(vec![Value::Int(i % 7), Value::Int(i)]);
        }
        let mut u = Table::new(TableSchema::new(
            "u",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("c", ColType::Str),
            ],
        ));
        for i in 0..100 {
            u.insert(vec![Value::Int(i % 7), Value::str(format!("u{i}"))]);
        }
        db.add_table(t);
        db.add_table(u);
        db
    }

    #[test]
    fn build_reports_size_and_cost() {
        let db = db();
        let mut cfg = Configuration::named("test");
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        cfg.indexes.push(IndexSpec::new("t", vec![0, 1]));
        let built = BuiltConfiguration::build(cfg, &db);
        assert_eq!(built.indexes.len(), 2);
        assert!(built.report.aux_pages >= 2);
        assert!(built.report.pages_written >= built.report.aux_pages);
        assert_eq!(built.indexes_on("t").count(), 2);
        assert_eq!(built.indexes_on("u").count(), 0);
    }

    #[test]
    fn build_with_mview_and_mv_index() {
        let db = db();
        let mut cfg = Configuration::named("mv");
        cfg.mviews.push(MViewDef {
            spec: MViewSpec::join_of("v", "t", "u", vec![(0, 0)], vec![(0, 1), (1, 1)]),
            indexes: vec![vec![0]],
        });
        let built = BuiltConfiguration::build(cfg, &db);
        assert_eq!(built.mviews.len(), 1);
        assert!(built.mviews[0].0.table.n_rows() > 0);
        assert_eq!(built.indexes_on("v").count(), 1);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let db = db();
        let mut cfg = Configuration::named("par");
        for cols in [vec![0], vec![1], vec![0, 1]] {
            cfg.indexes.push(IndexSpec::new("t", cols));
        }
        cfg.indexes.push(IndexSpec::new("u", vec![1]));
        cfg.mviews.push(MViewDef {
            spec: MViewSpec::join_of("v", "t", "u", vec![(0, 0)], vec![(0, 1), (1, 1)]),
            indexes: vec![vec![0], vec![1, 0]],
        });
        let groups = |i: &BTreeIndex| format!("{:?} {:?}", i.spec(), i.scan().collect::<Vec<_>>());
        let all = |b: &BuiltConfiguration| -> Vec<String> {
            let views = b.mviews.iter().flat_map(|(_, idxs)| idxs);
            b.indexes.iter().chain(views).map(|i| groups(i)).collect()
        };
        let seq = BuiltConfiguration::build(cfg.clone(), &db);
        for threads in [2, 8] {
            let par =
                BuiltConfiguration::build_par(cfg.clone(), &db, Parallelism::new(threads), &[]);
            assert_eq!(par.report.pages_written, seq.report.pages_written);
            assert_eq!(par.report.aux_pages, seq.report.aux_pages);
            assert_eq!(all(&par), all(&seq), "threads={threads}");
            assert_eq!(par.indexes_on("t").count(), 3);
            assert_eq!(par.indexes_on("v").count(), 2);
        }
    }

    #[test]
    fn reused_indexes_are_shared_and_charged_as_fresh_builds() {
        let db = db();
        let with = |name: &str, specs: &[(&str, &[usize])]| {
            let mut cfg = Configuration::named(name);
            let specs = specs.iter().map(|(t, c)| IndexSpec::new(*t, c.to_vec()));
            cfg.indexes.extend(specs);
            cfg
        };
        let seq = Parallelism::sequential();
        let p = BuiltConfiguration::build(with("p", &[("t", &[0])]), &db);
        let c1_cfg = with("1c", &[("t", &[0]), ("t", &[1]), ("u", &[0]), ("u", &[1])]);
        let c1 = BuiltConfiguration::build_par(c1_cfg, &db, seq, &[&p]);
        let mut r_cfg = with(
            "r",
            &[("t", &[1]), ("t", &[0, 1]), ("u", &[1]), ("t", &[0])],
        );
        r_cfg.mviews.push(MViewDef {
            spec: MViewSpec::join_of("v", "t", "u", vec![(0, 0)], vec![(0, 1), (1, 1)]),
            indexes: vec![vec![0]],
        });
        let fresh = BuiltConfiguration::build_par(r_cfg.clone(), &db, seq, &[]);
        let mut shared = BuiltConfiguration::build_par(r_cfg, &db, Parallelism::new(2), &[&p, &c1]);

        assert_eq!(shared.report.pages_written, fresh.report.pages_written);
        assert_eq!(shared.report.aux_pages, fresh.report.aux_pages);
        let entries = |i: &BTreeIndex| format!("{:?}", i.scan().collect::<Vec<_>>());
        for (a, b) in shared.indexes.iter().zip(&fresh.indexes) {
            assert_eq!(a.spec(), b.spec());
            assert_eq!(entries(a), entries(b), "{}", a.spec());
            assert_eq!(a.clustering(), b.clustering(), "{}", a.spec());
            let in_1c = c1.indexes.iter().find(|i| i.spec() == a.spec());
            match in_1c {
                Some(i) => assert!(Arc::ptr_eq(a, i), "{} was built again", a.spec()),
                None => assert!(Arc::strong_count(a) == 1, "{} is not 1C's", a.spec()),
            }
        }

        // Writing R copies what it shares: 1C's index on `t` keeps its
        // entries.
        let before = entries(&c1.indexes[0]);
        shared.apply_insert("t", &[Value::Int(3), Value::Int(9999)], 1000);
        assert_eq!(entries(&c1.indexes[0]), before);
        assert!(!Arc::ptr_eq(&shared.indexes[3], &c1.indexes[0]));
        assert!(shared.indexes[3]
            .probe(&[Value::Int(3)])
            .row_ids
            .contains(&1000));
    }

    #[test]
    fn insert_maintenance_costs_scale_with_index_count() {
        let db = db();
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let mut cfg = Configuration::named("1c");
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        cfg.indexes.push(IndexSpec::new("t", vec![1]));
        let mut onec = BuiltConfiguration::build(cfg, &db);
        let mut p = p;
        let row = vec![Value::Int(3), Value::Int(9999)];
        let cost_p = p.apply_insert("t", &row, 1000);
        let cost_1c = onec.apply_insert("t", &row, 1000);
        assert!(cost_1c > cost_p, "indexed config must pay more per insert");
        // Index actually reflects the insert.
        assert!(onec.indexes[1]
            .probe(&[Value::Int(9999)])
            .row_ids
            .contains(&1000));
    }

    #[test]
    fn insert_marks_dependent_view_stale() {
        let db = db();
        let mut cfg = Configuration::named("mv");
        cfg.mviews.push(MViewDef {
            spec: MViewSpec::projection_of("v", "t", vec![0]),
            indexes: vec![],
        });
        let mut built = BuiltConfiguration::build(cfg, &db);
        assert_eq!(built.fresh_mviews().count(), 1);
        built.apply_insert("t", &[Value::Int(1), Value::Int(2)], 1000);
        assert_eq!(built.fresh_mviews().count(), 0);
    }

    #[test]
    fn normalize_removes_subsumed() {
        let mut cfg = Configuration::named("n");
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        cfg.indexes.push(IndexSpec::new("t", vec![0, 1]));
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        cfg.indexes.push(IndexSpec::new("t", vec![1]));
        cfg.normalize();
        assert_eq!(cfg.indexes.len(), 2);
        assert!(cfg.indexes.contains(&IndexSpec::new("t", vec![0, 1])));
        assert!(cfg.indexes.contains(&IndexSpec::new("t", vec![1])));
    }
}
