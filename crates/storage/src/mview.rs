//! Materialized views: precomputed join projections over base tables.
//!
//! The paper's System C recommends "materialized views over joins of
//! base tables" with indexes defined on them (Table 3). We support the
//! shape those recommendations take: a view over one base table or over
//! an equi-join of two base tables, projecting a subset of columns. The
//! optimizer in `tab-engine` rewrites a query to scan the view when the
//! view's join is a subgraph of the query's join graph and every column
//! the query needs from the covered tables is projected.

use crate::column::{key_tuple, RowBuckets};
use crate::index::{BTreeIndex, IndexSpec};
use crate::schema::{ColumnDef, TableSchema};
use crate::stats::TableStats;
use crate::table::{RowId, Table};
use std::sync::Arc;

/// Definition of a materialized view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MViewSpec {
    /// View name, unique within a configuration.
    pub name: String,
    /// Base table names: one entry (projection view) or two (join view).
    pub base: Vec<String>,
    /// For a two-table view, the equi-join column pairs
    /// `(base[0].l, base[1].r)`; empty for a single-table view.
    pub join_on: Vec<(usize, usize)>,
    /// Projected columns as `(base_table_position, column_position)`.
    pub projection: Vec<(usize, usize)>,
}

impl MViewSpec {
    /// A single-table projection view.
    pub fn projection_of(name: impl Into<String>, table: &str, cols: Vec<usize>) -> Self {
        MViewSpec {
            name: name.into(),
            base: vec![table.to_string()],
            join_on: Vec::new(),
            projection: cols.into_iter().map(|c| (0, c)).collect(),
        }
    }

    /// A two-table equi-join view.
    pub fn join_of(
        name: impl Into<String>,
        left: &str,
        right: &str,
        on: Vec<(usize, usize)>,
        projection: Vec<(usize, usize)>,
    ) -> Self {
        assert!(!on.is_empty(), "join view needs at least one column pair");
        MViewSpec {
            name: name.into(),
            base: vec![left.to_string(), right.to_string()],
            join_on: on,
            projection,
        }
    }

    /// Name of the view column for projected `(table_pos, col)`.
    pub(crate) fn column_name(&self, base_schemas: &[&TableSchema], t: usize, c: usize) -> String {
        format!("{}_{}", self.base[t], base_schemas[t].columns[c].name)
    }

    /// Position within the view of base column `(t, c)`, if projected.
    pub fn view_column_of(&self, t: usize, c: usize) -> Option<usize> {
        self.projection
            .iter()
            .position(|&(pt, pc)| pt == t && pc == c)
    }
}

/// A materialized view: its spec, materialized rows, and statistics.
///
/// The contents are never written after materialization (a base-table
/// insert only sets [`MaterializedView::stale`]), so clones share them.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// The defining spec.
    pub spec: MViewSpec,
    /// Materialized contents.
    pub table: Arc<Table>,
    /// Statistics over the materialized contents.
    pub stats: Arc<TableStats>,
    /// Set when base tables changed after materialization; a stale view
    /// is skipped by the optimizer.
    pub stale: bool,
}

impl MaterializedView {
    /// Materialize the view against current base-table contents.
    ///
    /// Returns the view and its build cost in pages (base scans + hash
    /// join work + writing the view heap).
    pub fn materialize(spec: MViewSpec, bases: &[&Table]) -> (Self, u64) {
        assert_eq!(spec.base.len(), bases.len(), "base table count mismatch");
        let schemas: Vec<&TableSchema> = bases.iter().map(|t| t.schema()).collect();
        let columns: Vec<ColumnDef> = spec
            .projection
            .iter()
            .map(|&(t, c)| {
                let mut def = schemas[t].columns[c].clone();
                def.name = spec.column_name(&schemas, t, c);
                def
            })
            .collect();
        let mut cost = bases.iter().map(|t| t.n_pages()).sum::<u64>();
        // The base row ids behind each view row, left-major in heap order;
        // the view's columns are then gathered from the bases', typed
        // cells and dictionary codes copied as they are.
        let mut ids: [Vec<RowId>; 2] = [(0..bases[0].n_rows() as RowId).collect(), Vec::new()];
        if !spec.join_on.is_empty() {
            // Hash the right side on its join columns.
            let on = |side: usize, c: usize| bases[side].column(c);
            let right: Vec<_> = spec.join_on.iter().map(|&(_, r)| on(1, r)).collect();
            let ht = RowBuckets::build(&right, 0..bases[1].n_rows() as RowId);
            let mut key = Vec::with_capacity(right.len());
            let mut matches: [Vec<RowId>; 2] = Default::default();
            for &lid in &ids[0] {
                let cells = spec.join_on.iter().zip(&right);
                if key_tuple(
                    &mut key,
                    cells.map(|(&(l, _), r)| r.key_from(on(0, l), lid)),
                ) {
                    for &rid in ht.get(&key) {
                        matches[0].push(lid);
                        matches[1].push(rid);
                    }
                }
            }
            ids = matches;
        }
        let gathered = spec.projection.iter();
        let gathered = gathered.map(|&(t, c)| bases[t].column(c).gather(&ids[t]));
        let schema = TableSchema::new(spec.name.clone(), columns);
        let out = Table::from_columns(schema, gathered.collect(), ids[0].len());
        cost += out.n_pages();
        let stats = TableStats::collect(&out);
        (
            MaterializedView {
                spec,
                table: Arc::new(out),
                stats: Arc::new(stats),
                stale: false,
            },
            cost,
        )
    }

    /// Build an index over the view's columns.
    pub(crate) fn build_index(&self, columns: Vec<usize>) -> (BTreeIndex, u64) {
        BTreeIndex::build(IndexSpec::new(self.spec.name.clone(), columns), &self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef};
    use crate::value::Value;

    fn bases() -> (Table, Table) {
        let mut l = Table::new(TableSchema::new(
            "l",
            vec![
                ColumnDef::new("k", ColType::Int),
                ColumnDef::new("x", ColType::Int),
            ],
        ));
        let mut r = Table::new(TableSchema::new(
            "r",
            vec![
                ColumnDef::new("k", ColType::Int),
                ColumnDef::new("y", ColType::Str),
            ],
        ));
        for i in 0..10 {
            l.insert(vec![Value::Int(i), Value::Int(i * 10)]);
        }
        for i in 0..5 {
            r.insert(vec![Value::Int(i), Value::str(format!("r{i}"))]);
            r.insert(vec![Value::Int(i), Value::str(format!("r{i}b"))]);
        }
        (l, r)
    }

    #[test]
    fn join_view_materializes_matches() {
        let (l, r) = bases();
        let spec = MViewSpec::join_of("v", "l", "r", vec![(0, 0)], vec![(0, 1), (1, 1)]);
        let (mv, cost) = MaterializedView::materialize(spec, &[&l, &r]);
        // Keys 0..5 match, each with 2 right rows -> 10 rows.
        assert_eq!(mv.table.n_rows(), 10);
        assert!(cost >= 3);
        assert_eq!(mv.table.schema().columns[0].name, "l_x");
        assert_eq!(mv.table.schema().columns[1].name, "r_y");
    }

    #[test]
    fn projection_view_keeps_all_rows() {
        let (l, _) = bases();
        let spec = MViewSpec::projection_of("v", "l", vec![1]);
        let (mv, _) = MaterializedView::materialize(spec, &[&l]);
        assert_eq!(mv.table.n_rows(), 10);
        assert_eq!(mv.table.schema().columns.len(), 1);
    }

    #[test]
    fn view_column_lookup() {
        let spec = MViewSpec::join_of("v", "l", "r", vec![(0, 0)], vec![(0, 1), (1, 1)]);
        assert_eq!(spec.view_column_of(0, 1), Some(0));
        assert_eq!(spec.view_column_of(1, 1), Some(1));
        assert_eq!(spec.view_column_of(0, 0), None);
    }

    #[test]
    fn index_on_view() {
        let (l, r) = bases();
        let spec = MViewSpec::join_of("v", "l", "r", vec![(0, 0)], vec![(0, 0), (1, 1)]);
        let (mv, _) = MaterializedView::materialize(spec, &[&l, &r]);
        let (idx, _) = mv.build_index(vec![0]);
        assert_eq!(idx.probe(&[Value::Int(3)]).row_ids.len(), 2);
    }
}
