//! Heap tables: an append-only column store with page accounting.
//!
//! Cells live in memory, one typed [`Column`] per schema column, but
//! every table carries a *page model* — a fixed page size divided by the
//! schema's nominal row width — so the executor and optimizer can charge
//! I/O-shaped costs exactly as a disk-resident 2005 system would. The
//! paper's elapsed times are dominated by pages touched; the page model
//! is what lets cost units stand in for seconds (see DESIGN.md §1).
//!
//! Rows are an adapter over the columns: [`Table::insert`] takes one
//! apart, [`Table::row`] and [`Table::iter`] put one together.

use std::sync::Arc;

use crate::column::Column;
use crate::schema::TableSchema;
use crate::value::Value;

/// Nominal page size in bytes for the I/O cost model.
pub const PAGE_SIZE: u32 = 8192;

/// A materialized row: one value per schema column.
pub type Row = Box<[Value]>;

/// Identifier of a row within its table (heap position).
pub type RowId = u32;

/// An append-only heap table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<TableSchema>,
    columns: Vec<Column>,
    n_rows: usize,
    rows_per_page: u32,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema.columns.iter().map(|c| Column::new(c.ty)).collect();
        Self::from_columns(schema, columns, 0)
    }

    /// A table over already-built columns of `n_rows` cells each.
    pub(crate) fn from_columns(schema: TableSchema, columns: Vec<Column>, n_rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == n_rows));
        let rows_per_page = (PAGE_SIZE / schema.row_width()).max(1);
        Table {
            schema: Arc::new(schema),
            columns,
            n_rows,
            rows_per_page,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity does not match the schema, or if a cell is
    /// neither NULL nor of its column's type (the panic names the cell
    /// and the type). Rows come from in-repo generators or through
    /// `engine::dml::validate_insert`, so either is a programming error.
    pub fn insert(&mut self, row: impl Into<Row>) -> RowId {
        let row = row.into();
        assert_eq!(
            row.len(),
            self.schema.columns.len(),
            "row arity mismatch for table `{}`",
            self.schema.name
        );
        let id = self.n_rows as RowId;
        for (col, v) in self.columns.iter_mut().zip(row.into_vec()) {
            col.push(v);
        }
        self.n_rows += 1;
        id
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Heap size in pages under the page model.
    pub fn n_pages(&self) -> u64 {
        (self.n_rows as u64)
            .div_ceil(self.rows_per_page as u64)
            .max(1)
    }

    /// Rows that fit in one page for this schema.
    pub(crate) fn rows_per_page(&self) -> u32 {
        self.rows_per_page
    }

    /// Nominal byte size of the heap.
    pub(crate) fn n_bytes(&self) -> u64 {
        self.n_pages() * PAGE_SIZE as u64
    }

    /// Materialize a row by id.
    pub fn row(&self, id: RowId) -> Row {
        self.columns.iter().map(|c| c.value(id)).collect()
    }

    /// A single cell, by value, without materializing the row.
    ///
    /// Intermediate tuples of the late-materialization executor hold
    /// `RowId`s only; values are fetched through here at predicate and
    /// projection time, and keys through [`Table::column`].
    #[inline]
    pub fn value(&self, id: RowId, col: usize) -> Value {
        self.columns[col].value(id)
    }

    /// The typed column at schema position `col`.
    #[inline]
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// Each distinct non-NULL value of column `col`, in first-seen
    /// order, as `(first row holding it, number of rows holding it)`:
    /// the one value-count routine behind statistics, template constants
    /// and frequency filters.
    pub fn value_counts(&self, col: usize) -> Vec<(RowId, u64)> {
        self.columns[col].value_counts()
    }

    /// Iterate over `(RowId, Row)` in heap order, materializing each row.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        (0..self.n_rows as RowId).map(|id| (id, self.row(id)))
    }

    /// Heap page number holding a given row.
    pub fn page_of(&self, id: RowId) -> u64 {
        id as u64 / self.rows_per_page as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef};

    fn two_col() -> Table {
        Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Str),
            ],
        ))
    }

    #[test]
    fn insert_and_fetch() {
        let mut t = two_col();
        let id = t.insert(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.row(id)[0], Value::Int(1));
    }

    #[test]
    fn page_model_counts_pages() {
        let mut t = two_col();
        // row width = 8 (header) + 8 + 24 = 40 bytes -> 204 rows/page.
        assert_eq!(t.rows_per_page(), 8192 / 40);
        for i in 0..500 {
            t.insert(vec![Value::Int(i), Value::str("v")]);
        }
        assert_eq!(t.n_pages(), (500u64).div_ceil(204));
    }

    #[test]
    fn empty_table_occupies_one_page() {
        let t = two_col();
        assert_eq!(t.n_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        two_col().insert(vec![Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "cell 'x' does not fit a column of type INT")]
    fn off_type_cell_panics() {
        two_col().insert(vec![Value::str("x"), Value::str("x")]);
    }

    #[test]
    fn page_of_is_monotone() {
        let mut t = two_col();
        for i in 0..1000 {
            t.insert(vec![Value::Int(i), Value::str("v")]);
        }
        assert_eq!(t.page_of(0), 0);
        assert!(t.page_of(999) >= t.page_of(0));
        assert_eq!(t.page_of(203), 0);
        assert_eq!(t.page_of(204), 1);
    }
}

/// The column store against the representation it replaced: a
/// `Vec<Vec<Value>>`, one inner vector per row. Seeded, so a failure
/// names its trial.
///
/// Hand mutants of `column.rs`, each failing this test: the NULL mask
/// read one bit off (`get(i + 1)`); the string dictionary looked up by
/// `Arc` pointer instead of content.
#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    const TYPES: [ColType; 2] = [ColType::Int, ColType::Str];

    /// One cell for a column declared `ty`: NULLs, duplicates and the
    /// edge values of the type.
    fn cell(rng: &mut StdRng, ty: ColType) -> Value {
        const BIG: i64 = (1 << 53) + 1;
        let ints = [0, 1, 2, 3, BIG, BIG - 1, -BIG, i64::MAX, i64::MIN];
        if rng.random_range(0..9) == 8 {
            return Value::Null;
        }
        match ty {
            ColType::Int => Value::Int(ints[rng.random_range(0..ints.len())]),
            // A fresh allocation every time, six contents in all.
            ColType::Str => Value::str(format!("s{}", rng.random_range(0..6))),
        }
    }

    fn check(table: &Table, model: &[Vec<Value>], ctx: &str) {
        assert_eq!(table.n_rows(), model.len(), "{ctx}");
        let per_page = (PAGE_SIZE / table.schema().row_width()) as usize;
        let pages = model.len().div_ceil(per_page).max(1);
        assert_eq!(table.n_pages(), pages as u64, "{ctx}");
        let rows: Vec<(RowId, Row)> = table.iter().collect();
        assert_eq!(rows.len(), model.len(), "{ctx}");
        for (i, want) in model.iter().enumerate() {
            let id = i as RowId;
            assert_eq!(rows[i].0, id, "{ctx}");
            assert_eq!(*rows[i].1, want[..], "{ctx}: iter row {i}");
            assert_eq!(*table.row(id), want[..], "{ctx}: row {i}");
            for (c, v) in want.iter().enumerate() {
                assert_eq!(table.value(id, c), *v, "{ctx}: ({i}, {c})");
                assert_eq!(
                    table.column(c).is_null(id),
                    v.is_null(),
                    "{ctx}: ({i}, {c})"
                );
            }
        }
        for c in 0..TYPES.len() {
            let col = table.column(c);
            // Equal key ⇔ equal value, over every pair of rows.
            for (i, a) in model.iter().enumerate() {
                assert_eq!(col.key(i as RowId).is_none(), a[c].is_null(), "{ctx}");
                assert_eq!(
                    col.key_of(&a[c]),
                    col.key(i as RowId),
                    "{ctx}: key_of ({i}, {c})"
                );
                for (j, b) in model.iter().enumerate().skip(i) {
                    assert_eq!(
                        col.key(i as RowId) == col.key(j as RowId),
                        a[c] == b[c],
                        "{ctx}: column {c}, rows {i} ({:?}) and {j} ({:?})",
                        a[c],
                        b[c]
                    );
                }
            }
            // Value counts against a `HashMap`, in first-seen order.
            let mut slot_of: HashMap<Value, usize> = HashMap::new();
            let mut want: Vec<(RowId, u64)> = Vec::new();
            for (i, row) in model.iter().enumerate().filter(|(_, r)| !r[c].is_null()) {
                let slot = *slot_of.entry(row[c].clone()).or_insert(want.len());
                if slot == want.len() {
                    want.push((i as RowId, 0));
                }
                want[slot].1 += 1;
            }
            assert_eq!(table.value_counts(c), want, "{ctx}: value_counts({c})");
        }
    }

    #[test]
    fn column_store_matches_row_model() {
        for trial in 0..32u64 {
            let rng = &mut StdRng::seed_from_u64(0xC01_2005 + trial);
            // Wide columns: a few rows per page, so page counts move.
            let columns = TYPES.iter().enumerate();
            let columns = columns.map(|(c, &ty)| ColumnDef::new(format!("c{c}"), ty).width(500));
            let mut table = Table::new(TableSchema::new("t", columns.collect()));
            let mut model: Vec<Vec<Value>> = Vec::new();
            let n_rows = [0, 1, 63, 64, 65, 130, 200][trial as usize % 7];
            let row_of = |rng: &mut StdRng| -> Vec<Value> {
                TYPES.iter().map(|&ty| cell(rng, ty)).collect()
            };
            for i in 0..n_rows {
                let row = row_of(rng);
                assert_eq!(table.insert(row.clone()), i as RowId);
                model.push(row);
                if i % 50 == 49 {
                    check(
                        &table,
                        &model,
                        &format!("trial {trial} after {} rows", i + 1),
                    );
                }
            }
            let ctx = format!("trial {trial}: {n_rows} rows");
            check(&table, &model, &ctx);

            // Inserting new strings into a clone leaves the original, and
            // the dictionary it shared, as they were (snapshot isolation).
            let mut later = table.clone();
            let mut later_model = model.clone();
            for i in 0..3 {
                let mut row = row_of(rng);
                row[1] = Value::str(format!("new{i}"));
                later.insert(row.clone());
                later_model.push(row);
            }
            check(&later, &later_model, &format!("{ctx}, the clone"));
            check(&table, &model, &format!("{ctx}, after its clone grew"));
            assert_eq!(table.column(1).key_of(&Value::str("new0")), None, "{ctx}");
        }
    }
}
