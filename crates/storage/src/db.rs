//! The database: named tables plus collected statistics.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::stats::TableStats;
use crate::table::Table;

/// A database instance: tables and their statistics.
///
/// Statistics are collected explicitly ([`Database::collect_stats`]),
/// mirroring the benchmark protocol: "we direct the systems to collect
/// statistics before obtaining the recommendations and before running
/// the queries" (§3.2.3).
///
/// Cloning shares every table and its statistics with the original (one
/// refcount bump each); [`Database::table_mut`] copies a table the first
/// time a clone writes to it. The concurrent engine's write path
/// ([`crate::snapshot::GenerationCell`]) relies on this: the next
/// generation copies only the table an insert touches.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
    stats: BTreeMap<String, Arc<TableStats>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a table under its schema name.
    pub fn add_table(&mut self, table: Table) {
        self.tables
            .insert(table.schema().name.clone(), Arc::new(table));
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Mutable access to a table, copying it first if a clone of this
    /// database still shares it.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// All table names in deterministic order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// All tables in deterministic order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(Arc::as_ref)
    }

    /// Collect statistics on every table, replacing any previous stats.
    pub fn collect_stats(&mut self) {
        self.stats = self
            .tables
            .iter()
            .map(|(n, t)| (n.clone(), Arc::new(TableStats::collect(t))))
            .collect();
    }

    /// Statistics for a table, if collected.
    pub fn stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(name).map(Arc::as_ref)
    }

    /// Total heap size in pages across all tables.
    pub fn heap_pages(&self) -> u64 {
        self.tables().map(Table::n_pages).sum()
    }

    /// Total heap size in bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.tables().map(Table::n_bytes).sum()
    }

    /// Verify foreign keys reference existing tables and columns.
    ///
    /// Returns the list of violations as messages (empty means valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        for t in self.tables() {
            for fk in &t.schema().foreign_keys {
                match self.tables.get(&fk.ref_table) {
                    None => errs.push(format!(
                        "{}: fk references missing table `{}`",
                        t.schema().name,
                        fk.ref_table
                    )),
                    Some(rt) => {
                        for c in &fk.ref_columns {
                            if rt.schema().column_index(c).is_none() {
                                errs.push(format!(
                                    "{}: fk references missing column `{}.{}`",
                                    t.schema().name,
                                    fk.ref_table,
                                    c
                                ));
                            }
                        }
                        if fk.columns.len() != fk.ref_columns.len() {
                            errs.push(format!(
                                "{}: fk arity mismatch to `{}`",
                                t.schema().name,
                                fk.ref_table
                            ));
                        }
                    }
                }
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        let mut parent = Table::new(TableSchema::new(
            "parent",
            vec![ColumnDef::new("id", ColType::Int)],
        ));
        parent.insert(vec![Value::Int(1)]);
        let mut child = Table::new(
            TableSchema::new(
                "child",
                vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("pid", ColType::Int),
                ],
            )
            .foreign_key(&["pid"], "parent", &["id"]),
        );
        child.insert(vec![Value::Int(10), Value::Int(1)]);
        db.add_table(parent);
        db.add_table(child);
        db
    }

    #[test]
    fn lookup_and_names() {
        let db = db();
        assert!(db.table("parent").is_some());
        assert!(db.table("nope").is_none());
        let names: Vec<&str> = db.table_names().collect();
        assert_eq!(names, vec!["child", "parent"]);
    }

    #[test]
    fn stats_available_after_collection() {
        let mut db = db();
        assert!(db.stats("parent").is_none());
        db.collect_stats();
        assert_eq!(db.stats("parent").unwrap().n_rows, 1);
    }

    #[test]
    fn validation_passes_and_fails() {
        let db = db();
        assert!(db.validate().is_empty());

        let mut bad = Database::new();
        bad.add_table(Table::new(
            TableSchema::new("x", vec![ColumnDef::new("a", ColType::Int)]).foreign_key(
                &["a"],
                "ghost",
                &["id"],
            ),
        ));
        assert_eq!(bad.validate().len(), 1);
    }

    #[test]
    fn heap_accounting() {
        let db = db();
        assert!(db.heap_pages() >= 2);
        assert_eq!(db.heap_bytes(), db.heap_pages() * 8192);
    }
}
