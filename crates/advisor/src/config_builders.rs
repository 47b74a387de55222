//! The paper's baseline configurations.
//!
//! - `P` (§3.2): "instances in which all primary key and foreign key
//!   constraints in the relational schema are defined, and where only
//!   primary key indexes are created".
//! - `1C` (§3.2.3): "created by adding to P all possible single column
//!   indexes (i.e., one index for each indexable column in the schema)"
//!   — the reference configuration the whole paper argues for.

use tab_storage::{Configuration, Database, IndexSpec};

/// The initial configuration `P`: one index per primary key.
pub fn p_configuration(db: &Database, name: impl Into<String>) -> Configuration {
    let mut cfg = Configuration::named(name);
    for t in db.tables() {
        let pk = &t.schema().primary_key;
        if !pk.is_empty() {
            cfg.indexes
                .push(IndexSpec::new(t.schema().name.clone(), pk.clone()));
        }
    }
    cfg.normalize();
    cfg
}

/// The reference configuration `1C`: `P` plus a single-column index on
/// every indexable column of every table.
pub fn one_column_configuration(db: &Database, name: impl Into<String>) -> Configuration {
    let mut cfg = p_configuration(db, name);
    for t in db.tables() {
        for c in t.schema().indexable_columns() {
            cfg.indexes
                .push(IndexSpec::new(t.schema().name.clone(), vec![c]));
        }
    }
    cfg.normalize();
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_storage::{ColType, ColumnDef, Table, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("a", ColType::Int),
                    ColumnDef::new("wide", ColType::Str).not_indexable(),
                ],
            )
            .primary_key(&["id"]),
        );
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::Int(i % 5), Value::str("x")]);
        }
        db.add_table(t);
        db
    }

    #[test]
    fn p_has_only_pk_indexes() {
        let cfg = p_configuration(&db(), "P");
        assert_eq!(cfg.indexes.len(), 1);
        assert_eq!(cfg.indexes[0].columns, vec![0]);
        assert!(cfg.mviews.is_empty());
    }

    #[test]
    fn one_column_covers_every_indexable_column() {
        let cfg = one_column_configuration(&db(), "1C");
        // id (pk, deduped with single-col pk index) + a; `wide` excluded.
        assert_eq!(cfg.indexes.len(), 2);
        assert!(cfg
            .indexes
            .iter()
            .all(|i| i.columns.len() == 1 && i.columns[0] < 2));
    }
}
