//! DML execution: applying insertions to a database + configuration.
//!
//! §4.4 of the paper measures how insertions shift the comparison
//! between `1C` (fast queries, slow inserts) and recommended
//! configurations (the reverse). This module executes `INSERT`
//! statements for real: the heap grows, every index on the table is
//! maintained, dependent materialized views go stale, and the
//! maintenance I/O is charged like any other work.

use tab_sqlq::Insert;
use tab_storage::{BuiltConfiguration, ColType, Database, Value};

use crate::catalog::BindError;
use crate::cost::RANDOM_PAGE_COST;

/// Result of applying one insertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertOutcome {
    /// Maintenance cost in cost units (heap write + index descents +
    /// view delta charges).
    pub units: f64,
    /// The new row's id in the heap.
    pub row_id: tab_storage::RowId,
}

fn err(msg: impl Into<String>) -> BindError {
    BindError {
        message: msg.into(),
    }
}

/// Validate an insert against the table schema (arity and types).
pub fn validate_insert(insert: &Insert, db: &Database) -> Result<(), BindError> {
    let table = db
        .table(&insert.table)
        .ok_or_else(|| err(format!("unknown table `{}`", insert.table)))?;
    let cols = &table.schema().columns;
    if insert.values.len() != cols.len() {
        return Err(err(format!(
            "table `{}` has {} columns, insert provides {}",
            insert.table,
            cols.len(),
            insert.values.len()
        )));
    }
    for (v, c) in insert.values.iter().zip(cols) {
        let ok = matches!(
            (v, c.ty),
            (Value::Null, _) | (Value::Int(_), ColType::Int) | (Value::Str(_), ColType::Str)
        );
        if !ok {
            return Err(err(format!(
                "value {v} does not fit column `{}` of type {}",
                c.name, c.ty
            )));
        }
    }
    Ok(())
}

/// Apply one insertion: append to the heap, maintain every index in the
/// configuration, and mark dependent views stale.
///
/// Statistics are *not* refreshed (matching the benchmark protocol,
/// where statistics are collected at defined points, not continuously).
pub fn apply_insert(
    insert: &Insert,
    db: &mut Database,
    built: &mut BuiltConfiguration,
) -> Result<InsertOutcome, BindError> {
    validate_insert(insert, db)?;
    let table = db.table_mut(&insert.table).expect("validated table exists");
    let row_id = table.insert(insert.values.clone());
    let pages = built.apply_insert(&insert.table, &insert.values, row_id);
    Ok(InsertOutcome {
        units: pages as f64 * RANDOM_PAGE_COST,
        row_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_sqlq::{parse, parse_statement, Statement};
    use tab_storage::{ColumnDef, Configuration, IndexSpec, Table, TableSchema};

    fn setup() -> (Database, BuiltConfiguration) {
        let mut db = Database::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Str),
            ],
        ));
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::str(format!("v{i}"))]);
        }
        db.add_table(t);
        db.collect_stats();
        let mut cfg = Configuration::named("c");
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        let built = BuiltConfiguration::build(cfg, &db);
        (db, built)
    }

    fn insert_of(sql: &str) -> Insert {
        match parse_statement(sql).unwrap() {
            Statement::Insert(i) => i,
            other => panic!("expected insert: {other:?}"),
        }
    }

    #[test]
    fn insert_is_queryable_through_the_index() {
        let (mut db, mut built) = setup();
        let out = apply_insert(
            &insert_of("INSERT INTO t VALUES (777, 'new')"),
            &mut db,
            &mut built,
        )
        .unwrap();
        assert!(out.units > 0.0);
        // Statistics still describe the old instance, but execution sees
        // the new row.
        let s = crate::Session::new(&db, &built);
        let q = parse("SELECT t.b, COUNT(*) FROM t WHERE t.a = 777 GROUP BY t.b").unwrap();
        let rows = s.run(&q, None).unwrap().rows.unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("new"));
    }

    #[test]
    fn arity_and_type_validation() {
        let (mut db, mut built) = setup();
        let wrong_arity = insert_of("INSERT INTO t VALUES (1)");
        assert!(apply_insert(&wrong_arity, &mut db, &mut built).is_err());
        let wrong_type = insert_of("INSERT INTO t VALUES ('x', 'y')");
        assert!(apply_insert(&wrong_type, &mut db, &mut built).is_err());
        // A float literal is refused by an `Int` column, even an integral
        // one: nothing coerces it.
        for sql in [
            "INSERT INTO t VALUES (1.5, 'y')",
            "INSERT INTO t VALUES (1.0, 'y')",
        ] {
            let err = apply_insert(&insert_of(sql), &mut db, &mut built).unwrap_err();
            assert!(err.message.contains("of type INT"), "{sql}: {err:?}");
        }
        assert_eq!(db.table("t").unwrap().n_rows(), 100);
        let unknown = insert_of("INSERT INTO nope VALUES (1, 'x')");
        assert!(apply_insert(&unknown, &mut db, &mut built).is_err());
        let null_ok = insert_of("INSERT INTO t VALUES (NULL, NULL)");
        assert!(apply_insert(&null_ok, &mut db, &mut built).is_ok());
    }

    #[test]
    fn indexed_config_pays_more_per_insert() {
        let (mut db, mut built) = setup();
        let mut db2 = Database::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Str),
            ],
        ));
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::str("x")]);
        }
        db2.add_table(t);
        db2.collect_stats();
        let mut p = BuiltConfiguration::build(Configuration::named("p"), &db2);
        let ins = insert_of("INSERT INTO t VALUES (1, 'z')");
        let with_index = apply_insert(&ins, &mut db, &mut built).unwrap();
        let without = apply_insert(&ins, &mut db2, &mut p).unwrap();
        assert!(with_index.units > without.units);
    }
}
