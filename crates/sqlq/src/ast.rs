//! AST for the SQL fragment the benchmark uses.
//!
//! The paper restricts workloads to "simple select-project-join SQL
//! queries defining simple aggregate functions and with at most one
//! level of nesting, and defining only equality predicates" (§3.2.2).
//! The AST mirrors exactly that fragment:
//!
//! - select list: plain columns, `COUNT(*)`, `COUNT(DISTINCT col)`;
//! - `FROM` with table aliases (self-joins need two aliases of one table);
//! - conjunctive `WHERE` with column–column equality, column–constant
//!   equality, and the one nested form the families use:
//!   `col IN (SELECT c FROM T GROUP BY c HAVING COUNT(*) {<|=} k)`;
//! - `GROUP BY` over plain columns.

use std::fmt;

use tab_storage::Value;

/// A column reference qualified by a table alias, e.g. `r1.taxon_id`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    /// Table alias from the `FROM` clause.
    pub alias: String,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Construct from alias and column name.
    pub fn new(alias: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef {
            alias: alias.into(),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.alias, self.column)
    }
}

/// One item in the select list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelectItem {
    /// A plain (grouped) column.
    Column(ColRef),
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(DISTINCT col)`.
    CountDistinct(ColRef),
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::CountStar => write!(f, "COUNT(*)"),
            SelectItem::CountDistinct(c) => write!(f, "COUNT(DISTINCT {c})"),
        }
    }
}

/// A `FROM`-clause entry: base table with alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Base table name.
    pub table: String,
    /// Alias used in column references.
    pub alias: String,
}

impl TableRef {
    /// Construct from table name and alias.
    pub fn new(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: alias.into(),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.table == self.alias {
            write!(f, "{}", self.table)
        } else {
            write!(f, "{} {}", self.table, self.alias)
        }
    }
}

/// Comparison operator allowed in the nested `HAVING COUNT(*)` filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `=`
    Eq,
}

/// Inequality operator for range predicates on constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl RangeOp {
    /// Whether `left op right` holds under the value ordering.
    pub fn eval(&self, left: &tab_storage::Value, right: &tab_storage::Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        match self {
            RangeOp::Lt => left < right,
            RangeOp::Le => left <= right,
            RangeOp::Gt => left > right,
            RangeOp::Ge => left >= right,
        }
    }
}

impl fmt::Display for RangeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeOp::Lt => write!(f, "<"),
            RangeOp::Le => write!(f, "<="),
            RangeOp::Gt => write!(f, ">"),
            RangeOp::Ge => write!(f, ">="),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Lt => write!(f, "<"),
            CmpOp::Eq => write!(f, "="),
        }
    }
}

/// One conjunct of the `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `a.x = b.y` — an equi-join (or self-join) predicate.
    JoinEq(ColRef, ColRef),
    /// `a.x = <constant>` — a selection predicate.
    ConstEq(ColRef, Value),
    /// `a.x {< <= > >=} <constant>` — a range predicate.
    ConstRange(ColRef, RangeOp, Value),
    /// `a.x IN (SELECT c FROM T GROUP BY c HAVING COUNT(*) op k)` —
    /// the frequency filter the NREF2J and SkTH3J templates use to bound
    /// intermediate join sizes.
    InFrequency {
        /// The filtered outer column.
        col: ColRef,
        /// Table named in the subquery.
        sub_table: String,
        /// Column grouped in the subquery.
        sub_column: String,
        /// Comparison against the group count.
        op: CmpOp,
        /// The count bound.
        k: i64,
    },
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::JoinEq(a, b) => write!(f, "{a} = {b}"),
            Predicate::ConstEq(c, v) => write!(f, "{c} = {v}"),
            Predicate::ConstRange(c, op, v) => write!(f, "{c} {op} {v}"),
            Predicate::InFrequency {
                col,
                sub_table,
                sub_column,
                op,
                k,
            } => write!(
                f,
                "{col} IN (SELECT {sub_column} FROM {sub_table} GROUP BY {sub_column} HAVING COUNT(*) {op} {k})"
            ),
        }
    }
}

/// A query in the benchmark fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Select list (non-empty).
    pub select: Vec<SelectItem>,
    /// From clause (non-empty).
    pub from: Vec<TableRef>,
    /// Conjunctive where clause (possibly empty).
    pub predicates: Vec<Predicate>,
    /// Group-by columns (possibly empty).
    pub group_by: Vec<ColRef>,
    /// Order-by items: `(selected column, descending)`. Ties are broken
    /// by the full result row, so ordering is total and deterministic.
    pub order_by: Vec<(ColRef, bool)>,
    /// Row limit applied after ordering.
    pub limit: Option<u64>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, s) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, " FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        if !self.predicates.is_empty() {
            write!(f, " WHERE ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{p}")?;
            }
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, (c, desc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
                if *desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Query {
        Query {
            select: vec![
                SelectItem::Column(ColRef::new("t", "lineage")),
                SelectItem::CountDistinct(ColRef::new("t2", "nref_id")),
            ],
            from: vec![
                TableRef::new("source", "s"),
                TableRef::new("taxonomy", "t"),
                TableRef::new("taxonomy", "t2"),
            ],
            predicates: vec![
                Predicate::JoinEq(ColRef::new("t", "nref_id"), ColRef::new("s", "nref_id")),
                Predicate::JoinEq(ColRef::new("t", "lineage"), ColRef::new("t2", "lineage")),
                Predicate::ConstEq(ColRef::new("s", "p_name"), Value::str("Simian Virus 40")),
            ],
            group_by: vec![ColRef::new("t", "lineage")],
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn renders_example_1() {
        let q = sample();
        let sql = q.to_string();
        assert!(sql.starts_with("SELECT t.lineage, COUNT(DISTINCT t2.nref_id) FROM"));
        assert!(sql.contains("s.p_name = 'Simian Virus 40'"));
        assert!(sql.ends_with("GROUP BY t.lineage"));
    }

    #[test]
    fn in_frequency_renders() {
        let p = Predicate::InFrequency {
            col: ColRef::new("r", "c1"),
            sub_table: "r_base".into(),
            sub_column: "c1".into(),
            op: CmpOp::Lt,
            k: 4,
        };
        assert_eq!(
            p.to_string(),
            "r.c1 IN (SELECT c1 FROM r_base GROUP BY c1 HAVING COUNT(*) < 4)"
        );
    }
}

/// An `INSERT INTO t VALUES (...)` statement — the update-workload
/// extension §4.4 calls "a valuable extension to the current benchmark".
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target base table.
    pub table: String,
    /// One value per column, in schema order.
    pub values: Vec<Value>,
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {} VALUES (", self.table)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A statement: a query or an insert.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A retrieval query.
    Query(Query),
    /// A single-row insertion.
    Insert(Insert),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Insert(i) => write!(f, "{i}"),
        }
    }
}
