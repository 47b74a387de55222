//! Table schemas: columns, types, domains, and key constraints.
//!
//! Domains implement the paper's rule that "joins \[are allowed\] on
//! attributes in the same domain only" (§3.2.2): the query-family
//! generators consult `ColumnDef::domain` when enumerating meaningful
//! join predicates.

use std::fmt;

/// Column data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 text.
    Str,
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColType::Int => write!(f, "INT"),
            ColType::Str => write!(f, "TEXT"),
        }
    }
}

/// Definition of one column.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Data type.
    pub ty: ColType,
    /// Semantic domain label; columns sharing a domain may be joined
    /// meaningfully (e.g. all taxon-id columns across NREF tables).
    pub domain: Option<String>,
    /// Whether an index may be built on this column. Mirrors the paper's
    /// "indexable column" restriction (long free-text columns such as
    /// `Protein.sequence` are not indexable).
    pub indexable: bool,
    /// Nominal storage width in bytes, used by the page-count model.
    pub byte_width: u32,
}

impl ColumnDef {
    /// A new indexable column with a width derived from its type.
    pub fn new(name: impl Into<String>, ty: ColType) -> Self {
        let byte_width = match ty {
            ColType::Int => 8,
            ColType::Str => 24,
        };
        ColumnDef {
            name: name.into(),
            ty,
            domain: None,
            indexable: true,
            byte_width,
        }
    }

    /// Set the semantic domain (builder style).
    pub fn domain(mut self, d: impl Into<String>) -> Self {
        self.domain = Some(d.into());
        self
    }

    /// Mark the column non-indexable (builder style).
    pub fn not_indexable(mut self) -> Self {
        self.indexable = false;
        self
    }

    /// Override the nominal byte width (builder style).
    pub fn width(mut self, w: u32) -> Self {
        self.byte_width = w;
        self
    }
}

/// A foreign-key constraint from this table to another.
///
/// Referenced columns are stored by *name* so a schema can be constructed
/// before the referenced table exists; `Database::validate` resolves them.
#[derive(Debug, Clone)]
pub struct ForeignKey {
    /// Referencing column positions in this table.
    pub columns: Vec<usize>,
    /// Referenced table name.
    pub ref_table: String,
    /// Referenced column names in the referenced table.
    pub ref_columns: Vec<String>,
}

/// Schema of one table.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table name, unique within a database.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Column positions forming the primary key (possibly empty).
    pub primary_key: Vec<usize>,
    /// Foreign-key constraints.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// A new schema with no keys declared.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
            primary_key: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Declare the primary key by column names (builder style).
    ///
    /// # Panics
    /// Panics if a name does not exist in the schema — schemas are
    /// constructed statically by generators, so this is a programming
    /// error, not a runtime condition.
    pub fn primary_key(mut self, names: &[&str]) -> Self {
        self.primary_key = names.iter().map(|n| self.require_column(n)).collect();
        self
    }

    /// Declare a foreign key by column names (builder style).
    pub fn foreign_key(mut self, cols: &[&str], ref_table: &str, ref_cols: &[&str]) -> Self {
        let columns = cols.iter().map(|n| self.require_column(n)).collect();
        self.foreign_keys.push(ForeignKey {
            columns,
            ref_table: ref_table.to_string(),
            ref_columns: ref_cols.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Position of a column by name, panicking if absent.
    pub fn require_column(&self, name: &str) -> usize {
        self.column_index(name)
            .unwrap_or_else(|| panic!("no column `{name}` in table `{}`", self.name))
    }

    /// Nominal row width in bytes: column widths plus a per-row header.
    pub(crate) fn row_width(&self) -> u32 {
        8 + self.columns.iter().map(|c| c.byte_width).sum::<u32>()
    }

    /// All indexable column positions.
    pub fn indexable_columns(&self) -> Vec<usize> {
        (0..self.columns.len())
            .filter(|&i| self.columns[i].indexable)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableSchema {
        TableSchema::new(
            "protein",
            vec![
                ColumnDef::new("nref_id", ColType::Str).domain("nref_id"),
                ColumnDef::new("p_name", ColType::Str).domain("name"),
                ColumnDef::new("length", ColType::Int),
                ColumnDef::new("sequence", ColType::Str)
                    .not_indexable()
                    .width(400),
            ],
        )
        .primary_key(&["nref_id"])
    }

    #[test]
    fn column_lookup() {
        let s = sample();
        assert_eq!(s.column_index("p_name"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.primary_key, vec![0]);
    }

    #[test]
    fn indexable_excludes_wide_text() {
        let s = sample();
        assert_eq!(s.indexable_columns(), vec![0, 1, 2]);
    }

    #[test]
    fn row_width_sums_columns() {
        let s = sample();
        assert_eq!(s.row_width(), 8 + 24 + 24 + 8 + 400);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn require_missing_panics() {
        sample().require_column("nope");
    }
}
