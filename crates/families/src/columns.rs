//! Column-selection rules for query-family enumeration.
//!
//! The paper applies "a number of practical restrictions to further
//! reduce the space of possible queries" (§4.1.1): non-indexable columns
//! are ignored and no *query* uses more than 4 columns per table. This
//! module implements those restrictions deterministically: a table's
//! *usable* columns are its indexable columns, domain-labelled ones
//! first (they participate in joins), capped at eight — each individual
//! query then draws at most four of them (join + selection + group-by).

use tab_storage::TableSchema;

/// Maximum usable columns per table considered by the enumerators.
pub(crate) const MAX_COLUMNS_PER_TABLE: usize = 10;

/// The usable column positions for family enumeration.
pub(crate) fn usable_columns(schema: &TableSchema) -> Vec<usize> {
    let mut cols: Vec<usize> = schema
        .indexable_columns()
        .into_iter()
        .filter(|&c| schema.columns[c].domain.is_some())
        .collect();
    for c in schema.indexable_columns() {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols.truncate(MAX_COLUMNS_PER_TABLE);
    cols
}

/// Usable columns of `schema` sharing the given domain.
pub(crate) fn usable_in_domain(schema: &TableSchema, domain: &str) -> Vec<usize> {
    usable_columns(schema)
        .into_iter()
        .filter(|&c| schema.columns[c].domain.as_deref() == Some(domain))
        .collect()
}

/// Group-by column variants: the paper's "up to three other columns"
/// (§3.2.2). Returns progressively wider prefixes of the usable columns
/// excluding `exclude`, including the empty variant.
pub(crate) fn group_by_variants(
    schema: &TableSchema,
    exclude: &[usize],
    max: usize,
) -> Vec<Vec<usize>> {
    let others: Vec<usize> = usable_columns(schema)
        .into_iter()
        .filter(|c| !exclude.contains(c))
        .collect();
    let mut out = vec![Vec::new()];
    for g in 1..=max.min(others.len()) {
        out.push(others[..g].to_vec());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_storage::{ColType, ColumnDef};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("plain1", ColType::Int),
                ColumnDef::new("dom1", ColType::Int).domain("d1"),
                ColumnDef::new("wide", ColType::Str).not_indexable(),
                ColumnDef::new("dom2", ColType::Int).domain("d2"),
                ColumnDef::new("plain2", ColType::Int),
                ColumnDef::new("plain3", ColType::Int),
            ],
        )
    }

    #[test]
    fn domain_columns_come_first() {
        let cols = usable_columns(&schema());
        assert_eq!(cols, vec![1, 3, 0, 4, 5]);
    }

    #[test]
    fn non_indexable_excluded() {
        assert!(!usable_columns(&schema()).contains(&2));
    }

    #[test]
    fn domain_filter() {
        assert_eq!(usable_in_domain(&schema(), "d1"), vec![1]);
        assert!(usable_in_domain(&schema(), "zzz").is_empty());
    }

    #[test]
    fn group_by_variants_grow() {
        let v = group_by_variants(&schema(), &[1], 3);
        assert_eq!(v[0], Vec::<usize>::new());
        assert_eq!(v[1], vec![3]);
        assert_eq!(v[2], vec![3, 0]);
        assert_eq!(v[3], vec![3, 0, 4]);
        assert_eq!(v.len(), 4);
    }
}
