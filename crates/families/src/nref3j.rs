//! Family NREF3J: self-join generalizations of Example 1 (§3.2.2).
//!
//! Template:
//!
//! ```sql
//! SELECT r1.ci1,...,r1.ci3, r1.c1, COUNT(DISTINCT r2.c2)
//! FROM R r1, R r2, S s
//! WHERE r1.c1 = r2.c1 AND r1.c2 = s.c3 AND s.c4 = k
//! GROUP BY r1.ci1,...,r1.ci3, r1.c1
//! ```
//!
//! `k` ranges over the column's `k1/k2/k3` selectivity tiers
//! (see [`crate::constants::selection_tiers`]).

use std::collections::HashMap;

use tab_sqlq::{ColRef, Predicate, Query, SelectItem, TableRef};
use tab_storage::{par_map, Database, Parallelism, Table, Value};

use crate::columns::{group_by_variants, usable_columns, usable_in_domain};
use crate::constants::selection_tiers;
use crate::nref2j::BIG_TABLE_ROWS;

/// Enumerate the (restricted) NREF3J family over `db`, fanned out over
/// outer (self-joined) tables. Each worker keeps its own selection-tier
/// cache; per-table blocks are concatenated in table order, so the
/// family is identical at any thread count.
pub(crate) fn enumerate(db: &Database, par: Parallelism) -> Vec<Query> {
    let tables: Vec<_> = db.tables().collect();
    par_map(par, &tables, |r| queries_for_outer(&tables, r))
        .into_iter()
        .flatten()
        .collect()
}

/// All NREF3J instantiations with `r` as the self-joined table.
fn queries_for_outer(tables: &[&Table], r: &Table) -> Vec<Query> {
    let mut out = Vec::new();
    let mut tier_cache: HashMap<(String, usize), Vec<(Value, u64)>> = HashMap::new();
    let rs = r.schema();
    let r_usable = usable_columns(rs);
    for &c1 in &r_usable {
        if rs.columns[c1].domain.is_none() {
            continue;
        }
        for &c2 in &r_usable {
            if c2 == c1 {
                continue;
            }
            let Some(dom2) = rs.columns[c2].domain.as_deref() else {
                continue;
            };
            for s in tables {
                let ss = s.schema();
                if ss.name == rs.name {
                    continue;
                }
                for &c3 in &usable_in_domain(ss, dom2) {
                    // Selection columns of S: the first usable column
                    // other than c3 that has magnitude tiers; large S
                    // contributes only its rarest tier (§4.1.1).
                    let s_usable = usable_columns(ss);
                    let Some(&c4) = s_usable.iter().find(|&&c| c != c3) else {
                        continue;
                    };
                    let tiers = tier_cache
                        .entry((ss.name.clone(), c4))
                        .or_insert_with(|| selection_tiers(s, c4))
                        .clone();
                    let n_tiers = if s.n_rows() > BIG_TABLE_ROWS { 1 } else { 3 };
                    let max_groups = if r.n_rows() > BIG_TABLE_ROWS { 0 } else { 2 };
                    for (k, _) in tiers.iter().take(n_tiers) {
                        for extra in group_by_variants(rs, &[c1, c2], max_groups) {
                            out.push(build(rs, ss, c1, c2, c3, c4, k.clone(), &extra));
                        }
                    }
                }
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn build(
    rs: &tab_storage::TableSchema,
    ss: &tab_storage::TableSchema,
    c1: usize,
    c2: usize,
    c3: usize,
    c4: usize,
    k: Value,
    extras: &[usize],
) -> Query {
    let col = |alias: &str, schema: &tab_storage::TableSchema, c: usize| {
        ColRef::new(alias, &schema.columns[c].name)
    };
    let mut select: Vec<SelectItem> = extras
        .iter()
        .map(|&c| SelectItem::Column(col("r1", rs, c)))
        .collect();
    select.push(SelectItem::Column(col("r1", rs, c1)));
    select.push(SelectItem::CountDistinct(col("r2", rs, c2)));
    let mut group_by: Vec<ColRef> = extras.iter().map(|&c| col("r1", rs, c)).collect();
    group_by.push(col("r1", rs, c1));
    Query {
        select,
        from: vec![
            TableRef::new(&rs.name, "r1"),
            TableRef::new(&rs.name, "r2"),
            TableRef::new(&ss.name, "s"),
        ],
        predicates: vec![
            Predicate::JoinEq(col("r1", rs, c1), col("r2", rs, c1)),
            Predicate::JoinEq(col("r1", rs, c2), col("s", ss, c3)),
            Predicate::ConstEq(col("s", ss, c4), k),
        ],
        group_by,
        order_by: vec![],
        limit: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_datagen::{generate_nref, NrefParams};

    #[test]
    fn enumerates_self_joins_with_tiered_constants() {
        let db = generate_nref(NrefParams {
            proteins: 400,
            seed: 3,
        });
        let qs = enumerate(&db, Parallelism::sequential());
        assert!(qs.len() > 50, "family too small: {}", qs.len());
        for q in &qs {
            assert_eq!(q.from.len(), 3);
            // Self-join: first two FROM entries are the same table.
            assert_eq!(q.from[0].table, q.from[1].table);
            assert_ne!(q.from[2].table, q.from[0].table);
            assert!(q
                .predicates
                .iter()
                .any(|p| matches!(p, Predicate::ConstEq(..))));
            assert!(q
                .select
                .iter()
                .any(|s| matches!(s, SelectItem::CountDistinct(_))));
        }
    }

    #[test]
    fn includes_multiple_selectivity_tiers() {
        let db = generate_nref(NrefParams {
            proteins: 400,
            seed: 3,
        });
        let qs = enumerate(&db, Parallelism::sequential());
        // Same structure with different constants must appear.
        let mut shapes: HashMap<String, std::collections::HashSet<String>> = HashMap::new();
        for q in &qs {
            let consts: Vec<String> = q
                .predicates
                .iter()
                .filter_map(|p| match p {
                    Predicate::ConstEq(_, v) => Some(v.to_string()),
                    _ => None,
                })
                .collect();
            let mut shape = q.to_string();
            for c in &consts {
                shape = shape.replace(c, "?");
            }
            shapes.entry(shape).or_default().insert(consts.join(","));
        }
        assert!(
            shapes.values().any(|s| s.len() >= 2),
            "expected some template with multiple constants"
        );
    }
}
