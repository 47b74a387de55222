//! Family NREF2J: co-occurrence counting joins (§3.2.2).
//!
//! Template:
//!
//! ```sql
//! SELECT r.ci1,...,r.ci3, r.c1, COUNT(*)
//! FROM R r, S s
//! WHERE r.c1 = s.c2
//!   AND r.c1 IN (SELECT c1 FROM R GROUP BY c1 HAVING COUNT(*) < 4)
//!   AND s.c2 IN (SELECT c2 FROM S GROUP BY c2 HAVING COUNT(*) < 4)
//! GROUP BY r.ci1,...,r.ci3, r.c1
//! ```
//!
//! `R.c1` and `S.c2` range over same-domain column pairs in *different*
//! tables; the frequency filters keep both sides to values occurring
//! fewer than four times, bounding the intermediate join (the paper's
//! third design criterion).

use tab_sqlq::{CmpOp, ColRef, Predicate, Query, SelectItem, TableRef};
use tab_storage::{par_map, Database, Parallelism, Table};

use crate::columns::{group_by_variants, usable_columns};

/// Row count above which a table gets fewer group-by variants
/// ("fewer columns in group by clauses on these tables", §4.1.1).
pub(crate) const BIG_TABLE_ROWS: usize = 100_000;

/// Enumerate the (restricted) NREF2J family over `db`, fanned out over
/// outer tables. Each outer table's template instantiations are
/// independent, and per-table blocks are concatenated in table order,
/// so the family is identical at any thread count.
pub(crate) fn enumerate(db: &Database, par: Parallelism) -> Vec<Query> {
    let tables: Vec<_> = db.tables().collect();
    par_map(par, &tables, |r| queries_for_outer(&tables, r))
        .into_iter()
        .flatten()
        .collect()
}

/// All NREF2J instantiations with `r` as the outer (grouped) table.
fn queries_for_outer(tables: &[&Table], r: &Table) -> Vec<Query> {
    let mut out = Vec::new();
    let rs = r.schema();
    for s in tables {
        let ss = s.schema();
        if rs.name == ss.name {
            continue;
        }
        for &c1 in &usable_columns(rs) {
            let Some(domain) = rs.columns[c1].domain.as_deref() else {
                continue;
            };
            for &c2 in &usable_columns(ss) {
                if ss.columns[c2].domain.as_deref() != Some(domain) {
                    continue;
                }
                let max_groups = if r.n_rows() > BIG_TABLE_ROWS { 1 } else { 3 };
                for extra in group_by_variants(rs, &[c1], max_groups) {
                    out.push(build(
                        &rs.name,
                        &ss.name,
                        &rs.columns[c1].name,
                        &ss.columns[c2].name,
                        &extra
                            .iter()
                            .map(|&c| rs.columns[c].name.as_str())
                            .collect::<Vec<_>>(),
                    ));
                }
            }
        }
    }
    out
}

fn build(r: &str, s: &str, c1: &str, c2: &str, extras: &[&str]) -> Query {
    let mut select: Vec<SelectItem> = extras
        .iter()
        .map(|&c| SelectItem::Column(ColRef::new("r", c)))
        .collect();
    select.push(SelectItem::Column(ColRef::new("r", c1)));
    select.push(SelectItem::CountStar);
    let mut group_by: Vec<ColRef> = extras.iter().map(|&c| ColRef::new("r", c)).collect();
    group_by.push(ColRef::new("r", c1));
    Query {
        select,
        from: vec![TableRef::new(r, "r"), TableRef::new(s, "s")],
        predicates: vec![
            Predicate::JoinEq(ColRef::new("r", c1), ColRef::new("s", c2)),
            Predicate::InFrequency {
                col: ColRef::new("r", c1),
                sub_table: r.to_string(),
                sub_column: c1.to_string(),
                op: CmpOp::Lt,
                k: 4,
            },
            Predicate::InFrequency {
                col: ColRef::new("s", c2),
                sub_table: s.to_string(),
                sub_column: c2.to_string(),
                op: CmpOp::Lt,
                k: 4,
            },
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
    fn enumerates_cross_table_same_domain_joins() {
        let db = generate_nref(NrefParams {
            proteins: 300,
            seed: 1,
        });
        let qs = enumerate(&db, Parallelism::sequential());
        assert!(qs.len() > 50, "family too small: {}", qs.len());
        for q in &qs {
            assert_eq!(q.from.len(), 2);
            assert_ne!(q.from[0].table, q.from[1].table);
            // Exactly one join + two frequency filters.
            assert_eq!(q.predicates.len(), 3);
            assert!(
                q.predicates
                    .iter()
                    .filter(|p| matches!(p, Predicate::InFrequency { .. }))
                    .count()
                    == 2
            );
            assert!(!q.group_by.is_empty());
        }
    }

    #[test]
    fn queries_parse_back() {
        let db = generate_nref(NrefParams {
            proteins: 200,
            seed: 2,
        });
        for q in enumerate(&db, Parallelism::sequential()).iter().take(20) {
            let rt = tab_sqlq::parse(&q.to_string()).unwrap();
            assert_eq!(&rt, q);
        }
    }
}
