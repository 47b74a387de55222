//! Families SkTH3J / SkTH3Js / UnTH3J: three-way TPC-H joins (§3.2.2).
//!
//! Template:
//!
//! ```sql
//! SELECT t.ci1,...,t.ci4, COUNT(*)
//! FROM R r, S s, T t
//! WHERE r.cp1 = s.cf1 AND ... AND r.cpj = s.cfj   -- PK–FK join
//!   AND s.c1 = t.c2                               -- same-domain join
//!   AND θ(s.c3)                                   -- size-control filter
//! GROUP BY t.ci1,...,t.ci4
//! ```
//!
//! `θ(s.c3)` is either `s.c3 = p` or
//! `s.c3 IN (SELECT c3 FROM S GROUP BY c3 HAVING COUNT(*) = p)`, with
//! three constants per template whose intermediate `R ⋈ S` sizes span
//! orders of magnitude. The *simple* variant (SkTH3Js) restricts the
//! tables to `lineitem`, `orders`, `partsupp` and uses only the equality
//! form.

use std::collections::HashMap;

use tab_sqlq::{CmpOp, ColRef, Predicate, Query, SelectItem, TableRef};
use tab_storage::{par_map, Database, Parallelism, Table, TableSchema, Value};

use crate::columns::{usable_columns, usable_in_domain};
use crate::constants::{count_tiers, selection_tiers};

/// An `(R, S)` pair joined by a declared FK, with the joined column
/// index pairs in `(referencing, referenced)` order.
type FkPair<'a> = (&'a Table, &'a Table, Vec<(usize, usize)>);

/// Enumerate the TH3J family (`simple` selects the SkTH3Js variant),
/// fanned out over the FK-joined `(R, S)` pairs. Each worker keeps its
/// own tier caches; per-pair blocks are concatenated in pair order, so
/// the family is identical at any thread count.
pub(crate) fn enumerate(db: &Database, simple: bool, par: Parallelism) -> Vec<Query> {
    let tables: Vec<&Table> = db.tables().collect();

    // (R, S) pairs joined by a declared FK, in both orientations.
    let mut rs_pairs: Vec<FkPair<'_>> = Vec::new();
    for f in &tables {
        for fk in &f.schema().foreign_keys {
            let Some(p) = db.table(&fk.ref_table) else {
                continue;
            };
            let pairs: Vec<(usize, usize)> = fk
                .columns
                .iter()
                .zip(&fk.ref_columns)
                .map(|(&fc, rc)| (fc, p.schema().require_column(rc)))
                .collect();
            // R = referencing, S = referenced and the reverse.
            rs_pairs.push((f, p, pairs.clone()));
            rs_pairs.push((p, f, pairs.iter().map(|&(a, b)| (b, a)).collect()));
        }
    }

    par_map(par, &rs_pairs, |(r, s, fk_pairs)| {
        queries_for_pair(&tables, r, s, fk_pairs, simple)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// All TH3J instantiations for one FK-joined `(R, S)` pair.
fn queries_for_pair(
    tables: &[&Table],
    r: &Table,
    s: &Table,
    fk_pairs: &[(usize, usize)],
    simple: bool,
) -> Vec<Query> {
    let allowed = ["lineitem", "orders", "partsupp"];
    let in_scope = |name: &str| !simple || allowed.contains(&name);

    let mut out = Vec::new();
    let mut sel_cache: HashMap<(String, usize), Vec<(Value, u64)>> = HashMap::new();
    let mut cnt_cache: HashMap<(String, usize), Vec<i64>> = HashMap::new();

    {
        if !in_scope(&r.schema().name) || !in_scope(&s.schema().name) {
            return out;
        }
        let ss = s.schema();
        let s_nonkey: Vec<usize> = usable_columns(ss)
            .into_iter()
            .filter(|c| !ss.primary_key.contains(c))
            .collect();
        for &c1 in &s_nonkey {
            let Some(dom) = ss.columns[c1].domain.as_deref() else {
                continue;
            };
            for t in tables {
                let ts = t.schema();
                if ts.name == ss.name || ts.name == r.schema().name || !in_scope(&ts.name) {
                    continue;
                }
                for &c2 in &usable_in_domain(ts, dom) {
                    if ts.primary_key.contains(&c2) {
                        continue;
                    }
                    // θ(s.c3): the first two usable non-key columns ≠ c1.
                    let c3s: Vec<usize> = s_nonkey
                        .iter()
                        .filter(|&&c| c != c1)
                        .take(2)
                        .copied()
                        .collect();
                    // Group-by: "up to 4 columns from relation T" -- one
                    // variant per width.
                    let t_usable = usable_columns(ts);
                    let group_variants: Vec<Vec<usize>> = [1usize, 2, 4]
                        .iter()
                        .filter(|&&g| g <= t_usable.len())
                        .map(|&g| t_usable[..g].to_vec())
                        .collect();

                    for &c3 in &c3s {
                        for groups in &group_variants {
                            let eq_tiers = sel_cache
                                .entry((ss.name.clone(), c3))
                                .or_insert_with(|| selection_tiers(s, c3))
                                .clone();
                            for (p, _) in &eq_tiers {
                                out.push(build(
                                    r.schema(),
                                    ss,
                                    ts,
                                    fk_pairs,
                                    c1,
                                    c2,
                                    Theta::Eq(c3, p.clone()),
                                    groups,
                                ));
                            }
                            if !simple {
                                let tiers = cnt_cache
                                    .entry((ss.name.clone(), c3))
                                    .or_insert_with(|| count_tiers(s, c3))
                                    .clone();
                                for p in tiers {
                                    out.push(build(
                                        r.schema(),
                                        ss,
                                        ts,
                                        fk_pairs,
                                        c1,
                                        c2,
                                        Theta::InCount(c3, p),
                                        groups,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

enum Theta {
    Eq(usize, Value),
    InCount(usize, i64),
}

#[allow(clippy::too_many_arguments)]
fn build(
    rs: &TableSchema,
    ss: &TableSchema,
    ts: &TableSchema,
    fk_pairs: &[(usize, usize)],
    c1: usize,
    c2: usize,
    theta: Theta,
    groups: &[usize],
) -> Query {
    let col =
        |alias: &str, schema: &TableSchema, c: usize| ColRef::new(alias, &schema.columns[c].name);
    let mut select: Vec<SelectItem> = groups
        .iter()
        .map(|&c| SelectItem::Column(col("t", ts, c)))
        .collect();
    select.push(SelectItem::CountStar);
    let mut predicates: Vec<Predicate> = fk_pairs
        .iter()
        .map(|&(rc, sc)| Predicate::JoinEq(col("r", rs, rc), col("s", ss, sc)))
        .collect();
    predicates.push(Predicate::JoinEq(col("s", ss, c1), col("t", ts, c2)));
    predicates.push(match theta {
        Theta::Eq(c3, p) => Predicate::ConstEq(col("s", ss, c3), p),
        Theta::InCount(c3, p) => Predicate::InFrequency {
            col: col("s", ss, c3),
            sub_table: ss.name.clone(),
            sub_column: ss.columns[c3].name.clone(),
            op: CmpOp::Eq,
            k: p,
        },
    });
    Query {
        select,
        from: vec![
            TableRef::new(&rs.name, "r"),
            TableRef::new(&ss.name, "s"),
            TableRef::new(&ts.name, "t"),
        ],
        predicates,
        group_by: groups.iter().map(|&c| col("t", ts, c)).collect(),
        order_by: vec![],
        limit: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_datagen::{generate_tpch, Distribution, TpchParams};

    fn db() -> Database {
        generate_tpch(TpchParams {
            scale: 0.002,
            distribution: Distribution::Zipf(1.0),
            seed: 5,
        })
    }

    #[test]
    fn full_family_has_both_theta_forms() {
        let qs = enumerate(&db(), false, Parallelism::sequential());
        assert!(qs.len() > 30, "family too small: {}", qs.len());
        assert!(qs.iter().any(|q| q
            .predicates
            .iter()
            .any(|p| matches!(p, Predicate::ConstEq(..)))));
        assert!(qs.iter().any(|q| q
            .predicates
            .iter()
            .any(|p| matches!(p, Predicate::InFrequency { op: CmpOp::Eq, .. }))));
    }

    #[test]
    fn simple_family_restricted_to_three_tables() {
        let qs = enumerate(&db(), true, Parallelism::sequential());
        assert!(!qs.is_empty());
        for q in &qs {
            for tr in &q.from {
                assert!(
                    ["lineitem", "orders", "partsupp"].contains(&tr.table.as_str()),
                    "unexpected table {}",
                    tr.table
                );
            }
            assert!(!q
                .predicates
                .iter()
                .any(|p| matches!(p, Predicate::InFrequency { .. })));
        }
    }

    #[test]
    fn simple_is_subset_shapewise() {
        let full = enumerate(&db(), false, Parallelism::sequential()).len();
        let simple = enumerate(&db(), true, Parallelism::sequential()).len();
        assert!(simple < full);
    }

    #[test]
    fn three_way_structure() {
        let qs = enumerate(&db(), true, Parallelism::sequential());
        for q in qs.iter().take(10) {
            assert_eq!(q.from.len(), 3);
            // Group-by over T only.
            for g in &q.group_by {
                assert_eq!(g.alias, "t");
            }
        }
    }
}
