//! A brute-force reference interpreter.
//!
//! Evaluates a [`BoundQuery`] by materializing the full cartesian product
//! of its relations and filtering — no indexes, no join ordering, no cost
//! model. It exists solely as ground truth for testing the optimizer and
//! executor (property tests compare [`crate::exec::execute`]'s output
//! against this on random queries over small tables).

use std::collections::{HashMap, HashSet};

use tab_sqlq::CmpOp;
use tab_storage::{Database, Row, Value};

use crate::catalog::{BoundAgg, BoundItem, BoundQuery};

/// Evaluate `q` against base tables only (no views), brute force.
///
/// Results are in select-list order; row order is unspecified unless
/// the query has an ORDER BY (then it matches the executor's total
/// ordering, including the full-row tie-break).
pub fn evaluate(q: &BoundQuery, db: &Database) -> Vec<Vec<Value>> {
    let mut rows = evaluate_unordered(q, db);
    if !q.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for &(pos, desc) in &q.order_by {
                let ord = a[pos].cmp(&b[pos]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(b)
        });
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit as usize);
    }
    rows
}

fn evaluate_unordered(q: &BoundQuery, db: &Database) -> Vec<Vec<Value>> {
    // Frequency-filter value sets.
    let mut freq_sets: Vec<HashSet<Value>> = Vec::new();
    for f in &q.freqs {
        let t = db.table(&f.sub_table).expect("bound table exists");
        let mut counts: HashMap<Value, u64> = HashMap::new();
        for (_, row) in t.iter() {
            if !row[f.sub_col].is_null() {
                *counts.entry(row[f.sub_col].clone()).or_insert(0) += 1;
            }
        }
        freq_sets.push(
            counts
                .into_iter()
                .filter(|(_, c)| match f.op {
                    CmpOp::Lt => (*c as i64) < f.k,
                    CmpOp::Eq => (*c as i64) == f.k,
                })
                .map(|(v, _)| v)
                .collect(),
        );
    }

    // Each relation's rows, materialized once.
    let tables: Vec<Vec<Row>> = q
        .rels
        .iter()
        .map(|r| db.table(&r.source).expect("bound table exists"))
        .map(|t| t.iter().map(|(_, row)| row).collect())
        .collect();

    // Enumerate the cartesian product with a simple odometer.
    let sizes: Vec<usize> = tables.iter().map(Vec::len).collect();
    let mut matched: Vec<Vec<&[Value]>> = Vec::new();
    if sizes.iter().all(|&s| s > 0) {
        let mut idx = vec![0usize; sizes.len()];
        'outer: loop {
            let rows: Vec<&[Value]> = idx
                .iter()
                .zip(&tables)
                .map(|(&i, t)| t[i].as_ref())
                .collect();
            if passes(q, &rows, &freq_sets) {
                matched.push(rows);
            }
            // Advance odometer.
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < sizes[d] {
                    continue 'outer;
                }
                idx[d] = 0;
                if d == 0 {
                    break 'outer;
                }
            }
        }
    }

    // Group and aggregate.
    if q.aggs.is_empty() && q.group_by.is_empty() {
        return matched
            .iter()
            .map(|rows| {
                q.select
                    .iter()
                    .map(|s| match s {
                        BoundItem::Column(r, c) => rows[*r][*c].clone(),
                        BoundItem::Agg(_) => unreachable!(),
                    })
                    .collect()
            })
            .collect();
    }

    struct G {
        count: u64,
        distincts: Vec<HashSet<Value>>,
    }
    let mut groups: HashMap<Vec<Value>, G> = HashMap::new();
    for rows in &matched {
        let key: Vec<Value> = q
            .group_by
            .iter()
            .map(|&(r, c)| rows[r][c].clone())
            .collect();
        let g = groups.entry(key).or_insert_with(|| G {
            count: 0,
            distincts: vec![HashSet::new(); q.aggs.len()],
        });
        g.count += 1;
        for (ai, a) in q.aggs.iter().enumerate() {
            if let BoundAgg::CountDistinct(r, c) = a {
                let v = rows[*r][*c].clone();
                if !v.is_null() {
                    g.distincts[ai].insert(v);
                }
            }
        }
    }
    if groups.is_empty() && q.group_by.is_empty() {
        groups.insert(
            Vec::new(),
            G {
                count: 0,
                distincts: vec![HashSet::new(); q.aggs.len()],
            },
        );
    }
    groups
        .into_iter()
        .map(|(key, g)| {
            q.select
                .iter()
                .map(|s| match s {
                    BoundItem::Column(r, c) => {
                        let pos = q
                            .group_by
                            .iter()
                            .position(|x| x == &(*r, *c))
                            .expect("grouped");
                        key[pos].clone()
                    }
                    BoundItem::Agg(k) => match &q.aggs[*k] {
                        BoundAgg::CountStar => Value::Int(g.count as i64),
                        BoundAgg::CountDistinct(..) => Value::Int(g.distincts[*k].len() as i64),
                    },
                })
                .collect()
        })
        .collect()
}

fn passes(q: &BoundQuery, rows: &[&[Value]], freq_sets: &[HashSet<Value>]) -> bool {
    for e in &q.joins {
        for &(ca, cb) in &e.cols {
            let a = &rows[e.a][ca];
            let b = &rows[e.b][cb];
            if a.is_null() || b.is_null() || a != b {
                return false;
            }
        }
    }
    for f in &q.filters {
        let v = &rows[f.rel][f.col];
        if v.is_null() || *v != f.value {
            return false;
        }
    }
    for f in &q.ranges {
        if !f.op.eval(&rows[f.rel][f.col], &f.value) {
            return false;
        }
    }
    for (fi, f) in q.freqs.iter().enumerate() {
        if !freq_sets[fi].contains(&rows[f.rel][f.col]) {
            return false;
        }
    }
    true
}
