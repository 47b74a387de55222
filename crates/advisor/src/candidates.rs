//! Candidate-structure generation for the recommenders.
//!
//! Each commercial recommender of the period generated *candidates* from
//! the workload's predicate columns, then searched over them (Chaudhuri &
//! Narasayya 1997; Valentin et al. 2000; Agrawal et al. 2000). The three
//! styles here reproduce the architectural spread of the paper's three
//! anonymous systems:
//!
//! - [`CandidateStyle::SingleColumn`] (System A): one-column indexes on
//!   every predicate column plus narrow two-column merges;
//! - [`CandidateStyle::Covering`] (System B): wide covering indexes
//!   (filter + join + group-by columns) plus one-column filter indexes;
//! - [`CandidateStyle::CoveringWithViews`] (System C): System B's
//!   candidates plus materialized join views with indexes on them
//!   (the shape of Table 3's recommendations).

use std::collections::BTreeSet;

use tab_engine::catalog::{bind, BoundQuery};
use tab_sqlq::Query;
use tab_storage::{Database, IndexSpec, MViewDef, MViewSpec};

/// Which candidate-generation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStyle {
    /// Single-column indexes plus narrow merges.
    SingleColumn,
    /// Multi-column covering indexes.
    Covering,
    /// Covering indexes plus materialized views.
    CoveringWithViews,
}

/// A candidate physical structure.
#[derive(Debug, Clone, PartialEq)]
pub enum Candidate {
    /// A base-table index.
    Index(IndexSpec),
    /// A materialized view with its indexes.
    MView(MViewDef),
}

/// Per-relation predicate columns extracted from one bound query.
#[derive(Debug, Default, Clone)]
struct RelCols {
    filters: Vec<usize>,
    joins: Vec<usize>,
    freqs: Vec<usize>,
    groups: Vec<usize>,
}

fn rel_cols(b: &BoundQuery) -> Vec<RelCols> {
    let mut out = vec![RelCols::default(); b.rels.len()];
    for f in &b.filters {
        push_unique(&mut out[f.rel].filters, f.col);
    }
    for f in &b.ranges {
        push_unique(&mut out[f.rel].filters, f.col);
    }
    for e in &b.joins {
        for &(ca, cb) in &e.cols {
            push_unique(&mut out[e.a].joins, ca);
            push_unique(&mut out[e.b].joins, cb);
        }
    }
    for f in &b.freqs {
        push_unique(&mut out[f.rel].freqs, f.col);
    }
    for &(r, c) in &b.group_by {
        push_unique(&mut out[r].groups, c);
    }
    out
}

fn push_unique(v: &mut Vec<usize>, c: usize) {
    if !v.contains(&c) {
        v.push(c);
    }
}

/// Generate the candidate set for a workload.
///
/// Queries that fail to bind are skipped (the recommender cannot see
/// structures for queries it cannot parse).
pub fn generate(db: &Database, workload: &[Query], style: CandidateStyle) -> Vec<Candidate> {
    let mut indexes: BTreeSet<IndexSpec> = BTreeSet::new();
    let mut mviews: Vec<MViewDef> = Vec::new();

    for q in workload {
        let Ok(b) = bind(q, db) else { continue };
        let cols = rel_cols(&b);
        for (rel, rc) in cols.iter().enumerate() {
            let table = b.rels[rel].source.clone();
            let indexable = |c: &usize| {
                db.table(&table)
                    .map(|t| t.schema().columns[*c].indexable)
                    .unwrap_or(false)
            };
            let filters: Vec<usize> = rc
                .filters
                .iter()
                .filter(|c| indexable(c))
                .copied()
                .collect();
            let joins: Vec<usize> = rc.joins.iter().filter(|c| indexable(c)).copied().collect();
            let freqs: Vec<usize> = rc.freqs.iter().filter(|c| indexable(c)).copied().collect();
            let groups: Vec<usize> = rc.groups.iter().filter(|c| indexable(c)).copied().collect();

            match style {
                CandidateStyle::SingleColumn => {
                    for &c in filters.iter().chain(&joins).chain(&freqs) {
                        indexes.insert(IndexSpec::new(table.clone(), vec![c]));
                    }
                    // Narrow merge: selective filter first, then a join column.
                    if let (Some(&f), Some(&j)) = (filters.first(), joins.first()) {
                        if f != j {
                            indexes.insert(IndexSpec::new(table.clone(), vec![f, j]));
                        }
                    }
                    // Merge with the first group-by column.
                    if let (Some(&j), Some(&g)) = (joins.first(), groups.first()) {
                        if j != g {
                            indexes.insert(IndexSpec::new(table.clone(), vec![j, g]));
                        }
                    }
                }
                CandidateStyle::Covering | CandidateStyle::CoveringWithViews => {
                    // Wide covering candidate: filters, joins, then groups.
                    let mut wide: Vec<usize> = Vec::new();
                    for &c in filters.iter().chain(&joins).chain(&groups) {
                        push_unique(&mut wide, c);
                    }
                    wide.truncate(4);
                    if !wide.is_empty() {
                        indexes.insert(IndexSpec::new(table.clone(), wide));
                    }
                    // Join-leading covering variant.
                    let mut jg: Vec<usize> = Vec::new();
                    for &c in joins.iter().chain(&groups) {
                        push_unique(&mut jg, c);
                    }
                    jg.truncate(4);
                    if jg.len() > 1 {
                        indexes.insert(IndexSpec::new(table.clone(), jg));
                    }
                    // One-column indexes on filter columns only.
                    for &c in &filters {
                        indexes.insert(IndexSpec::new(table.clone(), vec![c]));
                    }
                }
            }
        }

        if style == CandidateStyle::CoveringWithViews {
            for e in &b.joins {
                if let Some(def) = view_candidate(&b, e, &cols) {
                    if !mviews.iter().any(|m| m.spec == def.spec) {
                        mviews.push(def);
                    }
                }
            }
        }
    }

    let mut out: Vec<Candidate> = indexes.into_iter().map(Candidate::Index).collect();
    out.extend(mviews.into_iter().map(Candidate::MView));
    out
}

/// A materialized-view candidate replacing one join edge: project every
/// column the query still needs from the two relations, and index the
/// columns that feed further predicates.
fn view_candidate(
    b: &BoundQuery,
    e: &tab_engine::catalog::JoinEdge,
    cols: &[RelCols],
) -> Option<MViewDef> {
    let (i, j) = (e.a, e.b);
    // Self-join views are not generated (the 2005 tools did not).
    if b.rels[i].source == b.rels[j].source {
        return None;
    }
    // Needed columns with the edge removed.
    let mut without = b.clone();
    without
        .joins
        .retain(|x| !(x.a == e.a && x.b == e.b && x.cols == e.cols));
    let need = without.needed_columns();
    let mut projection: Vec<(usize, usize)> = Vec::new();
    for (t, rel) in [(0usize, i), (1usize, j)] {
        for &c in &need[rel] {
            projection.push((t, c));
        }
    }
    if projection.is_empty() || projection.len() > 6 {
        return None;
    }
    // The name encodes the join *and* the projection: candidates from
    // different queries that project different columns are different
    // views and must not collide.
    let proj_sig: String = projection
        .iter()
        .map(|(t, c)| format!("{t}{c}"))
        .collect::<Vec<_>>()
        .join("_");
    let name = format!(
        "mv_{}_{}_{}_p{}",
        b.rels[i].source,
        b.rels[j].source,
        e.cols
            .iter()
            .map(|(a, bb)| format!("{a}x{bb}"))
            .collect::<Vec<_>>()
            .join("_"),
        proj_sig
    );
    let spec = MViewSpec::join_of(
        name,
        &b.rels[i].source,
        &b.rels[j].source,
        e.cols.clone(),
        projection.clone(),
    );
    // Index the projected columns that carry further joins or filters.
    let mut idx_cols: Vec<Vec<usize>> = Vec::new();
    for (t, rel) in [(0usize, i), (1usize, j)] {
        for &c in cols[rel].joins.iter().chain(&cols[rel].filters) {
            if let Some(vc) = projection.iter().position(|&(pt, pc)| pt == t && pc == c) {
                if !idx_cols.contains(&vec![vc]) {
                    idx_cols.push(vec![vc]);
                }
            }
        }
    }
    Some(MViewDef {
        spec,
        indexes: idx_cols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_sqlq::parse;
    use tab_storage::{ColType, ColumnDef, Table, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        for (name, cols) in [("r", vec!["a", "b", "g"]), ("s", vec!["a", "c", "h"])] {
            let mut t = Table::new(TableSchema::new(
                name,
                cols.into_iter()
                    .map(|c| ColumnDef::new(c, ColType::Int))
                    .collect(),
            ));
            for i in 0..50 {
                t.insert(vec![Value::Int(i), Value::Int(i % 5), Value::Int(i % 3)]);
            }
            db.add_table(t);
        }
        db.collect_stats();
        db
    }

    fn workload(db: &Database) -> Vec<Query> {
        let _ = db;
        vec![
            parse("SELECT r.g, COUNT(*) FROM r, s WHERE r.a = s.a AND s.c = 2 GROUP BY r.g")
                .unwrap(),
        ]
    }

    #[test]
    fn single_column_style_yields_narrow_indexes() {
        let db = db();
        let cands = generate(&db, &workload(&db), CandidateStyle::SingleColumn);
        assert!(!cands.is_empty());
        for c in &cands {
            match c {
                Candidate::Index(i) => assert!(i.columns.len() <= 2),
                Candidate::MView(_) => panic!("no views in single-column style"),
            }
        }
        // Join columns on both sides present as single-column candidates.
        assert!(cands.contains(&Candidate::Index(IndexSpec::new("r", vec![0]))));
        assert!(cands.contains(&Candidate::Index(IndexSpec::new("s", vec![0]))));
    }

    #[test]
    fn covering_style_yields_wide_indexes() {
        let db = db();
        let cands = generate(&db, &workload(&db), CandidateStyle::Covering);
        let has_wide = cands.iter().any(|c| match c {
            Candidate::Index(i) => i.columns.len() >= 2,
            _ => false,
        });
        assert!(has_wide, "expected covering candidates: {cands:?}");
    }

    #[test]
    fn views_style_includes_join_views() {
        let db = db();
        let cands = generate(&db, &workload(&db), CandidateStyle::CoveringWithViews);
        let view = cands.iter().find_map(|c| match c {
            Candidate::MView(m) => Some(m),
            _ => None,
        });
        let view = view.expect("a view candidate");
        assert_eq!(view.spec.base, vec!["r".to_string(), "s".to_string()]);
        // The filter column s.c must be projected (queries still filter on it).
        assert!(view.spec.projection.contains(&(1, 1)));
    }

    #[test]
    fn deduplicates_across_queries() {
        let db = db();
        let w = [workload(&db), workload(&db)].concat();
        let c1 = generate(&db, &workload(&db), CandidateStyle::SingleColumn);
        let c2 = generate(&db, &w, CandidateStyle::SingleColumn);
        assert_eq!(c1.len(), c2.len());
    }
}
