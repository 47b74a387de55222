//! The planner's usability rule (`planner::index_usable`,
//! `planner::view_usable`) is what the what-if search prunes by, so it
//! has to be *sound* — a structure it rejects never changes a plan's
//! cost, bit for bit — and no wider than the planner's own loops — a
//! structure it accepts is one the planner actually prices.
//!
//! Cases are seeded `tab-prng` draws over every family's sampled
//! queries; a failure message names the family, query and draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tab_advisor::{generate_candidates, Candidate, CandidateStyle};
use tab_core::{build_p, prepare_workload_db};
use tab_datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_engine::planner::{index_usable, view_usable};
use tab_engine::stats_view::{IndexMeta, MViewMeta};
use tab_engine::{bind, plan, plan_explained, BoundQuery, HypotheticalStats, StatsView};
use tab_families::Family;
use tab_sqlq::{parse, CmpOp, RangeOp};
use tab_storage::{
    ColType, ColumnDef, Configuration, Database, IndexSpec, MViewDef, MViewSpec, Table,
    TableSchema, Value,
};

/// A statistics view in which one index is priced far below zero, so
/// any plan that reads its geometry costs less than nothing: the
/// observable form of "the planner can use it".
struct Favoured<'a> {
    inner: HypotheticalStats<'a>,
    index: &'a IndexSpec,
}

impl StatsView for Favoured<'_> {
    fn rel_rows(&self, source: &str) -> f64 {
        self.inner.rel_rows(source)
    }
    fn rel_pages(&self, source: &str) -> f64 {
        self.inner.rel_pages(source)
    }
    fn n_distinct(&self, source: &str, col: usize) -> f64 {
        self.inner.n_distinct(source, col)
    }
    fn eq_selectivity(&self, source: &str, col: usize, value: &Value) -> f64 {
        self.inner.eq_selectivity(source, col, value)
    }
    fn freq_fraction(&self, source: &str, col: usize, op: CmpOp, k: i64) -> f64 {
        self.inner.freq_fraction(source, col, op, k)
    }
    fn range_selectivity(&self, source: &str, col: usize, op: RangeOp, value: &Value) -> f64 {
        self.inner.range_selectivity(source, col, op, value)
    }
    fn indexes_on(&self, source: &str) -> Vec<IndexMeta> {
        let mut metas = self.inner.indexes_on(source);
        if source == self.index.table {
            for m in metas.iter_mut().filter(|m| m.columns == self.index.columns) {
                m.pages = -1e30;
                m.height = -1e30;
            }
        }
        metas
    }
    fn mviews(&self) -> Vec<MViewMeta> {
        self.inner.mviews()
    }
}

/// Base tables a structure for `bound` could sit on: its relations'
/// sources and its frequency subqueries' tables.
fn tables_of(bound: &BoundQuery) -> Vec<String> {
    let mut tables: Vec<String> = bound.rels.iter().map(|r| r.source.clone()).collect();
    tables.extend(bound.freqs.iter().map(|f| f.sub_table.clone()));
    tables.sort();
    tables.dedup();
    tables
}

fn random_index(rng: &mut StdRng, db: &Database, tables: &[String]) -> IndexSpec {
    let table = &tables[rng.random_range(0..tables.len())];
    let n_cols = db.table(table).expect("bound table").schema().columns.len();
    let mut columns: Vec<usize> = Vec::new();
    for _ in 0..rng.random_range(1..=3usize) {
        let c = rng.random_range(0..n_cols);
        if !columns.contains(&c) {
            columns.push(c);
        }
    }
    IndexSpec::new(table.clone(), columns)
}

fn with_extra(base: &Configuration, extra: &Candidate) -> Configuration {
    let mut cfg = base.clone();
    match extra {
        Candidate::Index(i) => cfg.indexes.push(i.clone()),
        Candidate::MView(m) => cfg.mviews.push(m.clone()),
    }
    cfg
}

/// Draws over one family: six sampled queries × 40 random (base
/// configuration, extra structure) pairs each. Returns how many draws
/// the rule called usable and how many not.
fn check_family(db: &Database, family: Family, seed: u64) -> (usize, usize) {
    let p = build_p(db, "P");
    let workload = prepare_workload_db(db, family, &p, 6, seed);
    // Views System C would propose for any query of the sample: exact
    // fits for one query, near misses (same tables, other projections
    // or join columns) for the others.
    let views: Vec<MViewDef> =
        generate_candidates(db, &workload, CandidateStyle::CoveringWithViews)
            .into_iter()
            .filter_map(|c| match c {
                Candidate::MView(m) => Some(m),
                Candidate::Index(_) => None,
            })
            .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut usable, mut unusable) = (0, 0);
    for (qi, q) in workload.iter().enumerate() {
        let bound = bind(q, db).expect("family queries bind");
        let tables = tables_of(&bound);
        for draw in 0..40 {
            let tag = format!("{} query {qi} draw {draw}", family.name());
            let mut base = p.config.clone();
            for _ in 0..rng.random_range(0..=8usize) {
                base.indexes.push(random_index(&mut rng, db, &tables));
            }
            let mut free_views: Vec<&MViewDef> = views.iter().collect();
            for _ in 0..rng.random_range(0..=2usize).min(free_views.len()) {
                let v = free_views.swap_remove(rng.random_range(0..free_views.len()));
                base.mviews.push(v.clone());
            }
            let extra = if !free_views.is_empty() && rng.random_bool(0.3) {
                Candidate::MView(free_views[rng.random_range(0..free_views.len())].clone())
            } else {
                Candidate::Index(random_index(&mut rng, db, &tables))
            };
            let grown = with_extra(&base, &extra);
            let grown_stats = HypotheticalStats::new(db, &p, &grown);
            let is_usable = match &extra {
                Candidate::Index(i) => index_usable(&bound, &i.table, &i.columns),
                Candidate::MView(m) => view_usable(&bound, &m.spec),
            };
            if !is_usable {
                unusable += 1;
                let without = plan(&bound, &HypotheticalStats::new(db, &p, &base)).est_cost;
                let with = plan(&bound, &grown_stats).est_cost;
                assert_eq!(
                    with.to_bits(),
                    without.to_bits(),
                    "{tag}: {extra:?} is not usable yet moved the cost {without} -> {with}"
                );
                continue;
            }
            usable += 1;
            match &extra {
                Candidate::MView(m) => {
                    let (_, explained) = plan_explained(&bound, &grown_stats);
                    let rewrite = format!("rewrite using view `{}`", m.spec.name);
                    assert!(
                        explained
                            .candidates
                            .iter()
                            .any(|c| c.description == rewrite),
                        "{tag}: usable view {} is not among the plan candidates",
                        m.spec.name
                    );
                }
                Candidate::Index(i) => {
                    // `freq_eval_cost` reads the first index leading on
                    // the grouped column: an earlier one shadows ours.
                    let shadowed = base
                        .indexes
                        .iter()
                        .any(|b| b.table == i.table && b.columns[0] == i.columns[0]);
                    if shadowed {
                        continue;
                    }
                    let favoured = Favoured {
                        inner: grown_stats,
                        index: i,
                    };
                    let (plan, explained) = plan_explained(&bound, &favoured);
                    assert!(
                        plan.est_cost < 0.0,
                        "{tag}: usable {i} priced below zero yet the best plan costs {}",
                        plan.est_cost
                    );
                    let named = format!("({} cols={:?}", i.table, i.columns);
                    let in_a_slot = explained
                        .per_op
                        .iter()
                        .flatten()
                        .any(|c| c.chosen && c.description.contains(&named));
                    let in_freq_setup = plan.op_ests[0].cost < 0.0;
                    assert!(
                        in_a_slot || in_freq_setup,
                        "{tag}: usable {i} is in no slot of the winning plan: {explained:?}"
                    );
                }
            }
        }
    }
    (usable, unusable)
}

#[test]
fn unusable_structures_never_move_a_cost_and_usable_ones_are_priced() {
    let nref = generate_nref(NrefParams {
        proteins: 300,
        seed: 11,
    });
    let tpch = |distribution| {
        generate_tpch(TpchParams {
            scale: 0.002,
            distribution,
            seed: 12,
        })
    };
    let skth = tpch(Distribution::Zipf(1.0));
    let unth = tpch(Distribution::Uniform);
    for (db, family) in [
        (&nref, Family::Nref2J),
        (&nref, Family::Nref3J),
        (&skth, Family::SkTH3J),
        (&skth, Family::SkTH3Js),
        (&unth, Family::UnTH3J),
    ] {
        let (usable, unusable) = check_family(db, family, 23);
        // Both halves of the property must actually be exercised.
        assert!(
            usable >= 20 && unusable >= 20,
            "{}: {usable} usable / {unusable} unusable draws",
            family.name()
        );
    }
}

/// The rule by example, one assert per clause: what an edit to the rule
/// has to keep true.
#[test]
fn the_rule_by_example() {
    let mut db = Database::new();
    for (name, cols) in [("r", vec!["a", "b", "c"]), ("s", vec!["a", "d"])] {
        let mut t = Table::new(TableSchema::new(
            name,
            cols.into_iter()
                .map(|c| ColumnDef::new(c, ColType::Int))
                .collect(),
        ));
        t.insert(vec![Value::Int(1); t.schema().columns.len()]);
        db.add_table(t);
    }
    db.collect_stats();
    let bound = |sql: &str| bind(&parse(sql).unwrap(), &db).unwrap();

    // Join columns, on either side of the edge; covering the group-by
    // column alone is not an access path.
    let join = bound("SELECT r.c, COUNT(*) FROM r, s WHERE r.a = s.a GROUP BY r.c");
    assert!(index_usable(&join, "r", &[0]));
    assert!(index_usable(&join, "s", &[0, 1]));
    assert!(!index_usable(&join, "r", &[2]));
    assert!(
        !index_usable(&join, "s", &[1, 0]),
        "only the leading column"
    );
    assert!(!index_usable(&join, "r", &[]));

    // Equality and range filters.
    let filters = bound("SELECT r.c, COUNT(*) FROM r WHERE r.a = 3 AND r.b < 5 GROUP BY r.c");
    assert!(index_usable(&filters, "r", &[0]));
    assert!(index_usable(&filters, "r", &[1, 2]));
    assert!(!index_usable(&filters, "r", &[2, 1]));
    assert!(!index_usable(&filters, "s", &[0]), "s is not in the query");

    // A frequency subquery is served from an index on *its* table,
    // whether or not that is the outer relation's.
    let freq = |sub: &str| {
        bound(&format!(
            "SELECT r.c, COUNT(*) FROM r \
             WHERE r.a IN (SELECT a FROM {sub} GROUP BY a HAVING COUNT(*) < 4) GROUP BY r.c"
        ))
    };
    assert!(index_usable(&freq("r"), "r", &[0]));
    assert!(index_usable(&freq("s"), "s", &[0]));
    assert!(!index_usable(&freq("s"), "r", &[0]));

    // A view is usable iff one of the query's join edges rewrites onto
    // it: both base tables, the same join columns, every needed column
    // projected.
    let view = |left: &str, right: &str, on| {
        MViewSpec::join_of("v", left, right, vec![on], vec![(0, 0), (0, 2), (1, 0)])
    };
    assert!(view_usable(&join, &view("r", "s", (0, 0))));
    assert!(
        !view_usable(&join, &view("r", "s", (1, 0))),
        "other columns"
    );
    assert!(
        !view_usable(&join, &view("r", "x", (0, 0))),
        "one base table"
    );
    assert!(
        !view_usable(&filters, &view("r", "s", (0, 0))),
        "no join edge"
    );
    let narrow = MViewSpec::join_of("v", "r", "s", vec![(0, 0)], vec![(0, 0), (1, 0)]);
    assert!(!view_usable(&join, &narrow), "r.c is not projected");
}
