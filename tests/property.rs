//! Randomized tests spanning the workspace: the optimizer+executor
//! pipeline must agree with the brute-force interpreter on arbitrary
//! queries, under arbitrary index configurations, and the SQL and wire
//! request parsers must answer arbitrary input without panicking.
//!
//! Cases are generated from a fixed-seed PRNG (the offline stand-in for
//! the original proptest strategies); every failure message includes the
//! case number so a regression can be replayed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tab_bench::engine::{bind, naive, CostMeter, ExecOpts, Resolver};
use tab_bench::sqlq::{parse, CmpOp, ColRef, Predicate, Query, RangeOp, SelectItem, TableRef};
use tab_bench::storage::{
    BuiltConfiguration, ColType, ColumnDef, Configuration, Database, IndexSpec, Table, TableSchema,
    Value,
};

/// Small database over two tables with tiny value domains so joins and
/// frequency filters exercise real matches.
fn build_db(r_rows: &[(i64, i64, i64)], s_rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    let mut r = Table::new(TableSchema::new(
        "r",
        vec![
            ColumnDef::new("a", ColType::Int),
            ColumnDef::new("b", ColType::Int),
            ColumnDef::new("c", ColType::Int),
        ],
    ));
    for &(a, b, c) in r_rows {
        r.insert(vec![Value::Int(a), Value::Int(b), Value::Int(c)]);
    }
    let mut s = Table::new(TableSchema::new(
        "s",
        vec![
            ColumnDef::new("a", ColType::Int),
            ColumnDef::new("d", ColType::Int),
        ],
    ));
    for &(a, d) in s_rows {
        s.insert(vec![Value::Int(a), Value::Int(d)]);
    }
    db.add_table(r);
    db.add_table(s);
    db.collect_stats();
    db
}

#[derive(Debug, Clone)]
struct Shape {
    join: u8, // 0 = none (cartesian), 1 = r.a=s.a, 2 = r.b=s.d
    filter_r: Option<i64>,
    filter_s: Option<i64>,
    range_r: Option<(u8, i64)>, // r.c {<,<=,>,>=} const
    freq: Option<i64>,          // r.a IN (... HAVING COUNT(*) < k)
    group: bool,                // group by r.c
    agg: u8,                    // 0 = COUNT(*), 1 = COUNT(DISTINCT r.b), 2 = COUNT(DISTINCT s.d)
    self_join: bool,            // add second alias of r joined on r.a
    order_desc: Option<bool>,   // ORDER BY r.c [DESC] (only when grouped)
    limit: Option<u8>,
}

fn opt<T>(rng: &mut StdRng, f: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    if rng.random_bool(0.5) {
        Some(f(rng))
    } else {
        None
    }
}

fn random_shape(rng: &mut StdRng) -> Shape {
    Shape {
        join: rng.random_range(0u32..3) as u8,
        filter_r: opt(rng, |r| r.random_range(0i64..6)),
        filter_s: opt(rng, |r| r.random_range(0i64..6)),
        range_r: opt(rng, |r| {
            (r.random_range(0u32..4) as u8, r.random_range(0i64..6))
        }),
        freq: opt(rng, |r| r.random_range(1i64..5)),
        group: rng.random_bool(0.5),
        agg: rng.random_range(0u32..3) as u8,
        self_join: rng.random_bool(0.5),
        order_desc: opt(rng, |r| r.random_bool(0.5)),
        limit: opt(rng, |r| r.random_range(0u32..8) as u8),
    }
}

fn random_r_rows(rng: &mut StdRng, max: usize) -> Vec<(i64, i64, i64)> {
    let n = rng.random_range(0usize..max);
    (0..n)
        .map(|_| {
            (
                rng.random_range(0i64..6),
                rng.random_range(0i64..6),
                rng.random_range(0i64..6),
            )
        })
        .collect()
}

fn random_s_rows(rng: &mut StdRng, max: usize) -> Vec<(i64, i64)> {
    let n = rng.random_range(0usize..max);
    (0..n)
        .map(|_| (rng.random_range(0i64..6), rng.random_range(0i64..6)))
        .collect()
}

fn build_query(shape: &Shape) -> Query {
    let mut from = vec![TableRef::new("r", "r1"), TableRef::new("s", "s")];
    let mut predicates = Vec::new();
    match shape.join {
        1 => predicates.push(Predicate::JoinEq(
            ColRef::new("r1", "a"),
            ColRef::new("s", "a"),
        )),
        2 => predicates.push(Predicate::JoinEq(
            ColRef::new("r1", "b"),
            ColRef::new("s", "d"),
        )),
        _ => {}
    }
    if shape.self_join {
        from.push(TableRef::new("r", "r2"));
        predicates.push(Predicate::JoinEq(
            ColRef::new("r1", "a"),
            ColRef::new("r2", "a"),
        ));
    }
    if let Some(v) = shape.filter_r {
        predicates.push(Predicate::ConstEq(ColRef::new("r1", "b"), Value::Int(v)));
    }
    if let Some((op, v)) = shape.range_r {
        let op = match op {
            0 => RangeOp::Lt,
            1 => RangeOp::Le,
            2 => RangeOp::Gt,
            _ => RangeOp::Ge,
        };
        predicates.push(Predicate::ConstRange(
            ColRef::new("r1", "c"),
            op,
            Value::Int(v),
        ));
    }
    if let Some(v) = shape.filter_s {
        predicates.push(Predicate::ConstEq(ColRef::new("s", "d"), Value::Int(v)));
    }
    if let Some(k) = shape.freq {
        predicates.push(Predicate::InFrequency {
            col: ColRef::new("r1", "a"),
            sub_table: "r".into(),
            sub_column: "a".into(),
            op: CmpOp::Lt,
            k,
        });
    }
    let agg = match shape.agg {
        0 => SelectItem::CountStar,
        1 => SelectItem::CountDistinct(ColRef::new("r1", "b")),
        _ => SelectItem::CountDistinct(ColRef::new("s", "d")),
    };
    let (select, group_by) = if shape.group {
        (
            vec![SelectItem::Column(ColRef::new("r1", "c")), agg],
            vec![ColRef::new("r1", "c")],
        )
    } else {
        (vec![agg], vec![])
    };
    // Ordering requires a selected plain column; a limit without an
    // explicit order still produces a deterministic result only when the
    // full ordering is applied, so tie it to `group` as well.
    let order_by = match (shape.group, shape.order_desc) {
        (true, Some(desc)) => vec![(ColRef::new("r1", "c"), desc)],
        _ => vec![],
    };
    let limit = if order_by.is_empty() {
        None
    } else {
        shape.limit.map(u64::from)
    };
    Query {
        select,
        from,
        predicates,
        group_by,
        order_by,
        limit,
    }
}

fn config_from_mask(mask: u8) -> Configuration {
    let mut cfg = Configuration::named("prop");
    let all = [
        IndexSpec::new("r", vec![0]),
        IndexSpec::new("r", vec![1, 2]),
        IndexSpec::new("s", vec![0]),
        IndexSpec::new("s", vec![1]),
        IndexSpec::new("r", vec![2, 0]),
    ];
    for (i, spec) in all.into_iter().enumerate() {
        if mask & (1 << i) != 0 {
            cfg.indexes.push(spec);
        }
    }
    cfg
}

/// The planned-and-executed result must equal the brute-force result
/// for every query shape and every index configuration.
#[test]
fn executor_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for case in 0..64 {
        let r_rows = random_r_rows(&mut rng, 25);
        let s_rows = random_s_rows(&mut rng, 25);
        let shape = random_shape(&mut rng);
        let mask = rng.random_range(0u32..32) as u8;
        let db = build_db(&r_rows, &s_rows);
        let built = BuiltConfiguration::build(config_from_mask(mask), &db);
        let q = build_query(&shape);
        let bound = bind(&q, &db).expect("generated queries bind");

        let expect = naive::evaluate(&bound, &db);
        let session = tab_bench::engine::Session::new(&db, &built);
        let got = session.run(&q, None).unwrap().rows.unwrap();
        if q.order_by.is_empty() {
            let mut expect = expect;
            let mut got = got;
            expect.sort();
            got.sort();
            assert_eq!(expect, got, "case {case}: shape {shape:?} mask {mask}");
        } else {
            // Ordered (and possibly limited) results compare as lists.
            assert_eq!(expect, got, "case {case}: shape {shape:?} mask {mask}");
        }
    }
}

/// Printing a generated query and reparsing it yields the same AST.
#[test]
fn sql_print_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for case in 0..128 {
        let shape = random_shape(&mut rng);
        let q = build_query(&shape);
        let text = q.to_string();
        let q2 = parse(&text).expect("rendered SQL parses");
        assert_eq!(q, q2, "case {case}: {text}");
    }
}

/// Execution cost never increases when the executor runs the exact
/// same plan; and a budget equal to the unbounded cost never trips.
#[test]
fn budget_at_actual_cost_completes() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for case in 0..64 {
        let mut r_rows = random_r_rows(&mut rng, 20);
        if r_rows.is_empty() {
            r_rows.push((0, 0, 0));
        }
        let mut s_rows = random_s_rows(&mut rng, 20);
        if s_rows.is_empty() {
            s_rows.push((0, 0));
        }
        let shape = random_shape(&mut rng);
        let db = build_db(&r_rows, &s_rows);
        let built = BuiltConfiguration::build(Configuration::named("p"), &db);
        let q = build_query(&shape);
        let session = tab_bench::engine::Session::new(&db, &built);
        let r1 = session.run(&q, None).unwrap();
        let units = r1.outcome.units().unwrap();
        let r2 = session.run(&q, Some(units + 1e-9)).unwrap();
        assert!(!r2.outcome.is_timeout(), "case {case}: shape {shape:?}");
        assert!(
            (r2.outcome.units().unwrap() - units).abs() < 1e-9,
            "case {case}: shape {shape:?}"
        );
    }
}

/// The executor's metered totals are deterministic.
#[test]
fn execution_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for case in 0..64 {
        let r_rows = random_r_rows(&mut rng, 20);
        let s_rows = random_s_rows(&mut rng, 20);
        let shape = random_shape(&mut rng);
        let db = build_db(&r_rows, &s_rows);
        let built = BuiltConfiguration::build(Configuration::named("p"), &db);
        let q = build_query(&shape);
        let bound = bind(&q, &db).unwrap();
        let stats = tab_bench::engine::RealStats::new(&db, &built);
        let plan = tab_bench::engine::plan(&bound, &stats);
        let resolver = Resolver::new(&db, &built);
        let mut m1 = CostMeter::unbounded();
        let mut m2 = CostMeter::unbounded();
        let opts = ExecOpts::default();
        tab_bench::engine::execute(&plan, &resolver, &mut m1, &opts, None, None).unwrap();
        tab_bench::engine::execute(&plan, &resolver, &mut m2, &opts, None, None).unwrap();
        assert_eq!(m1.units(), m2.units(), "case {case}: shape {shape:?}");
    }
}

/// Pieces of token soup, `|`-separated: keywords and verbs,
/// identifiers, punctuation, quotes (some unterminated), numbers that
/// overflow every integer type, and non-ASCII text.
const SOUP: &str = "SELECT|select|FROM|WHERE|AND|GROUP|BY|ORDER|LIMIT|IN|HAVING|COUNT|\
    DISTINCT|ASC|DESC|INSERT|INTO|VALUES|NULL|PING|QUERY|EXPLAIN|ADVISE|STATS|QUIT|SHUTDOWN|\
    p|1c|r|s|r.a|s.d|t.|*|(|)|,|.|;|:|=|<|<=|>|>=|<>|!=|-|+|'|''|'abc'|'it''s'|'open|\"|\"q\"|\\|\
    0|-1|42|3.25|-0.5|1e400|9223372036854775807|9223372036854775808|-9223372036854775809|\
    18446744073709551616|99999999999999999999999999|c:7|x:|:99999999999999999999|\
    é|漢字|\u{1F600}|\u{0}|\u{7f}|\t|\r|\n";

/// Seeded token soup and random bytes through the SQL and request
/// parsers: each returns a value or a typed error, never a panic.
#[test]
fn parsers_never_panic_on_arbitrary_input() {
    use tab_bench::server::parse_request;
    use tab_bench::sqlq::parse_statement;
    let soup: Vec<&str> = SOUP.split('|').collect();
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for case in 0..20_000 {
        let input = if case % 4 == 3 {
            let bytes: Vec<u8> = (0..rng.random_range(0usize..64))
                .map(|_| rng.random::<u64>() as u8)
                .collect();
            String::from_utf8_lossy(&bytes).into_owned()
        } else {
            let mut s = String::new();
            for _ in 0..rng.random_range(0usize..24) {
                s.push_str(soup[rng.random_range(0..soup.len())]);
                if rng.random_bool(0.7) {
                    s.push(' ');
                }
            }
            s
        };
        let _ = parse(&input);
        let _ = parse_statement(&input);
        let _ = parse_request(&input);
    }
}
