//! TPC-H generator with uniform or Zipf-skewed value distributions.
//!
//! The paper uses a 10 GB TPC-H database plus a skewed variant generated
//! with Chaudhuri & Narasayya's TPC-D skew tool at Zipfian factor 1
//! (§3.2.1). This module generates the full eight-table TPC-H schema at a
//! configurable scale factor, with every value-bearing column (and every
//! foreign-key choice) drawn either uniformly or from Zipf(θ) — the same
//! all-columns-skewed design as the original tool.
//!
//! Cross-table *domains* (`qty`, `date`, `price`, `nationkey`, …) are
//! shared so the SkTH3J/UnTH3J families can enumerate meaningful
//! non-key joins between `lineitem`, `orders`, and `partsupp`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tab_storage::{ColType, ColumnDef, Database, Faults, Table, TableSchema, Value};

use crate::zipf::Zipf;

/// Value distribution for generated columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// All values uniform (standard TPC-H).
    Uniform,
    /// Zipf with the given exponent (the paper uses 1.0).
    Zipf(f64),
}

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpchParams {
    /// Scale factor; 1.0 corresponds to 6 M lineitem rows. The paper's
    /// 10 GB database is SF 10.
    pub scale: f64,
    /// Value distribution.
    pub distribution: Distribution,
    /// RNG seed.
    pub seed: u64,
}

/// The eight TPC-H schemas.
fn tpch_schemas() -> Vec<TableSchema> {
    let int = |n: &str| ColumnDef::new(n, ColType::Int);
    let intd = |n: &str, d: &str| ColumnDef::new(n, ColType::Int).domain(d);
    let strd = |n: &str, d: &str| ColumnDef::new(n, ColType::Str).domain(d);
    vec![
        TableSchema::new(
            "region",
            vec![intd("r_regionkey", "regionkey"), strd("r_name", "name")],
        )
        .primary_key(&["r_regionkey"]),
        TableSchema::new(
            "nation",
            vec![
                intd("n_nationkey", "nationkey"),
                strd("n_name", "name"),
                intd("n_regionkey", "regionkey"),
            ],
        )
        .primary_key(&["n_nationkey"])
        .foreign_key(&["n_regionkey"], "region", &["r_regionkey"]),
        TableSchema::new(
            "supplier",
            vec![
                intd("s_suppkey", "suppkey"),
                strd("s_name", "name"),
                intd("s_nationkey", "nationkey"),
                intd("s_acctbal", "price"),
            ],
        )
        .primary_key(&["s_suppkey"])
        .foreign_key(&["s_nationkey"], "nation", &["n_nationkey"]),
        TableSchema::new(
            "part",
            vec![
                intd("p_partkey", "partkey"),
                strd("p_name", "name"),
                strd("p_brand", "brand"),
                strd("p_type", "type"),
                intd("p_size", "size"),
                strd("p_container", "container"),
                intd("p_retailprice", "price"),
            ],
        )
        .primary_key(&["p_partkey"]),
        TableSchema::new(
            "customer",
            vec![
                intd("c_custkey", "custkey"),
                strd("c_name", "name"),
                intd("c_nationkey", "nationkey"),
                strd("c_mktsegment", "segment"),
                intd("c_acctbal", "price"),
            ],
        )
        .primary_key(&["c_custkey"])
        .foreign_key(&["c_nationkey"], "nation", &["n_nationkey"]),
        TableSchema::new(
            "partsupp",
            vec![
                intd("ps_partkey", "partkey"),
                intd("ps_suppkey", "suppkey"),
                intd("ps_availqty", "qty"),
                intd("ps_supplycost", "price"),
            ],
        )
        .primary_key(&["ps_partkey", "ps_suppkey"])
        .foreign_key(&["ps_partkey"], "part", &["p_partkey"])
        .foreign_key(&["ps_suppkey"], "supplier", &["s_suppkey"]),
        TableSchema::new(
            "orders",
            vec![
                intd("o_orderkey", "orderkey"),
                intd("o_custkey", "custkey"),
                strd("o_orderstatus", "status"),
                intd("o_totalprice", "price"),
                intd("o_orderdate", "date"),
                strd("o_orderpriority", "priority"),
                int("o_shippriority"),
            ],
        )
        .primary_key(&["o_orderkey"])
        .foreign_key(&["o_custkey"], "customer", &["c_custkey"]),
        TableSchema::new(
            "lineitem",
            vec![
                intd("l_orderkey", "orderkey"),
                intd("l_partkey", "partkey"),
                intd("l_suppkey", "suppkey"),
                int("l_linenumber"),
                intd("l_quantity", "qty"),
                intd("l_extendedprice", "price"),
                intd("l_discount", "pct"),
                intd("l_tax", "pct"),
                strd("l_returnflag", "flag"),
                strd("l_linestatus", "status"),
                intd("l_shipdate", "date"),
                intd("l_commitdate", "date"),
                intd("l_receiptdate", "date"),
                strd("l_shipmode", "mode"),
            ],
        )
        .primary_key(&["l_orderkey", "l_linenumber"])
        .foreign_key(&["l_orderkey"], "orders", &["o_orderkey"])
        .foreign_key(
            &["l_partkey", "l_suppkey"],
            "partsupp",
            &["ps_partkey", "ps_suppkey"],
        ),
    ]
}

/// Samples ranks from `1..=n` under the configured distribution.
struct Picker {
    dist: Distribution,
}

impl Picker {
    /// Pick a value in `1..=n`. Zipf ranks are scattered over the domain
    /// with a multiplicative hash so the "hot" values are not simply the
    /// smallest ones (matching the skew tool's permuted assignment).
    fn pick(&self, rng: &mut StdRng, n: usize, z: &Zipf) -> i64 {
        match self.dist {
            Distribution::Uniform => rng.random_range(1..=n as i64),
            Distribution::Zipf(_) => {
                let rank = z.sample(rng) as u64;
                (1 + (rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n as u64)) as i64
            }
        }
    }
}

/// Generate a TPC-H database.
pub fn generate(params: TpchParams) -> Database {
    generate_checked(params, &Faults::disabled()).expect("no faults armed")
}

/// [`generate`] with fault sites armed: `panic:build:<table>` fires as
/// each finished table is added to the database and `enospc:datagen`
/// fires at the same boundary as an injected I/O error. Deterministic
/// for a fixed seed, so re-running after a caught crash resumes.
pub fn generate_checked(params: TpchParams, faults: &Faults) -> std::io::Result<Database> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let sf = params.scale;
    let n_supplier = ((10_000.0 * sf) as usize).max(20);
    let n_part = ((200_000.0 * sf) as usize).max(100);
    let n_customer = ((150_000.0 * sf) as usize).max(50);
    let n_orders = n_customer * 10;
    let n_lineitem = n_orders * 4;
    let n_partsupp = n_part * 4;

    let theta = match params.distribution {
        Distribution::Uniform => 0.0,
        Distribution::Zipf(t) => t,
    };
    let picker = Picker {
        dist: params.distribution,
    };
    // One Zipf table per domain size we use repeatedly (theta = 0 under
    // the uniform distribution, where Picker bypasses them anyway).
    let z_part = Zipf::new(n_part, theta);
    let z_supp = Zipf::new(n_supplier, theta);
    let z_cust = Zipf::new(n_customer, theta);
    let z_qty = Zipf::new(50, theta);
    let z_date = Zipf::new(2400, theta);
    let z_price = Zipf::new(10_000, theta);
    let z_size = Zipf::new(50, theta);

    let regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    let nations = 25usize;
    let brands: Vec<String> = (1..=25).map(|i| format!("Brand#{i:02}")).collect();
    let types: Vec<String> = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
        .iter()
        .flat_map(|a| {
            ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
                .iter()
                .map(move |b| format!("{a} {b}"))
        })
        .collect();
    let containers = [
        "SM CASE",
        "SM BOX",
        "MED BAG",
        "LG JAR",
        "WRAP PKG",
        "JUMBO DRUM",
    ];
    let segments = [
        "AUTOMOBILE",
        "BUILDING",
        "FURNITURE",
        "MACHINERY",
        "HOUSEHOLD",
    ];
    let priorities = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
    let modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"];
    let z_small = Zipf::new(25, theta);

    let pick_str = |rng: &mut StdRng, pool: &[&str], z: &Zipf, picker: &Picker| -> Value {
        let i = picker.pick(rng, pool.len(), z) as usize - 1;
        Value::str(pool[i % pool.len()])
    };

    let schemas = tpch_schemas();
    let mut tables: Vec<Table> = schemas.into_iter().map(Table::new).collect();
    let [region, nation, supplier, part, customer, partsupp, orders, lineitem] = &mut tables[..]
    else {
        unreachable!("eight schemas");
    };

    for (i, r) in regions.iter().enumerate() {
        region.insert(vec![Value::Int(i as i64), Value::str(*r)]);
    }
    for i in 0..nations {
        nation.insert(vec![
            Value::Int(i as i64),
            Value::str(format!("NATION {i:02}")),
            Value::Int((i % regions.len()) as i64),
        ]);
    }
    for i in 1..=n_supplier {
        supplier.insert(vec![
            Value::Int(i as i64),
            Value::str(format!("Supplier#{i:09}")),
            Value::Int(picker.pick(&mut rng, nations, &z_small) - 1),
            Value::Int(picker.pick(&mut rng, 10_000, &z_price)),
        ]);
    }
    let brand_refs: Vec<&str> = brands.iter().map(String::as_str).collect();
    let type_refs: Vec<&str> = types.iter().map(String::as_str).collect();
    for i in 1..=n_part {
        part.insert(vec![
            Value::Int(i as i64),
            Value::str(format!(
                "part {:06}",
                picker.pick(&mut rng, n_part, &z_part)
            )),
            pick_str(&mut rng, &brand_refs, &z_small, &picker),
            pick_str(&mut rng, &type_refs, &z_small, &picker),
            Value::Int(picker.pick(&mut rng, 50, &z_size)),
            pick_str(&mut rng, &containers, &z_small, &picker),
            Value::Int(picker.pick(&mut rng, 10_000, &z_price)),
        ]);
    }
    for i in 1..=n_customer {
        customer.insert(vec![
            Value::Int(i as i64),
            Value::str(format!("Customer#{i:09}")),
            Value::Int(picker.pick(&mut rng, nations, &z_small) - 1),
            pick_str(&mut rng, &segments, &z_small, &picker),
            Value::Int(picker.pick(&mut rng, 10_000, &z_price)),
        ]);
    }
    // partsupp: each part has exactly 4 suppliers (TPC-H rule), supplier
    // choice skewed under Zipf.
    for p in 1..=n_part {
        for _ in 0..(n_partsupp / n_part) {
            partsupp.insert(vec![
                Value::Int(p as i64),
                Value::Int(picker.pick(&mut rng, n_supplier, &z_supp)),
                Value::Int(picker.pick(&mut rng, 100, &z_qty)),
                Value::Int(picker.pick(&mut rng, 10_000, &z_price)),
            ]);
        }
    }
    for o in 1..=n_orders {
        orders.insert(vec![
            Value::Int(o as i64),
            Value::Int(picker.pick(&mut rng, n_customer, &z_cust)),
            pick_str(&mut rng, &["O", "F", "P"], &z_small, &picker),
            Value::Int(picker.pick(&mut rng, 10_000, &z_price)),
            Value::Int(picker.pick(&mut rng, 2400, &z_date)),
            pick_str(&mut rng, &priorities, &z_small, &picker),
            Value::Int(0),
        ]);
    }
    // Lineitem is generated order-by-order, so the heap is clustered by
    // l_orderkey -- exactly how dbgen emits it. Each order gets the same
    // number of lines (n_lineitem / n_orders).
    let lines_per_order = (n_lineitem / n_orders).max(1);
    for o in 1..=n_orders {
        for line in 0..lines_per_order {
            let orderkey = o as i64;
            let partkey = picker.pick(&mut rng, n_part, &z_part);
            let ship = picker.pick(&mut rng, 2400, &z_date);
            lineitem.insert(vec![
                Value::Int(orderkey),
                Value::Int(partkey),
                Value::Int(picker.pick(&mut rng, n_supplier, &z_supp)),
                Value::Int(line as i64 + 1),
                Value::Int(picker.pick(&mut rng, 50, &z_qty)),
                Value::Int(picker.pick(&mut rng, 10_000, &z_price)),
                Value::Int(picker.pick(&mut rng, 10, &z_small)),
                Value::Int(picker.pick(&mut rng, 8, &z_small)),
                pick_str(&mut rng, &["A", "N", "R"], &z_small, &picker),
                pick_str(&mut rng, &["O", "F"], &z_small, &picker),
                Value::Int(ship),
                Value::Int(ship + picker.pick(&mut rng, 30, &z_small)),
                Value::Int(ship + picker.pick(&mut rng, 60, &z_small)),
                pick_str(&mut rng, &modes, &z_small, &picker),
            ]);
        }
    }

    let mut db = Database::new();
    for t in tables {
        faults.panic_if_armed(&format!("build:{}", t.schema().name));
        faults.io("datagen")?;
        db.add_table(t);
    }
    db.collect_stats();
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dist: Distribution) -> Database {
        generate(TpchParams {
            scale: 0.002,
            distribution: dist,
            seed: 11,
        })
    }

    #[test]
    fn cardinality_ratios() {
        let db = small(Distribution::Uniform);
        let rows = |t: &str| db.table(t).unwrap().n_rows();
        assert_eq!(rows("region"), 5);
        assert_eq!(rows("nation"), 25);
        assert_eq!(rows("lineitem"), rows("orders") * 4);
        assert_eq!(rows("partsupp"), rows("part") * 4);
        assert!(db.validate().is_empty());
    }

    #[test]
    fn uniform_vs_zipf_skew_differs() {
        let u = small(Distribution::Uniform);
        let z = small(Distribution::Zipf(1.0));
        let top = |db: &Database, t: &str, c: usize| {
            let s = db.stats(t).unwrap();
            s.columns[c].mcvs[0].1 as f64 / s.columns[c].n_rows as f64
        };
        // l_quantity: uniform top ~ 1/50; zipf top much larger.
        let tu = top(&u, "lineitem", 4);
        let tz = top(&z, "lineitem", 4);
        assert!(tz > 3.0 * tu, "zipf={tz} uniform={tu}");
    }

    #[test]
    fn foreign_keys_reference_existing_rows() {
        let db = small(Distribution::Zipf(1.0));
        let n_orders = db.table("orders").unwrap().n_rows() as i64;
        for (_, row) in db.table("lineitem").unwrap().iter().take(500) {
            let ok = row[0].as_int().unwrap();
            assert!(ok >= 1 && ok <= n_orders);
        }
    }

    #[test]
    fn shared_domains_for_family_joins() {
        let schemas = tpch_schemas();
        let dom = |t: &str, c: &str| {
            schemas
                .iter()
                .find(|s| s.name == t)
                .unwrap()
                .columns
                .iter()
                .find(|x| x.name == c)
                .unwrap()
                .domain
                .clone()
        };
        assert_eq!(
            dom("lineitem", "l_quantity"),
            dom("partsupp", "ps_availqty")
        );
        assert_eq!(dom("lineitem", "l_shipdate"), dom("orders", "o_orderdate"));
        assert_eq!(
            dom("lineitem", "l_extendedprice"),
            dom("orders", "o_totalprice")
        );
    }

    #[test]
    fn deterministic() {
        let a = small(Distribution::Zipf(1.0));
        let b = small(Distribution::Zipf(1.0));
        assert_eq!(
            a.table("lineitem").unwrap().row(33),
            b.table("lineitem").unwrap().row(33)
        );
    }
}
