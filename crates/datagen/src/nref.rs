//! Synthetic NREF: the paper's protein database, scaled.
//!
//! The real NREF 1.34 (6.5 GB raw, 1.39 M entries) is no longer
//! distributed in the 2004 relational form the paper used, so we generate
//! a synthetic instance that preserves what the benchmark depends on
//! (DESIGN.md §1):
//!
//! - the six-relation schema of §1.1 with its primary keys;
//! - the cardinality *ratios* between relations
//!   (Protein : Source : Taxonomy : Organism : Neighboring_seq :
//!   Identical_seq = 1.1 : 3 : 15.1 : 1.2 : 78.7 : 0.5 M rows);
//! - shared value domains across tables (`nref_id`, `taxon_id`, `name`,
//!   `lineage`) so the query families can enumerate meaningful joins;
//! - heavy skew in value frequencies (protein names and taxa follow
//!   Zipf-like laws in real biological data), which is what separates
//!   the `k1/k2/k3` constants of §3.2.2 by orders of magnitude.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tab_storage::{ColType, ColumnDef, Database, Faults, Table, TableSchema, Value};

use crate::zipf::Zipf;

/// Generation parameters for the synthetic NREF instance.
#[derive(Debug, Clone, Copy)]
pub struct NrefParams {
    /// Number of proteins (the paper's 1.1 M, scaled). All other table
    /// cardinalities follow the paper's ratios.
    pub proteins: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The six NREF relations (schema of §1.1).
fn nref_schemas() -> Vec<TableSchema> {
    let id = |n: &str| ColumnDef::new(n, ColType::Int).domain("nref_id");
    let taxon = |n: &str| ColumnDef::new(n, ColType::Int).domain("taxon_id");
    let name = |n: &str| ColumnDef::new(n, ColType::Str).domain("name");
    vec![
        TableSchema::new(
            "protein",
            vec![
                id("nref_id"),
                name("p_name"),
                ColumnDef::new("last_updated", ColType::Int).domain("date"),
                ColumnDef::new("sequence", ColType::Str)
                    .not_indexable()
                    .width(200),
                ColumnDef::new("length", ColType::Int).domain("length"),
            ],
        )
        .primary_key(&["nref_id"]),
        TableSchema::new(
            "source",
            vec![
                id("nref_id"),
                ColumnDef::new("p_id", ColType::Int),
                taxon("taxon_id"),
                ColumnDef::new("accession", ColType::Str),
                name("p_name"),
                ColumnDef::new("source", ColType::Str).domain("dbname"),
            ],
        )
        .primary_key(&["nref_id", "p_id"])
        .foreign_key(&["nref_id"], "protein", &["nref_id"]),
        TableSchema::new(
            "taxonomy",
            vec![
                id("nref_id"),
                taxon("taxon_id"),
                ColumnDef::new("lineage", ColType::Str)
                    .domain("lineage")
                    .width(48),
                name("species_name"),
                name("common_name"),
            ],
        )
        .primary_key(&["nref_id", "taxon_id"])
        .foreign_key(&["nref_id"], "protein", &["nref_id"]),
        TableSchema::new(
            "organism",
            vec![
                id("nref_id"),
                ColumnDef::new("ordinal", ColType::Int),
                taxon("taxon_id"),
                name("name"),
            ],
        )
        .primary_key(&["nref_id", "ordinal"])
        .foreign_key(&["nref_id"], "protein", &["nref_id"]),
        TableSchema::new(
            "neighboring_seq",
            vec![
                id("nref_id_1"),
                ColumnDef::new("ordinal", ColType::Int),
                id("nref_id_2"),
                taxon("taxon_id_2"),
                ColumnDef::new("length_2", ColType::Int).domain("length"),
                ColumnDef::new("score", ColType::Int).domain("score"),
                ColumnDef::new("overlap_length", ColType::Int).domain("length"),
                ColumnDef::new("start_1", ColType::Int),
                ColumnDef::new("start_2", ColType::Int),
                ColumnDef::new("end_1", ColType::Int),
                ColumnDef::new("end_2", ColType::Int),
            ],
        )
        .primary_key(&["nref_id_1", "ordinal"])
        .foreign_key(&["nref_id_1"], "protein", &["nref_id"]),
        TableSchema::new(
            "identical_seq",
            vec![
                id("nref_id_1"),
                ColumnDef::new("ordinal", ColType::Int),
                id("nref_id_2"),
                taxon("taxon_id"),
            ],
        )
        .primary_key(&["nref_id_1", "ordinal"])
        .foreign_key(&["nref_id_1"], "protein", &["nref_id"]),
    ]
}

/// Generate a synthetic NREF database.
pub fn generate(params: NrefParams) -> Database {
    generate_checked(params, &Faults::disabled()).expect("no faults armed")
}

/// [`generate`] with fault sites armed: `panic:build:<table>` fires as
/// each finished table is added to the database (simulating a crash
/// mid-build) and `enospc:datagen` fires at the same boundary as an
/// injected I/O error. Generation is deterministic for a fixed seed, so
/// a caller that catches the crash can simply re-run to resume.
pub fn generate_checked(params: NrefParams, faults: &Faults) -> std::io::Result<Database> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = params.proteins.max(100);

    // Value pools. Taxa and names follow Zipf laws; lineages are shared
    // prefixes of the taxonomic tree, so several taxa map to one lineage.
    // Domain sizes follow real NREF proportions: hundreds of thousands of
    // taxa and protein names at full scale, so equi-joins on these
    // columns have small fan-outs for all but the hot values.
    let n_taxa = (n / 2).max(50);
    let n_names = (n / 5).max(100);
    let n_lineages = (n_taxa / 10).max(10);
    let taxon_z = Zipf::new(n_taxa, 0.9);
    let name_z = Zipf::new(n_names, 1.05);
    let sources = ["SwissProt", "TrEMBL", "RefSeq", "GenPept", "PDB", "PIR-PSD"];

    let lineage_of =
        |taxon: usize| -> Value { Value::str(format!("lin_{:05}", taxon % n_lineages)) };
    let name_of = |rank: usize| -> Value { Value::str(format!("prot name {rank:06}")) };
    let species_of = |taxon: usize| -> Value { Value::str(format!("species {taxon:05}")) };

    let schemas = nref_schemas();
    let mut tables: Vec<Table> = schemas.into_iter().map(Table::new).collect();
    let [protein, source, taxonomy, organism, neighboring, identical] = &mut tables[..] else {
        unreachable!("six schemas");
    };

    // All child tables are generated protein-by-protein, so their heaps
    // are *clustered* by nref_id -- as the real NREF load files are
    // (the dump is emitted per entry). Clustering is what makes index
    // fetches on nref-correlated columns touch few heap pages.
    let score_z = Zipf::new(1000, 1.0);
    for i in 0..n {
        let nref = i as i64;
        protein.insert(vec![
            Value::Int(nref),
            name_of(name_z.sample(&mut rng)),
            Value::Int(rng.random_range(730_000..731_000)),
            Value::str("MKV..."),
            Value::Int(rng.random_range(50..3000)),
        ]);

        // source: 30 rows per 11 proteins (paper ratio), varying 2..=3.
        let n_src = if i % 11 < 8 { 3 } else { 2 };
        for j in 0..n_src {
            source.insert(vec![
                Value::Int(nref),
                Value::Int(j as i64),
                Value::Int(taxon_z.sample(&mut rng) as i64),
                Value::str(format!("AC{i:06}{j}")),
                name_of(name_z.sample(&mut rng)),
                Value::str(sources[rng.random_range(0..sources.len())]),
            ]);
        }

        // taxonomy: 151 rows per 11 proteins, varying 13..=14.
        let n_tax = if i % 11 < 8 { 14 } else { 13 };
        for _ in 0..n_tax {
            let taxon = taxon_z.sample(&mut rng);
            taxonomy.insert(vec![
                Value::Int(nref),
                Value::Int(taxon as i64),
                lineage_of(taxon),
                species_of(taxon),
                name_of(name_z.sample(&mut rng)),
            ]);
        }

        // organism: 12 rows per 11 proteins.
        let n_org = if i % 11 == 0 { 2 } else { 1 };
        for j in 0..n_org {
            let taxon = taxon_z.sample(&mut rng);
            organism.insert(vec![
                Value::Int(nref),
                Value::Int(j as i64),
                Value::Int(taxon as i64),
                species_of(taxon),
            ]);
        }

        // neighboring_seq: ~71 neighbors per protein on average, with a
        // long-tailed per-protein count; neighbor ids cluster around the
        // source protein (sequence similarity is local in generated id
        // space), scores skewed.
        // 1574 rows per 22 proteins (the paper's 78.7M : 1.1M), with a
        // long-tailed per-protein neighbor count.
        let n_nbr = match i % 22 {
            0 => 398,
            1..=3 => 20,
            _ => 62,
        };
        for j in 0..n_nbr {
            let delta = rng.random_range(1..200i64);
            let nref2 = (nref + delta) % n as i64;
            let s1 = rng.random_range(0..2000i64);
            let s2 = rng.random_range(0..2000i64);
            let olen = rng.random_range(20..1500i64);
            neighboring.insert(vec![
                Value::Int(nref),
                Value::Int(j as i64),
                Value::Int(nref2),
                Value::Int(taxon_z.sample(&mut rng) as i64),
                Value::Int(rng.random_range(50..3000)),
                Value::Int(score_z.sample(&mut rng) as i64),
                Value::Int(olen),
                Value::Int(s1),
                Value::Int(s2),
                Value::Int(s1 + olen),
                Value::Int(s2 + olen),
            ]);
        }

        // identical_seq: ~0.45 per protein.
        if (i * 5) % 11 < 5 {
            let nref2 = rng.random_range(0..n) as i64;
            identical.insert(vec![
                Value::Int(nref),
                Value::Int(0),
                Value::Int(nref2),
                Value::Int(taxon_z.sample(&mut rng) as i64),
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

    #[test]
    fn ratios_match_paper() {
        let db = generate(NrefParams {
            proteins: 2000,
            seed: 1,
        });
        let rows = |t: &str| db.table(t).unwrap().n_rows() as f64;
        let p = rows("protein");
        assert!((rows("taxonomy") / p - 151.0 / 11.0).abs() < 0.5);
        assert!((rows("neighboring_seq") / p - 787.0 / 11.0).abs() < 0.5);
        assert!((rows("source") / p - 30.0 / 11.0).abs() < 0.2);
        assert!(rows("identical_seq") < p);
    }

    #[test]
    fn schema_is_valid_and_stats_collected() {
        let db = generate(NrefParams {
            proteins: 500,
            seed: 2,
        });
        assert!(db.validate().is_empty());
        assert!(db.stats("taxonomy").is_some());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate(NrefParams {
            proteins: 300,
            seed: 9,
        });
        let b = generate(NrefParams {
            proteins: 300,
            seed: 9,
        });
        let ta = a.table("taxonomy").unwrap();
        let tb = b.table("taxonomy").unwrap();
        assert_eq!(ta.n_rows(), tb.n_rows());
        assert_eq!(ta.row(17), tb.row(17));
    }

    #[test]
    fn names_are_skewed() {
        let db = generate(NrefParams {
            proteins: 3000,
            seed: 3,
        });
        let s = db.stats("protein").unwrap();
        let pname = &s.columns[1];
        let top = pname.mcvs[0].1 as f64;
        let avg = pname.n_rows as f64 / pname.n_distinct as f64;
        assert!(
            top > 10.0 * avg,
            "top name should dwarf average: top={top} avg={avg}"
        );
    }

    #[test]
    fn shared_domains_enable_cross_table_joins() {
        let schemas = nref_schemas();
        let dom = |t: usize, c: &str| {
            schemas[t]
                .columns
                .iter()
                .find(|x| x.name == c)
                .unwrap()
                .domain
                .clone()
        };
        assert_eq!(dom(1, "taxon_id"), dom(2, "taxon_id"));
        assert_eq!(dom(0, "p_name"), dom(1, "p_name"));
        assert_eq!(dom(4, "nref_id_2"), dom(0, "nref_id"));
    }

    #[test]
    fn sequence_column_not_indexable() {
        let schemas = nref_schemas();
        let seq = schemas[0]
            .columns
            .iter()
            .find(|c| c.name == "sequence")
            .unwrap();
        assert!(!seq.indexable);
    }
}
