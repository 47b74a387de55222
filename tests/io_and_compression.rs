//! Integration tests for the CSV surface: round-trips of generated
//! databases and of arbitrary table content.

use tab_bench::datagen::{generate_nref, NrefParams};
use tab_bench::storage::{export_table, import_table};

#[test]
fn generated_nref_round_trips_through_csv() {
    let db = generate_nref(NrefParams {
        proteins: 300,
        seed: 21,
    });
    let dir = std::env::temp_dir().join(format!("tab_csv_it_{}", std::process::id()));
    for name in ["protein", "taxonomy", "identical_seq"] {
        let table = db.table(name).unwrap();
        let path = dir.join(format!("{name}.csv"));
        export_table(table, &path).unwrap();
        let back = import_table(table.schema().clone(), &path).unwrap();
        assert_eq!(back.n_rows(), table.n_rows(), "{name} row count");
        // Spot-check several rows across the file.
        for i in [0usize, table.n_rows() / 2, table.n_rows() - 1] {
            assert_eq!(back.row(i as u32), table.row(i as u32), "{name} row {i}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

mod csv_properties {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tab_bench::storage::{
        export_table, import_table, ColType, ColumnDef, Table, TableSchema, Value,
    };

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("i", ColType::Int),
                ColumnDef::new("s", ColType::Str),
                ColumnDef::new("f", ColType::Float),
            ],
        )
    }

    /// Strings over printable ASCII plus the CSV-hostile characters:
    /// quotes, commas, CR, LF, tabs — and occasionally the literal
    /// string "NULL".
    fn hostile_string(rng: &mut StdRng) -> String {
        if rng.random_bool(0.05) {
            return "NULL".to_string();
        }
        let len = rng.random_range(0usize..30);
        (0..len)
            .map(|_| {
                if rng.random_bool(0.25) {
                    ['"', ',', '\n', '\r', '\t'][rng.random_range(0usize..5)]
                } else {
                    rng.random_range(0x20u32..0x7F) as u8 as char
                }
            })
            .collect()
    }

    /// Arbitrary content — including embedded quotes, commas, CR/LF,
    /// the literal string "NULL", and NULL values — must round-trip
    /// exactly through export + import.
    #[test]
    fn csv_round_trips_arbitrary_content() {
        let mut rng = StdRng::seed_from_u64(0xC57_0001);
        for case in 0..48 {
            let n = rng.random_range(0usize..40);
            let mut t = Table::new(schema());
            for _ in 0..n {
                let i: u64 = rng.random();
                let s = if rng.random_bool(0.25) {
                    Value::Null
                } else {
                    Value::str(hostile_string(&mut rng))
                };
                let f = if rng.random_bool(0.25) {
                    Value::Null
                } else {
                    Value::Float((rng.random::<f64>() - 0.5) * 2.0e9)
                };
                t.insert(vec![Value::Int(i as i64), s, f]);
            }
            let path = std::env::temp_dir().join(format!(
                "tab_csv_prop_{}_{}.csv",
                std::process::id(),
                case
            ));
            export_table(&t, &path).unwrap();
            let back = import_table(schema(), &path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(back.n_rows(), t.n_rows(), "case {case}");
            for i in 0..t.n_rows() {
                assert_eq!(back.row(i as u32), t.row(i as u32), "case {case} row {i}");
            }
        }
    }
}
