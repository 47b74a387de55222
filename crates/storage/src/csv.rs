//! CSV export for tables — the paper's "raw relational format".
//!
//! §1.1: "Once the XML data is converted to 'raw' relational format
//! (i.e., CSV text files) it occupies 6.5GB." This module writes that
//! format so generated databases can be inspected (`tab gen`).
//!
//! Format: RFC-4180-style quoting, one header row with column names,
//! `NULL` (unquoted) for SQL NULL, integers in decimal.

use std::fs;
use std::io;
use std::path::Path;

use crate::table::Table;
use crate::value::Value;

fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) || field == "NULL" {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Render one value as a CSV field.
fn render(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Str(s) => quote(s),
        number => number.to_string(),
    }
}

/// Export a table to a CSV file (header row + one row per tuple).
pub fn export_table(table: &Table, path: impl AsRef<Path>) -> io::Result<()> {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema()
        .columns
        .iter()
        .map(|c| quote(&c.name))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for (_, row) in table.iter() {
        let fields: Vec<String> = row.iter().map(render).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    if let Some(dir) = path.as_ref().parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColType::Int),
                ColumnDef::new("name", ColType::Str),
                ColumnDef::new("score", ColType::Int),
            ],
        )
    }

    fn exported(t: &Table, name: &str) -> String {
        let path = std::env::temp_dir().join(format!("tab_csv_{name}_{}.csv", std::process::id()));
        export_table(t, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(path).ok();
        text
    }

    #[test]
    fn export_quotes_hostile_fields_and_renders_values() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::str("plain"), Value::Int(15)]);
        t.insert(vec![Value::Int(2), Value::str("com,ma \"q\""), Value::Null]);
        t.insert(vec![
            Value::Int(3),
            Value::str("two\nlines"),
            Value::Int(-25),
        ]);
        assert_eq!(
            exported(&t, "render"),
            "id,name,score\n1,plain,15\n2,\"com,ma \"\"q\"\"\",NULL\n3,\"two\nlines\",-25\n"
        );
    }

    #[test]
    fn quoted_null_string_is_not_null() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::str("NULL"), Value::Null]);
        let text = exported(&t, "nulls");
        assert_eq!(
            text, "id,name,score\n1,\"NULL\",NULL\n",
            "string NULL must be quoted"
        );
    }
}
