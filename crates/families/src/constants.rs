//! Constant selection for query templates.
//!
//! §3.2.2: "For each column in each table, we pick three values k1, k2
//! and k3 that can be used as the constant k such that k1 has the
//! highest selectivity for the column and the frequencies of k2 and k3
//! are one and two orders of magnitude (resp.) greater than the
//! frequency of k1."
//!
//! Constants come from the actual database (the paper binds template
//! variables to "constants selected from the database"), so selection
//! here scans the column once and picks from exact frequencies.

use std::collections::HashMap;

use tab_storage::{Table, Value};

/// Exact value frequencies of a column, descending by frequency with a
/// deterministic tie-break on the value.
pub(crate) fn value_frequencies(table: &Table, col: usize) -> Vec<(Value, u64)> {
    let counts = table.value_counts(col).into_iter();
    let mut v: Vec<(Value, u64)> = counts.map(|(id, c)| (table.value(id, col), c)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// The `k1 / k2 / k3` constants for a column: the rarest value and two
/// values roughly 10× and 100× more frequent. Returns fewer than three
/// entries when the column's frequency spectrum cannot span two orders
/// of magnitude (the enumerators then emit fewer selection variants —
/// the paper's "fewer selection criteria on the larger tables" in
/// spirit).
pub(crate) fn selection_tiers(table: &Table, col: usize) -> Vec<(Value, u64)> {
    let freqs = value_frequencies(table, col);
    if freqs.is_empty() {
        return Vec::new();
    }
    let (v1, f1) = freqs.last().expect("non-empty").clone();
    let mut out = vec![(v1, f1)];
    for mag in [10.0, 100.0] {
        let target = f1 as f64 * mag;
        // Closest frequency to the target, in log space.
        let best = freqs
            .iter()
            .min_by(|a, b| {
                let da = (a.1 as f64 / target).ln().abs();
                let db = (b.1 as f64 / target).ln().abs();
                da.partial_cmp(&db).expect("finite")
            })
            .expect("non-empty")
            .clone();
        // Accept only if it is genuinely a different magnitude tier.
        let ratio = best.1 as f64 / f1 as f64;
        if ratio >= mag / 3.0 && out.iter().all(|(v, _)| *v != best.0) {
            out.push(best);
        }
    }
    out
}

/// Count-tiers for the `HAVING COUNT(*) = p` variant of θ(S.c₃)
/// (family SkTH3J, §3.2.2): three occurrence-counts `p` whose qualifying
/// row-masses are roughly one and two orders of magnitude apart.
pub fn count_tiers(table: &Table, col: usize) -> Vec<i64> {
    let freqs = value_frequencies(table, col);
    if freqs.is_empty() {
        return Vec::new();
    }
    // mass(c) = c * |{v : freq(v) = c}|, for each distinct count c.
    let mut mass: HashMap<u64, u64> = HashMap::new();
    for (_, f) in &freqs {
        *mass.entry(*f).or_insert(0) += *f;
    }
    // Ties on mass are the rule on uniform data: break them on the count,
    // or `masses[0]` and the `min_by` winners follow the hash seed.
    let mut masses: Vec<(u64, u64)> = mass.into_iter().collect();
    masses.sort_by_key(|&(c, m)| (m, c));
    let (c1, m1) = masses[0];
    let mut out = vec![c1 as i64];
    for mag in [10.0, 100.0] {
        let target = m1 as f64 * mag;
        let best = masses
            .iter()
            .min_by(|a, b| {
                let da = (a.1 as f64 / target).ln().abs();
                let db = (b.1 as f64 / target).ln().abs();
                da.partial_cmp(&db).expect("finite")
            })
            .expect("non-empty");
        let ratio = best.1 as f64 / m1 as f64;
        if ratio >= mag / 3.0 && !out.contains(&(best.0 as i64)) {
            out.push(best.0 as i64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_storage::{ColType, ColumnDef, TableSchema};

    /// Column with frequencies 1, 10 and 100.
    fn tiered_table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        t.insert(vec![Value::Int(1)]);
        for _ in 0..10 {
            t.insert(vec![Value::Int(2)]);
        }
        for _ in 0..100 {
            t.insert(vec![Value::Int(3)]);
        }
        t
    }

    #[test]
    fn tiers_span_magnitudes() {
        let tiers = selection_tiers(&tiered_table(), 0);
        assert_eq!(tiers.len(), 3);
        assert_eq!(tiers[0], (Value::Int(1), 1));
        assert_eq!(tiers[1], (Value::Int(2), 10));
        assert_eq!(tiers[2], (Value::Int(3), 100));
    }

    #[test]
    fn flat_column_yields_single_tier() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        for i in 0..50 {
            t.insert(vec![Value::Int(i)]);
        }
        let tiers = selection_tiers(&t, 0);
        assert_eq!(tiers.len(), 1);
        assert_eq!(tiers[0].1, 1);
    }

    #[test]
    fn empty_column() {
        let t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        assert!(selection_tiers(&t, 0).is_empty());
        assert!(count_tiers(&t, 0).is_empty());
    }

    #[test]
    fn count_tiers_reflect_mass() {
        // freq 1: 1 value  (mass 1); freq 10: one value (mass 10);
        // freq 100: one value (mass 100).
        let tiers = count_tiers(&tiered_table(), 0);
        assert_eq!(tiers, vec![1, 10, 100]);
    }

    #[test]
    fn count_tiers_break_mass_ties_on_the_count() {
        // Counts 2, 3, 4, 6 all have mass 12 (six pairs, four triples,
        // three quadruples, two sextuples); counts 20, 30, 40 all have
        // mass 120. Every tier is a tie, and every `HashMap` built here
        // has its own seed, so repeated calls visit the ties in different
        // orders.
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        let mut next = 0;
        for (count, values) in [(2, 6), (3, 4), (4, 3), (6, 2), (20, 6), (30, 4), (40, 3)] {
            for _ in 0..values {
                next += 1;
                for _ in 0..count {
                    t.insert(vec![Value::Int(next)]);
                }
            }
        }
        for _ in 0..64 {
            assert_eq!(count_tiers(&t, 0), vec![2, 20]);
        }
    }

    #[test]
    fn frequencies_sorted_desc() {
        let f = value_frequencies(&tiered_table(), 0);
        assert_eq!(f[0], (Value::Int(3), 100));
        assert_eq!(f[2], (Value::Int(1), 1));
    }
}
