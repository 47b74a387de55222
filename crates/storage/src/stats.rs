//! Table and column statistics for the cost-based optimizer.
//!
//! The benchmark "direct\[s\] the systems to collect statistics before
//! obtaining the recommendations and before running the queries"
//! (§3.2.3), so statistics here are exact-scan statistics: row counts,
//! null counts, distinct counts, a most-common-values (MCV) list, and an
//! equi-depth histogram. The optimizer uses them for selectivity
//! estimation; the *what-if* mode in `tab-engine` deliberately degrades
//! them for hypothetical configurations (see DESIGN.md §1).

use std::collections::HashMap;

use crate::table::Table;
use crate::value::Value;

/// Number of most-common values retained per column.
pub(crate) const MCV_LIMIT: usize = 50;

/// Number of equi-depth histogram buckets per column.
pub(crate) const HISTOGRAM_BUCKETS: usize = 32;

/// Statistics for a single column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Rows in the table when stats were collected.
    pub n_rows: u64,
    /// NULL count.
    pub n_null: u64,
    /// Distinct non-null values.
    pub n_distinct: u64,
    /// Most common values with their exact frequencies, descending.
    pub mcvs: Vec<(Value, u64)>,
    /// Equi-depth histogram bucket boundaries (ascending), including the
    /// minimum as the first entry and the maximum as the last.
    pub bounds: Vec<Value>,
    /// Frequency-of-frequency summary: `(occurrence_count, n_values)`
    /// pairs, ascending by count. Compact (one entry per *distinct*
    /// frequency) and exactly answers "what fraction of rows holds a
    /// value occurring `op k` times" — the estimate the frequency
    /// filters of §3.2.2 need.
    pub freq_of_freq: Vec<(u64, u64)>,
}

impl ColumnStats {
    /// Collect exact statistics for column `col` of `table`.
    pub fn collect(table: &Table, col: usize) -> Self {
        let n_rows = table.n_rows() as u64;
        // The distinct values in value order, each with its exact count.
        let mut sorted: Vec<(Value, u64)> = table
            .value_counts(col)
            .into_iter()
            .map(|(first, c)| (table.value(first, col), c))
            .collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let n_distinct = sorted.len() as u64;
        let non_null: u64 = sorted.iter().map(|(_, c)| c).sum();
        let n_null = n_rows - non_null;

        // A stable sort on the count keeps value order among equal counts.
        let mut by_freq: Vec<&(Value, u64)> = sorted.iter().collect();
        by_freq.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        let by_freq: Vec<(Value, u64)> = by_freq.into_iter().take(MCV_LIMIT).cloned().collect();

        let mut fof: HashMap<u64, u64> = HashMap::new();
        for (_, c) in &sorted {
            *fof.entry(*c).or_insert(0) += 1;
        }
        let mut freq_of_freq: Vec<(u64, u64)> = fof.into_iter().collect();
        freq_of_freq.sort_unstable();

        // Equi-depth bounds over the sorted multiset.
        let mut bounds = Vec::new();
        if let (Some(first), Some(last)) = (sorted.first(), sorted.last()) {
            bounds.push(first.0.clone());
            let depth = (non_null / HISTOGRAM_BUCKETS as u64).max(1);
            let mut acc = 0u64;
            let mut next_mark = depth;
            for (v, c) in &sorted {
                acc += c;
                while acc >= next_mark && bounds.len() < HISTOGRAM_BUCKETS {
                    bounds.push(v.clone());
                    next_mark += depth;
                }
            }
            bounds.push(last.0.clone());
        }

        ColumnStats {
            n_rows,
            n_null,
            n_distinct,
            mcvs: by_freq,
            bounds,
            freq_of_freq,
        }
    }

    /// Exact fraction of rows whose value occurs `< k` (when `lt`) or
    /// `= k` times in this column.
    pub fn freq_mass_fraction(&self, lt: bool, k: i64) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let mass: u64 = self
            .freq_of_freq
            .iter()
            .filter(|&&(c, _)| if lt { (c as i64) < k } else { c as i64 == k })
            .map(|&(c, nv)| c * nv)
            .sum();
        mass as f64 / self.n_rows as f64
    }

    /// Fraction of rows retained by `col = value`, from real statistics.
    ///
    /// MCV hits are exact; misses use the classic uniform split of the
    /// non-MCV mass over the non-MCV distinct values.
    pub fn eq_selectivity(&self, value: &Value) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        if value.is_null() {
            return 0.0; // equality with NULL never matches
        }
        if let Some((_, c)) = self.mcvs.iter().find(|(v, _)| v == value) {
            return *c as f64 / self.n_rows as f64;
        }
        let mcv_mass: u64 = self.mcvs.iter().map(|(_, c)| c).sum();
        let rest_rows = (self.n_rows - self.n_null).saturating_sub(mcv_mass);
        let rest_distinct = self.n_distinct.saturating_sub(self.mcvs.len() as u64);
        if rest_distinct == 0 {
            // Every distinct value is an MCV and this one is not among
            // them: it does not occur.
            return 0.0;
        }
        (rest_rows as f64 / rest_distinct as f64) / self.n_rows as f64
    }

    /// Fraction of rows retained by `col = ?` when the constant is
    /// unknown: 1 / n_distinct. This is the *uniformity assumption* the
    /// what-if mode falls back to for hypothetical configurations.
    pub fn eq_selectivity_uniform(&self) -> f64 {
        if self.n_rows == 0 || self.n_distinct == 0 {
            return 0.0;
        }
        let non_null = (self.n_rows - self.n_null) as f64 / self.n_rows as f64;
        non_null / self.n_distinct as f64
    }

    /// Fraction of rows with `col < value` (strictly), read off the
    /// equi-depth histogram: each inter-bound interval holds an equal
    /// share of the non-null mass.
    pub fn lt_selectivity(&self, value: &Value) -> f64 {
        if self.n_rows == 0 || self.bounds.len() < 2 {
            return 0.5;
        }
        let non_null = (self.n_rows - self.n_null) as f64 / self.n_rows as f64;
        if *value <= self.bounds[0] {
            return 0.0;
        }
        if *value > *self.bounds.last().expect("non-empty") {
            return non_null;
        }
        // Buckets strictly below the value, plus a half-bucket credit for
        // the bucket the value falls in.
        let below = self.bounds.iter().skip(1).filter(|b| **b < *value).count();
        let buckets = (self.bounds.len() - 1) as f64;
        non_null * ((below as f64 + 0.5) / buckets).min(1.0)
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count at collection time.
    pub n_rows: u64,
    /// Heap pages at collection time.
    pub n_pages: u64,
    /// Per-column statistics, one per schema column.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collect statistics for every column of `table`.
    pub fn collect(table: &Table) -> Self {
        let columns = (0..table.schema().columns.len())
            .map(|c| ColumnStats::collect(table, c))
            .collect();
        TableStats {
            n_rows: table.n_rows() as u64,
            n_pages: table.n_pages(),
            columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};

    fn skewed_table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        // Value 0 appears 1000 times, values 1..=100 once each.
        for _ in 0..1000 {
            t.insert(vec![Value::Int(0)]);
        }
        for i in 1..=100 {
            t.insert(vec![Value::Int(i)]);
        }
        t
    }

    #[test]
    fn mcv_captures_heavy_hitter() {
        let s = ColumnStats::collect(&skewed_table(), 0);
        assert_eq!(s.mcvs[0], (Value::Int(0), 1000));
        assert_eq!(s.n_distinct, 101);
        assert_eq!(s.n_rows, 1100);
    }

    #[test]
    fn eq_selectivity_exact_for_mcv() {
        let s = ColumnStats::collect(&skewed_table(), 0);
        let sel = s.eq_selectivity(&Value::Int(0));
        assert!((sel - 1000.0 / 1100.0).abs() < 1e-12);
    }

    #[test]
    fn eq_selectivity_uniform_differs_under_skew() {
        let s = ColumnStats::collect(&skewed_table(), 0);
        let real = s.eq_selectivity(&Value::Int(0));
        let uni = s.eq_selectivity_uniform();
        // Under skew the uniformity assumption grossly underestimates the
        // heavy hitter -- the estimation error the paper's §5 diagnoses.
        assert!(uni < real / 50.0);
    }

    #[test]
    fn non_mcv_value_uses_residual_mass() {
        // 60 distinct values: the 50 MCVs absorb the heavy ones, the
        // remaining 10 share the residual mass.
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        for i in 0..60i64 {
            let reps = if i < 50 { 10 } else { 2 };
            for _ in 0..reps {
                t.insert(vec![Value::Int(i)]);
            }
        }
        let s = ColumnStats::collect(&t, 0);
        assert_eq!(s.mcvs.len(), 50);
        let sel = s.eq_selectivity(&Value::Int(55));
        let expect = 2.0 / 520.0;
        assert!((sel - expect).abs() < 1e-9, "sel={sel} expect={expect}");
    }

    #[test]
    fn nulls_counted_not_matched() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        t.insert(vec![Value::Null]);
        t.insert(vec![Value::Int(1)]);
        let s = ColumnStats::collect(&t, 0);
        assert_eq!(s.n_null, 1);
        assert_eq!(s.eq_selectivity(&Value::Null), 0.0);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_span_range() {
        let s = ColumnStats::collect(&skewed_table(), 0);
        assert!(s.bounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.bounds.first(), Some(&Value::Int(0)));
        assert_eq!(s.bounds.last(), Some(&Value::Int(100)));
    }

    #[test]
    fn empty_table_stats() {
        let t = Table::new(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColType::Int)],
        ));
        let s = ColumnStats::collect(&t, 0);
        assert_eq!(s.n_rows, 0);
        assert_eq!(s.eq_selectivity(&Value::Int(1)), 0.0);
        assert!(s.bounds.is_empty());
    }
}
