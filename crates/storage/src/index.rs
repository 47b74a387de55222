//! B+tree secondary indexes over one to four columns.
//!
//! An index maps a composite key (the indexed column values, in order) to
//! the list of matching row ids. Probes support full-key point lookups
//! and prefix range scans, and report how many *index pages* the probe
//! touched so the executor can charge I/O costs. A covering check lets
//! the optimizer skip heap fetches when the index contains every column a
//! query needs — the mechanism behind the multi-column covering indexes
//! that the paper's recommenders favour (Tables 2–3).
//!
//! In memory the index is one flat sorted run, not a tree: row ids
//! sorted by (key, arrival order), each *distinct* key stored once, a
//! group-offset array, and each group's build-time leaf position. Build
//! is one stable sort plus one linear pass; a probe is a binary search
//! over the distinct keys plus one slice copy; a maintenance insert is a
//! binary search plus an O(n) 4-byte `memmove`, and the copy-on-write
//! clone a shared insert pays first is four flat vector copies. The type
//! keeps its name because everything it *charges* — entries per page,
//! height, descent pages, leaf positions — is a B+tree's page-cost model.

use std::fmt;

use crate::column::OrderKeys;
use crate::schema::TableSchema;
use crate::table::{RowId, Table, PAGE_SIZE};
use crate::value::Value;

/// Maximum number of key columns, per the paper's observation that "no
/// index with more than 4 columns was recommended" (Tables 2–3).
pub(crate) const MAX_INDEX_COLUMNS: usize = 4;

/// Static description of an index: which table, which columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexSpec {
    /// Table (or materialized view) name the index is defined on.
    pub table: String,
    /// Indexed column positions, significant order, 1..=4 entries.
    pub columns: Vec<usize>,
}

impl IndexSpec {
    /// A new spec.
    ///
    /// # Panics
    /// Panics if `columns` is empty or longer than `MAX_INDEX_COLUMNS`
    /// (4).
    pub fn new(table: impl Into<String>, columns: Vec<usize>) -> Self {
        assert!(
            !columns.is_empty() && columns.len() <= MAX_INDEX_COLUMNS,
            "index must have 1..={MAX_INDEX_COLUMNS} columns"
        );
        IndexSpec {
            table: table.into(),
            columns,
        }
    }

    /// Whether this index's key starts with the other's key (so it can
    /// answer every probe the other can).
    pub fn subsumes(&self, other: &IndexSpec) -> bool {
        self.table == other.table
            && other.columns.len() <= self.columns.len()
            && self.columns[..other.columns.len()] == other.columns[..]
    }
}

impl fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idx_{}(", self.table)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str(")")
    }
}

/// Result of an index probe: matching row ids plus the I/O charged.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    /// Matching row ids, in key order: the index's own run, borrowed.
    pub row_ids: &'a [RowId],
    /// Index pages touched (tree descent + leaf scan).
    pub pages_touched: u64,
    /// Leaf page number (0-based within the index's leaf level) where
    /// the probe's scan started; `0` for an empty probe. Gives the
    /// buffer pool a stable identity for the `leaf_pages` span
    /// `first_leaf..first_leaf + (pages_touched - height)`.
    pub first_leaf: u64,
}

/// Sort `ids` — ascending on entry — by their cells in `cols`, leading
/// column first, ties left in ascending id order. `packed` is scratch.
fn sort_by_columns(ids: &mut [RowId], cols: &[OrderKeys<'_>], packed: &mut Vec<u128>) {
    let Some((col, rest)) = cols.split_first() else {
        return;
    };
    packed.clear();
    packed.extend(ids.iter().map(|&id| col.get(id) << 32 | id as u128));
    packed.sort_unstable();
    for (id, p) in ids.iter_mut().zip(packed.iter()) {
        *id = *p as RowId;
    }
    if rest.is_empty() {
        return;
    }
    // Runs of two or more rows equal on this column, as index ranges.
    let mut runs = Vec::new();
    let mut start = 0;
    for end in 1..=ids.len() {
        if end == ids.len() || packed[end] >> 32 != packed[start] >> 32 {
            if end - start > 1 {
                runs.push(start..end);
            }
            start = end;
        }
    }
    for run in runs {
        sort_by_columns(&mut ids[run], rest, packed);
    }
}

/// A secondary index: a flat sorted run with a B+tree's page-cost model.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    spec: IndexSpec,
    /// Row ids sorted by (key, arrival order); group `g` owns
    /// `ids[offsets[g]..offsets[g + 1]]`.
    ids: Vec<RowId>,
    /// The distinct keys in key order, `spec.columns.len()` values each,
    /// as the table's columns hold them.
    keys: Vec<Value>,
    /// Each group's start in `ids`, then `ids.len()`.
    offsets: Vec<u32>,
    /// Entries before each group *at build time*: a stable leaf-page
    /// position for the buffer pool's page identities. Inserts never
    /// shift it, and a key that postdates the build inherits its
    /// predecessor's (approximate page identity, exact page *counts*).
    leaf_starts: Vec<u32>,
    entry_width: u32,
    clustering: f64,
}

impl BTreeIndex {
    /// Build the index over a table's current contents.
    ///
    /// Returns the index together with its build cost in pages written
    /// (the sort + write cost model used for Table 1's build times).
    pub fn build(spec: IndexSpec, table: &Table) -> (Self, u64) {
        // Rows sort as integers: each key column answers an order key per
        // row (the `i64` itself, a float's ordered bits, a string's rank
        // in its dictionary), packed above the row id — ids ascend with
        // arrival, so ties keep arrival order. Runs of rows equal on one
        // column are then sorted on the next.
        let order: Vec<_> = spec
            .columns
            .iter()
            .map(|&c| table.column(c).order_keys())
            .collect();
        let mut run: Vec<RowId> = (0..table.n_rows() as RowId).collect();
        sort_by_columns(&mut run, &order, &mut Vec::new());
        // One pass over the run: group boundaries, and the clustering
        // factor (Oracle-style) — heap-page switches in key order divided
        // by entries. Near zero when index order matches heap order (each
        // page serves many entries), 1.0 when every entry lands on a
        // different page.
        let (mut keys, mut offsets) = (Vec::new(), Vec::new());
        let mut page_switches = 0u64;
        let mut last_page = None;
        for (pos, &id) in run.iter().enumerate() {
            if pos == 0 || order.iter().any(|k| k.get(run[pos - 1]) != k.get(id)) {
                keys.extend(spec.columns.iter().map(|&c| table.value(id, c)));
                offsets.push(pos as u32);
            }
            let page = Some(table.page_of(id));
            page_switches += u64::from(last_page != page);
            last_page = page;
        }
        let clustering = match run.len() {
            0 => 1.0,
            n => (page_switches as f64 / n as f64).clamp(0.0, 1.0),
        };
        let leaf_starts = offsets.clone();
        offsets.push(run.len() as u32);
        let idx = BTreeIndex {
            entry_width: Self::entry_width(table.schema(), &spec.columns),
            spec,
            ids: run,
            keys,
            offsets,
            leaf_starts,
            clustering,
        };
        let cost = idx.build_pages(table);
        (idx, cost)
    }

    /// Pages charged for building this index over `table`: read the heap
    /// once, sort (log factor), write the leaves. An index shared from an
    /// earlier build over the same table is charged the same.
    pub(crate) fn build_pages(&self, table: &Table) -> u64 {
        let sort_factor = (self.n_entries().max(2) as f64).log2().ceil() as u64;
        (table.n_pages() * sort_factor.max(1) / 4 + self.n_pages()).max(1)
    }

    /// The index spec.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Bytes per entry under the page model: key bytes + row-id pointer
    /// + entry header.
    pub fn entry_width(schema: &TableSchema, columns: &[usize]) -> u32 {
        let key_width: u32 = columns.iter().map(|&c| schema.columns[c].byte_width).sum();
        key_width + 8 + 4
    }

    /// Leaf pages holding `n_entries` entries of `entry_width` bytes: the
    /// one sizing formula, for a built index ([`BTreeIndex::n_pages`]) and
    /// for sizing one from a row count without building it.
    pub(crate) fn pages_for(entry_width: u32, n_entries: u64) -> u64 {
        n_entries.div_ceil(Self::per_page(entry_width)).max(1)
    }

    fn per_page(entry_width: u32) -> u64 {
        (PAGE_SIZE / entry_width.max(1)).max(1) as u64
    }

    /// Entries per leaf page under the page model.
    pub fn entries_per_page(&self) -> u64 {
        Self::per_page(self.entry_width)
    }

    /// Leaf-level size in pages.
    pub fn n_pages(&self) -> u64 {
        Self::pages_for(self.entry_width, self.n_entries())
    }

    /// Height of the tree (descent cost per probe).
    pub fn height(&self) -> u64 {
        // Fanout ~ entries per page; height = ceil(log_f(leaves)) + 1.
        let leaves = self.n_pages();
        let fanout = self.entries_per_page().max(2);
        let mut h = 1;
        let mut span = fanout;
        while span < leaves {
            span = span.saturating_mul(fanout);
            h += 1;
        }
        h
    }

    fn key(&self, group: usize) -> &[Value] {
        let w = self.spec.columns.len();
        &self.keys[group * w..(group + 1) * w]
    }

    /// First group at or after `from` whose key fails `pred`; `pred` must
    /// hold for a (possibly empty) head of the groups from `from` on.
    fn partition(&self, from: usize, pred: impl Fn(&[Value]) -> bool) -> usize {
        let (mut lo, mut hi) = (from, self.n_distinct_keys());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The probe result for groups `lo..hi`: one contiguous slice of ids,
    /// scanned from the leaf page holding group `lo`'s first entry.
    fn span(&self, lo: usize, hi: usize) -> Probe<'_> {
        let ids = &self.ids[self.offsets[lo] as usize..self.offsets[hi] as usize];
        let leaf_pages = (ids.len() as u64).div_ceil(self.entries_per_page()).max(1);
        let leaf =
            |g| (self.leaf_starts[g] as u64 / self.entries_per_page()).min(self.n_pages() - 1);
        Probe {
            row_ids: ids,
            pages_touched: self.height() + leaf_pages,
            first_leaf: if ids.is_empty() { 0 } else { leaf(lo) },
        }
    }

    /// Point/prefix probe: all rows whose key starts with `prefix`.
    ///
    /// `prefix` may bind fewer columns than the key has, in which case
    /// this is a range scan over the bound prefix.
    pub fn probe(&self, prefix: &[Value]) -> Probe<'_> {
        let n = prefix.len();
        assert!(
            n > 0 && n <= self.spec.columns.len(),
            "probe prefix must bind 1..=key_len columns"
        );
        let lo = self.partition(0, |k| k[..n] < *prefix);
        self.span(lo, self.partition(lo, |k| k[..n] == *prefix))
    }

    /// Index page numbers (within this index's relation) of the tree
    /// descent to `first_leaf`: one internal page per level, root last.
    /// Pages `0..n_pages()` are the leaf level; internal levels are
    /// numbered above it, so the root is the relation's hottest page and
    /// stays resident under any reasonable pool size.
    pub fn descent_pages(&self, first_leaf: u64) -> Vec<u64> {
        let fanout = self.entries_per_page().max(2);
        let mut pages = Vec::with_capacity(self.height() as usize);
        let mut base = self.n_pages();
        let mut width = self.n_pages();
        let mut pos = first_leaf.min(width - 1);
        for _ in 0..self.height() {
            width = width.div_ceil(fanout).max(1);
            pos /= fanout;
            pages.push(base + pos);
            base += width;
        }
        pages
    }

    /// Iterate all `(key, row_ids)` groups in key order (full index scan).
    pub fn scan(&self) -> impl Iterator<Item = (&[Value], &[RowId])> {
        let keys = self.keys.chunks_exact(self.spec.columns.len());
        let ids = |o: &[u32]| &self.ids[o[0] as usize..o[1] as usize];
        keys.zip(self.offsets.windows(2).map(ids))
    }

    /// Range probe on the leading key column: all rows whose first key
    /// component satisfies `lo/hi` style bounds expressed as
    /// `(value, strict)` pairs (`None` = unbounded).
    pub fn probe_leading_range(
        &self,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Probe<'_> {
        // Groups whose head is below `v`, or equal to it if `or_equal`:
        // what a strict `lo` skips and an inclusive `hi` keeps.
        let below = |from, v: &Value, or_equal: bool| {
            self.partition(from, |k| k[0] < *v || (or_equal && k[0] == *v))
        };
        let start = lo.map_or(0, |(v, strict)| below(0, v, strict));
        let end = |(v, strict): (&Value, bool)| below(start, v, !strict);
        self.span(start, hi.map_or(self.n_distinct_keys(), end))
    }

    /// Insert a table row that was just appended (index maintenance).
    ///
    /// Returns pages written (descent + leaf update) for the insertion
    /// cost model of §4.4.
    pub fn insert(&mut self, row: &[Value], id: RowId) -> u64 {
        let key: Vec<Value> = self.spec.columns.iter().map(|&c| row[c].clone()).collect();
        let g = self.partition(0, |k| k < &key[..]);
        if g == self.n_distinct_keys() || self.key(g) != &key[..] {
            let inherited = g.checked_sub(1).map_or(0, |prev| self.leaf_starts[prev]);
            self.leaf_starts.insert(g, inherited);
            self.offsets.insert(g, self.offsets[g]);
            self.keys.splice(g * key.len()..g * key.len(), key);
        }
        // The id joins the end of its group; later groups move up one.
        self.ids.insert(self.offsets[g + 1] as usize, id);
        self.offsets[g + 1..].iter_mut().for_each(|o| *o += 1);
        self.height() + 1
    }

    /// Total number of entries.
    pub(crate) fn n_entries(&self) -> u64 {
        self.ids.len() as u64
    }

    /// Measured clustering factor: average heap pages per matching row
    /// for a single-key probe (0 = perfectly clustered, 1 = scattered).
    pub fn clustering(&self) -> f64 {
        self.clustering
    }

    /// Number of distinct keys.
    pub fn n_distinct_keys(&self) -> usize {
        self.leaf_starts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};

    fn table_with(n: i64) -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Int),
                ColumnDef::new("c", ColType::Str),
            ],
        ));
        for i in 0..n {
            t.insert(vec![
                Value::Int(i % 10),
                Value::Int(i),
                Value::str(format!("s{}", i % 3)),
            ]);
        }
        t
    }

    #[test]
    fn point_probe_finds_all_matches() {
        let t = table_with(100);
        let (idx, _) = BTreeIndex::build(IndexSpec::new("t", vec![0]), &t);
        let p = idx.probe(&[Value::Int(3)]);
        assert_eq!(p.row_ids.len(), 10);
        for id in p.row_ids {
            assert_eq!(t.row(*id)[0], Value::Int(3));
        }
        assert!(p.pages_touched >= 1);
    }

    #[test]
    fn prefix_probe_on_composite_key() {
        let t = table_with(60);
        let (idx, _) = BTreeIndex::build(IndexSpec::new("t", vec![0, 1]), &t);
        // Prefix on first column only.
        let p = idx.probe(&[Value::Int(5)]);
        assert_eq!(p.row_ids.len(), 6);
        // Full key is unique here.
        let p2 = idx.probe(&[Value::Int(5), Value::Int(5)]);
        assert_eq!(p2.row_ids.len(), 1);
    }

    #[test]
    fn probe_missing_key_is_empty() {
        let t = table_with(10);
        let (idx, _) = BTreeIndex::build(IndexSpec::new("t", vec![0]), &t);
        assert!(idx.probe(&[Value::Int(99)]).row_ids.is_empty());
    }

    #[test]
    fn insert_maintains_index() {
        let mut t = table_with(10);
        let (mut idx, _) = BTreeIndex::build(IndexSpec::new("t", vec![1]), &t);
        let row = vec![Value::Int(0), Value::Int(777), Value::str("x")];
        let id = t.insert(row.clone());
        let pages = idx.insert(&row, id);
        assert!(pages >= 2);
        assert_eq!(idx.probe(&[Value::Int(777)]).row_ids, [id]);
    }

    #[test]
    fn subsumption() {
        let wide = IndexSpec::new("t", vec![0, 1, 2]);
        let narrow = IndexSpec::new("t", vec![0, 1]);
        let other = IndexSpec::new("t", vec![1]);
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
        assert!(!wide.subsumes(&other));
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn too_many_columns_rejected() {
        IndexSpec::new("t", vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn first_leaf_tracks_key_order() {
        let t = table_with(100_000);
        let (idx, _) = BTreeIndex::build(IndexSpec::new("t", vec![1]), &t);
        assert!(idx.n_pages() > 1, "need a multi-leaf index");
        let lo = idx.probe(&[Value::Int(0)]);
        let hi = idx.probe(&[Value::Int(99_999)]);
        assert_eq!(lo.first_leaf, 0);
        assert_eq!(hi.first_leaf, idx.n_pages() - 1);
        assert!(idx.probe(&[Value::Int(50_000)]).first_leaf > 0);
    }

    #[test]
    fn descent_pages_live_above_the_leaf_level() {
        let t = table_with(100_000);
        let (idx, _) = BTreeIndex::build(IndexSpec::new("t", vec![1]), &t);
        let n_leaves = idx.n_pages();
        let d_lo = idx.descent_pages(0);
        let d_hi = idx.descent_pages(n_leaves - 1);
        // One page per level; every descent ends at the same root page.
        assert_eq!(d_lo.len() as u64, idx.height());
        assert_eq!(d_hi.len() as u64, idx.height());
        assert_eq!(d_lo.last(), d_hi.last(), "shared root");
        for p in d_lo.iter().chain(&d_hi) {
            assert!(*p >= n_leaves, "internal pages sit above the leaves");
        }
        // Determinism: the same leaf always descends through the same pages.
        assert_eq!(idx.descent_pages(7), idx.descent_pages(7));
    }

    #[test]
    fn size_grows_with_entries() {
        let small = table_with(100);
        let big = table_with(100_000);
        let (i1, _) = BTreeIndex::build(IndexSpec::new("t", vec![0]), &small);
        let (i2, _) = BTreeIndex::build(IndexSpec::new("t", vec![0]), &big);
        assert!(i2.n_pages() > i1.n_pages());
        assert!(i2.height() >= i1.height());
    }
}

#[cfg(test)]
mod clustering_tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};

    fn table(clustered: bool, n: i64) -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", ColType::Int),
                ColumnDef::new("v", ColType::Int),
            ],
        ));
        for i in 0..n {
            // clustered: rows with equal k adjacent; scattered: interleaved.
            let k = if clustered {
                i / 50
            } else {
                i % (n / 50).max(1)
            };
            t.insert(vec![Value::Int(k), Value::Int(i)]);
        }
        t
    }

    #[test]
    fn clustered_heap_has_low_clustering_factor() {
        let (ci, _) = BTreeIndex::build(IndexSpec::new("t", vec![0]), &table(true, 20_000));
        let (si, _) = BTreeIndex::build(IndexSpec::new("t", vec![0]), &table(false, 20_000));
        assert!(
            ci.clustering() < 0.1,
            "clustered index factor should be small: {}",
            ci.clustering()
        );
        assert!(
            si.clustering() > 5.0 * ci.clustering(),
            "scattered ({}) should far exceed clustered ({})",
            si.clustering(),
            ci.clustering()
        );
    }

    #[test]
    fn clustering_bounded_by_one() {
        let (i, _) = BTreeIndex::build(IndexSpec::new("t", vec![1]), &table(false, 5_000));
        assert!(i.clustering() <= 1.0);
        assert!(i.clustering() > 0.0);
    }
}

#[cfg(test)]
mod range_probe_tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};

    fn idx() -> (Table, BTreeIndex) {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", ColType::Int),
                ColumnDef::new("v", ColType::Int),
            ],
        ));
        for i in 0..100i64 {
            t.insert(vec![Value::Int(i % 10), Value::Int(i)]);
        }
        let (i, _) = BTreeIndex::build(IndexSpec::new("t", vec![0, 1]), &t);
        (t, i)
    }

    #[test]
    fn bounded_both_sides() {
        let (t, idx) = idx();
        // 3 <= k < 6 -> k in {3,4,5}, 10 rows each.
        let lo = Value::Int(3);
        let hi = Value::Int(6);
        let p = idx.probe_leading_range(Some((&lo, false)), Some((&hi, true)));
        assert_eq!(p.row_ids.len(), 30);
        for id in p.row_ids {
            let k = t.row(*id)[0].as_int().unwrap();
            assert!((3..6).contains(&k));
        }
    }

    #[test]
    fn strict_and_inclusive_bounds() {
        let (_, idx) = idx();
        let v = Value::Int(5);
        // k > 5 vs k >= 5 differ by exactly the 10 rows at k = 5.
        let gt = idx.probe_leading_range(Some((&v, true)), None);
        let ge = idx.probe_leading_range(Some((&v, false)), None);
        assert_eq!(ge.row_ids.len() - gt.row_ids.len(), 10);
        // k < 5 vs k <= 5 likewise.
        let lt = idx.probe_leading_range(None, Some((&v, true)));
        let le = idx.probe_leading_range(None, Some((&v, false)));
        assert_eq!(le.row_ids.len() - lt.row_ids.len(), 10);
    }

    #[test]
    fn unbounded_returns_everything() {
        let (_, idx) = idx();
        let p = idx.probe_leading_range(None, None);
        assert_eq!(p.row_ids.len(), 100);
        assert!(p.pages_touched >= 1);
    }

    #[test]
    fn empty_span() {
        let (_, idx) = idx();
        let lo = Value::Int(50);
        let p = idx.probe_leading_range(Some((&lo, false)), None);
        assert!(p.row_ids.is_empty());
    }
}

/// The flat index against the representation it replaced: a
/// `BTreeMap<Vec<Value>, Vec<RowId>>` plus a frozen key → leaf-position
/// map, probed by the code the index used to run. Seeded, so a failure
/// names its trial.
#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::ops::Bound;

    type Key = Vec<Value>;
    /// `Probe` as a comparable triple.
    type Seen = (Vec<RowId>, u64, u64);

    struct Model {
        cols: Vec<usize>,
        map: BTreeMap<Key, Vec<RowId>>,
        leaf_starts: BTreeMap<Key, u64>,
        clustering: f64,
    }

    impl Model {
        fn build(cols: &[usize], table: &Table) -> Self {
            let mut map: BTreeMap<Key, Vec<RowId>> = BTreeMap::new();
            for (id, row) in table.iter() {
                let key = cols.iter().map(|&c| row[c].clone()).collect();
                map.entry(key).or_default().push(id);
            }
            let mut switches = 0u64;
            let mut last_page = None;
            for &id in map.values().flatten() {
                if last_page != Some(table.page_of(id)) {
                    switches += 1;
                    last_page = Some(table.page_of(id));
                }
            }
            let mut leaf_starts = BTreeMap::new();
            let mut cum = 0u64;
            for (k, ids) in &map {
                leaf_starts.insert(k.clone(), cum);
                cum += ids.len() as u64;
            }
            Model {
                cols: cols.to_vec(),
                map,
                leaf_starts,
                clustering: match table.n_rows() {
                    0 => 1.0,
                    n => (switches as f64 / n as f64).clamp(0.0, 1.0),
                },
            }
        }

        /// Page arithmetic is the index's own (it is not what changed);
        /// which groups match, in what order, from which leaf, is the
        /// model's.
        fn seen<'a>(
            &self,
            idx: &BTreeIndex,
            groups: impl Iterator<Item = (&'a Key, &'a Vec<RowId>)>,
        ) -> Seen {
            let mut row_ids = Vec::new();
            let mut first_leaf = 0;
            for (k, ids) in groups {
                if row_ids.is_empty() {
                    let cum = self
                        .leaf_starts
                        .range::<Key, _>((Bound::Unbounded, Bound::Included(k)))
                        .next_back()
                        .map_or(0, |(_, &c)| c);
                    first_leaf = (cum / idx.entries_per_page()).min(idx.n_pages() - 1);
                }
                row_ids.extend_from_slice(ids);
            }
            let leaf_pages = (row_ids.len() as u64)
                .div_ceil(idx.entries_per_page())
                .max(1);
            (row_ids, idx.height() + leaf_pages, first_leaf)
        }

        fn probe(&self, idx: &BTreeIndex, prefix: &[Value]) -> Seen {
            let from = (Bound::Included(prefix.to_vec()), Bound::Unbounded);
            let groups = self.map.range(from);
            self.seen(
                idx,
                groups.take_while(|(k, _)| k[..prefix.len()] == *prefix),
            )
        }

        fn range(
            &self,
            idx: &BTreeIndex,
            lo: Option<(&Value, bool)>,
            hi: Option<(&Value, bool)>,
        ) -> Seen {
            let start = match lo {
                Some((v, _)) => Bound::Included(vec![v.clone()]),
                None => Bound::Unbounded,
            };
            let groups = self
                .map
                .range((start, Bound::Unbounded))
                .filter(|(k, _)| !lo.is_some_and(|(v, strict)| strict && k[0] == *v))
                .take_while(|(k, _)| {
                    !hi.is_some_and(|(v, strict)| k[0] > *v || (strict && k[0] == *v))
                });
            self.seen(idx, groups)
        }

        fn insert(&mut self, row: &[Value], id: RowId) {
            let key = self.cols.iter().map(|&c| row[c].clone()).collect();
            self.map.entry(key).or_default().push(id);
        }
    }

    fn seen(p: Probe<'_>) -> Seen {
        (p.row_ids.to_vec(), p.pages_touched, p.first_leaf)
    }

    /// One cell of column `c` (even columns `Int`, odd ones `Str`) from
    /// a domain of `d` values; `nulls` allows NULL.
    fn cell(rng: &mut StdRng, c: usize, d: i64, nulls: bool) -> Value {
        let i = rng.random_range(0..d);
        match rng.random_range(0..if nulls { 8 } else { 7 }) {
            7 => Value::Null,
            _ if c.is_multiple_of(2) => Value::Int(i),
            _ => Value::str(format!("s{i:04}")),
        }
    }

    /// A probe key cell of any kind: an `Int`, a `Float` equal to one or
    /// between two, a string, or NULL.
    fn probe_cell(rng: &mut StdRng, d: i64) -> Value {
        let i = rng.random_range(0..d);
        match rng.random_range(0..8) {
            0..=2 => Value::Int(i),
            3 => Value::Float(i as f64),
            4 => Value::Float(i as f64 + 0.5),
            5 | 6 => Value::str(format!("s{i:04}")),
            _ => Value::Null,
        }
    }

    fn check(idx: &BTreeIndex, model: &Model, rng: &mut StdRng, d: i64, ctx: &str) {
        let w = model.cols.len();
        assert_eq!(idx.n_distinct_keys(), model.map.len(), "{ctx}");
        let total: usize = model.map.values().map(Vec::len).sum();
        assert_eq!(idx.n_entries(), total as u64, "{ctx}");
        assert_eq!(
            idx.clustering().to_bits(),
            model.clustering.to_bits(),
            "{ctx}"
        );
        let groups: Vec<_> = idx.scan().collect();
        let expect: Vec<_> = model
            .map
            .iter()
            .map(|(k, ids)| (&k[..], &ids[..]))
            .collect();
        assert_eq!(groups, expect, "{ctx}: scan");

        // Every stored key (up to a cap) at every prefix length, then
        // keys that are not there: below, between, above, and NULL.
        let step = (model.map.len() / 48).max(1);
        let mut keys: Vec<Key> = model.map.keys().step_by(step).cloned().collect();
        for _ in 0..16 {
            keys.push((0..w).map(|_| probe_cell(rng, d + 2)).collect());
        }
        keys.push(vec![Value::Int(-7); w]);
        keys.push(vec![Value::Float(0.25); w]);
        keys.push(vec![Value::str("~"); w]);
        keys.push(vec![Value::Null; w]);
        for k in &keys {
            for n in 1..=w {
                let got = seen(idx.probe(&k[..n]));
                assert_eq!(got, model.probe(idx, &k[..n]), "{ctx}: probe {:?}", &k[..n]);
            }
        }
        for (a, b) in keys.iter().zip(keys.iter().rev()) {
            let (a, b) = (&a[0], &b[0]);
            for (ls, hs) in [(false, false), (false, true), (true, false), (true, true)] {
                for (lo, hi) in [
                    (Some((a, ls)), Some((b, hs))),
                    (Some((a, ls)), None),
                    (None, Some((b, hs))),
                    (None, None),
                ] {
                    let got = seen(idx.probe_leading_range(lo, hi));
                    assert_eq!(got, model.range(idx, lo, hi), "{ctx}: range {lo:?}..{hi:?}");
                }
            }
        }
    }

    #[test]
    fn flat_index_matches_btreemap_model() {
        // Which kinds of maintenance insert the trials exercised.
        let (mut existing, mut smallest, mut largest, mut middle) = (0, 0, 0, 0);
        for trial in 0..24u64 {
            let rng = &mut StdRng::seed_from_u64(0x1C_2005 + trial);
            let n_cols = 4usize;
            let w = 1 + (trial % 4) as usize;
            // Wide columns: few entries per page, so even small tables
            // have many leaves and (past ~40 leaves) a second level.
            let columns = (0..n_cols)
                .map(|c| {
                    let ty = [ColType::Int, ColType::Str][c % 2];
                    ColumnDef::new(format!("c{c}"), ty).width(60 * (c as u32 + 1))
                })
                .collect();
            let mut table = Table::new(TableSchema::new("t", columns));
            let n_rows = [0, 1, 40, 700, 2500][trial as usize % 5];
            // Heavy duplicates, moderate, or (nearly) all distinct.
            let d = [3, 40, 1_000_000][trial as usize % 3];
            let nulls = trial % 2 == 1;
            for _ in 0..n_rows {
                let row: Vec<Value> = (0..n_cols).map(|c| cell(rng, c, d, nulls)).collect();
                table.insert(row);
            }
            let mut cols: Vec<usize> = (0..n_cols).collect();
            cols.rotate_left(trial as usize % 4);
            cols.truncate(w);
            let ctx = format!("trial {trial}: {n_rows} rows, key {cols:?}, domain {d}");

            let (mut idx, _) = BTreeIndex::build(IndexSpec::new("t", cols.clone()), &table);
            let mut model = Model::build(&cols, &table);
            check(&idx, &model, rng, d, &ctx);

            for j in 0..40i64 {
                let mut row: Vec<Value> = (0..n_cols).map(|c| cell(rng, c, d + 2, nulls)).collect();
                // A new smallest or largest leading key, in the column's type.
                let int = cols[0].is_multiple_of(2);
                match j % 4 {
                    0 if int => row[cols[0]] = Value::Int(-1 - j),
                    0 => row[cols[0]] = Value::str(format!("!{:04}", 9999 - j)),
                    1 if int => row[cols[0]] = Value::Int(i64::MAX - 40 + j),
                    1 => row[cols[0]] = Value::str(format!("~{j:04}")),
                    2 => {
                        if let Some(k) = model.map.keys().nth(j as usize % model.map.len().max(1)) {
                            cols.iter().zip(k).for_each(|(&c, v)| row[c] = v.clone());
                        }
                    }
                    _ => {}
                }
                let key: Key = cols.iter().map(|&c| row[c].clone()).collect();
                if model.map.contains_key(&key) {
                    existing += 1;
                } else if model.map.keys().next().is_some_and(|k| key < *k) {
                    smallest += 1;
                } else if model.map.keys().next_back().is_some_and(|k| key > *k) {
                    largest += 1;
                } else {
                    middle += 1;
                }
                let id = (n_rows as i64 + j) as RowId;
                model.insert(&row, id);
                assert_eq!(idx.insert(&row, id), idx.height() + 1, "{ctx}");
            }
            check(&idx, &model, rng, d, &format!("{ctx}, after inserts"));
        }
        for (kind, hits) in [("an existing", existing), ("a new smallest", smallest)] {
            assert!(hits > 20, "too few inserts of {kind} key: {hits}");
        }
        for (kind, hits) in [("a new largest", largest), ("a new middle", middle)] {
            assert!(hits > 20, "too few inserts of {kind} key: {hits}");
        }
    }
}
