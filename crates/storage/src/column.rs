//! Typed column storage and the key codes every key-based layer runs on.
//!
//! A [`Column`] holds one schema column of a [`crate::table::Table`] in
//! the representation its declared type names: `Int` cells as `i64`s
//! beside a [`NullMask`], `Str` cells as `u32` codes into a per-column
//! first-seen dictionary (looked up by *content*, so two allocations of
//! one string share a code). A cell of another type is a programming
//! error: every row reaches a table through a generator or through
//! `engine::dml::validate_insert`, so [`Column::push`] panics on one.
//!
//! Both representations answer [`Column::key`]: a `u64` per non-NULL
//! cell such that, inside one column, two cells have equal keys exactly
//! when [`Value`]'s equality says they are equal. Group-by, hash joins,
//! value counts and index builds compare those keys instead of cloning,
//! hashing and comparing `Value`s; [`CodeTable`] is the one hash table
//! they share.

use std::collections::HashMap;
use std::sync::Arc;

use crate::schema::ColType;
use crate::table::RowId;
use crate::value::Value;

/// Largest magnitude whose `i64 -> f64` cast is exact. A `Float` literal
/// can stand for an `Int` key only inside this range, where [`Value`]'s
/// cross-type equality (which compares through `f64`) cannot diverge
/// from exact `i64` equality.
const INT_EXACT_ABS: f64 = (1u64 << 53) as f64;

/// The code a NULL cell carries in a dictionary-coded column.
const NULL_CODE: u32 = u32::MAX;

/// One bit per row, set where the cell is NULL.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl NullMask {
    fn push(&mut self, null: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if null {
            self.words[self.len / 64] |= 1 << (self.len % 64);
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.ones != 0 && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// A string column's dictionary: distinct strings in first-seen order.
#[derive(Debug, Clone, Default)]
struct StrDict {
    strs: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
}

impl StrDict {
    fn intern(&mut self, s: Arc<str>) -> u32 {
        let code = self.strs.len() as u32;
        assert!(code < NULL_CODE, "string dictionary is full");
        self.strs.push(Arc::clone(&s));
        self.codes.insert(s, code);
        code
    }
}

#[derive(Debug, Clone)]
enum Repr {
    Int {
        vals: Vec<i64>,
        nulls: NullMask,
    },
    /// The dictionary is shared: a clone of the table, and a view column
    /// gathered from this one, copy it only when they meet a new string.
    Str {
        codes: Vec<u32>,
        dict: Arc<StrDict>,
    },
}

/// One column of a table. See the module docs.
#[derive(Debug, Clone)]
pub struct Column {
    repr: Repr,
}

impl Column {
    /// An empty column of the declared type.
    pub(crate) fn new(ty: ColType) -> Self {
        let repr = match ty {
            ColType::Int => Repr::Int {
                vals: Vec::new(),
                nulls: NullMask::default(),
            },
            ColType::Str => Repr::Str {
                codes: Vec::new(),
                dict: Arc::default(),
            },
        };
        Column { repr }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        match &self.repr {
            Repr::Int { vals, .. } => vals.len(),
            Repr::Str { codes, .. } => codes.len(),
        }
    }

    /// Append a cell.
    ///
    /// # Panics
    /// Panics, naming the cell and the column's type, if the cell is
    /// neither NULL nor of that type.
    pub(crate) fn push(&mut self, v: Value) {
        match (&mut self.repr, v) {
            (Repr::Int { vals, nulls }, Value::Int(i)) => {
                vals.push(i);
                nulls.push(false);
            }
            (Repr::Int { vals, nulls }, Value::Null) => {
                vals.push(0);
                nulls.push(true);
            }
            (Repr::Str { codes, dict }, Value::Str(s)) => {
                let known = dict.codes.get(&*s).copied();
                codes.push(known.unwrap_or_else(|| Arc::make_mut(dict).intern(s)));
            }
            (Repr::Str { codes, .. }, Value::Null) => codes.push(NULL_CODE),
            (repr, v) => {
                let ty = match repr {
                    Repr::Int { .. } => ColType::Int,
                    Repr::Str { .. } => ColType::Str,
                };
                panic!("cell {v} does not fit a column of type {ty}")
            }
        }
    }

    /// The cell at `id`, by value: an `i64` copy, or one `Arc` bump out
    /// of the dictionary.
    #[inline]
    pub(crate) fn value(&self, id: RowId) -> Value {
        let i = id as usize;
        match &self.repr {
            Repr::Int { nulls, .. } if nulls.get(i) => Value::Null,
            Repr::Int { vals, .. } => Value::Int(vals[i]),
            Repr::Str { codes, dict } => match codes[i] {
                NULL_CODE => Value::Null,
                c => Value::Str(Arc::clone(&dict.strs[c as usize])),
            },
        }
    }

    /// Whether the cell at `id` is NULL.
    #[inline]
    pub fn is_null(&self, id: RowId) -> bool {
        let i = id as usize;
        match &self.repr {
            Repr::Int { nulls, .. } => nulls.get(i),
            Repr::Str { codes, .. } => codes[i] == NULL_CODE,
        }
    }

    /// The cell's key, `None` for NULL: the `i64` itself or the
    /// dictionary code. Inside this column, equal keys ⇔ equal
    /// [`Value`]s.
    #[inline]
    pub fn key(&self, id: RowId) -> Option<u64> {
        let i = id as usize;
        match &self.repr {
            Repr::Int { nulls, .. } if nulls.get(i) => None,
            Repr::Int { vals, .. } => Some(vals[i] as u64),
            Repr::Str { codes, .. } => match codes[i] {
                NULL_CODE => None,
                c => Some(c as u64),
            },
        }
    }

    /// The key the cells of this column equal to `v` carry; `None` when
    /// no cell can equal it (NULL, a string the dictionary has not seen,
    /// a value of another type). A `Float` stands for an `Int` key only
    /// when it is integral and no larger than 2^53 in magnitude — the
    /// range where `i64` and `f64` equality agree.
    pub fn key_of(&self, v: &Value) -> Option<u64> {
        match (&self.repr, v) {
            (Repr::Int { .. }, Value::Int(i)) => Some(*i as u64),
            (Repr::Int { .. }, Value::Float(f)) => {
                (f.is_finite() && *f == f.trunc() && f.abs() <= INT_EXACT_ABS)
                    .then_some(*f as i64 as u64)
            }
            (Repr::Str { dict, .. }, Value::Str(s)) => dict.codes.get(&**s).map(|&c| c as u64),
            _ => None,
        }
    }

    /// [`Column::key_of`] the cell at `id` of `other`, without building
    /// the `Value` when the two columns share a key space (both `Int`,
    /// or one dictionary).
    #[inline]
    pub fn key_from(&self, other: &Column, id: RowId) -> Option<u64> {
        let shared = match (&self.repr, &other.repr) {
            (Repr::Int { .. }, Repr::Int { .. }) => true,
            (Repr::Str { dict: a, .. }, Repr::Str { dict: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if shared {
            other.key(id)
        } else {
            self.key_of(&other.value(id))
        }
    }

    /// The `i64` cells and their NULL mask, if this is an `Int` column.
    pub fn as_ints(&self) -> Option<(&[i64], &NullMask)> {
        match &self.repr {
            Repr::Int { vals, nulls } => Some((vals, nulls)),
            Repr::Str { .. } => None,
        }
    }

    /// The cells at `ids`, as a new column of the same representation
    /// sharing this column's dictionary.
    pub(crate) fn gather(&self, ids: &[RowId]) -> Column {
        let repr = match &self.repr {
            Repr::Int { vals, nulls } => {
                let mut mask = NullMask::default();
                ids.iter().for_each(|&id| mask.push(nulls.get(id as usize)));
                Repr::Int {
                    vals: ids.iter().map(|&id| vals[id as usize]).collect(),
                    nulls: mask,
                }
            }
            Repr::Str { codes, dict } => Repr::Str {
                codes: ids.iter().map(|&id| codes[id as usize]).collect(),
                dict: Arc::clone(dict),
            },
        };
        Column { repr }
    }

    /// Each distinct non-NULL value, in first-seen order, as `(first row
    /// holding it, number of rows holding it)`.
    pub(crate) fn value_counts(&self) -> Vec<(RowId, u64)> {
        let mut out: Vec<(RowId, u64)> = Vec::new();
        match &self.repr {
            Repr::Int { .. } => {
                let mut seen = CodeTable::new(1);
                for id in 0..self.len() as RowId {
                    if let Some(k) = self.key(id) {
                        let (slot, new) = seen.intern(&[k]);
                        if new {
                            out.push((id, 0));
                        }
                        out[slot as usize].1 += 1;
                    }
                }
            }
            // Dense codes: a slot per dictionary entry, no hashing. A
            // shared dictionary may hold entries this column lacks.
            Repr::Str { codes, dict } => {
                let mut slot_of = vec![u32::MAX; dict.strs.len()];
                for (id, &c) in codes.iter().enumerate().filter(|(_, &c)| c != NULL_CODE) {
                    let slot = &mut slot_of[c as usize];
                    if *slot == u32::MAX {
                        *slot = out.len() as u32;
                        out.push((id as RowId, 0));
                    }
                    out[*slot as usize].1 += 1;
                }
            }
        }
        out
    }

    /// Per-row sort keys whose order is [`Value`]'s order inside this
    /// column (NULL first). A `Str` column ranks its dictionary once; the
    /// rows then compare as integers.
    pub(crate) fn order_keys(&self) -> OrderKeys<'_> {
        let ranks = match &self.repr {
            Repr::Int { .. } => Vec::new(),
            Repr::Str { dict, .. } => {
                let strs = &dict.strs;
                let mut by_value: Vec<u32> = (0..strs.len() as u32).collect();
                by_value.sort_unstable_by(|&a, &b| strs[a as usize].cmp(&strs[b as usize]));
                let mut ranks = vec![0; strs.len()];
                for (rank, &code) in by_value.iter().enumerate() {
                    ranks[code as usize] = rank as u32;
                }
                ranks
            }
        };
        OrderKeys { col: self, ranks }
    }
}

/// See [`Column::order_keys`].
pub(crate) struct OrderKeys<'a> {
    col: &'a Column,
    /// Rank of each dictionary code among the column's distinct values;
    /// empty for an `Int` column.
    ranks: Vec<u32>,
}

impl OrderKeys<'_> {
    /// An integer that orders as the cell does: zero for NULL, else bit
    /// 64 above an order-preserving image of the value.
    #[inline]
    pub(crate) fn get(&self, id: RowId) -> u128 {
        const SIGN: u64 = 1 << 63;
        let i = id as usize;
        let image = match &self.col.repr {
            Repr::Int { nulls, .. } if nulls.get(i) => return 0,
            Repr::Int { vals, .. } => vals[i] as u64 ^ SIGN,
            Repr::Str { codes, .. } => match codes[i] {
                NULL_CODE => return 0,
                c => self.ranks[c as usize] as u64,
            },
        };
        1 << 64 | image as u128
    }
}

/// Fill `buf` with one key per cell; `false` (a NULL cell: the tuple
/// equals nothing) leaves it partly filled.
#[inline]
pub fn key_tuple(buf: &mut Vec<u64>, cells: impl IntoIterator<Item = Option<u64>>) -> bool {
    buf.clear();
    cells.into_iter().all(|k| k.map(|k| buf.push(k)).is_some())
}

/// Row ids bucketed by their key tuple over some columns of one table:
/// a hash join's build side. Rows with a NULL key cell are left out;
/// buckets, and the ids inside each, are in input order.
pub struct RowBuckets {
    keys: CodeTable,
    rows: Vec<Vec<RowId>>,
}

impl RowBuckets {
    /// Bucket `ids` by their cells in `cols`.
    pub fn build(cols: &[&Column], ids: impl IntoIterator<Item = RowId>) -> Self {
        let mut out = RowBuckets {
            keys: CodeTable::new(cols.len()),
            rows: Vec::new(),
        };
        let mut key = Vec::with_capacity(cols.len());
        for id in ids {
            if key_tuple(&mut key, cols.iter().map(|c| c.key(id))) {
                out.bucket(&key).push(id);
            }
        }
        out
    }

    fn bucket(&mut self, key: &[u64]) -> &mut Vec<RowId> {
        let (b, new) = self.keys.intern(key);
        if new {
            self.rows.push(Vec::new());
        }
        &mut self.rows[b as usize]
    }

    /// Append `later`'s buckets — built over the same columns from ids
    /// that follow this one's — keeping input order.
    pub fn absorb(&mut self, later: RowBuckets) {
        for (b, mut ids) in later.rows.into_iter().enumerate() {
            self.bucket(later.keys.key(b as u32)).append(&mut ids);
        }
    }

    /// The rows whose key tuple is `key`.
    #[inline]
    pub fn get(&self, key: &[u64]) -> &[RowId] {
        self.lookup(key).map_or(&[], |b| self.rows(b))
    }

    /// The bucket holding key tuple `key`, if any row has it: a handle
    /// for [`RowBuckets::rows`], so a caller that looks a key up once can
    /// read its rows again without hashing a second time.
    #[inline]
    pub fn lookup(&self, key: &[u64]) -> Option<u32> {
        self.keys.lookup(key)
    }

    /// The rows of bucket `b` (from [`RowBuckets::lookup`]).
    #[inline]
    pub fn rows(&self, b: u32) -> &[RowId] {
        &self.rows[b as usize]
    }
}

/// An insertion-ordered hash table of fixed-width `u64` tuples: the
/// dictionary behind group-by, join build sides and value counts.
///
/// Ids are dense and assigned in first-seen order, so nothing that reads
/// the table can depend on hash order. Open addressing over a flat key
/// array: no allocation per key, and a multiply-rotate hash in place of
/// SipHash — the keys are column codes, not attacker-chosen strings.
#[derive(Debug, Clone)]
pub struct CodeTable {
    width: usize,
    /// `width` words per interned tuple, in id order.
    keys: Vec<u64>,
    /// Open-addressed slots holding `id + 1`; zero is empty.
    slots: Vec<u32>,
    len: usize,
}

impl CodeTable {
    /// An empty table of `width`-word tuples.
    pub fn new(width: usize) -> Self {
        CodeTable {
            width,
            keys: Vec::new(),
            slots: vec![0; 16],
            len: 0,
        }
    }

    /// Number of distinct tuples interned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tuple has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tuple behind an id.
    #[inline]
    pub fn key(&self, id: u32) -> &[u64] {
        &self.keys[id as usize * self.width..(id as usize + 1) * self.width]
    }

    /// The slot where `key` lives or would be inserted.
    #[inline]
    fn slot_of(&self, key: &[u64]) -> usize {
        let mut h = 0u64;
        for &w in key {
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        // Fold the high half in, multiply once more, and index by the
        // product's top bits: they depend on every bit of every word.
        h = (h ^ (h >> 32)).wrapping_mul(0x517c_c1b7_2722_0a95);
        let mask = self.slots.len() - 1;
        let mut slot = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                0 => return slot,
                // Word by word: the tuples are a few words long, and `==`
                // on slices is a `memcmp` call.
                id if self.key(id - 1).iter().eq(key) => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The id of `key`, if it has been interned.
    #[inline]
    pub fn lookup(&self, key: &[u64]) -> Option<u32> {
        self.slots[self.slot_of(key)].checked_sub(1)
    }

    /// The id of `key`, and whether this call assigned it.
    #[inline]
    pub fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.width);
        let slot = self.slot_of(key);
        if let Some(id) = self.slots[slot].checked_sub(1) {
            return (id, false);
        }
        let id = self.len as u32;
        assert!(id < u32::MAX, "code table is full");
        self.keys.extend_from_slice(key);
        self.len += 1;
        self.slots[slot] = id + 1;
        if self.len * 2 > self.slots.len() {
            self.slots = vec![0; self.slots.len() * 2];
            for id in 0..self.len as u32 {
                let slot = self.slot_of(self.key(id));
                self.slots[slot] = id + 1;
            }
        }
        (id, true)
    }
}
