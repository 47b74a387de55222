//! A deterministic buffer pool: fixed-size frames over 8 KiB pages with
//! dirty tracking and **clock eviction that is a pure function of the
//! logical access stream**.
//!
//! The paper's systems ran 6.5–10 GB databases against bounded buffer
//! memory; this pool lets the reproduction do the same while keeping
//! the harness's core guarantee: every artifact is byte-identical at
//! any thread count. The rule that makes that possible is simple —
//! **the pool never observes threads**. Page accesses are fed to the
//! pool by the executor's *coordinator* in the logical access order of
//! the plan (morsel results are replayed in morsel index order, exactly
//! like cost charges), each access gets the next value of a per-query
//! access sequence number, and the clock hand moves only in response to
//! those accesses. Two runs of the same query therefore perform the
//! same hits, misses, and evictions in the same order — at 1 thread or
//! 8, with any morsel size.
//!
//! Misses are classified by the access pattern the executor declares
//! ([`PageHint::Seq`] for readahead-friendly scans, [`PageHint::Random`]
//! for probes), which is what lets the `tab-engine` cost meter charge
//! *observed* I/O: a hit is free, a sequential miss costs a sequential
//! page, a random miss costs a random page.
//!
//! The pool is a model, not a cache: it holds no page bytes and
//! [`BufferPool::fetch`] returns only a [`Fetched`] verdict, while
//! operators read the in-memory columns. Dirty pages (spill output from
//! hash joins, aggregation, and sorts) are counted as spill writes when
//! they are evicted, and a later miss on one is counted as a spill read;
//! no byte reaches a disk. The pool therefore does not bound the
//! process's memory.
//!
//! Nothing pins a frame: the pool lends no frame to its caller, so an
//! access ends when [`BufferPool::fetch`] returns, and any frame
//! whose reference bit is clear may be the clock's next victim.
//!
//! See `DESIGN.md` §13 for the frame table layout and the determinism
//! rule.

use std::collections::{HashMap, HashSet};

use crate::fault::Faults;
use crate::pager::Pager;
use crate::table::PAGE_SIZE;
use crate::trace::{self, Trace};

/// Floor on the requested pool size: a smaller request gets this many
/// frames, so `--buffer-pages 1` through `7` all run an 8-frame pool.
pub(crate) const MIN_POOL_PAGES: usize = 8;

/// Identity of one 8 KiB page: a relation id (see [`table_rel_id`] and
/// friends) plus the page number within that relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Relation id, from [`table_rel_id`] / [`index_rel_id`] /
    /// [`temp_rel_id`].
    pub rel: u64,
    /// Page number within the relation.
    pub page: u64,
}

/// FNV-1a over a namespaced name; stable across runs and platforms so
/// the access stream (and with it every eviction) is reproducible.
fn fnv1a(namespace: &str, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in namespace.bytes().chain(name.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Relation id of a heap table's pages.
pub fn table_rel_id(table: &str) -> u64 {
    fnv1a("T:", table)
}

/// Relation id of an index's pages (leaves first, then internal levels;
/// see `BTreeIndex::descent_pages`).
pub fn index_rel_id(index: &str) -> u64 {
    fnv1a("I:", index)
}

/// Relation id of a temporary (spill) relation, e.g. `"spill"`.
pub fn temp_rel_id(name: &str) -> u64 {
    fnv1a("S:", name)
}

/// The access pattern the caller declares for a fetch; decides whether
/// a miss is charged as a sequential (readahead) or random page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageHint {
    /// Part of a sequential sweep (heap scan, leaf-level scan, spill
    /// write stream): a miss costs a sequential page.
    Seq,
    /// A point access (index descent, heap fetch by row id): a miss
    /// costs a random page.
    Random,
}

/// Outcome of one [`BufferPool::fetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// The page was resident; no I/O.
    Hit,
    /// Sequential-readahead miss: the page was loaded, charge one
    /// sequential page.
    MissSeq,
    /// Random miss: the page was loaded, charge one random page.
    MissRandom,
}

/// Wall-clock-free pool counters. All fields are order-independent
/// sums, so per-query stats merge into per-cell and per-run totals
/// identically at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Misses on a sequential ([`PageHint::Seq`]) access.
    pub misses_seq: u64,
    /// Misses on a random ([`PageHint::Random`]) access.
    pub misses_random: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Bytes of dirty pages evicted (spill writes; a count, no I/O).
    pub spill_bytes_written: u64,
    /// Bytes of spilled pages missed on again (spill reads; a count).
    pub spill_bytes_read: u64,
}

impl PoolStats {
    /// Total misses of either class.
    pub fn misses(&self) -> u64 {
        self.misses_seq + self.misses_random
    }

    /// Hit rate in `[0, 1]`; `1.0` for an untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulate another stats record (order-independent sums).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses_seq += other.misses_seq;
        self.misses_random += other.misses_random;
        self.evictions += other.evictions;
        self.spill_bytes_written += other.spill_bytes_written;
        self.spill_bytes_read += other.spill_bytes_read;
    }

    /// Whether every counter is zero (a compat-mode run).
    pub fn is_zero(&self) -> bool {
        *self == PoolStats::default()
    }
}

/// One frame of the pool: the resident page and its clock and dirty bits.
struct Frame {
    key: PageKey,
    referenced: bool,
    dirty: bool,
}

/// A fixed-capacity buffer pool with deterministic clock eviction.
///
/// One pool is created per query execution and driven only by the
/// executor's coordinator — it is deliberately `!Sync`-in-use (taken by
/// `&mut`), so thread timing cannot reach it.
pub struct BufferPool<'a> {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageKey, usize>,
    hand: usize,
    access_seq: u64,
    stats: PoolStats,
    /// Pages evicted dirty; a later miss on one of these is a spill
    /// read, not a heap read.
    spilled: HashSet<PageKey>,
    faults: Faults<'a>,
    trace: Trace<'a>,
    /// `evict:<family>/<config>` when the `panic:evict:*` fault site is
    /// armed for this query's cell.
    evict_site: Option<&'a str>,
}

impl<'a> BufferPool<'a> {
    /// A pool of `pages` frames (at least `MIN_POOL_PAGES`, 8). The
    /// `_pager` argument is ignored: the pool reads and writes no bytes.
    /// It is kept only so the standalone `benchmark/` crate compiles.
    pub fn new(
        pages: usize,
        _pager: Option<&'a Pager>,
        faults: Faults<'a>,
        trace: Trace<'a>,
        evict_site: Option<&'a str>,
    ) -> Self {
        let capacity = pages.max(MIN_POOL_PAGES);
        BufferPool {
            capacity,
            frames: Vec::new(),
            map: HashMap::new(),
            hand: 0,
            access_seq: 0,
            stats: PoolStats::default(),
            spilled: HashSet::new(),
            faults,
            trace,
            evict_site,
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Access one page. Returns whether it hit, and how the miss (if
    /// any) is classified per `hint`. `dirty` marks the frame dirty
    /// (spill output); a dirty frame counts as a spill write when it is
    /// evicted.
    pub fn fetch(&mut self, key: PageKey, hint: PageHint, dirty: bool) -> Fetched {
        self.access_seq += 1;
        let seq = self.access_seq;
        if let Some(&slot) = self.map.get(&key) {
            let f = &mut self.frames[slot];
            f.referenced = true;
            f.dirty |= dirty;
            self.stats.hits += 1;
            self.trace.emit(|| {
                trace::event("page")
                    .str("action", "hit")
                    .int("rel", key.rel)
                    .int("page", key.page)
                    .int("frame", slot as u64)
                    .int("seq", seq)
            });
            return Fetched::Hit;
        }
        let fetched = match hint {
            PageHint::Seq => {
                self.stats.misses_seq += 1;
                Fetched::MissSeq
            }
            PageHint::Random => {
                self.stats.misses_random += 1;
                Fetched::MissRandom
            }
        };
        let slot = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                key,
                referenced: true,
                dirty,
            });
            self.frames.len() - 1
        } else {
            let slot = self.evict(seq);
            let f = &mut self.frames[slot];
            f.key = key;
            f.referenced = true;
            f.dirty = dirty;
            slot
        };
        self.map.insert(key, slot);
        if self.spilled.contains(&key) {
            self.stats.spill_bytes_read += PAGE_SIZE as u64;
        }
        self.trace.emit(|| {
            trace::event("page")
                .str("action", "miss")
                .int("rel", key.rel)
                .int("page", key.page)
                .int("frame", slot as u64)
                .int("seq", seq)
        });
        fetched
    }

    /// Run the clock hand to a victim frame, counting a spill write if
    /// it is dirty: the first frame with a clear reference bit, clearing
    /// the bits it passes, so it stops within one full turn. Deterministic: the hand
    /// position is a pure function of the access stream that preceded
    /// this eviction.
    fn evict(&mut self, seq: u64) -> usize {
        let n = self.frames.len();
        let slot = loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            if !std::mem::replace(&mut self.frames[slot].referenced, false) {
                break slot;
            }
        };
        let Frame {
            key: victim, dirty, ..
        } = self.frames[slot];
        if let Some(site) = self.evict_site {
            self.faults.panic_if_armed(site);
        }
        if dirty {
            self.stats.spill_bytes_written += PAGE_SIZE as u64;
            self.spilled.insert(victim);
        }
        self.stats.evictions += 1;
        self.map.remove(&victim);
        self.trace.emit(|| {
            trace::event("page")
                .str("action", "evict")
                .int("rel", victim.rel)
                .int("page", victim.page)
                .int("frame", slot as u64)
                .int("seq", seq)
        });
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rel: u64, page: u64) -> PageKey {
        PageKey { rel, page }
    }

    fn pool(pages: usize) -> BufferPool<'static> {
        BufferPool::new(pages, None, Faults::disabled(), Trace::disabled(), None)
    }

    #[test]
    fn rel_ids_are_stable_and_namespaced() {
        assert_eq!(table_rel_id("protein"), table_rel_id("protein"));
        assert_ne!(table_rel_id("protein"), index_rel_id("protein"));
        assert_ne!(table_rel_id("protein"), temp_rel_id("protein"));
    }

    #[test]
    fn hits_after_cold_misses() {
        let mut p = pool(16);
        assert_eq!(p.fetch(key(1, 0), PageHint::Seq, false), Fetched::MissSeq);
        assert_eq!(
            p.fetch(key(1, 1), PageHint::Random, false),
            Fetched::MissRandom
        );
        assert_eq!(p.fetch(key(1, 0), PageHint::Seq, false), Fetched::Hit);
        let s = p.stats();
        assert_eq!((s.hits, s.misses_seq, s.misses_random), (1, 1, 1));
        assert_eq!(s.evictions, 0);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_clamped() {
        let p = pool(1);
        assert_eq!(p.capacity(), MIN_POOL_PAGES);
    }

    #[test]
    fn clock_evicts_deterministically() {
        // Capacity 8; touch 9 distinct pages: the first page (hand at 0,
        // ref bit cleared on the first sweep) is the victim.
        let mut p = pool(8);
        for i in 0..8 {
            p.fetch(key(1, i), PageHint::Seq, false);
        }
        p.fetch(key(2, 0), PageHint::Random, false);
        assert_eq!(p.stats().evictions, 1);
        assert_eq!(p.fetch(key(2, 0), PageHint::Random, false), Fetched::Hit);
        assert_eq!(p.fetch(key(1, 1), PageHint::Seq, false), Fetched::Hit);
        assert_eq!(
            p.fetch(key(1, 0), PageHint::Seq, false),
            Fetched::MissSeq,
            "clock victim is the first page"
        );
    }

    #[test]
    fn eviction_is_a_pure_function_of_the_access_stream() {
        let stream: Vec<PageKey> = (0..100).map(|i| key(1 + i % 3, (i * 7) % 13)).collect();
        let run = |keys: &[PageKey]| {
            let mut p = pool(8);
            let out: Vec<Fetched> = keys
                .iter()
                .map(|&k| p.fetch(k, PageHint::Random, false))
                .collect();
            (out, p.stats())
        };
        let (a, sa) = run(&stream);
        let (b, sb) = run(&stream);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.evictions > 0);
    }

    #[test]
    fn dirty_eviction_counts_spill_bytes_and_readback() {
        let mut p = pool(8);
        // 8 dirty spill pages fill the pool; 8 more evict them all.
        for i in 0..16 {
            p.fetch(key(9, i), PageHint::Seq, true);
        }
        let s = p.stats();
        assert_eq!(s.evictions, 8);
        assert_eq!(s.spill_bytes_written, 8 * PAGE_SIZE as u64);
        assert_eq!(s.spill_bytes_read, 0);
        // Touching an evicted dirty page again is a spill read.
        p.fetch(key(9, 0), PageHint::Random, false);
        assert_eq!(p.stats().spill_bytes_read, PAGE_SIZE as u64);
    }

    /// The pool's contract as a naive reference: the same second-chance
    /// clock, dirty bits and spilled set, over linear scans.
    struct NaiveClock {
        capacity: usize,
        /// `(page, referenced, dirty)` per frame, in frame order.
        frames: Vec<(PageKey, bool, bool)>,
        hand: usize,
        spilled: Vec<PageKey>,
        stats: PoolStats,
    }

    impl NaiveClock {
        fn fetch(&mut self, key: PageKey, hint: PageHint, dirty: bool) -> Fetched {
            if let Some(f) = self.frames.iter_mut().find(|f| f.0 == key) {
                f.1 = true;
                f.2 |= dirty;
                self.stats.hits += 1;
                return Fetched::Hit;
            }
            if self.frames.len() < self.capacity {
                self.frames.push((key, true, dirty));
            } else {
                while std::mem::replace(&mut self.frames[self.hand].1, false) {
                    self.hand = (self.hand + 1) % self.capacity;
                }
                let (victim, _, was_dirty) =
                    std::mem::replace(&mut self.frames[self.hand], (key, true, dirty));
                self.hand = (self.hand + 1) % self.capacity;
                self.stats.evictions += 1;
                if was_dirty {
                    self.stats.spill_bytes_written += PAGE_SIZE as u64;
                    self.spilled.push(victim);
                }
            }
            if self.spilled.contains(&key) {
                self.stats.spill_bytes_read += PAGE_SIZE as u64;
            }
            match hint {
                PageHint::Seq => {
                    self.stats.misses_seq += 1;
                    Fetched::MissSeq
                }
                PageHint::Random => {
                    self.stats.misses_random += 1;
                    Fetched::MissRandom
                }
            }
        }
    }

    #[test]
    fn pool_agrees_with_a_naive_clock_on_seeded_streams() {
        for seed in 1..=20u64 {
            // splitmix64: a seeded stream without a dependency.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut p = pool(8 + (seed as usize % 3) * 4);
            let mut naive = NaiveClock {
                capacity: p.capacity(),
                frames: Vec::new(),
                hand: 0,
                spilled: Vec::new(),
                stats: PoolStats::default(),
            };
            for i in 0..2000 {
                let k = key(next() % 3, next() % 16);
                let hint = if next() % 2 == 0 {
                    PageHint::Seq
                } else {
                    PageHint::Random
                };
                let dirty = next() % 3 == 0;
                let want = naive.fetch(k, hint, dirty);
                assert_eq!(p.fetch(k, hint, dirty), want, "seed {seed}, access {i}");
            }
            assert_eq!(p.stats(), naive.stats, "seed {seed}");
            // The stream re-fetched spilled pages, so the read-back
            // path was compared too.
            assert!(p.stats().spill_bytes_read > 0, "seed {seed}");
        }
    }

    #[test]
    fn page_trace_events_carry_frame_and_seq() {
        let sink = crate::trace::MemoryTraceSink::new();
        let mut p = BufferPool::new(8, None, Faults::disabled(), Trace::to(&sink), None);
        p.fetch(key(1, 0), PageHint::Seq, false);
        p.fetch(key(1, 0), PageHint::Seq, false);
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"page\""), "{}", lines[0]);
        assert!(lines[0].contains("\"action\":\"miss\""), "{}", lines[0]);
        assert!(lines[0].contains("\"frame\":0"), "{}", lines[0]);
        assert!(lines[0].contains("\"seq\":1"), "{}", lines[0]);
        assert!(lines[1].contains("\"action\":\"hit\""), "{}", lines[1]);
        assert!(lines[1].contains("\"seq\":2"), "{}", lines[1]);
    }

    #[test]
    fn injected_evict_panic_fires_at_first_eviction() {
        let plan = crate::fault::FaultPlan::parse("panic:evict:F/C").expect("spec");
        let err = std::panic::catch_unwind(|| {
            let mut p = BufferPool::new(
                8,
                None,
                Faults::to(&plan),
                Trace::disabled(),
                Some("evict:F/C"),
            );
            for i in 0..9 {
                p.fetch(key(1, i), PageHint::Seq, false);
            }
        })
        .expect_err("armed evict fault must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("evict:F/C"), "{msg}");
    }
}
