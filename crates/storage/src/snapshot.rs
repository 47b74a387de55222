//! Immutable snapshot generations: the engine's multi-session substrate.
//!
//! A [`GenerationCell`] publishes a sequence of immutable *generations*
//! of a value (for the engine: the whole database plus its built
//! configurations). Readers take an [`Snapshot`] — an `Arc` pin of one
//! fully published generation — and work against it for as long as they
//! like; writers serialize on an internal latch, build the next
//! generation off to the side, and publish it by swapping one pointer:
//!
//! - **readers never wait for a build** — taking a snapshot is a read
//!   lock held for one `Arc` clone. The write side of that lock is held
//!   only for the pointer swap itself, never while a writer builds,
//!   logs or fsyncs the next generation, and never while an old
//!   generation is freed;
//! - **readers never see torn state** — a generation is fully built
//!   before the swap makes it reachable, and is never mutated after, so
//!   every snapshot is internally consistent end to end;
//! - **writers are latched** — [`GenerationCell::update`] holds a mutex
//!   for the read-copy-update cycle, so concurrent writers serialize and
//!   no update is lost.
//!
//! The cell holds the newest generation only. Generation *n* is dropped
//! as soon as *n + 1* is published and the last [`Snapshot`] of *n* is
//! gone, so a long-lived server retains what its readers pin, not its
//! history.
//!
//! See `DESIGN.md` §14 for how the serving front end builds on this.

use std::sync::{Arc, Mutex, RwLock};

/// A pinned, immutable generation handed out by
/// [`GenerationCell::snapshot`]. Cloning is an `Arc` clone; the
/// underlying generation lives until the last snapshot of it drops.
#[derive(Debug)]
pub struct Snapshot<T> {
    seq: u64,
    data: Arc<T>,
}

impl<T> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Snapshot {
            seq: self.seq,
            data: Arc::clone(&self.data),
        }
    }
}

impl<T> Snapshot<T> {
    /// The generation number this snapshot pins (0 for the initial
    /// value, incremented by every publish).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The pinned value.
    pub fn get(&self) -> &T {
        &self.data
    }
}

impl<T> std::ops::Deref for Snapshot<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.data
    }
}

/// A published-pointer cell: snapshot reads of the newest immutable
/// generation, with a latched write path. See the module docs for the
/// full contract.
pub struct GenerationCell<T> {
    /// The newest published generation. Write-locked only to swap it.
    current: RwLock<Snapshot<T>>,
    /// The writer latch: serializes read-copy-update cycles.
    writer: Mutex<()>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for GenerationCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationCell")
            .field("seq", &self.seq())
            .finish_non_exhaustive()
    }
}

impl<T> GenerationCell<T> {
    /// A cell holding `initial` as generation 0.
    pub fn new(initial: T) -> Self {
        GenerationCell {
            current: RwLock::new(Snapshot {
                seq: 0,
                data: Arc::new(initial),
            }),
            writer: Mutex::new(()),
        }
    }

    /// Read access to the published generation. Tolerates poison: the
    /// only write section is the two assignments in `publish_locked`,
    /// which cannot panic.
    fn current(&self) -> std::sync::RwLockReadGuard<'_, Snapshot<T>> {
        self.current.read().unwrap_or_else(|p| p.into_inner())
    }

    /// The newest published generation number. Monotonically
    /// non-decreasing; a snapshot taken afterwards sees at least this
    /// generation.
    pub fn seq(&self) -> u64 {
        self.current().seq
    }

    /// Pin the newest published generation: a read lock held for one
    /// `Arc` clone.
    pub fn snapshot(&self) -> Snapshot<T> {
        self.current().clone()
    }

    /// Acquire the writer latch, tolerating poison: publication is a
    /// single pointer swap that only happens after an update closure
    /// returns `Ok`, so a panicking writer (e.g. an injected
    /// `panic:wal:append` fault) leaves the published generation fully
    /// consistent — the next writer may safely proceed.
    fn latch(&self) -> std::sync::MutexGuard<'_, ()> {
        self.writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Publish `value` as the next generation, bypassing the
    /// read-copy-update cycle (the caller built the new value without
    /// looking at the old one). Returns the new generation number.
    pub fn publish(&self, value: T) -> u64 {
        let _latch = self.latch();
        self.publish_locked(value)
    }

    /// Latched read-copy-update: `f` sees the newest generation and
    /// returns the next one (plus a caller-visible result); an `Err`
    /// publishes nothing. Writers serialize here, so no update is lost;
    /// readers keep snapshotting the old generation — unblocked — until
    /// the swap that publishes the new one.
    pub fn update<R, E>(&self, f: impl FnOnce(&T) -> Result<(T, R), E>) -> Result<(u64, R), E> {
        let _latch = self.latch();
        let cur = self.snapshot();
        let (next, out) = f(&cur)?;
        Ok((self.publish_locked(next), out))
    }

    /// Publish while holding the writer latch.
    fn publish_locked(&self, value: T) -> u64 {
        let next = Arc::new(value);
        let (seq, superseded) = {
            let mut current = self.current.write().unwrap_or_else(|p| p.into_inner());
            current.seq += 1;
            (current.seq, std::mem::replace(&mut current.data, next))
        };
        // Outside the lock: if no snapshot pins it, this frees the old
        // generation, and readers must not wait for that.
        drop(superseded);
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn initial_generation_is_zero() {
        let cell = GenerationCell::new(41);
        let s = cell.snapshot();
        assert_eq!(s.seq(), 0);
        assert_eq!(*s.get(), 41);
        assert_eq!(cell.seq(), 0);
    }

    #[test]
    fn publish_advances_and_old_snapshots_stay_pinned() {
        let cell = GenerationCell::new(vec![0u8; 8]);
        let old = cell.snapshot();
        let seq = cell.publish(vec![1u8; 8]);
        assert_eq!(seq, 1);
        assert_eq!(old.seq(), 0);
        assert_eq!(old.get(), &vec![0u8; 8], "pinned generation unchanged");
        assert_eq!(cell.snapshot().get(), &vec![1u8; 8]);
    }

    #[test]
    fn update_is_read_copy_update() {
        let cell = GenerationCell::new(10i64);
        let (seq, doubled) = cell
            .update(|v| Ok::<_, ()>((v + 1, v * 2)))
            .expect("infallible");
        assert_eq!((seq, doubled), (1, 20));
        assert_eq!(*cell.snapshot().get(), 11);
        // A failed update publishes nothing.
        let r: Result<(u64, ()), &str> = cell.update(|_| Err("no"));
        assert!(r.is_err());
        assert_eq!(cell.seq(), 1);
    }

    /// Counts its own drops, so a test can tell a released generation
    /// from a retained one.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn superseded_generations_are_dropped_once_unpinned() {
        let drops: Vec<_> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let dropped = |g: usize| drops[g].load(Ordering::SeqCst);
        let cell = GenerationCell::new(Counted(Arc::clone(&drops[0])));
        let pin0 = cell.snapshot();
        let pin0_again = pin0.clone();
        assert_eq!(cell.publish(Counted(Arc::clone(&drops[1]))), 1);
        assert_eq!(dropped(0), 0, "generation 0 is still pinned");
        let pin1 = cell.snapshot();
        assert_eq!(cell.publish(Counted(Arc::clone(&drops[2]))), 2);
        drop(pin0);
        assert_eq!(dropped(0), 0, "one snapshot of generation 0 remains");
        drop(pin0_again);
        assert_eq!(dropped(0), 1, "released with its last snapshot");
        assert_eq!(dropped(1), 0, "generation 1 is still pinned");
        drop(pin1);
        assert_eq!(dropped(1), 1);
        // An unpinned generation goes the moment its successor is
        // published, however many there are.
        for g in 3..=200 {
            assert_eq!(cell.publish(Counted(Arc::new(AtomicUsize::new(0)))), g);
        }
        assert_eq!((dropped(0), dropped(1), dropped(2)), (1, 1, 1));
    }

    /// The tentpole invariant: a reader never observes a torn
    /// generation, even while a writer publishes as fast as it can.
    /// Each generation is internally redundant (every element equals
    /// the generation number); any mix would be a torn read.
    #[test]
    fn concurrent_readers_see_only_whole_generations() {
        let cell = Arc::new(GenerationCell::new(vec![0u64; 512]));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last_seq = 0;
                    let mut done = false;
                    // One final check after the writer stops, so the
                    // test still validates a snapshot even if this
                    // thread was never scheduled during the writes
                    // (single-core runners).
                    while !done {
                        done = stop.load(Ordering::Relaxed);
                        let s = cell.snapshot();
                        assert!(s.seq() >= last_seq, "generations are monotone");
                        last_seq = s.seq();
                        let first = s.get()[0];
                        assert!(
                            s.get().iter().all(|&v| v == first),
                            "torn generation: mixed values at seq {}",
                            s.seq()
                        );
                    }
                    last_seq
                })
            })
            .collect();
        for g in 1..=200u64 {
            cell.publish(vec![g; 512]);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert_eq!(r.join().expect("reader panicked"), 200);
        }
        assert_eq!(cell.seq(), 200);
    }
}
