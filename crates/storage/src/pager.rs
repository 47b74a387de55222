//! Spill-to-disk pager: materialized heap files plus a spill file for
//! dirty pages evicted from the [`crate::pool::BufferPool`].
//!
//! The pager owns a private scratch directory under the system temp dir
//! (never under the repro's `--out` directory — output directories are
//! snapshotted file-by-file by the determinism and fault tests) and
//! removes it on drop. It holds two kinds of files:
//!
//! * **Heap files** (`<table>.heap`): one per materialized table,
//!   written once via the crash-consistent `.tmp`+rename discipline and
//!   then read page-at-a-time with positioned reads. Pages use the same
//!   fixed-stride layout as the in-memory page model: `rows_per_page`
//!   rows of `row_width` bytes each, so heap file length =
//!   `n_pages() * 8 KiB` exactly.
//! * **The spill file** (`spill.bin`): an append-only page store shared
//!   by every query's temporary relations. Slots are allocated on first
//!   write of a page key and rewritten in place afterwards.
//!
//! Values are encoded fixed-width inside a row's stride: `Int` as 8
//! little-endian bytes, `Float` as its IEEE bits little-endian, `Str`
//! as its first 16 bytes (length-prefixed), `Null` as a `0xFF` marker.
//! The executor never decodes these bytes — row values are always read
//! from the resident columns; the heap files exist so a capped pool
//! performs *real* positioned reads with real bytes (and real spill
//! writes) whose counts the cost model is calibrated against. Index
//! pages and never-materialized relations read back zero-filled, which
//! leaves the accounting identical. See `DESIGN.md` §13.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::fault::atomic_write;
use crate::pool::{table_rel_id, PageKey};
use crate::table::{Table, PAGE_SIZE};
use crate::value::Value;

/// The spill file's slot table: which page lives at which offset.
#[derive(Default)]
struct SpillState {
    file: Option<File>,
    slots: HashMap<PageKey, u64>,
    next_slot: u64,
}

/// A scratch-directory pager backing a [`crate::pool::BufferPool`].
///
/// Shared (`&Pager`) across a run's queries; heap files are immutable
/// after [`Pager::materialize_table`], and the spill file serializes
/// its slot allocation behind a mutex.
pub struct Pager {
    dir: PathBuf,
    heaps: HashMap<u64, File>,
    spill: Mutex<SpillState>,
}

impl Pager {
    /// Create a pager with a fresh scratch directory
    /// `tab_pool_<pid>_<label>` under the system temp dir.
    pub fn new(label: &str) -> io::Result<Pager> {
        let dir = std::env::temp_dir().join(format!("tab_pool_{}_{label}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Pager {
            dir,
            heaps: HashMap::new(),
            spill: Mutex::new(SpillState::default()),
        })
    }

    /// Encode `table` into a paged heap file and register it under
    /// [`table_rel_id`]`(name)`. The file is staged at `.tmp` and
    /// renamed into place, then opened for positioned reads.
    pub fn materialize_table(&mut self, name: &str, table: &Table) -> io::Result<()> {
        let n_pages = table.n_pages();
        let mut bytes = vec![0u8; (n_pages * PAGE_SIZE as u64) as usize];
        let stride = table.schema().row_width() as usize;
        let rpp = table.rows_per_page() as usize;
        for (id, row) in table.iter() {
            let page = id as usize / rpp;
            let slot = id as usize % rpp;
            let base = page * PAGE_SIZE as usize + slot * stride;
            encode_row(
                &row,
                &mut bytes[base..base + stride.min(PAGE_SIZE as usize)],
            );
        }
        let path = self.dir.join(format!("{name}.heap"));
        atomic_write(&path, &bytes)?;
        self.heaps.insert(table_rel_id(name), File::open(&path)?);
        Ok(())
    }

    /// Read one heap page into `buf` (must be `PAGE_SIZE` bytes).
    /// Returns `false` — and leaves `buf` untouched — if no heap file
    /// is registered for the relation (index or temp pages).
    pub(crate) fn read_heap(&self, key: PageKey, buf: &mut [u8]) -> io::Result<bool> {
        let Some(file) = self.heaps.get(&key.rel) else {
            return Ok(false);
        };
        let off = key.page * PAGE_SIZE as u64;
        // A page past EOF (defensive; page counts come from the same
        // model that sized the file) reads as zeros.
        let n = file.read_at(buf, off)?;
        buf[n..].fill(0);
        Ok(true)
    }

    /// Write an evicted dirty page into its spill slot, allocating one
    /// on first write.
    pub(crate) fn write_spill(&self, key: PageKey, data: &[u8]) -> io::Result<()> {
        let mut s = self.spill.lock().expect("spill state poisoned");
        if s.file.is_none() {
            s.file = Some(
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(self.dir.join("spill.bin"))?,
            );
        }
        let slot = match s.slots.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = s.next_slot;
                s.next_slot += 1;
                s.slots.insert(key, slot);
                slot
            }
        };
        s.file
            .as_ref()
            .expect("spill file just opened")
            .write_all_at(data, slot * PAGE_SIZE as u64)
    }

    /// Read a previously spilled page back into `buf`. Returns `false`
    /// if the page was never spilled.
    pub(crate) fn read_spill(&self, key: PageKey, buf: &mut [u8]) -> io::Result<bool> {
        let s = self.spill.lock().expect("spill state poisoned");
        let Some(&slot) = s.slots.get(&key) else {
            return Ok(false);
        };
        s.file
            .as_ref()
            .expect("slot implies an open spill file")
            .read_exact_at(buf, slot * PAGE_SIZE as u64)?;
        Ok(true)
    }

    /// The scratch directory (for diagnostics/tests).
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        // Close the heap/spill handles before unlinking the scratch dir.
        self.heaps.clear();
        self.spill.lock().ok().map(|mut s| s.file.take());
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Fixed-width encoding of one row into its page stride: an 8-byte
/// header (the row's value count), then each value in its column slot.
/// Strings store a 1-byte length and the first 15 bytes of payload.
fn encode_row(row: &[Value], out: &mut [u8]) {
    out[..8].copy_from_slice(&(row.len() as u64).to_le_bytes());
    let mut off = 8;
    for v in row {
        if off + 16 > out.len() {
            break; // stride narrower than the nominal widths — stop clean
        }
        match v {
            Value::Null => out[off] = 0xFF,
            Value::Int(i) => out[off..off + 8].copy_from_slice(&i.to_le_bytes()),
            Value::Float(f) => out[off..off + 8].copy_from_slice(&f.to_bits().to_le_bytes()),
            Value::Str(s) => {
                let b = s.as_bytes();
                let n = b.len().min(15);
                out[off] = n as u8;
                out[off + 1..off + 1 + n].copy_from_slice(&b[..n]);
            }
        }
        off += 16;
    }
}

const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Pager>();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, TableSchema};

    fn sample_table(rows: i64) -> Table {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("b", ColType::Str),
            ],
        ));
        for i in 0..rows {
            t.insert(vec![Value::Int(i), Value::str(format!("row-{i}"))]);
        }
        t
    }

    fn file_len(pager: &Pager, name: &str) -> u64 {
        std::fs::metadata(pager.dir().join(name))
            .expect("stat")
            .len()
    }

    #[test]
    fn materialized_heap_reads_real_bytes() {
        let mut pager = Pager::new("unit_heap").expect("pager");
        let t = sample_table(500);
        pager.materialize_table("t", &t).expect("materialize");
        let key = PageKey {
            rel: table_rel_id("t"),
            page: 0,
        };
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        assert!(pager.read_heap(key, &mut buf).expect("read"));
        // Row 0 header (2 values) then Int(0) in the first slot.
        assert_eq!(u64::from_le_bytes(buf[0..8].try_into().unwrap()), 2);
        assert_eq!(i64::from_le_bytes(buf[8..16].try_into().unwrap()), 0);
        // Second row of the page starts one stride (40 bytes) in.
        assert_eq!(i64::from_le_bytes(buf[48..56].try_into().unwrap()), 1);
        assert_eq!(
            file_len(&pager, "t.heap"),
            t.n_pages() * PAGE_SIZE as u64,
            "heap file length matches the page model"
        );
    }

    #[test]
    fn unknown_relations_read_as_absent() {
        let pager = Pager::new("unit_absent").expect("pager");
        let mut buf = vec![1u8; PAGE_SIZE as usize];
        let key = PageKey { rel: 42, page: 0 };
        assert!(!pager.read_heap(key, &mut buf).expect("read"));
        assert!(!pager.read_spill(key, &mut buf).expect("read"));
    }

    #[test]
    fn spill_round_trips_pages() {
        let pager = Pager::new("unit_spill").expect("pager");
        let k1 = PageKey { rel: 9, page: 3 };
        let k2 = PageKey { rel: 9, page: 7 };
        let page1 = vec![0xABu8; PAGE_SIZE as usize];
        let page2 = vec![0xCDu8; PAGE_SIZE as usize];
        pager.write_spill(k1, &page1).expect("write 1");
        pager.write_spill(k2, &page2).expect("write 2");
        // Rewrite k1 in place: slot count stays 2.
        let page1b = vec![0xEFu8; PAGE_SIZE as usize];
        pager.write_spill(k1, &page1b).expect("rewrite");
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        assert!(pager.read_spill(k1, &mut buf).expect("read 1"));
        assert_eq!(buf, page1b);
        assert!(pager.read_spill(k2, &mut buf).expect("read 2"));
        assert_eq!(buf, page2);
        assert_eq!(file_len(&pager, "spill.bin"), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn drop_removes_the_scratch_dir() {
        let dir;
        {
            let mut pager = Pager::new("unit_drop").expect("pager");
            pager
                .materialize_table("t", &sample_table(10))
                .expect("materialize");
            pager
                .write_spill(PageKey { rel: 1, page: 0 }, &[0u8; PAGE_SIZE as usize])
                .expect("spill");
            dir = pager.dir().to_path_buf();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "scratch dir must be removed on drop");
    }
}
