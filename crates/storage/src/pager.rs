//! A do-nothing stand-in for the retired spill-to-disk pager.
//!
//! The [`crate::pool::BufferPool`] is a deterministic page-access model:
//! it counts hits, misses, evictions and spill bytes, and never serves a
//! page's bytes, so nothing backs it on disk (see `DESIGN.md` §13). No
//! workspace crate uses this type. It stays, with its two signatures,
//! only because the standalone `benchmark/` crate still names it; it
//! goes when that crate stops compiling against workspace internals.

use std::io;

use crate::table::Table;

/// A zero-sized placeholder for the pager the pool no longer has.
pub struct Pager;

impl Pager {
    /// Creates nothing and opens no file.
    pub fn new(_label: &str) -> io::Result<Pager> {
        Ok(Pager)
    }

    /// Does nothing: the pool reads no heap bytes.
    pub fn materialize_table(&mut self, _name: &str, _table: &Table) -> io::Result<()> {
        Ok(())
    }
}
