//! # tab-storage
//!
//! The storage substrate for `tab-bench`, the reproduction of *"Goals and
//! Benchmarks for Autonomic Configuration Recommenders"* (SIGMOD 2005):
//! typed values, column-store heap tables with a page-based I/O cost
//! model, B+tree secondary indexes (1–4 columns), exact statistics with
//! MCV lists and equi-depth histograms, materialized join views, and the
//! [`config::Configuration`] / [`config::BuiltConfiguration`] pair that
//! models the paper's system configurations `C_i`.
//!
//! Everything is deterministic and in-memory; the page model (rather
//! than wall-clock time) is what stands in for the paper's disk-resident
//! elapsed times — see `DESIGN.md` at the workspace root.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod column;
mod config;
mod csv;
mod db;
pub mod fault;
pub mod framed;
mod index;
mod mview;
mod pager;
mod par;
pub mod pool;
mod schema;
mod snapshot;
mod stats;
mod table;
pub mod trace;
mod value;
mod wal;

pub use column::{key_tuple, CodeTable, Column, NullMask, RowBuckets};
pub use config::{BuildReport, BuiltConfiguration, Configuration, MViewDef};
pub use csv::export_table;
pub use db::Database;
pub use fault::{atomic_write, FaultPlan, Faults, WireFault};
pub use index::{BTreeIndex, IndexSpec, Probe};
pub use mview::{MViewSpec, MaterializedView};
pub use pager::Pager;
pub use par::{par_map, par_map_catch, par_run, JobPanic, Parallelism};
pub use pool::{
    index_rel_id, table_rel_id, temp_rel_id, BufferPool, Fetched, PageHint, PageKey, PoolStats,
};
pub use schema::{ColType, ColumnDef, ForeignKey, TableSchema};
pub use snapshot::{GenerationCell, Snapshot};
pub use stats::{ColumnStats, TableStats};
pub use table::{Row, RowId, Table, PAGE_SIZE};
pub use trace::{FileTraceSink, MemoryTraceSink, Trace, TraceSink};
pub use value::Value;
pub use wal::{Wal, WalError, WalRecord, WalRecovery};

/// The parallel harness shares these read-only across worker threads; a
/// regression introducing interior mutability (`Cell`, `Rc`, …) must
/// fail to compile, not corrupt a benchmark run.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Database>();
    _assert_send_sync::<BuiltConfiguration>();
    _assert_send_sync::<Table>();
    _assert_send_sync::<BTreeIndex>();
    _assert_send_sync::<MaterializedView>();
    _assert_send_sync::<Pager>();
    _assert_send_sync::<pool::PoolStats>();
};
