//! The concurrent multi-session engine: snapshot reads, latched writes.
//!
//! [`Session`] is a borrow over one database and one built
//! configuration — deliberately cheap, created per request. What it
//! borrows *from* in a concurrent setting is this module:
//! [`SharedEngine`] owns an [`EngineState`] (the database plus every
//! built configuration served under a name) published through a
//! [`GenerationCell`], so
//!
//! - any number of reader threads take an [`EngineSnapshot`] without
//!   waiting for a write and open plain [`Session`]s against it — a
//!   snapshot pins one generation end to end, so a scan never observes
//!   a half-applied write, and two queries on the same snapshot see
//!   identical data;
//! - writes ([`SharedEngine::insert`]) serialize on the cell's writer
//!   latch, clone the current generation (tables, statistics, indexes
//!   and view contents are `Arc`-shared, so the clone is refcount
//!   bumps), apply the mutation to the heap *and* to every built
//!   configuration — which copies the inserted table and the indexes
//!   on it, nothing else — and publish the result atomically: heaps
//!   and indexes can never diverge within a generation.
//!
//! Costs stay deterministic per request: a query's plan, cost units,
//! and verdict are a pure function of the generation it ran against,
//! so concurrent serving reproduces single-session results exactly
//! (`tests/serving.rs` and `tab gate`'s `serve` row both enforce this).
//! What *is* interleaving-dependent is only which generation a given
//! request observes when writers are active — see DESIGN.md §14.
//!
//! # Durability (DESIGN.md §15)
//!
//! An engine opened through [`SharedEngine::with_wal`] appends one
//! [`tab_storage::WalRecord`] per insert *inside* the writer latch,
//! fsynced **before** the generation is published — so by the time any
//! client can observe (or be acked) a write, it is on disk. On
//! restart, [`SharedEngine::with_wal`] replays the log through the
//! exact same apply path and *proves* the reconstruction: every
//! replayed record must reproduce the generation number, heap row id,
//! and bit-identical maintenance cost that were originally
//! acknowledged, or recovery refuses with [`RecoverError::Replay`].
//!
//! Idempotency is engine-level, not wire-level: sequence-keyed inserts
//! ([`SharedEngine::insert_keyed`]) remember the last acknowledged
//! `(client, cseq)` pair and replay the cached ack for a duplicate —
//! so a client that never saw its ack (dropped connection) can resend
//! without double-applying. The dedup table is rebuilt from the WAL on
//! recovery, which is what makes retries safe *across* a crash.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tab_sqlq::Insert;
use tab_storage::{
    BuiltConfiguration, Database, FaultPlan, Faults, GenerationCell, RowId, Snapshot, Wal,
    WalError, WalRecord,
};

use crate::catalog::BindError;
use crate::cost::RANDOM_PAGE_COST;
use crate::dml::validate_insert;
use crate::session::Session;

/// One immutable generation of the engine: a database plus the built
/// configurations served under their lookup names (e.g. `"p"`, `"1c"`).
#[derive(Debug, Clone)]
pub struct EngineState {
    /// The database (statistics collected).
    pub db: Database,
    /// Built configurations by serving name, in deterministic order.
    pub configs: BTreeMap<String, BuiltConfiguration>,
}

impl EngineState {
    /// A state over `db` with no configurations yet.
    pub fn new(db: Database) -> Self {
        EngineState {
            db,
            configs: BTreeMap::new(),
        }
    }

    /// Add a built configuration under a serving name (builder-style).
    pub fn with_config(mut self, name: impl Into<String>, built: BuiltConfiguration) -> Self {
        self.configs.insert(name.into(), built);
        self
    }
}

/// A pinned generation of the engine. Opens [`Session`]s whose borrows
/// are tied to this snapshot, so everything a request does sees one
/// consistent (database, configurations) pair.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    snap: Snapshot<EngineState>,
}

impl EngineSnapshot {
    /// The pinned generation number.
    pub fn seq(&self) -> u64 {
        self.snap.seq()
    }

    /// The pinned state.
    pub fn state(&self) -> &EngineState {
        self.snap.get()
    }

    /// Serving names of the available configurations.
    pub fn config_names(&self) -> impl Iterator<Item = &str> {
        self.state().configs.keys().map(String::as_str)
    }

    /// Open a session over this snapshot's database and the named
    /// configuration (`None` if no configuration is served under
    /// `config`).
    pub fn session(&self, config: &str) -> Option<Session<'_>> {
        let state = self.state();
        state
            .configs
            .get(config)
            .map(|built| Session::new(&state.db, built))
    }
}

/// Outcome of a write published through [`SharedEngine::insert`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedInsert {
    /// The generation the write created (snapshots taken after the
    /// call see at least this generation).
    pub generation: u64,
    /// The new row's heap id.
    pub row_id: RowId,
    /// Maintenance cost in cost units, charged for the configuration
    /// named in the request (heap write + its index descents + its
    /// view deltas) — the same quantity [`crate::apply_insert`]
    /// reports for a single-session insert.
    pub units: f64,
}

/// Outcome of a sequence-keyed write ([`SharedEngine::insert_keyed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyedInsert {
    /// The acknowledged write (cached on a duplicate, fresh otherwise).
    pub out: SharedInsert,
    /// `true` when the sequence number had already been applied and the
    /// cached acknowledgement was replayed instead of the insert.
    pub deduped: bool,
}

/// What [`SharedEngine::with_wal`] reconstructed on boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecoveryReport {
    /// Records replayed from the log.
    pub replayed: u64,
    /// Whether a torn tail (crash mid-append) was truncated away.
    pub torn_tail: bool,
    /// The generation the engine serves after replay.
    pub generation: u64,
}

/// Why a WAL-backed engine could not boot.
#[derive(Debug)]
pub enum RecoverError {
    /// The log itself could not be opened (I/O or mid-file corruption).
    Wal(WalError),
    /// A replayed record did not reproduce what was acknowledged —
    /// the base state does not match the log.
    Replay {
        /// Generation of the record that failed to reproduce.
        gen: u64,
        /// What diverged.
        message: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Wal(e) => write!(f, "{e}"),
            RecoverError::Replay { gen, message } => {
                write!(f, "wal replay diverged at generation {gen}: {message}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Wal(e)
    }
}

/// The concurrent engine: an [`EngineState`] published through a
/// [`GenerationCell`]. Shared across serving threads as
/// `Arc<SharedEngine>`; see the module docs for the isolation contract.
#[derive(Debug)]
pub struct SharedEngine {
    cell: GenerationCell<EngineState>,
    /// The write-ahead log, when this engine is durable. Locked inside
    /// the cell's writer latch, so append order equals publish order.
    wal: Option<Mutex<Wal>>,
    /// Last acknowledged `(cseq, ack)` per client — the idempotency
    /// table behind [`SharedEngine::insert_keyed`].
    dedup: Mutex<BTreeMap<String, (u64, SharedInsert)>>,
    /// Armed fault plan for the WAL's `enospc:wal` / `panic:wal:append`
    /// sites (the server arms its own wire sites separately).
    faults: Option<Arc<FaultPlan>>,
    /// Records replayed at boot (0 for a non-durable engine).
    recovered: u64,
    /// Duplicate sequence-keyed inserts answered from the dedup table.
    deduped: AtomicU64,
}

impl SharedEngine {
    /// A shared engine serving `state` as generation 0 (no durability:
    /// generations live only in memory, as before PR 10).
    pub fn new(state: EngineState) -> Self {
        SharedEngine {
            cell: GenerationCell::new(state),
            wal: None,
            dedup: Mutex::new(BTreeMap::new()),
            faults: None,
            recovered: 0,
            deduped: AtomicU64::new(0),
        }
    }

    /// A durable engine: open (or create) the `tab-wal-v1` log at
    /// `path`, replay every committed record on top of `state`, and
    /// append all future inserts to it before publishing them.
    ///
    /// `state` must be the engine state as of the log's base generation
    /// — for serving that is the deterministically regenerated database
    /// at generation 0. Replay re-applies each record through the exact
    /// insert path and refuses ([`RecoverError::Replay`]) unless the
    /// recomputed generation, row id, and bit-identical maintenance
    /// units match what was originally acknowledged, so a recovered
    /// engine is byte-equivalent to one that never crashed.
    pub fn with_wal(
        state: EngineState,
        path: &Path,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<(SharedEngine, WalRecoveryReport), RecoverError> {
        let recovery = Wal::open(path)?;
        let mut engine = SharedEngine {
            cell: GenerationCell::new(state),
            wal: None,
            dedup: Mutex::new(BTreeMap::new()),
            faults,
            recovered: 0,
            deduped: AtomicU64::new(0),
        };
        for rec in &recovery.records {
            let insert = Insert {
                table: rec.table.clone(),
                values: rec.values.clone(),
            };
            let out = engine
                .apply(&insert, &rec.config)
                .map_err(|e| RecoverError::Replay {
                    gen: rec.gen,
                    message: e.message,
                })?;
            let divergence = if out.generation != rec.gen {
                Some(format!(
                    "published generation {} (logged {})",
                    out.generation, rec.gen
                ))
            } else if out.row_id != rec.row_id {
                Some(format!("row id {} (logged {})", out.row_id, rec.row_id))
            } else if out.units.to_bits() != rec.units.to_bits() {
                Some(format!(
                    "maintenance units {} (logged {}) — bit-exact match required",
                    out.units, rec.units
                ))
            } else {
                None
            };
            if let Some(message) = divergence {
                return Err(RecoverError::Replay {
                    gen: rec.gen,
                    message,
                });
            }
            if !rec.client.is_empty() {
                engine
                    .dedup_table()
                    .insert(rec.client.clone(), (rec.cseq, out));
            }
        }
        engine.recovered = recovery.records.len() as u64;
        engine.wal = Some(Mutex::new(recovery.wal));
        let report = WalRecoveryReport {
            replayed: engine.recovered,
            torn_tail: recovery.torn_tail,
            generation: engine.generation(),
        };
        Ok((engine, report))
    }

    /// The newest published generation number.
    pub fn generation(&self) -> u64 {
        self.cell.seq()
    }

    /// Records replayed from the WAL when this engine booted.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Duplicate sequence-keyed inserts answered from the dedup table
    /// since boot.
    pub fn deduped(&self) -> u64 {
        self.deduped.load(Ordering::Relaxed)
    }

    /// Whether inserts are logged to a WAL before publication.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Pin the newest generation for reading. Never waits for an
    /// insert in progress, only for the pointer swap that ends one.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            snap: self.cell.snapshot(),
        }
    }

    /// Apply one insertion and publish the result as a new generation.
    ///
    /// Copy-on-write under the writer latch: the next generation starts
    /// as a structure-sharing clone of the current one, the row is
    /// appended to its own copy of the inserted table's heap, **every**
    /// built configuration is maintained (the indexes on that table
    /// copied and descended, dependent views marked stale), and the
    /// result is published with one pointer swap. On a durable engine
    /// the record is appended to the WAL and fsynced *before* that swap
    /// — ack implies durable.
    /// Readers keep their pinned snapshots; snapshots taken after this
    /// call returns see the new row everywhere.
    ///
    /// `charge_config` names the configuration whose maintenance cost
    /// is reported (it must be served); statistics are *not* refreshed,
    /// matching the benchmark protocol.
    pub fn insert(&self, insert: &Insert, charge_config: &str) -> Result<SharedInsert, BindError> {
        self.apply_logged(insert, charge_config, None)
    }

    /// A sequence-keyed insert: idempotent under client retries.
    ///
    /// `cseq` must be strictly increasing per `client` (gaps allowed).
    /// A resend of the last acknowledged sequence returns the cached
    /// acknowledgement without touching the engine — exactly what a
    /// client whose connection died before the ack arrived needs; a
    /// sequence *behind* the last acknowledged one is refused as stale.
    /// The `(client, cseq)` key rides in the WAL record, so the dedup
    /// table survives a crash and retries stay safe across recovery.
    pub fn insert_keyed(
        &self,
        insert: &Insert,
        charge_config: &str,
        client: &str,
        cseq: u64,
    ) -> Result<KeyedInsert, BindError> {
        if client.is_empty() {
            return Err(BindError {
                message: "sequence-keyed insert needs a client id".into(),
            });
        }
        // Hold the dedup latch across check-apply-remember so two
        // concurrent resends of one sequence cannot both apply (writers
        // serialize on the cell latch anyway; this adds no contention).
        let mut dedup = self.dedup_table();
        if let Some(&(last, ack)) = dedup.get(client) {
            if cseq == last {
                self.deduped.fetch_add(1, Ordering::Relaxed);
                return Ok(KeyedInsert {
                    out: ack,
                    deduped: true,
                });
            }
            if cseq < last {
                return Err(BindError {
                    message: format!(
                        "stale sequence {cseq} for client `{client}` \
                         (last acknowledged {last})"
                    ),
                });
            }
        }
        let out = self.apply_logged(insert, charge_config, Some((client, cseq)))?;
        dedup.insert(client.to_string(), (cseq, out));
        Ok(KeyedInsert {
            out,
            deduped: false,
        })
    }

    /// The dedup table, tolerating a poisoned latch (a panicking WAL
    /// append unwinds through it; entries are only inserted *after* a
    /// successful apply, so the table is never torn).
    fn dedup_table(&self) -> MutexGuard<'_, BTreeMap<String, (u64, SharedInsert)>> {
        self.dedup.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The copy-on-write insert cycle, with the WAL append (when
    /// configured) inside the latch: log, fsync, then publish.
    fn apply_logged(
        &self,
        insert: &Insert,
        charge_config: &str,
        key: Option<(&str, u64)>,
    ) -> Result<SharedInsert, BindError> {
        let (generation, (row_id, units)) = self.cell.update(|state| {
            let (next, row_id, units) = Self::build_next(state, insert, charge_config)?;
            if let Some(wal) = &self.wal {
                let (client, cseq) = key.unwrap_or(("", 0));
                let rec = WalRecord {
                    // The latch is held: the publish that follows this
                    // append gets exactly seq + 1.
                    gen: self.cell.seq() + 1,
                    client: client.to_string(),
                    cseq,
                    config: charge_config.to_string(),
                    table: insert.table.clone(),
                    values: insert.values.clone(),
                    row_id,
                    units,
                };
                let faults = self
                    .faults
                    .as_deref()
                    .map(Faults::to)
                    .unwrap_or_else(Faults::disabled);
                // A poisoned WAL latch means an earlier append panicked
                // mid-frame: the log's tail is torn and further appends
                // would corrupt it. Refuse writes (reads are unaffected)
                // until a restart recovers the log.
                let mut wal = wal.lock().map_err(|_| BindError {
                    message: "wal poisoned by an earlier crash; insert refused".into(),
                })?;
                wal.append(&rec, faults).map_err(|e| BindError {
                    message: format!("wal append failed: {e}"),
                })?;
            }
            Ok((next, (row_id, units)))
        })?;
        Ok(SharedInsert {
            generation,
            row_id,
            units,
        })
    }

    /// Validate and apply one insert to a clone of `state` that shares
    /// everything the insert does not write (no publish, no logging) —
    /// the single apply path normal serving, keyed serving, and
    /// recovery replay all share.
    fn build_next(
        state: &EngineState,
        insert: &Insert,
        charge_config: &str,
    ) -> Result<(EngineState, RowId, f64), BindError> {
        validate_insert(insert, &state.db)?;
        if !state.configs.contains_key(charge_config) {
            return Err(BindError {
                message: format!("unknown configuration `{charge_config}`"),
            });
        }
        let mut next = state.clone();
        let table = next
            .db
            .table_mut(&insert.table)
            .expect("validated table exists");
        let row_id = table.insert(insert.values.clone());
        let mut charged = 0.0;
        for (name, built) in next.configs.iter_mut() {
            let pages = built.apply_insert(&insert.table, &insert.values, row_id);
            if name == charge_config {
                charged = pages as f64 * RANDOM_PAGE_COST;
            }
        }
        Ok((next, row_id, charged))
    }

    /// Apply one insert without logging — the recovery replay path (the
    /// record being replayed *is* the log).
    fn apply(&self, insert: &Insert, charge_config: &str) -> Result<SharedInsert, BindError> {
        let (generation, (row_id, units)) = self.cell.update(|state| {
            let (next, row_id, units) = Self::build_next(state, insert, charge_config)?;
            Ok((next, (row_id, units)))
        })?;
        Ok(SharedInsert {
            generation,
            row_id,
            units,
        })
    }
}

/// Serving threads share one engine and pin snapshots concurrently;
/// this compile-time audit keeps the whole stack that way.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<SharedEngine>();
    _assert_send_sync::<EngineSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use tab_sqlq::{parse, parse_statement, Statement};
    use tab_storage::{ColType, ColumnDef, Configuration, IndexSpec, Table, TableSchema, Value};

    fn state() -> EngineState {
        let mut db = Database::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("g", ColType::Int),
            ],
        ));
        for i in 0..1_000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 5)]);
        }
        db.add_table(t);
        db.collect_stats();
        let p = BuiltConfiguration::build(Configuration::named("p"), &db);
        let mut cfg = Configuration::named("ix");
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        let ix = BuiltConfiguration::build(cfg, &db);
        EngineState::new(db)
            .with_config("p", p)
            .with_config("ix", ix)
    }

    fn insert_of(sql: &str) -> Insert {
        match parse_statement(sql).unwrap() {
            Statement::Insert(i) => i,
            other => panic!("expected insert: {other:?}"),
        }
    }

    fn count(snap: &EngineSnapshot, config: &str) -> i64 {
        let q = parse("SELECT COUNT(*) FROM t").unwrap();
        let rows = snap
            .session(config)
            .expect("config served")
            .run(&q, None)
            .unwrap()
            .rows
            .unwrap();
        rows[0][0].as_int().unwrap()
    }

    #[test]
    fn snapshots_pin_their_generation_across_writes() {
        let engine = SharedEngine::new(state());
        let before = engine.snapshot();
        assert_eq!(before.seq(), 0);
        let out = engine
            .insert(&insert_of("INSERT INTO t VALUES (1000, 0)"), "ix")
            .unwrap();
        assert_eq!(out.generation, 1);
        assert!(out.units > 0.0, "index maintenance is charged");
        // The pinned snapshot still sees 1000 rows; a fresh one sees
        // the insert in *both* configurations.
        assert_eq!(count(&before, "p"), 1_000);
        let after = engine.snapshot();
        assert_eq!(after.seq(), 1);
        assert_eq!(count(&after, "p"), 1_001);
        assert_eq!(count(&after, "ix"), 1_001);
    }

    #[test]
    fn same_snapshot_answers_identically_twice() {
        let engine = SharedEngine::new(state());
        let snap = engine.snapshot();
        let q = parse("SELECT t.g, COUNT(*) FROM t GROUP BY t.g").unwrap();
        let s = snap.session("p").unwrap();
        let r1 = s.run(&q, None).unwrap();
        engine
            .insert(&insert_of("INSERT INTO t VALUES (1000, 0)"), "p")
            .unwrap();
        let r2 = snap.session("p").unwrap().run(&q, None).unwrap();
        assert_eq!(r1.rows, r2.rows, "a snapshot is immutable");
        assert_eq!(r1.outcome.units(), r2.outcome.units());
    }

    #[test]
    fn failed_insert_publishes_nothing() {
        let engine = SharedEngine::new(state());
        let err = engine
            .insert(&insert_of("INSERT INTO nope VALUES (1)"), "p")
            .unwrap_err();
        assert!(err.message.contains("nope"));
        let err = engine
            .insert(&insert_of("INSERT INTO t VALUES (1, 2)"), "ghost")
            .unwrap_err();
        assert!(err.message.contains("ghost"));
        assert_eq!(engine.generation(), 0);
    }

    #[test]
    fn unknown_config_yields_no_session() {
        let engine = SharedEngine::new(state());
        let snap = engine.snapshot();
        assert!(snap.session("ghost").is_none());
        let names: Vec<&str> = snap.config_names().collect();
        assert_eq!(names, vec!["ix", "p"]);
    }

    #[test]
    fn inserted_row_is_reachable_through_maintained_index() {
        // A table big enough that a selective probe beats the scan, so
        // the query below only finds the row if the index was really
        // maintained by the copy-on-write insert.
        let mut db = Database::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColType::Int),
                ColumnDef::new("g", ColType::Int),
            ],
        ));
        for i in 0..50_000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        db.add_table(t);
        db.collect_stats();
        let mut cfg = Configuration::named("ix");
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        let ix = BuiltConfiguration::build(cfg, &db);
        let engine = SharedEngine::new(EngineState::new(db).with_config("ix", ix));
        engine
            .insert(&insert_of("INSERT INTO t VALUES (90000, 3)"), "ix")
            .unwrap();
        let snap = engine.snapshot();
        let q = parse("SELECT t.g, COUNT(*) FROM t WHERE t.a = 90000 GROUP BY t.g").unwrap();
        let s = snap.session("ix").unwrap();
        let plan = s.plan_query(&q).unwrap();
        assert!(
            plan.describe().contains("Index"),
            "probe should use the maintained index: {}",
            plan.describe()
        );
        let rows = s.run(&q, None).unwrap().rows.unwrap();
        assert_eq!(rows, vec![vec![Value::Int(3), Value::Int(1)]]);
    }

    /// An insert copies what it writes and shares the rest with the
    /// generation before it.
    #[test]
    fn insert_copies_only_the_touched_table_and_its_indexes() {
        let mut state = state();
        let mut u = Table::new(TableSchema::new(
            "u",
            vec![ColumnDef::new("k", ColType::Int)],
        ));
        for i in 0..100i64 {
            u.insert(vec![Value::Int(i)]);
        }
        state.db.add_table(u);
        state.db.collect_stats();
        let mut cfg = Configuration::named("mv");
        cfg.indexes.push(IndexSpec::new("t", vec![1]));
        cfg.indexes.push(IndexSpec::new("u", vec![0]));
        cfg.mviews.push(tab_storage::MViewDef {
            spec: tab_storage::MViewSpec::projection_of("t_g", "t", vec![1]),
            indexes: vec![vec![0]],
        });
        let mv = BuiltConfiguration::build(cfg, &state.db);
        let engine = SharedEngine::new(state.with_config("mv", mv));

        let before = engine.snapshot();
        engine
            .insert(&insert_of("INSERT INTO t VALUES (1000, 0)"), "mv")
            .unwrap();
        let after = engine.snapshot();
        let (old, new) = (before.state(), after.state());

        // Untouched: table `u`, its statistics (and those of `t`: an
        // insert does not refresh statistics), the index on `u`, and the
        // view's contents and index — although the view went stale.
        assert!(std::ptr::eq(
            old.db.table("u").unwrap(),
            new.db.table("u").unwrap()
        ));
        for name in ["t", "u"] {
            assert!(std::ptr::eq(
                old.db.stats(name).unwrap(),
                new.db.stats(name).unwrap()
            ));
        }
        let (old_mv, new_mv) = (&old.configs["mv"], &new.configs["mv"]);
        assert!(Arc::ptr_eq(&old_mv.indexes[1], &new_mv.indexes[1]));
        let ((old_view, old_vix), (new_view, new_vix)) = (&old_mv.mviews[0], &new_mv.mviews[0]);
        assert!(!old_view.stale && new_view.stale);
        assert!(Arc::ptr_eq(&old_view.table, &new_view.table));
        assert!(Arc::ptr_eq(&old_view.stats, &new_view.stats));
        assert!(Arc::ptr_eq(&old_vix[0], &new_vix[0]));

        // Copied: table `t` and every index on it, in every configuration.
        assert!(!std::ptr::eq(
            old.db.table("t").unwrap(),
            new.db.table("t").unwrap()
        ));
        assert!(!Arc::ptr_eq(&old_mv.indexes[0], &new_mv.indexes[0]));
        assert!(!Arc::ptr_eq(
            &old.configs["ix"].indexes[0],
            &new.configs["ix"].indexes[0]
        ));
        assert_eq!(
            count(&before, "ix"),
            1_000,
            "the pinned generation is whole"
        );
        assert_eq!(count(&after, "ix"), 1_001);
    }

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tab_shared_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join("engine.wal")
    }

    #[test]
    fn recovery_is_byte_identical_to_an_uninterrupted_run() {
        let path = temp_wal("recover");
        let inserts = [
            "INSERT INTO t VALUES (1000, 0)",
            "INSERT INTO t VALUES (1001, 3)",
            "INSERT INTO t VALUES (1002, 1)",
        ];
        // The uninterrupted baseline: same state, no WAL.
        let baseline = SharedEngine::new(state());
        let mut expected = Vec::new();
        for sql in &inserts {
            expected.push(baseline.insert(&insert_of(sql), "ix").unwrap());
        }

        let (engine, report) = SharedEngine::with_wal(state(), &path, None).unwrap();
        assert_eq!(report.replayed, 0);
        assert!(engine.is_durable());
        for (i, sql) in inserts.iter().enumerate() {
            let out = engine.insert(&insert_of(sql), "ix").unwrap();
            assert_eq!(out, expected[i], "durable run matches in-memory run");
        }
        drop(engine); // "crash": nothing flushed beyond the per-record fsyncs

        let (revived, report) = SharedEngine::with_wal(state(), &path, None).unwrap();
        assert_eq!(
            (report.replayed, report.torn_tail, report.generation),
            (3, false, 3)
        );
        assert_eq!(revived.recovered(), 3);
        let (snap_a, snap_b) = (baseline.snapshot(), revived.snapshot());
        assert_eq!(snap_a.seq(), snap_b.seq());
        assert_eq!(count(&snap_b, "p"), 1_003);
        let q = parse("SELECT t.g, COUNT(*) FROM t GROUP BY t.g").unwrap();
        let (ra, rb) = (
            snap_a.session("ix").unwrap().run(&q, None).unwrap(),
            snap_b.session("ix").unwrap().run(&q, None).unwrap(),
        );
        assert_eq!(ra.rows, rb.rows);
        assert_eq!(
            ra.outcome.units().unwrap().to_bits(),
            rb.outcome.units().unwrap().to_bits(),
            "recovered engine answers bit-identically"
        );
    }

    #[test]
    fn keyed_inserts_dedup_and_survive_recovery() {
        let path = temp_wal("keyed");
        let (engine, _) = SharedEngine::with_wal(state(), &path, None).unwrap();
        let ins = insert_of("INSERT INTO t VALUES (1000, 0)");
        let first = engine.insert_keyed(&ins, "ix", "c1", 1).unwrap();
        assert!(!first.deduped);
        // A retry of the same sequence replays the cached ack.
        let retry = engine.insert_keyed(&ins, "ix", "c1", 1).unwrap();
        assert!(retry.deduped);
        assert_eq!(retry.out, first.out);
        assert_eq!(engine.generation(), 1, "the retry applied nothing");
        assert_eq!(engine.deduped(), 1);
        // A stale sequence is refused; a fresh one applies.
        let err = engine.insert_keyed(&ins, "ix", "c1", 0).unwrap_err();
        assert!(err.message.contains("stale"), "{}", err.message);
        let second = engine
            .insert_keyed(&insert_of("INSERT INTO t VALUES (1001, 1)"), "ix", "c1", 2)
            .unwrap();
        assert!(!second.deduped);
        assert_eq!(second.out.generation, 2);
        drop(engine);

        // The dedup table is rebuilt from the log: the retry of the
        // last acknowledged sequence is still answered from cache.
        let (revived, report) = SharedEngine::with_wal(state(), &path, None).unwrap();
        assert_eq!(report.replayed, 2);
        let replayed_retry = revived
            .insert_keyed(&insert_of("INSERT INTO t VALUES (1001, 1)"), "ix", "c1", 2)
            .unwrap();
        assert!(replayed_retry.deduped, "dedup survives kill -9");
        assert_eq!(replayed_retry.out, second.out);
        assert_eq!(revived.generation(), 2);
    }

    #[test]
    fn failed_wal_append_acknowledges_nothing() {
        let path = temp_wal("enospc");
        let plan = Arc::new(tab_storage::FaultPlan::parse("enospc:wal:1").unwrap());
        let (engine, _) = SharedEngine::with_wal(state(), &path, Some(plan)).unwrap();
        let ok = engine
            .insert(&insert_of("INSERT INTO t VALUES (1000, 0)"), "p")
            .unwrap();
        assert_eq!(ok.generation, 1);
        let err = engine
            .insert(&insert_of("INSERT INTO t VALUES (1001, 1)"), "p")
            .unwrap_err();
        assert!(err.message.contains("wal append failed"), "{}", err.message);
        assert_eq!(engine.generation(), 1, "nothing published past the fault");
        drop(engine);
        let (revived, report) = SharedEngine::with_wal(state(), &path, None).unwrap();
        assert_eq!(report.replayed, 1, "only the acked insert is replayed");
        assert_eq!(revived.generation(), 1);
    }

    #[test]
    fn panicking_wal_append_leaves_a_recoverable_torn_tail() {
        let path = temp_wal("torn");
        let plan = Arc::new(tab_storage::FaultPlan::parse("panic:wal:append:1").unwrap());
        let (engine, _) = SharedEngine::with_wal(state(), &path, Some(plan)).unwrap();
        let engine = Arc::new(engine);
        engine
            .insert(&insert_of("INSERT INTO t VALUES (1000, 0)"), "p")
            .unwrap();
        let doomed = Arc::clone(&engine);
        let panicked = std::thread::spawn(move || {
            doomed
                .insert(&insert_of("INSERT INTO t VALUES (1001, 1)"), "p")
                .ok();
        })
        .join();
        assert!(panicked.is_err(), "the armed append panics mid-frame");
        // The half-written frame was never acknowledged and never
        // published; reads keep working, but further writes are refused
        // (an append after the torn frame would corrupt the log).
        assert_eq!(engine.generation(), 1);
        assert_eq!(count(&engine.snapshot(), "p"), 1_001);
        let err = engine
            .insert(&insert_of("INSERT INTO t VALUES (1002, 2)"), "p")
            .unwrap_err();
        assert!(err.message.contains("poisoned"), "{}", err.message);
        assert_eq!(engine.generation(), 1);
        drop(engine);
        // Recovery truncates the torn tail and replays the acked chain.
        let (revived, report) = SharedEngine::with_wal(state(), &path, None).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed, 1, "only cleanly framed acks replay");
        assert_eq!(revived.generation(), 1);
        // The recovered log accepts appends again.
        revived
            .insert(&insert_of("INSERT INTO t VALUES (1002, 2)"), "p")
            .unwrap();
        assert_eq!(revived.generation(), 2);
    }
}
