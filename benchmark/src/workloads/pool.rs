//! `pool_sweep`: the buffer pool and its spill pager, and nothing else.
//!
//! A fixed page stream through `BufferPool::fetch` at 256 frames (CI's
//! memory-capped setting) over a `Pager`-materialized NREF table: three
//! cyclic sweeps over four times the pool (never fits), a dirty sweep
//! over twice the pool, twice (spills, then reads the spill back), and a
//! hot loop over half of it (fits). Executor, planner, advisor and wire
//! do nothing, so a change to them should leave this workload alone.
//!
//! It stands where the issue put `repro_memcap`. That run writes 2.4 GB
//! of spill files (`spill.bin` never reuses a slot) and was refused by
//! the driver; it can still be run by hand, see the README.
//!
//! Correct means: every pass over a fresh pool repeats the first pass's
//! counters bit for bit (the pool's contract: counters are a function of
//! the access stream alone), what `fetch` returned adds up to what
//! `stats` says, and every miss past the pool's capacity evicted a frame.
//!
//! `--seed` feeds the table's contents only; the page stream is fixed,
//! so the exact counters are the same at every seed.

use std::time::Instant;

use tab_datagen::{generate_nref, NrefParams};
use tab_storage::pool::{table_rel_id, temp_rel_id, Fetched, PageHint, PageKey, PoolStats};
use tab_storage::{BufferPool, Database, Faults, Pager, Trace};

use super::{repeat_setup, Ctx, Outcome};
use crate::proc::own_peak_rss_mb;
use crate::trace::Tracer;

/// Buffer-pool frames (`repro_memcap`'s and CI's setting).
pub const FRAMES: u64 = 256;
/// Cyclic sweeps over `4 * FRAMES` heap pages: every fetch misses.
const MISS_SWEEPS: u64 = 3;
/// Dirty sweeps over `2 * FRAMES` temp pages: the second reads back what
/// the first spilled.
const SPILL_SWEEPS: u64 = 2;
/// Rounds over the `FRAMES / 2` hot pages after the one that loads them.
const HIT_ROUNDS: u64 = 20;
/// Fetches one pass issues.
const FETCHES: u64 =
    MISS_SWEEPS * 4 * FRAMES + SPILL_SWEEPS * 2 * FRAMES + (1 + HIT_ROUNDS) * (FRAMES / 2);

/// A table's heap on disk, ready to back a pool.
pub struct Heap {
    pager: Pager,
    rel: u64,
    /// Pages the table has; the stream reads pages past them as zeros.
    pub pages: u64,
}

/// Materialize the largest table of `db` through a fresh pager.
pub fn materialize(tr: &mut Tracer, db: &Database, label: &str) -> Result<Heap, String> {
    let (name, table) = db
        .table_names()
        .filter_map(|n| db.table(n).map(|t| (n, t)))
        .max_by_key(|(_, t)| t.n_pages())
        .ok_or("the database has no tables")?;
    let span = tr.begin("storage.pager_materialize");
    let mut pager = Pager::new(label).map_err(|e| format!("pager: {e}"))?;
    let done = pager.materialize_table(name, table);
    tr.end(span);
    done.map_err(|e| format!("pager: {e}"))?;
    Ok(Heap {
        pager,
        rel: table_rel_id(name),
        pages: table.n_pages(),
    })
}

/// What one pass saw: the pool's counters, and how many fetches came
/// back as hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    pub stats: PoolStats,
    pub returned_hits: u64,
}

/// One pass of the page stream over a fresh pool, one span per sweep.
pub fn pass(tr: &mut Tracer, heap: &Heap) -> Pass {
    let mut pool = BufferPool::new(
        FRAMES as usize,
        Some(&heap.pager),
        Faults::disabled(),
        Trace::disabled(),
        None,
    );
    let temp = temp_rel_id("pool_sweep");
    let mut returned_hits = 0;
    let mut sweep = |tr: &mut Tracer, span: &'static str, rel: u64, pages: u64, hint, dirty| {
        let open = tr.begin(span);
        for page in 0..pages {
            let fetched = pool.fetch(PageKey { rel, page }, hint, dirty);
            returned_hits += u64::from(fetched == Fetched::Hit);
        }
        tr.end(open);
    };
    for _ in 0..MISS_SWEEPS {
        let span = "storage.pool_miss_sweep";
        sweep(tr, span, heap.rel, 4 * FRAMES, PageHint::Seq, false);
    }
    for _ in 0..SPILL_SWEEPS {
        let span = "storage.pool_spill_sweep";
        sweep(tr, span, temp, 2 * FRAMES, PageHint::Seq, true);
    }
    for round in 0..=HIT_ROUNDS {
        // The first round loads the hot set; the rest only hit.
        let span = if round == 0 {
            "storage.pool_hot_load"
        } else {
            "storage.pool_hit_sweep"
        };
        sweep(tr, span, heap.rel, FRAMES / 2, PageHint::Random, false);
    }
    Pass {
        stats: pool.stats(),
        returned_hits,
    }
}

/// Whether a pass is correct: it repeats `reference`, and its counters
/// are consistent with each other and with what `fetch` returned.
pub fn check(got: &Pass, reference: &Pass) -> Result<(), String> {
    let s = &got.stats;
    if got != reference {
        return Err(format!(
            "{got:?} differs from the first pass's {reference:?}"
        ));
    }
    if s.hits != got.returned_hits {
        return Err(format!(
            "fetch returned {} hits, stats count {}",
            got.returned_hits, s.hits
        ));
    }
    if s.hits + s.misses() != FETCHES {
        return Err(format!(
            "{} hits + {} misses of {FETCHES} fetches",
            s.hits,
            s.misses()
        ));
    }
    if s.evictions != s.misses().saturating_sub(FRAMES) {
        return Err(format!(
            "{} evictions after {} misses into {FRAMES} frames",
            s.evictions,
            s.misses()
        ));
    }
    if s.spill_bytes_written == 0 || s.spill_bytes_read == 0 {
        return Err(format!("dirty sweeps past the pool spilled nothing: {s:?}"));
    }
    Ok(())
}

fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Heap, String> {
    let span = tr.begin("datagen.generate_nref");
    let db = generate_nref(NrefParams {
        proteins: ctx.scale.pool_nref,
        seed: ctx.seed,
    });
    tr.end(span);
    materialize(tr, &db, "sweep")
}

pub fn run(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<Outcome, String> {
    let (heap, setup_s) = repeat_setup(tr, |tr| setup(ctx, tr))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    // Reference pass: unmeasured (it also creates the spill file).
    let reference = pass(tr, &heap);
    out.tally
        .record(check(&reference, &reference).map(|()| None));

    let measure = tr.begin("bench.measure");
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let (got, secs) = tr.timed("bench.pool_pass", |tr| pass(tr, &heap));
        out.tally.record(match check(&got, &reference) {
            Ok(()) => Ok(Some(secs * 1e3)),
            Err(e) => Err(format!("pass {passes}: {e}")),
        });
        passes += 1;
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    tr.end(measure);
    out.peak_rss_mb = own_peak_rss_mb();
    let s = reference.stats;
    out.exact.extend([
        ("pool.pass_hits", s.hits as f64),
        ("pool.pass_evictions", s.evictions as f64),
        ("pool.pass_spill_bytes", s.spill_bytes_written as f64),
    ]);
    out.notes.push(format!(
        "one operation is a pass of {FETCHES} fetches through {FRAMES} frames; \
         the table has {} of the {} heap pages swept",
        heap.pages.min(4 * FRAMES),
        4 * FRAMES
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a_pass() -> Pass {
        Pass {
            stats: PoolStats {
                hits: HIT_ROUNDS * (FRAMES / 2),
                misses_seq: (MISS_SWEEPS * 4 + SPILL_SWEEPS * 2) * FRAMES,
                misses_random: FRAMES / 2,
                evictions: (MISS_SWEEPS * 4 + SPILL_SWEEPS * 2) * FRAMES - FRAMES / 2,
                spill_bytes_written: 8192,
                spill_bytes_read: 8192,
            },
            returned_hits: HIT_ROUNDS * (FRAMES / 2),
        }
    }

    #[test]
    fn a_consistent_pass_that_repeats_the_reference_is_correct() {
        assert_eq!(check(&a_pass(), &a_pass()), Ok(()));
    }

    #[test]
    fn a_pass_that_differs_or_does_not_add_up_is_named() {
        let mut other = a_pass();
        other.stats.evictions += 1;
        let err = check(&other, &a_pass()).unwrap_err();
        assert!(err.contains("differs from the first pass"), "{err}");
        let err = check(&other, &other).unwrap_err();
        assert!(err.contains("evictions after"), "{err}");
        let mut lost = a_pass();
        lost.returned_hits -= 1;
        let err = check(&lost, &lost).unwrap_err();
        assert!(err.contains("fetch returned"), "{err}");
    }
}
