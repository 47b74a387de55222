//! A query whose output operator must refuse its entry charge never
//! materializes the hash join that feeds it.
//!
//! The last join step of the small SkTH3Js workload's fourth query emits
//! about a million tuples, and `finish`'s first charge for them crosses
//! the small budget. The step prices that charge on a clone of the meter
//! before it fills, so the run times out without allocating the output
//! arena. A counting global allocator measures the peak of live heap
//! bytes during `Session::run`; it must stay below the arena's size.
//! This file holds one test, so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use tab_bench::datagen::{generate_tpch, Distribution, TpchParams};
use tab_bench::engine::plan::JoinMethod;
use tab_bench::engine::Session;
use tab_bench::eval::{build_p, BenchSpec};
use tab_bench::sqlq::parse;
use tab_bench::storage::RowId;

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let live = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_certain_timeout_never_fills_its_last_hash_join() {
    let spec = BenchSpec::small();
    let db = generate_tpch(TpchParams {
        scale: spec.tpch_scale,
        distribution: Distribution::Zipf(1.0),
        seed: spec.seed + 1,
    });
    let p = build_p(&db, "SkTH");
    let q = parse(
        "SELECT t.o_orderkey, t.o_custkey, COUNT(*) FROM partsupp r, lineitem s, orders t \
         WHERE r.ps_partkey = s.l_partkey AND r.ps_suppkey = s.l_suppkey \
         AND s.l_extendedprice = t.o_totalprice AND s.l_suppkey = 6 \
         GROUP BY t.o_orderkey, t.o_custkey",
    )
    .expect("query parses");
    let session = Session::new(&db, &p);
    let budget = Some(spec.timeout_units);

    // The shape this test relies on: every join step completes, the last
    // one a hash join of about a million tuples, and the output operator
    // times out.
    let run = session.run(&q, budget).expect("query binds");
    assert!(run.outcome.is_timeout(), "{:?}", run.outcome);
    assert_eq!(run.ops.len(), run.plan.steps.len() + 2, "{:?}", run.ops);
    let last_step = &run.plan.steps.last().expect("a join").method;
    assert!(matches!(last_step, JoinMethod::Hash), "{last_step:?}");
    let last = run.ops.last().expect("slots").rows_out as usize;
    assert!(last > 900_000, "{last} tuples");
    let arena = last * run.plan.query.rels.len() * std::mem::size_of::<RowId>();

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let again = session.run(&q, budget).expect("query binds");
    let peak = PEAK.load(Relaxed) - base;
    assert!(again.outcome.is_timeout());
    assert!(
        peak < arena,
        "{peak} live bytes at peak; the last step's output alone is {arena}"
    );
}
