//! Deterministic fan-out over OS threads.
//!
//! The paper's methodology is an embarrassingly parallel grid (families
//! × configurations × queries), and everything in this workspace is
//! immutable while being measured, so parallel execution is safe — the
//! only thing that must be engineered is *determinism*: results are
//! collected by input index, so the output of [`par_map`] is
//! byte-identical at any thread count, including 1.
//!
//! Work is distributed dynamically (an atomic cursor over the input),
//! because grid cells vary by orders of magnitude in cost — a timed-out
//! query costs the whole timeout budget while its neighbour finishes in
//! microseconds — and static chunking would leave threads idle.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a parallel region may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly `threads` workers; `0` means "all available cores".
    pub fn new(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(t) => Parallelism { threads: t },
            None => Parallelism::available(),
        }
    }

    /// Single-threaded execution (the in-place fallback).
    pub fn sequential() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// One worker per available hardware thread.
    pub fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

/// One job's captured panic, as returned by [`par_map_catch`]. Carries
/// the original payload (so [`par_map`] can re-raise it faithfully)
/// plus a best-effort rendering for error reports.
pub struct JobPanic {
    /// The panic message, if the payload was a string (the common
    /// case: `panic!`, `expect`, injected faults).
    pub message: String,
    payload: Box<dyn std::any::Any + Send>,
}

impl JobPanic {
    fn new(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        JobPanic { message, payload }
    }

    /// Re-raise the original panic on the calling thread.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPanic")
            .field("message", &self.message)
            .finish()
    }
}

/// Map `f` over `items` on up to `par.threads()` threads, returning the
/// results *in input order* regardless of completion order. `f` must be
/// pure for the output to be deterministic; every caller in this
/// workspace satisfies that (sessions are read-only views).
///
/// A panicking job re-raises its panic here after every other job has
/// finished — one poisoned item cannot silently discard its siblings'
/// work (callers that want the per-job verdicts use [`par_map_catch`]).
pub fn par_map<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for r in par_map_catch(par, items, f) {
        match r {
            Ok(v) => out.push(v),
            Err(p) => p.resume(),
        }
    }
    out
}

/// [`par_map`] with per-job panic isolation: each job runs under
/// `catch_unwind`, so a panicking item yields `Err(JobPanic)` in its
/// input-order slot while every other job completes normally. This is
/// the primitive the fault-injection layer's "poisoned cell" rides on:
/// an injected panic fails one grid cell, not the process.
pub fn par_map_catch<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<Result<U, JobPanic>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    // AssertUnwindSafe: `f` is `Fn` over immutable borrows and a
    // panicked job's partial state is discarded wholesale, so no
    // broken invariant can leak back to the caller.
    let call = |item: &T| -> Result<U, JobPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).map_err(JobPanic::new)
    };
    let workers = par.threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(call).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, Result<U, JobPanic>)> = Vec::with_capacity(items.len());
    let sink = Mutex::new(&mut indexed);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Batch locally so the sink lock is touched rarely.
                let mut local: Vec<(usize, Result<U, JobPanic>)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, call(&items[i])));
                }
                // Job panics are caught above, so the only way this
                // lock poisons is a panic in `Vec::extend` itself.
                sink.lock().expect("result sink poisoned").extend(local);
            });
        }
    });
    // Completion order is nondeterministic; input order is restored here.
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// A one-shot job for [`par_run`].
pub(crate) type Job<'a, U> = Box<dyn FnOnce() -> U + Send + 'a>;

/// Run independent jobs concurrently (up to `par.threads()` at a time),
/// returning their results in job order. Used for coarse-grained
/// fan-out such as building several databases at once.
pub fn par_run<U: Send>(par: Parallelism, jobs: Vec<Job<'_, U>>) -> Vec<U> {
    let slots: Vec<Mutex<Option<Job<'_, U>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    par_map(par, &slots, |slot| {
        let job = slot
            .lock()
            .expect("job mutex poisoned")
            .take()
            .expect("each job runs exactly once");
        job()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let got = par_map(Parallelism::new(threads), &items, |x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(Parallelism::new(4), &empty, |x| *x).is_empty());
        assert_eq!(par_map(Parallelism::new(4), &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn unbalanced_work_still_ordered() {
        // Front-loaded heavy items exercise the dynamic cursor.
        let items: Vec<u64> = (0..64).rev().collect();
        let got = par_map(Parallelism::new(4), &items, |x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (acc, *x).1
        });
        assert_eq!(got, items);
    }

    #[test]
    fn par_run_returns_in_job_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| Box::new(move || i * 10) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let got = par_run(Parallelism::new(3), jobs);
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn par_map_catch_isolates_panicking_jobs() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let got = par_map_catch(Parallelism::new(threads), &items, |&x| {
                if x % 10 == 3 {
                    panic!("poisoned item {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), items.len(), "threads={threads}");
            for (i, r) in got.iter().enumerate() {
                if i % 10 == 3 {
                    let p = r.as_ref().expect_err("poisoned slot");
                    assert_eq!(p.message, format!("poisoned item {i}"));
                } else {
                    assert_eq!(*r.as_ref().expect("healthy slot"), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn par_map_reraises_job_panics() {
        let items: Vec<u32> = (0..8).collect();
        let err = std::panic::catch_unwind(|| {
            par_map(Parallelism::new(4), &items, |&x| {
                if x == 5 {
                    panic!("boom {x}");
                }
                x
            })
        })
        .expect_err("panic propagates");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("boom 5")
        );
    }

    #[test]
    fn zero_threads_means_available() {
        assert!(Parallelism::new(0).threads() >= 1);
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert_eq!(Parallelism::new(3).threads(), 3);
    }
}
