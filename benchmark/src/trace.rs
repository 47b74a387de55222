//! Spans recorded from the benchmark's own files, around each call into
//! a layer's public functions.
//!
//! Spans stay in memory and are written to `benchmark/out/trace.jsonl`
//! when the run ends. A disarmed tracer records nothing, so the
//! end-to-end metrics are measured with tracing off.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.run`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// A single-threaded span recorder; threads record into their own
/// [`Tracer::fork`] and are [`Tracer::absorb`]ed afterwards.
pub struct Tracer {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(armed: bool) -> Self {
        Tracer {
            armed,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            armed: self.armed,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Adopt a forked tracer's spans; its roots become children of the
    /// span open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let here = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(here);
            s
        }));
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.armed {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Time `f` under a span; the duration comes back whether or not the
    /// tracer is armed, so callers can keep it as a sample.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let open = self.begin(name);
        let t0 = Instant::now();
        let out = f(self);
        let secs = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Nanoseconds one begin/end pair costs, measured on a scratch
    /// tracer: what a recorded span adds to the code it wraps.
    pub fn pair_cost_ns() -> f64 {
        const N: usize = 100_000;
        let mut t = Tracer::new(true);
        t.spans.reserve(N);
        let t0 = Instant::now();
        for _ in 0..N {
            let open = t.begin("bench.calibrate");
            t.end(open);
        }
        std::hint::black_box(&t.spans);
        t0.elapsed().as_nanos() as f64 / N as f64
    }

    /// Write one JSON line per span: name, start, end, parent, workload.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_forks_attach_under_the_open_span() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.measure");
        let mut f = t.fork();
        let a = f.begin("server.query");
        f.end(a);
        let inner = t.begin("engine.run");
        t.end(inner);
        t.absorb(f);
        t.end(root);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("bench.measure", None),
                ("engine.run", Some(0)),
                ("server.query", Some(0))
            ]
        );
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());
    }

    #[test]
    fn a_disarmed_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.timed("engine.run", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }
}
