//! Turning an outcome into named metrics, printing them, and comparing
//! two suites of runs.

use std::collections::BTreeMap;
use std::process::Command;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::{Outcome, NAMES};

/// `values` in the order of `names`; every name must have a value.
fn in_order(
    names: impl Iterator<Item = &'static str>,
    values: &[(&'static str, f64)],
) -> Result<Vec<f64>, String> {
    names
        .map(|name| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or(format!("metric {name} was not measured"))
        })
        .collect()
}

/// One metric of the JSON result line.
fn json_metric(name: &str, unit: &str, value: f64) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// One finished run of one workload.
pub struct Run {
    name: String,
    seed: u64,
    outcome: Outcome,
    /// Values in [`END_TO_END`] order.
    end_to_end: Vec<f64>,
    /// Values in [`PER_LAYER`] order; empty when untraced.
    per_layer: Vec<f64>,
}

impl Run {
    /// Name the end-to-end metrics of `outcome`. A run with no correct
    /// operation has no latency to report and is an error.
    pub fn new(name: &str, seed: u64, outcome: Outcome) -> Result<Run, String> {
        let samples = &outcome.tally.samples_ms;
        let p50 = median(samples).ok_or_else(|| {
            format!(
                "no operation succeeded ({} attempted): {}",
                outcome.tally.attempted,
                outcome.tally.reasons.join("; ")
            )
        })?;
        let setup = median(&outcome.setup_s).ok_or("the workload ran no set-up")?;
        let end_to_end = in_order(
            END_TO_END.iter().map(|m| m.name),
            &[
                ("op_p50_ms", p50),
                ("ops_per_s", samples.len() as f64 / outcome.measured_s),
                ("peak_rss_mb", outcome.peak_rss_mb),
                ("setup_s", setup),
            ],
        )?;
        Ok(Run {
            name: name.to_string(),
            seed,
            outcome,
            end_to_end,
            per_layer: Vec::new(),
        })
    }

    /// Add the traced run's per-layer metrics: the probes' values plus
    /// what the workload's own spans say about the run.
    pub fn add_layers(
        &mut self,
        mut probed: Vec<(&'static str, f64)>,
        tr: &Tracer,
    ) -> Result<(), String> {
        let samples = &self.outcome.tally.samples_ms;
        let p50 = median(samples).expect("a run has samples");
        let (pct, tail_ms) =
            tail(samples).unwrap_or((100.0, samples.iter().copied().fold(0.0, f64::max)));
        // What recording cost the measured phase: spans recorded inside
        // it, at the calibrated price of one span, over its duration.
        let measure = tr
            .spans()
            .iter()
            .position(|s| s.name == "bench.measure")
            .ok_or("the workload recorded no bench.measure span")?;
        let phase = &tr.spans()[measure];
        let inside = tr
            .spans()
            .iter()
            .filter(|s| s.start_ns >= phase.start_ns && s.end_ns <= phase.end_ns)
            .count()
            - 1;
        let overhead = inside as f64 * Tracer::pair_cost_ns() / phase.dur_ns() as f64 * 100.0;
        probed.extend([
            ("bench.traced_op_p50_ms", p50),
            ("bench.op_tail_ms", tail_ms),
            ("bench.op_tail_pct", pct),
            ("bench.op_samples", samples.len() as f64),
            ("bench.trace_overhead_share", overhead),
        ]);
        self.per_layer = in_order(PER_LAYER.iter().map(|m| m.name), &probed)?;
        Ok(())
    }

    pub fn attempted(&self) -> u64 {
        self.outcome.tally.attempted
    }

    pub fn failed(&self) -> u64 {
        self.outcome.tally.failed
    }

    pub fn reasons(&self) -> &[String] {
        &self.outcome.tally.reasons
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// Print the run for a reader, then the one-line JSON result the
    /// driver reads: end-to-end metrics untraced, per-layer traced.
    pub fn print(&self, traced: bool) {
        let samples = &self.outcome.tally.samples_ms;
        println!(
            "workload {}  seed {}  {}",
            self.name,
            self.seed,
            if traced { "traced" } else { "untraced" }
        );
        for (m, v) in END_TO_END.iter().zip(&self.end_to_end) {
            let n = if m.name == "setup_s" {
                self.outcome.setup_s.len()
            } else {
                samples.len()
            };
            println!(
                "  {:<28} {:>14.4} {:<6} n={n} {} is better, bound {:.0}%",
                m.name,
                v,
                m.unit,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        match tail(samples) {
            Some((pct, v)) => println!(
                "  op_p{pct}_ms = {v:.4} ms (highest percentile with 10 samples beyond it)"
            ),
            None => println!("  no tail percentile: {} samples", samples.len()),
        }
        for (m, v) in PER_LAYER.iter().zip(&self.per_layer) {
            println!(
                "  {:<28} {:>14.4} {:<6}{}",
                m.name,
                v,
                m.unit,
                if m.exact { " exact" } else { "" }
            );
        }
        for (name, v) in &self.outcome.exact {
            println!("  exact {name} {v}");
        }
        for note in &self.outcome.notes {
            println!("  note: {note}");
        }
        println!("  attempted {}, failed {}", self.attempted(), self.failed());
        for reason in self.reasons() {
            println!("  failed: {reason}");
        }
        let metrics: Vec<String> = if traced {
            let layers = PER_LAYER.iter().zip(&self.per_layer);
            layers
                .map(|(m, v)| json_metric(m.name, m.unit, *v))
                .collect()
        } else {
            let ends = END_TO_END.iter().zip(&self.end_to_end);
            ends.map(|(m, v)| json_metric(m.name, m.unit, *v)).collect()
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        );
    }
}

/// What a per-workload child process printed.
struct ChildRun {
    correct: bool,
    /// Metrics of the JSON line.
    metrics: BTreeMap<String, f64>,
    /// `exact <name> <value>` lines.
    exact: BTreeMap<String, String>,
}

/// Run one workload in a fresh process — as the driver does, and so
/// that one workload's allocator state and peak memory never reach the
/// next — echoing its report.
fn child_run(name: &str, common: &[String], traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            name,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(common)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, json) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{name} printed no result"))?;
    println!("{report}");
    if !json.contains("\"metrics\"") {
        return Err(format!(
            "{name} printed no result (exit {:?})",
            out.status.code()
        ));
    }
    // Each metric reads `"<name>": {"value": <v>, "unit": …`.
    let metrics = json
        .split("\"unit\"")
        .filter_map(|piece| {
            let (head, value) = piece.rsplit_once("{\"value\": ")?;
            let name = head.trim_end_matches("\": ").rsplit('"').next()?;
            let value = value.trim_end_matches(", ").parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect();
    let exact = report
        .lines()
        .filter_map(|l| l.trim().strip_prefix("exact ")?.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(ChildRun {
        correct: json.contains("\"correct\": true"),
        metrics,
        exact,
    })
}

/// Every workload once, untraced.
fn untraced_suite(common: &[String]) -> Result<Vec<ChildRun>, String> {
    NAMES
        .iter()
        .map(|name| child_run(name, common, false))
        .collect()
}

/// Every workload once, untraced; with `traced`, once more traced.
pub fn suite(root: &std::path::Path, common: &[String], traced: bool) -> Result<bool, String> {
    let untraced = untraced_suite(common)?;
    let mut correct = untraced.iter().all(|run| run.correct);
    if traced {
        // Each traced child overwrites the trace file; keep them all.
        let path = root.join("benchmark/out/trace.jsonl");
        let mut spans = String::new();
        for (name, base) in NAMES.iter().zip(&untraced) {
            let run = child_run(name, common, true)?;
            correct &= run.correct;
            spans.push_str(&std::fs::read_to_string(&path).unwrap_or_default());
            let (a, b) = (
                base.metrics["op_p50_ms"],
                run.metrics["bench.traced_op_p50_ms"],
            );
            println!(
                "  {name}: op_p50_ms traced {b:.4} vs untraced {a:.4} ({:+.2}%)",
                (b - a) / a * 100.0
            );
        }
        std::fs::write(&path, spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans of all workloads: {}", path.display());
    }
    Ok(correct)
}

/// A/A: the untraced suite twice, back to back. Two sets of runs of the
/// same code must agree within the benchmark's own bounds, and every
/// exact counter must repeat.
pub fn aa(common: &[String]) -> Result<bool, String> {
    let suites = [untraced_suite(common)?, untraced_suite(common)?];
    let mut agree = true;
    println!("\nA/A: two runs of the same code");
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (i, name) in NAMES.iter().enumerate() {
        let (a, b) = (&suites[0][i], &suites[1][i]);
        agree &= a.correct && b.correct;
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            // How much worse the second run reads than the first, and
            // the first than the second: neither may pass the bound.
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let outside = worse.abs() > m.bound;
            agree &= !outside;
            println!(
                "{name:<16} {:<14} {x:>12.4} {y:>12.4} {:>+7.1}% {:>5.0}%{}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if outside { "  OUTSIDE" } else { "" }
            );
        }
        if a.exact != b.exact {
            agree = false;
            println!(
                "{name:<16} exact counters differ: {:?} vs {:?}",
                a.exact, b.exact
            );
        }
    }
    println!("{}", if agree { "A/A agrees" } else { "A/A DISAGREES" });
    Ok(agree)
}
