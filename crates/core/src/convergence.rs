//! Convergence curves for recommender searches (`convergence.csv`).
//!
//! The paper compares recommenders by their *final* picks; this module
//! keeps the whole trajectory — objective value vs. accepted round and
//! vs. cumulative what-if budget — so profiles A/B/C can be compared
//! the way Baybe's `RecommenderConvergenceAnalysis` compares Bayesian
//! recommenders: as curves under an explicit evaluation budget, not as
//! endpoints. A [`ConvergenceCurve`] is built straight from the greedy
//! search's [`SearchStats`] (whose per-round counters are deterministic
//! at any thread count), so the rendered artifacts contain **no
//! wall-clock** and are byte-identical across runs and thread counts —
//! unlike the `BENCH_*` timing records, these participate in the
//! determinism byte-compare. `convergence.csv` is the one data
//! rendering: a curve that gave up is its `gave_up` row, its initial
//! objective is its round-0 row, and its final objective is its last
//! row.

use tab_advisor::SearchStats;

/// One accepted round on a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// One-based round number (round 0 is the curve's
    /// [`ConvergenceCurve::initial_objective`] anchor).
    pub round: u64,
    /// Picked candidate's index in the profile's candidate vector.
    pub candidate: u64,
    /// Estimated objective gain of the pick.
    pub gain: f64,
    /// Objective value after the pick.
    pub objective: f64,
    /// Cumulative what-if requests after this round — the budget axis.
    pub whatif_calls: u64,
    /// Cumulative planner invocations after this round.
    pub planner_calls: u64,
}

/// One recommender profile's trajectory under one what-if budget rung.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceCurve {
    /// Profile name (`A`, `B`, or `C`).
    pub profile: String,
    /// Workload family the search ran over.
    pub family: String,
    /// The what-if budget rung, `None` for unlimited.
    pub whatif_budget: Option<u64>,
    /// Whether the profile declined to recommend (§4.2's observed
    /// give-up) — the curve is then empty.
    pub gave_up: bool,
    /// Objective value of the starting configuration (round 0).
    pub initial_objective: f64,
    /// Accepted rounds in order.
    pub points: Vec<CurvePoint>,
}

impl ConvergenceCurve {
    /// Build a curve from a completed search's stats.
    pub fn from_stats(
        profile: &str,
        family: &str,
        whatif_budget: Option<u64>,
        stats: &SearchStats,
    ) -> Self {
        ConvergenceCurve {
            profile: profile.to_string(),
            family: family.to_string(),
            whatif_budget,
            gave_up: false,
            initial_objective: stats.initial_objective,
            points: stats
                .rounds
                .iter()
                .enumerate()
                .map(|(i, r)| CurvePoint {
                    round: i as u64 + 1,
                    candidate: r.candidate as u64,
                    gain: r.gain,
                    objective: r.objective_after,
                    whatif_calls: r.whatif_calls,
                    planner_calls: r.planner_calls,
                })
                .collect(),
        }
    }

    /// The curve of a profile that gave up before searching.
    pub fn gave_up(profile: &str, family: &str, whatif_budget: Option<u64>) -> Self {
        ConvergenceCurve {
            profile: profile.to_string(),
            family: family.to_string(),
            whatif_budget,
            gave_up: true,
            initial_objective: 0.0,
            points: Vec::new(),
        }
    }

    /// Final objective: the last point's, or the initial anchor for an
    /// empty curve.
    pub fn final_objective(&self) -> f64 {
        self.points
            .last()
            .map_or(self.initial_objective, |p| p.objective)
    }
}

/// The `convergence.csv` header.
pub const CSV_HEADER: [&str; 9] = [
    "profile",
    "family",
    "whatif_budget",
    "round",
    "candidate",
    "gain",
    "objective",
    "whatif_calls",
    "planner_calls",
];

/// Render a budget rung for CSV/display: the rung or `unlimited`.
fn budget_label(b: Option<u64>) -> String {
    b.map_or_else(|| "unlimited".to_string(), |b| b.to_string())
}

/// CSV rows for a set of curves, including each curve's round-0 anchor
/// at the initial objective (a gave-up profile contributes a single row
/// with empty objective fields, so its absence is visible rather than
/// silent).
pub fn convergence_csv_rows(curves: &[ConvergenceCurve]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for c in curves {
        if c.gave_up {
            rows.push(vec![
                c.profile.clone(),
                c.family.clone(),
                budget_label(c.whatif_budget),
                "gave_up".into(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
            continue;
        }
        rows.push(vec![
            c.profile.clone(),
            c.family.clone(),
            budget_label(c.whatif_budget),
            "0".into(),
            String::new(),
            format!("{:.3}", 0.0),
            format!("{:.3}", c.initial_objective),
            "0".into(),
            "0".into(),
        ]);
        for p in &c.points {
            rows.push(vec![
                c.profile.clone(),
                c.family.clone(),
                budget_label(c.whatif_budget),
                p.round.to_string(),
                p.candidate.to_string(),
                format!("{:.3}", p.gain),
                format!("{:.3}", p.objective),
                p.whatif_calls.to_string(),
                p.planner_calls.to_string(),
            ]);
        }
    }
    rows
}

/// Render curves as a compact fixed-width table for terminals and CI
/// job summaries: one line per curve with its objective trajectory.
pub fn render_convergence_table(curves: &[ConvergenceCurve]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<10} {:>14} {:>7} {:>14} {:>14} {:>12}",
        "profile", "family", "whatif_budget", "rounds", "initial", "final", "whatif_used"
    );
    for c in curves {
        if c.gave_up {
            let _ = writeln!(
                out,
                "{:<8} {:<10} {:>14} {:>7} {:>14} {:>14} {:>12}",
                c.profile,
                c.family,
                budget_label(c.whatif_budget),
                "-",
                "gave up",
                "-",
                "-"
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{:<8} {:<10} {:>14} {:>7} {:>14.3} {:>14.3} {:>12}",
            c.profile,
            c.family,
            budget_label(c.whatif_budget),
            c.points.len(),
            c.initial_objective,
            c.final_objective(),
            c.points.last().map_or(0, |p| p.whatif_calls)
        );
    }
    out
}

/// The `fig12_convergence_curve.csv` header: one row per curve point,
/// shaped for plotting objective (absolute and as a percentage of the
/// round-0 anchor) against the cumulative what-if budget spent.
pub const FIG12_HEADER: [&str; 7] = [
    "profile",
    "family",
    "whatif_budget",
    "round",
    "whatif_calls",
    "objective",
    "pct_of_initial",
];

/// Rows for `fig12_convergence_curve.csv`: every curve's round-0 anchor
/// plus its accepted rounds. Gave-up profiles carry no trajectory and
/// contribute no rows (their absence stays visible in
/// `convergence.csv`). Deterministic — the rows contain no wall-clock —
/// so the artifact participates in the determinism byte-compare.
pub fn fig12_csv_rows(curves: &[ConvergenceCurve]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for c in curves.iter().filter(|c| !c.gave_up) {
        let pct = |objective: f64| {
            if c.initial_objective == 0.0 {
                "100.0".to_string()
            } else {
                format!("{:.1}", 100.0 * objective / c.initial_objective)
            }
        };
        rows.push(vec![
            c.profile.clone(),
            c.family.clone(),
            budget_label(c.whatif_budget),
            "0".into(),
            "0".into(),
            format!("{:.3}", c.initial_objective),
            pct(c.initial_objective),
        ]);
        for p in &c.points {
            rows.push(vec![
                c.profile.clone(),
                c.family.clone(),
                budget_label(c.whatif_budget),
                p.round.to_string(),
                p.whatif_calls.to_string(),
                format!("{:.3}", p.objective),
                pct(p.objective),
            ]);
        }
    }
    rows
}

/// Render the convergence curves as an ASCII plot (the figures.txt
/// companion to `fig12_convergence_curve.csv`): objective as % of the
/// round-0 anchor (y) against cumulative what-if calls (x), each
/// profile drawn with its own letter. Deterministic: iteration order is
/// input order and the plot carries no wall-clock.
pub fn render_convergence_curve(curves: &[ConvergenceCurve]) -> String {
    use std::fmt::Write as _;
    const W: usize = 64;
    const H: usize = 16;
    let live: Vec<&ConvergenceCurve> = curves.iter().filter(|c| !c.gave_up).collect();
    let mut out = String::new();
    if live.is_empty() {
        out.push_str("(no convergence trajectories: every profile gave up)\n");
        return out;
    }
    let max_x = live
        .iter()
        .flat_map(|c| c.points.last())
        .map(|p| p.whatif_calls)
        .max()
        .unwrap_or(0)
        .max(1);
    // y axis: percent of the round-0 objective, padded a little below
    // the best final value so the floor of the plot is meaningful.
    let min_pct = live
        .iter()
        .flat_map(|c| {
            c.points.iter().map(|p| {
                if c.initial_objective == 0.0 {
                    100.0
                } else {
                    100.0 * p.objective / c.initial_objective
                }
            })
        })
        .fold(100.0_f64, f64::min);
    let floor = (min_pct - 5.0).max(0.0);
    let span = (100.0 - floor).max(1e-9);
    let mut grid = vec![vec![' '; W]; H];
    for c in &live {
        let letter = c.profile.chars().next().unwrap_or('?');
        // Walk the curve as a step function: each accepted round holds
        // its objective until the next round's what-if position.
        let mut pts: Vec<(u64, f64)> = vec![(0, 100.0)];
        for p in &c.points {
            let pct = if c.initial_objective == 0.0 {
                100.0
            } else {
                100.0 * p.objective / c.initial_objective
            };
            pts.push((p.whatif_calls, pct));
        }
        for win in pts.windows(2) {
            let (x0, y0) = win[0];
            let (x1, _) = win[1];
            let row = plot_row(y0, floor, span, H);
            for x in x0..=x1 {
                let col = (x as usize * (W - 1)) / max_x as usize;
                grid[row][col] = letter;
            }
        }
        if let Some(&(x, y)) = pts.last() {
            let row = plot_row(y, floor, span, H);
            let col = (x as usize * (W - 1)) / max_x as usize;
            for cell in grid[row].iter_mut().skip(col) {
                *cell = letter;
            }
        }
    }
    let _ = writeln!(
        out,
        "objective (% of initial) vs cumulative what-if calls (0..{max_x})"
    );
    for (r, row) in grid.iter().enumerate() {
        let label = 100.0 - span * r as f64 / (H - 1) as f64;
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{label:>6.1} |{line}");
    }
    let _ = writeln!(out, "{:>6} +{}", "", "-".repeat(W));
    for c in &live {
        let _ = writeln!(
            out,
            "  {} = profile {} on {} (budget {}, final {:.1}%)",
            c.profile.chars().next().unwrap_or('?'),
            c.profile,
            c.family,
            budget_label(c.whatif_budget),
            if c.initial_objective == 0.0 {
                100.0
            } else {
                100.0 * c.final_objective() / c.initial_objective
            }
        );
    }
    out
}

/// Map a percentage to a plot row (row 0 is 100%, the bottom row is the
/// padded floor).
fn plot_row(pct: f64, _floor: f64, span: f64, h: usize) -> usize {
    let frac = ((100.0 - pct) / span).clamp(0.0, 1.0);
    ((frac * (h - 1) as f64).round() as usize).min(h - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tab_advisor::RoundStats;

    fn stats() -> SearchStats {
        SearchStats {
            candidates: 5,
            whatif_calls: 30,
            planner_calls: 20,
            cache_hits: 10,
            rounds: vec![
                RoundStats {
                    candidate: 3,
                    gain: 40.0,
                    objective_after: 60.0,
                    whatif_calls: 18,
                    planner_calls: 12,
                    cache_hits: 6,
                },
                RoundStats {
                    candidate: 1,
                    gain: 10.0,
                    objective_after: 50.0,
                    whatif_calls: 30,
                    planner_calls: 20,
                    cache_hits: 10,
                },
            ],
            initial_objective: 100.0,
            wall_seconds: 1.25,
        }
    }

    #[test]
    fn curve_tracks_rounds_and_anchors_round_zero() {
        let c = ConvergenceCurve::from_stats("B", "NREF2J", Some(50), &stats());
        assert_eq!(c.points.len(), 2);
        assert_eq!(c.points[0].round, 1);
        assert_eq!(c.points[1].whatif_calls, 30);
        assert_eq!(c.initial_objective, 100.0);
        assert_eq!(c.final_objective(), 50.0);

        let rows = convergence_csv_rows(&[c]);
        assert_eq!(rows.len(), 3, "round-0 anchor plus two rounds");
        assert_eq!(rows[0][3], "0");
        assert_eq!(rows[0][6], "100.000");
        assert_eq!(rows[2][6], "50.000");
        assert_eq!(rows[1][2], "50", "budget rung column");
    }

    #[test]
    fn gave_up_profiles_stay_visible() {
        let c = ConvergenceCurve::gave_up("A", "NREF3J", None);
        assert_eq!(c.final_objective(), 0.0);
        let rows = convergence_csv_rows(std::slice::from_ref(&c));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], "unlimited");
        assert_eq!(rows[0][3], "gave_up");
        let table = render_convergence_table(&[c]);
        assert!(table.contains("gave up"), "{table}");
    }

    #[test]
    fn fig12_rows_anchor_and_scale_to_initial() {
        let c = ConvergenceCurve::from_stats("B", "NREF2J", Some(50), &stats());
        let rows = fig12_csv_rows(&[c, ConvergenceCurve::gave_up("A", "NREF2J", Some(50))]);
        assert_eq!(rows.len(), 3, "anchor + two rounds; gave-up adds none");
        assert_eq!(rows[0][4], "0");
        assert_eq!(rows[0][6], "100.0");
        assert_eq!(rows[2][5], "50.000");
        assert_eq!(rows[2][6], "50.0");
        assert!(rows.iter().all(|r| r.len() == FIG12_HEADER.len()));
    }

    #[test]
    fn fig12_plot_is_deterministic_and_labelled() {
        let curves = vec![
            ConvergenceCurve::from_stats("B", "NREF2J", Some(50), &stats()),
            ConvergenceCurve::gave_up("A", "NREF2J", Some(50)),
        ];
        let a = render_convergence_curve(&curves);
        let b = render_convergence_curve(&curves);
        assert_eq!(a, b);
        assert!(a.contains("profile B on NREF2J"), "{a}");
        assert!(a.contains("what-if calls"), "{a}");
        assert!(!a.contains("wall"), "no wall-clock: {a}");
        let empty = render_convergence_curve(&[ConvergenceCurve::gave_up("A", "F", None)]);
        assert!(empty.contains("gave up"), "{empty}");
    }
}
