//! Report rendering: CSV files and terminal (ASCII) figures.
//!
//! Every table and figure regenerated by the benchmark harness is
//! written as a CSV under `results/`, and the CFC figures additionally
//! render as ASCII plots so the curves can be eyeballed in a terminal
//! the way the paper's figures are read on the page.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use tab_storage::{atomic_write, Faults};

use crate::cfc::Cfc;
use crate::histogram::LogHistogram;

/// Escape one CSV field.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Write a CSV file with a header row, atomically (staged as
/// `<name>.tmp`, then renamed): a crash mid-write leaves either the
/// previous file or no file at the final path, never a torn CSV.
///
/// The write is preceded by a fault probe at the site named after the
/// file (e.g. `enospc:claims.csv` makes writing `claims.csv` fail
/// exactly as a full disk would).
pub fn write_csv(
    path: impl AsRef<Path>,
    header: &[&str],
    rows: &[Vec<String>],
    faults: Faults<'_>,
) -> io::Result<()> {
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| field(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in rows {
        out.push_str(&r.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    write_bytes(path, out.as_bytes(), faults)
}

/// Atomically write any artifact's bytes, with the same per-file fault
/// probe as [`write_csv`]. The fault site is the file's name
/// (`timings.json`, `BENCH_io.json`, …).
pub fn write_bytes(path: impl AsRef<Path>, bytes: &[u8], faults: Faults<'_>) -> io::Result<()> {
    let path = path.as_ref();
    if faults.is_enabled() {
        let site = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        faults.io(&site)?;
    }
    atomic_write(path, bytes)
}

/// Sample a CFC at log-spaced x values between `min_x` and `max_x`.
pub(crate) fn cfc_series(cfc: &Cfc, min_x: f64, max_x: f64, points: usize) -> Vec<(f64, f64)> {
    assert!(min_x > 0.0 && max_x > min_x && points >= 2);
    let l0 = min_x.log10();
    let l1 = max_x.log10();
    (0..points)
        .map(|i| {
            let x = 10f64.powf(l0 + (l1 - l0) * i as f64 / (points - 1) as f64);
            (x, cfc.at(x))
        })
        .collect()
}

/// Render several CFCs as one ASCII plot (x: log time, y: cumulative
/// fraction). Each curve gets the first character of its label.
pub fn render_cfc_ascii(
    curves: &[(&str, &Cfc)],
    min_x: f64,
    max_x: f64,
    width: usize,
    height: usize,
) -> String {
    let mut grid = vec![vec![' '; width]; height];
    for (label, cfc) in curves {
        let ch = label.chars().next().unwrap_or('?');
        for (i, (_, y)) in cfc_series(cfc, min_x, max_x, width).iter().enumerate() {
            let row = ((1.0 - y) * (height - 1) as f64).round() as usize;
            let row = row.min(height - 1);
            grid[row][i] = ch;
        }
    }
    let mut out = String::new();
    writeln!(out, "100% +{}", "-".repeat(width)).expect("write to string");
    for (r, row) in grid.iter().enumerate() {
        let pct = 100.0 * (1.0 - r as f64 / (height - 1) as f64);
        writeln!(out, "{pct:4.0} |{}", row.iter().collect::<String>()).expect("write");
    }
    writeln!(
        out,
        "     +{} x: {:.2}s .. {:.0}s (log)",
        "-".repeat(width),
        min_x,
        max_x
    )
    .expect("write");
    for (label, cfc) in curves {
        writeln!(
            out,
            "     {} = {}  (timeouts: {}/{})",
            label.chars().next().unwrap_or('?'),
            label,
            cfc.timeouts(),
            cfc.size()
        )
        .expect("write");
    }
    out
}

/// Render a log histogram with its `t_out` bin as ASCII bars.
pub fn render_histogram_ascii(h: &LogHistogram, max_bar: usize) -> String {
    let labels = h.labels();
    let mut counts: Vec<usize> = h.counts.clone();
    counts.push(h.timeout_count);
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (label, count) in labels.iter().zip(&counts) {
        let bar = "#".repeat(count * max_bar / peak);
        writeln!(out, "{label:>16} | {bar} {count}").expect("write");
    }
    out
}

/// CSV rows for one or more CFC curves sampled on a shared log grid:
/// `x, <label1>, <label2>, ...`.
pub fn cfc_csv_rows(
    curves: &[(&str, &Cfc)],
    min_x: f64,
    max_x: f64,
    points: usize,
) -> (Vec<String>, Vec<Vec<String>>) {
    let mut header = vec!["seconds".to_string()];
    header.extend(curves.iter().map(|(l, _)| l.to_string()));
    let grids: Vec<Vec<(f64, f64)>> = curves
        .iter()
        .map(|(_, c)| cfc_series(c, min_x, max_x, points))
        .collect();
    let mut rows = Vec::with_capacity(points);
    for i in 0..points {
        let mut row = vec![format!("{:.4}", grids[0][i].0)];
        for g in &grids {
            row.push(format!("{:.4}", g[i].1));
        }
        rows.push(row);
    }
    (header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn csv_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("tab_bench_report_test");
        let path = dir.join("t.csv");
        let rows = [vec!["1".into(), "x,y".into()]];
        write_csv(&path, &["a", "b"], &rows, Faults::disabled()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,\"x,y\"\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_write_is_staged_and_fault_probed() {
        let dir = std::env::temp_dir().join("tab_bench_report_fault_test");
        let path = dir.join("claims.csv");
        std::fs::remove_dir_all(&dir).ok();

        // An armed `enospc:claims.csv` fails the write before any bytes
        // land, and the error names the injection site.
        let plan = tab_storage::FaultPlan::parse("enospc:claims.csv").unwrap();
        let err = write_csv(&path, &["a"], &[vec!["1".into()]], Faults::to(&plan))
            .expect_err("injected ENOSPC");
        assert!(err.to_string().contains("claims.csv"), "{err}");
        assert!(!path.exists());
        assert!(!tab_storage::fault::tmp_path(&path).exists());

        // A different file is untouched by the arm and writes normally,
        // leaving no .tmp behind.
        let other = dir.join("timings.json");
        write_bytes(&other, b"{}", Faults::to(&plan)).expect("unfaulted site");
        assert_eq!(std::fs::read_to_string(&other).unwrap(), "{}");
        assert!(!tab_storage::fault::tmp_path(&other).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn series_is_monotone() {
        let c = Cfc::from_values(&[1.0, 5.0, 50.0, f64::INFINITY]);
        let s = cfc_series(&c, 0.1, 1000.0, 50);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(s.last().unwrap().1 <= 0.75 + 1e-9);
    }

    #[test]
    fn ascii_plot_mentions_all_curves() {
        let a = Cfc::from_values(&[1.0, 2.0]);
        let b = Cfc::from_values(&[10.0, 20.0]);
        let plot = render_cfc_ascii(&[("P", &a), ("1C", &b)], 0.1, 100.0, 40, 10);
        assert!(plot.contains("P = P") || plot.contains("P = "));
        assert!(plot.contains("timeouts: 0/2"));
    }

    #[test]
    fn histogram_render_includes_tout() {
        let h = LogHistogram::new(&[1.5, f64::INFINITY], 1.0, 10.0, 1);
        let s = render_histogram_ascii(&h, 20);
        assert!(s.contains("t_out"));
    }
}
