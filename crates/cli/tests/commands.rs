//! The stdout of `tab advise`, `tab converge`, `tab bench` and
//! `tab goal` is pinned byte for byte under `tests/expected/`. Only
//! `advise`'s stderr carries wall-clock, so stdout is deterministic. A
//! command that fails on its arguments prints nothing on stdout. `tab
//! tracediff` exits 1 on any line the golden trace and another do not
//! share. `tab gate` checks every golden under `ci/`, so a change that
//! moves an output byte fails here and not only in CI.

use std::process::Command;

#[test]
fn front_end_stdout_is_pinned() {
    for (command, extra, expected) in [
        (
            "advise",
            &["--system", "B"][..],
            include_str!("expected/advise.txt"),
        ),
        ("converge", &[], include_str!("expected/converge.txt")),
        ("bench", &[], include_str!("expected/bench.txt")),
        (
            "goal",
            &["--steps", "100:0.5"],
            include_str!("expected/goal.txt"),
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tab"))
            .args([command, "--db", "nref:300", "--family", "NREF2J"])
            .args(["--workload", "6", "--threads", "2"])
            .args(extra)
            .output()
            .expect("spawn tab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "tab {command}: {stderr}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "tab {command}"
        );
    }
}

/// `tab bench` resolves every `--configs` name before it runs a
/// workload, so an unknown one fails with nothing on stdout.
#[test]
fn bench_refuses_an_unknown_config_before_running_any() {
    let out = Command::new(env!("CARGO_BIN_EXE_tab"))
        .args(["bench", "--db", "nref:300", "--family", "NREF2J"])
        .args(["--workload", "6", "--threads", "2", "--configs", "p,zz"])
        .output()
        .expect("spawn tab");
    let (stdout, stderr) = (&out.stdout, String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown config `zz`"), "{stderr}");
    assert!(stdout.is_empty(), "{}", String::from_utf8_lossy(stdout));
}

/// `tab tracediff` of the golden trace against itself exits 0; against
/// a copy with one `IndexScan` renamed it exits 1 printing the renamed
/// line, and a torn copy is refused.
#[test]
fn tracediff_prints_the_lines_one_side_lacks() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/golden_trace_small.jsonl"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden trace");
    let line = golden.lines().find(|l| l.contains("IndexScan")).unwrap();
    let renamed = line.replacen("IndexScan", "HashScan", 1);
    let dir = std::env::temp_dir().join(format!("tab-cli-tracediff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (renamed_path, torn_path) = (dir.join("renamed.jsonl"), dir.join("torn.jsonl"));
    std::fs::write(&renamed_path, golden.replacen(line, &renamed, 1)).unwrap();
    std::fs::write(&torn_path, &golden[..golden.len() - 40]).unwrap();
    for (fresh, code, stdout) in [
        (golden_path.as_ref(), 0, "traces match\n".to_string()),
        (
            renamed_path.as_path(),
            1,
            format!("- {line}\n+ {renamed}\n"),
        ),
        (torn_path.as_path(), 1, String::new()),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tab"))
            .args(["tracediff", golden_path])
            .arg(fresh)
            .output()
            .expect("spawn tab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{fresh:?}: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), stdout, "{fresh:?}");
        assert_eq!(
            stderr.contains("trace is torn"),
            fresh == torn_path,
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tab_gate_passes_every_row() {
    let out = Command::new(env!("CARGO_BIN_EXE_tab"))
        .arg("gate")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn tab");
    let report = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{report}");
}
