//! The stdout of `tab advise`, `tab converge`, `tab bench` and
//! `tab goal` is pinned byte for byte under `tests/expected/`. Only
//! `advise`'s stderr carries wall-clock, so stdout is deterministic. A
//! command that fails on its arguments prints nothing on stdout. `tab
//! gate` checks every golden under `ci/`, so a change that moves an
//! output byte fails here and not only in CI.

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
