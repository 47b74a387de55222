//! The stdout of `tab advise`, `tab converge`, `tab bench` and
//! `tab goal` is pinned byte for byte under `tests/expected/`. Only
//! `advise`'s stderr carries wall-clock, so stdout is deterministic.

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
