//! The `repro` binary's exit-code contract, driven as CI drives it.

use std::process::Command;

/// `--expect FILE` implies `--check`: a baseline with one flipped
/// verdict fails the run even when `--check` is not spelled out.
#[test]
fn expect_alone_fails_on_a_flipped_verdict() {
    let dir = std::env::temp_dir().join(format!("tab_repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/expected_claims_small.csv"
    );
    let baseline = std::fs::read_to_string(committed).expect("committed baseline");
    assert!(
        baseline.contains(",HOLDS\n"),
        "baseline has a HOLDS verdict"
    );
    let flipped = dir.join("flipped.csv");
    std::fs::write(&flipped, baseline.replacen(",HOLDS\n", ",DIVERGES\n", 1)).expect("write");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--small", "--threads", "2", "--expect"])
        .arg(&flipped)
        .arg("--out")
        .arg(dir.join("out"))
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("baseline says DIVERGES"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A usage error exits 2 before any work: the ledger's start probe
/// relies on `--no-such-flag` doing exactly that.
#[test]
fn usage_errors_exit_2() {
    for args in [
        &["--no-such-flag"][..],
        &["--small", "--morsel-rows", "0"],
        &["--small", "--charge", "bogus"],
        &["--small", "3"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}
