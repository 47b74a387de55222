//! A flag a `tab` subcommand does not read is a usage error, not a
//! setting silently left at its default.

use std::process::Command;

#[test]
fn misspelled_flags_exit_nonzero_naming_the_flag() {
    for (args, flag) in [
        (
            &[
                "run",
                "--db",
                "nref:200",
                "--buffer-page",
                "64",
                "SELECT COUNT(*) FROM protein p",
            ][..],
            "--buffer-page",
        ),
        (
            &[
                "explain",
                "--db",
                "nref:200",
                "--confg",
                "1c",
                "SELECT COUNT(*) FROM protein p",
            ],
            "--confg",
        ),
        (
            &["tracediff", "--tolerance", "1e-6", "A", "B"],
            "--tolerance",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tab"))
            .args(args)
            .output()
            .expect("spawn tab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(
            stderr.contains("USAGE:"),
            "a usage error prints the help: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
