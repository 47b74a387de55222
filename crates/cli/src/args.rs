//! `tab`'s command line: the subcommand, and the flags each subcommand
//! reads, parsed by the shared [`tab_core::Args`]. A flag the subcommand
//! does not read is a usage error naming it, never silently ignored.

use tab_core::{Accepts, Args};

/// What `command` reads; `None` for an unknown command. Every `tab`
/// flag takes a value.
fn accepts(command: &str) -> Option<Accepts> {
    let (options, positional): (&'static [&'static str], bool) = match command {
        "gen" => (&["db", "seed", "out"], false),
        "explain" | "run" => (
            &[
                "db",
                "seed",
                "config",
                "threads",
                "timeout-secs",
                "query-threads",
                "morsel-rows",
                "buffer-pages",
                "charge",
            ],
            true,
        ),
        "advise" => (
            &[
                "db", "seed", "family", "system", "workload", "threads", "trace",
            ],
            false,
        ),
        "bench" => (
            &[
                "db",
                "seed",
                "family",
                "configs",
                "workload",
                "threads",
                "timeout-secs",
            ],
            false,
        ),
        "goal" => (
            &[
                "db", "seed", "family", "steps", "config", "workload", "threads",
            ],
            false,
        ),
        "converge" => (
            &[
                "db",
                "seed",
                "family",
                "profiles",
                "ladder",
                "max-structures",
                "workload",
                "threads",
                "out",
            ],
            false,
        ),
        "serve" => (
            &[
                "db",
                "seed",
                "addr",
                "timeout-secs",
                "threads",
                "wal",
                "faults",
                "max-connections",
                "admission",
            ],
            false,
        ),
        "faults" => (&["spec"], true),
        "replay" => (&[], true),
        "tracediff" => (&[], true),
        "client" => (&["addr"], true),
        "help" => (&[], true),
        "gate" | "" => (&[], false),
        _ => return None,
    };
    Some(Accepts {
        switches: &[],
        options,
        positional,
    })
}

/// Split `tab`'s arguments into the subcommand and its parsed flags. The
/// subcommand is the first argument that is neither a flag nor a flag's
/// value.
pub fn parse_command(mut argv: Vec<String>) -> Result<(String, Args), String> {
    let command = match (0..argv.len())
        .step_by(2)
        .find(|&i| !argv[i].starts_with("--"))
    {
        Some(i) => argv.remove(i),
        None => String::new(),
    };
    let accepts = accepts(&command).ok_or_else(|| format!("unknown command `{command}`"))?;
    let args = Args::parse(argv, &accepts).map_err(|e| format!("tab {command}: {e}"))?;
    Ok((command, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<(String, Args), String> {
        parse_command(s.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn commands_flags_positionals() {
        let (command, a) = parse("run --db nref --timeout-secs 30 SELECT").unwrap();
        assert_eq!(command, "run");
        assert_eq!(a.require("db").unwrap(), "nref");
        assert_eq!(a.get_parsed::<f64>("timeout-secs").unwrap(), Some(30.0));
        assert_eq!(a.positional, vec!["SELECT"]);
        // Flags may come before the subcommand.
        let (command, a) = parse("--db nref:200 explain --config 1c SELECT").unwrap();
        assert_eq!(command, "explain");
        assert_eq!(a.get("config"), Some("1c"));
        // Every flag the gate and the benchmark pass `tab serve`.
        let (_, a) = parse(
            "serve --db nref:100 --seed 7 --wal w.jsonl --addr 127.0.0.1:0 --faults drop:conn:2",
        )
        .unwrap();
        for flag in ["db", "seed", "wal", "addr", "faults"] {
            assert!(a.get(flag).is_some(), "{flag}");
        }
    }

    #[test]
    fn errors() {
        for (line, want) in [
            (
                "run --db nref:200 --buffer-page 64 SELECT",
                "tab run: unknown flag `--buffer-page`",
            ),
            (
                "explain --db nref:200 --confg 1c SELECT",
                "tab explain: unknown flag `--confg`",
            ),
            (
                "gen --out d --threads 2",
                "tab gen: unknown flag `--threads`",
            ),
            ("gate --out d", "tab gate: unknown flag `--out`"),
            ("gate now", "tab gate: unexpected argument `now`"),
            ("bench --db x --db y", "tab bench: duplicate flag --db"),
            ("serve --db", "tab serve: --db needs a value"),
            ("frobnicate", "unknown command `frobnicate`"),
        ] {
            assert_eq!(parse(line).unwrap_err(), want, "{line}");
        }
        let (_, a) = parse("run").unwrap();
        assert!(a.require("db").is_err());
    }
}
