//! The one command-line parser: `repro`, `ablation` and every `tab`
//! subcommand declare the flags they read in an [`Accepts`], and
//! [`Args::parse`] refuses anything else, naming it.

use std::collections::BTreeMap;

use tab_storage::FaultPlan;

/// The flags one command reads.
#[derive(Debug, Clone, Copy)]
pub struct Accepts {
    /// Flags that take no value, e.g. `--small`.
    pub switches: &'static [&'static str],
    /// Flags that take exactly one value, e.g. `--threads N`.
    pub options: &'static [&'static str],
    /// Whether bare arguments (a SQL string, a trace path) are allowed.
    pub positional: bool,
}

/// A parsed command line: `--key value` options, `--key` switches
/// (value `""`) and positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parse `args` (excluding argv\[0\] and any subcommand) against what
    /// the command `accepts`. An unknown or repeated flag, an option
    /// without a value, a switch given a value and a stray positional
    /// are errors that name the offending token.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        accepts: &Accepts,
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                if !accepts.positional {
                    return Err(format!("unexpected argument `{a}`"));
                }
                out.positional.push(a);
                continue;
            };
            let value = if accepts.switches.contains(&key) {
                match it.peek() {
                    Some(v) if !v.starts_with("--") && !accepts.positional => {
                        return Err(format!("--{key} takes no value, got `{v}`"));
                    }
                    _ => String::new(),
                }
            } else if accepts.options.contains(&key) {
                match it.next_if(|v| !v.starts_with("--")) {
                    Some(v) => v,
                    None => return Err(format!("--{key} needs a value")),
                }
            } else {
                return Err(format!("unknown flag `{a}`"));
            };
            if out.flags.insert(key.to_string(), value).is_some() {
                return Err(format!("duplicate flag --{key}"));
            }
        }
        Ok(out)
    }

    /// Required option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Optional option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Optional option parsed as a number (or anything else `FromStr`).
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{key}: cannot parse `{v}`")),
        }
    }

    /// The fault plan `--faults SPEC` arms; a blank spec or no flag
    /// arms nothing.
    pub fn faults(&self) -> Result<Option<FaultPlan>, String> {
        match self.get("faults") {
            Some(s) if !s.trim().is_empty() => FaultPlan::parse(s).map(Some),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: Accepts = Accepts {
        switches: &[],
        options: &["db", "timeout"],
        positional: true,
    };
    const REPRO: Accepts = Accepts {
        switches: &["small", "check"],
        options: &["threads", "out"],
        positional: false,
    };

    fn parse(s: &str, accepts: &Accepts) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from), accepts)
    }

    #[test]
    fn switches_have_empty_values() {
        let a = parse("--db nref --timeout 30 SELECT", &RUN).unwrap();
        assert_eq!(a.require("db").unwrap(), "nref");
        assert_eq!(a.get_parsed::<f64>("timeout").unwrap(), Some(30.0));
        assert_eq!(a.positional, vec!["SELECT"]);
        let a = parse("--small --out dir --check", &REPRO).unwrap();
        assert!(a.switch("small") && a.switch("check"));
        assert_eq!(a.get("out"), Some("dir"));
        assert!(!a.switch("threads"));
    }

    #[test]
    fn every_usage_error_names_its_token() {
        for (line, accepts, want) in [
            ("--db x --db y", &RUN, "duplicate flag --db"),
            ("--dbs x", &RUN, "unknown flag `--dbs`"),
            ("--db", &RUN, "--db needs a value"),
            ("--db --timeout 3", &RUN, "--db needs a value"),
            ("--small 3", &REPRO, "--small takes no value, got `3`"),
            ("--threads 2 extra", &REPRO, "unexpected argument `extra`"),
        ] {
            assert_eq!(parse(line, accepts).unwrap_err(), want, "{line}");
        }
        let a = parse("", &RUN).unwrap();
        assert!(a.require("db").is_err());
        assert!(a.get_parsed::<u64>("db").unwrap().is_none());
        assert!(parse("--db x --timeout soon", &RUN)
            .unwrap()
            .get_parsed::<f64>("timeout")
            .is_err());
    }
}
