//! `tab-ledger`: the benchmark of record for this repository.
//!
//! ```text
//! tab-ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                      one run; the last line of stdout is its JSON result
//! tab-ledger [--trace] every workload, each in a fresh process
//! tab-ledger aa        the untraced suite twice, compared against the bounds
//! tab-ledger selftest  every workload and probe at toy scale
//! tab-ledger manifest  print BENCHMARK.json
//! ```
//!
//! See `README.md` for what is measured and why.

mod metrics;
mod probes;
mod proc;
mod report;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use proc::RunDir;
use report::Run;
use trace::Tracer;
use workloads::{Ctx, Scale};

/// What a run of one workload is given.
#[derive(Clone, Copy)]
struct RunOpts {
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<String>,
    run: RunOpts,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        run: RunOpts {
            seed: 2005,
            seconds: metrics::RUN_SECONDS as f64,
            trace: false,
        },
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.run.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.run.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            // `--trace` alone arms tracing; the driver passes 0 or 1.
            "--trace" => {
                args.run.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "aa" | "selftest" | "manifest" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The checkout root: the nearest directory at or above the working
/// directory that holds both `crates/` and `benchmark/`.
fn find_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    cwd.ancestors()
        .find(|d| d.join("crates").is_dir() && d.join("benchmark").is_dir())
        .map(Path::to_path_buf)
        .ok_or(format!(
            "{} is not inside a tab-bench checkout (no crates/ and benchmark/)",
            cwd.display()
        ))
}

/// Build `repro` and `tab` the way CI does and return the directory
/// they land in. Build time is not part of any metric.
fn build_binaries(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--locked", "--quiet"])
        .args(["--workspace", "--bins"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build of the release binaries failed".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    Ok(root.join(target).join("release"))
}

/// One workload, in this process: set up, measure, and — traced — probe
/// the layers and write the spans out.
fn run_one(
    root: &Path,
    bin_dir: &Path,
    name: &str,
    opts: RunOpts,
    scale: Scale,
) -> Result<Run, String> {
    let out_dir = root.join("benchmark").join("out");
    let run_dir =
        RunDir::create(&out_dir).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    // `Pager::new` — here and in the children — puts its scratch
    // directories under the system temp dir: keep them in the run's own.
    std::env::set_var("TMPDIR", run_dir.root());
    let ctx = Ctx {
        root,
        bin_dir,
        run_dir: &run_dir,
        seed: opts.seed,
        seconds: opts.seconds,
        scale,
    };
    let mut tr = Tracer::new(opts.trace);
    let outcome = workloads::run(name, &ctx, &mut tr)?;
    let mut run = Run::new(name, opts.seed, outcome)?;
    if opts.trace {
        // Probes record into their own tracer: their metrics are medians
        // by span name, and the workload used some of the same names.
        let open = tr.begin("bench.probes");
        let mut probe_tr = tr.fork();
        let probed = probes::run(&ctx, &mut probe_tr);
        tr.absorb(probe_tr);
        tr.end(open);
        run.add_layers(probed?, &tr)?;
        tr.write_jsonl(&out_dir.join("trace.jsonl"), name)
            .map_err(|e| format!("cannot write trace: {e}"))?;
    }
    Ok(run)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.command.as_deref() == Some("manifest") {
        print!("{}", metrics::manifest());
        return Ok(true);
    }
    let root = find_root()?;
    match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => {
            let bin_dir = build_binaries(&root)?;
            let run = run_one(&root, &bin_dir, name, args.run, Scale::RECORD)?;
            run.print(args.run.trace);
            Ok(run.correct())
        }
        (None, None) => report::suite(&root, &args_for_children(&args), args.run.trace),
        (Some("aa"), _) => report::aa(&args_for_children(&args)),
        (Some("selftest"), _) => selftest(&root, args.run.seed),
        _ => unreachable!("parse_args admits no other command"),
    }
}

/// `--seed` and `--seconds`, as the per-workload child processes take them.
fn args_for_children(args: &Args) -> Vec<String> {
    vec![
        "--seed".into(),
        args.run.seed.to_string(),
        "--seconds".into(),
        args.run.seconds.to_string(),
    ]
}

/// Every workload and every probe at toy scale, traced and untraced.
fn selftest(root: &Path, seed: u64) -> Result<bool, String> {
    let bin_dir = build_binaries(root)?;
    let mut all_correct = true;
    for trace in [false, true] {
        for name in workloads::NAMES {
            // `repro` has one size: one untraced run covers it.
            if trace && name == "repro_pipeline" {
                continue;
            }
            let opts = RunOpts {
                seed,
                seconds: 0.2,
                trace,
            };
            let run = run_one(root, &bin_dir, name, opts, Scale::TOY)?;
            println!(
                "selftest {name}{}: {} attempted, {} failed",
                if trace { " (traced)" } else { "" },
                run.attempted(),
                run.failed()
            );
            for reason in run.reasons() {
                println!("  {reason}");
            }
            all_correct &= run.correct();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("tab-ledger: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tab-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frozen surface: later changes will collapse the suffixed
    /// variants, so the benchmark's sources must never name one.
    #[test]
    fn sources_stay_on_the_stable_surface() {
        let banned = [
            ["_wi", "th("].concat(),
            ["_tra", "ced"].concat(),
            ["_instru", "mented"].concat(),
            ["_poo", "led"].concat(),
            ["_checkpo", "inted"].concat(),
            ["_with_st", "ats"].concat(),
            ["run_g", "rid"].concat(),
            ["run_a", "ll"].concat(),
            ["Retry", "Client"].concat(),
            ["Exec", "Opts"].concat(),
        ];
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files = vec![];
        let mut dirs = vec![src];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    files.push(path);
                }
            }
        }
        assert!(files.len() >= 10, "scanned {files:?}");
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            for token in &banned {
                assert!(
                    !text.contains(token.as_str()),
                    "{} names `{token}`, which is off the stable surface",
                    file.display()
                );
            }
        }
    }

    #[test]
    fn selftest_runs_every_workload_at_toy_scale() {
        assert_eq!(selftest(&find_root().unwrap(), 2005), Ok(true));
    }
}
