//! `repro_pipeline` and `repro_memcap`: the paper's product end to end,
//! run as a user runs it — `repro --small --threads 2 --check`.
//!
//! `repro_pipeline` crosses every layer a little (datagen, build,
//! families, advisor, grid, reports) and never touches the buffer pool;
//! `repro_memcap` adds `--buffer-pages 256 --charge metered`, the only
//! traffic through `storage::pool` and `storage::pager`. A change to the
//! pool should move the second and leave the first alone.
//!
//! `--small` fixes the seed at 2005, so `--seed` is ignored here.

use std::process::Command;
use std::time::Instant;

use super::{repeat_setup, Ctx, Outcome};
use crate::proc::{spawn_batch, stderr_tail};
use crate::trace::Tracer;

/// The claim verdicts `repro --check` compares against.
const EXPECTED: &str = "ci/expected_claims_small.csv";
/// How many times set-up proves the binary starts; the median start is
/// too short to time once.
const START_PROBES: usize = 5;

fn repro_cmd(ctx: &Ctx<'_>) -> Command {
    let mut cmd = Command::new(ctx.bin("repro"));
    cmd.current_dir(ctx.root);
    cmd
}

/// Set-up: check the expected-claims file is there and the binary
/// starts (a flag it does not know exits 2 with its usage line).
fn setup(ctx: &Ctx<'_>, tr: &mut Tracer) -> Result<(), String> {
    let expected = std::fs::read_to_string(ctx.root.join(EXPECTED))
        .map_err(|e| format!("cannot read {EXPECTED}: {e}"))?;
    if expected.lines().count() < 2 {
        return Err(format!("{EXPECTED} holds no claims"));
    }
    for _ in 0..START_PROBES {
        let span = tr.begin("cli.repro_start");
        let status = repro_cmd(ctx).arg("--no-such-flag").output();
        tr.end(span);
        match status {
            Ok(out) if out.status.code() == Some(2) => {}
            Ok(out) => return Err(format!("repro start probe exited {:?}", out.status.code())),
            Err(e) => return Err(format!("cannot start repro: {e}")),
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx<'_>, tr: &mut Tracer, extra: &[&str]) -> Result<Outcome, String> {
    let ((), setup_s) = repeat_setup(tr, |tr| setup(ctx, tr))?;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let measure = tr.begin("bench.measure");
    let t0 = Instant::now();
    let mut rep = 0;
    // Whole runs until the time is up: a faster `repro` fits more
    // samples in, never a shorter measurement.
    while rep == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let out_dir = ctx.run_dir.path(&format!("repro-out-{rep}"));
        let mut cmd = repro_cmd(ctx);
        cmd.args(["--small", "--threads", "2", "--check", "--expect", EXPECTED])
            .arg("--out")
            .arg(&out_dir)
            .args(extra);
        let stderr_log = ctx.run_dir.path(&format!("repro-{rep}.err"));
        let span = tr.begin("cli.repro");
        let started = Instant::now();
        let waited = spawn_batch(&mut cmd, &stderr_log).and_then(|child| child.wait_sampling_rss());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        tr.end(span);
        out.tally.record(match waited {
            Ok((status, rss_mb)) if status.success() => {
                out.peak_rss_mb = out.peak_rss_mb.max(rss_mb);
                Ok(Some(ms))
            }
            // It failed, or its claim verdicts differ from `EXPECTED`:
            // its own last words say which.
            Ok((status, _)) => Err(format!(
                "repro ended with {status}: {}",
                stderr_tail(&stderr_log)
            )),
            Err(e) => Err(e),
        });
        std::fs::remove_dir_all(&out_dir).ok();
        rep += 1;
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    tr.end(measure);
    Ok(out)
}
