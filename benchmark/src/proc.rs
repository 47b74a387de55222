//! Child processes and scratch files, owned so nothing outlives a run.
//!
//! Every child sits in a [`ChildGuard`] that kills and reaps it on drop
//! (a harness panic included); every WAL, `repro --out` directory and
//! pager scratch directory lives under one [`RunDir`] removed at exit.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its serving line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a `repro` child may run before the harness gives up on it.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// The per-run scratch directory, `<out>/run-<pid>`.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(out_dir: &Path) -> std::io::Result<RunDir> {
        let dir = out_dir.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir.canonicalize()?))
    }

    pub fn root(&self) -> &Path {
        &self.0
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A child process that is killed and reaped when dropped.
pub struct ChildGuard {
    child: Child,
    /// Drains the child's stdout so it never blocks on a full pipe.
    drain: Option<JoinHandle<()>>,
}

impl ChildGuard {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL and reap: no shutdown hook runs in the child.
    pub fn kill9(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(h) = self.drain.take() {
            h.join().ok();
        }
    }

    /// Wait for exit, sampling the child's peak resident set while it
    /// runs. `Err` on a harness timeout (the child is killed).
    pub fn wait_sampling_rss(mut self) -> Result<(ExitStatus, f64), String> {
        let t0 = Instant::now();
        let mut peak_kb = 0u64;
        loop {
            peak_kb = peak_kb.max(status_kb(self.pid(), "VmHWM").unwrap_or(0));
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.reap();
                    return Ok((status, peak_kb as f64 / 1024.0));
                }
                Ok(None) if t0.elapsed() > CHILD_TIMEOUT => {
                    return Err(format!("child still running after {CHILD_TIMEOUT:?}"));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("cannot wait for child: {e}")),
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Spawn `cmd` with stdout piped into a drain thread that forwards each
/// line; stderr goes where the caller set it, by default nowhere.
fn spawn_draining(cmd: &mut Command) -> Result<(ChildGuard, mpsc::Receiver<String>), String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {:?}: {e}", cmd.get_program()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let drain = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            tx.send(line).ok();
        }
    });
    Ok((
        ChildGuard {
            child,
            drain: Some(drain),
        },
        rx,
    ))
}

/// Spawn a batch child (a `repro` run). Its stdout is discarded; its
/// stderr is kept in `stderr_log`, so that a failed run can say why.
pub fn spawn_batch(cmd: &mut Command, stderr_log: &Path) -> Result<ChildGuard, String> {
    let log = std::fs::File::create(stderr_log)
        .map_err(|e| format!("cannot create {}: {e}", stderr_log.display()))?;
    spawn_draining(cmd.stderr(log)).map(|(guard, _lines)| guard)
}

/// The last few lines of a child's stderr log, on one line.
pub fn stderr_tail(stderr_log: &Path) -> String {
    let text = std::fs::read_to_string(stderr_log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(3)..].join(" | ")
}

/// A running `tab serve` child.
pub struct Server {
    pub guard: ChildGuard,
    pub addr: SocketAddr,
    /// Spawn to serving line, seconds.
    pub boot_s: f64,
}

/// Spawn `tab serve <args> --addr 127.0.0.1:0` and wait for its
/// `serving … on <addr>` line; a child that never prints it within
/// [`BOOT_TIMEOUT`] fails the workload instead of hanging the run.
pub fn spawn_server(tab: &Path, args: &[&str]) -> Result<Server, String> {
    let t0 = Instant::now();
    let mut cmd = Command::new(tab);
    cmd.arg("serve").args(args).args(["--addr", "127.0.0.1:0"]);
    cmd.stderr(Stdio::null());
    let (guard, lines) = spawn_draining(&mut cmd)?;
    loop {
        let left = BOOT_TIMEOUT.saturating_sub(t0.elapsed());
        match lines.recv_timeout(left) {
            Ok(line) if line.strip_prefix("serving ").is_some() => {
                let addr = line
                    .rsplit(" on ")
                    .next()
                    .and_then(|a| a.trim().parse().ok())
                    .ok_or_else(|| format!("bad serving line `{line}`"))?;
                return Ok(Server {
                    guard,
                    addr,
                    boot_s: t0.elapsed().as_secs_f64(),
                });
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(format!("no serving line within {BOOT_TIMEOUT:?}"));
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("server exited before printing its serving line".into());
            }
        }
    }
}

/// A `Vm*` line of `/proc/<pid>/status`, in KiB.
pub fn status_kb(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// This process's peak resident set, MiB.
pub fn own_peak_rss_mb() -> f64 {
    status_kb(std::process::id(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dropped_guard_kills_and_reaps_its_child() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/proc-test");
        let run_dir = RunDir::create(&out).unwrap();
        let log = run_dir.path("sleep.err");
        let guard = spawn_batch(Command::new("sleep").arg("60"), &log).unwrap();
        let pid = guard.pid();
        assert!(status_kb(pid, "VmRSS").is_some());
        drop(guard);
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
    }

    #[test]
    fn a_child_that_exits_without_a_serving_line_fails_the_boot() {
        let err = spawn_server(Path::new("true"), &[]).err().unwrap();
        assert!(err.contains("before printing its serving line"), "{err}");
    }

    #[test]
    fn own_peak_rss_is_measured() {
        assert!(own_peak_rss_mb() > 1.0);
    }
}
