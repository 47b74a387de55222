//! Deterministic fault injection and crash-consistent file writes.
//!
//! The reproduction harness's determinism guarantee ("outputs are
//! byte-identical at any thread count") is only as strong as its story
//! for runs that *don't* finish: a worker panicking mid-grid or a full
//! disk under an artifact write must fail the run with an error that
//! names what broke, and leave nothing half-written for a rerun to trip
//! over. This module supplies the two halves of that answer:
//!
//! 1. **[`FaultPlan`] / [`Faults`]** — a parsed fault-injection plan
//!    that fires deterministically at *named sites* (an artifact file
//!    name, a grid cell identity, the trace sink). The [`Faults`]
//!    handle follows the same contract as [`crate::trace::Trace`]: it
//!    is `Copy`, threads through call stacks without lifetime
//!    gymnastics, and a disabled handle costs one branch per site.
//! 2. **[`atomic_write`]** — write-temp-then-rename, so a run killed
//!    mid-write never leaves a half-written artifact at its final
//!    path; readers see either the old bytes or the new bytes.
//!
//! # Fault spec grammar
//!
//! A plan is parsed from a comma-separated spec, given on the command
//! line as `--faults SPEC` (the only way to arm one):
//!
//! ```text
//! SPEC := arm (',' arm)*
//! arm  := 'enospc:' SITE [':' N]     simulated ENOSPC at SITE's N-th
//!                                    hit and every hit after (N is
//!                                    0-based, default 0 — the disk
//!                                    stays full once it fills)
//!       | 'panic:' SITE [':' N]      panic at SITE's N-th hit and
//!                                    every hit after (default 0)
//!       | 'truncate:trace:' N        the trace sink tears mid-line
//!                                    after N complete lines
//!       | 'drop:conn:' N             the server closes the connection
//!                                    instead of writing its N-th
//!                                    response (exactly once)
//!       | 'delay:conn:' N            the server stalls before writing
//!                                    its N-th response (exactly once)
//!       | 'torn:wire:' N             the server writes half of its
//!                                    N-th response, then closes
//!                                    (exactly once)
//! ```
//!
//! The three wire arms fire **exactly once** at their hit index rather
//! than from it onward: a wire fault models one transient network
//! event, and the idempotent-retry machinery it exists to exercise
//! would never converge against a permanently broken wire.
//!
//! Sites are plain strings chosen by the instrumented code:
//!
//! | site | fired by |
//! |------|----------|
//! | `<file>.csv`, `timings.json`, … | the harness's artifact writes (`write_csv`, bench records) |
//! | `cell:<family>/<config>` | each query job of that grid cell |
//! | `morsel:<family>/<config>` | every morsel prologue of the cell's queries — a panic inside an intra-query worker, caught and reported like a `cell:` poison |
//! | `trace` | every trace-sink line (`enospc:trace` silences the sink) |
//! | `spill` | every dirty-page eviction's spill write (pool mode; `enospc:spill:N` fills the disk at the N-th spilled page) |
//! | `evict:<family>/<config>` | every buffer-pool eviction inside that cell's queries — a panic here crashes a run that has already spilled pages |
//! | `wal` | every WAL append's write (`enospc:wal` fills the disk under the serving log) |
//! | `wal:append` | every WAL append (`panic:wal:append:N` crashes mid-record, leaving a real torn tail for recovery to truncate) |
//! | `datagen` | each generated table's handoff into the database (`enospc:datagen:N` fails the N-th table) |
//! | `build:<table>` | one generated table's handoff (`panic:build:protein` crashes datagen at that table) |
//! | `conn`, `wire` | every server response about to be written (the `drop:`/`delay:`/`torn:` wire arms above) |
//!
//! Examples: `panic:cell:NREF3J/NREF_1C` poisons one grid cell;
//! `enospc:claims.csv` fails the claims table write;
//! `enospc:trace:100,truncate:trace:40` is a full disk *and* a torn
//! trace tail.
//!
//! # Determinism
//!
//! Every arm fires as a pure function of its site string and a per-arm
//! hit counter, never wall-clock or randomness, so a fault plan turns
//! one deterministic run into another deterministic run: the same spec
//! fails at the same logical point every time. (Under a parallel grid
//! the *identity*-matched sites — `cell:…` — are exactly reproducible
//! at any thread count; hit-counted sites like `trace` fire after the
//! same number of events, though which worker's event trips the
//! counter may vary.) With no plan armed, every check is a single
//! `Option` branch, mirroring the zero-overhead contract of the trace
//! layer.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// What an armed fault does when its site is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// The I/O boundary reports "no space left on device".
    Enospc,
    /// The site panics (a "poisoned" unit of work).
    Panic,
    /// The trace sink writes half a line, then goes silent.
    TruncateTrace,
    /// The server closes the connection instead of writing a response.
    DropConn,
    /// The server stalls before writing a response.
    DelayConn,
    /// The server writes half a response line, then closes.
    TornWire,
}

/// What a fired wire arm asks the server's connection loop to do to
/// the response it was about to write. See [`Faults::wire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Close the connection without writing anything.
    Drop,
    /// Sleep briefly, then write normally.
    Delay,
    /// Write the first half of the line, then close.
    Torn,
}

/// One armed fault: a site, a kind, and the hit index it fires at.
#[derive(Debug)]
struct FaultArm {
    site: String,
    kind: FaultKind,
    /// Fires at the `after`-th hit (0-based). Durable arms (`once ==
    /// false`) keep firing on every hit beyond — a filled disk stays
    /// full; transient arms (the wire kinds) fire exactly once.
    after: u64,
    /// `true`: fire only *at* the `after`-th hit, not beyond.
    once: bool,
    hits: AtomicU64,
}

impl FaultArm {
    fn durable(site: impl Into<String>, kind: FaultKind, after: u64) -> Self {
        FaultArm {
            site: site.into(),
            kind,
            after,
            once: false,
            hits: AtomicU64::new(0),
        }
    }

    fn transient(site: impl Into<String>, kind: FaultKind, after: u64) -> Self {
        FaultArm {
            site: site.into(),
            kind,
            after,
            once: true,
            hits: AtomicU64::new(0),
        }
    }

    /// Count one hit; `true` if the arm fires on it.
    fn hit(&self) -> bool {
        let n = self.hits.fetch_add(1, Ordering::Relaxed);
        if self.once {
            n == self.after
        } else {
            n >= self.after
        }
    }
}

/// Split a trailing `:N` numeric segment off a site spec, defaulting
/// to hit 0. Safe for sites that themselves contain `:` (e.g.
/// `cell:NREF3J/NREF_1C`): only a purely numeric tail is taken.
fn split_hit_index(rest: &str) -> (&str, u64) {
    match rest.rsplit_once(':') {
        Some((site, n)) if !site.is_empty() => match n.parse::<u64>() {
            Ok(after) => (site, after),
            Err(_) => (rest, 0),
        },
        _ => (rest, 0),
    }
}

/// The trace sink's share of a fault plan, extracted once at sink
/// creation so the sink owns its fault state (no borrowed plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceFault {
    /// Complete lines to emit before the fault bites.
    pub after_lines: u64,
    /// `true`: tear the next line mid-way (a crash's torn tail).
    /// `false`: simulated ENOSPC (drop the line and everything after).
    pub torn: bool,
}

/// A parsed, armed fault-injection plan. See the module docs for the
/// spec grammar. An empty plan (the default) arms nothing.
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Vec<FaultArm>,
}

impl FaultPlan {
    /// Parse a comma-separated fault spec. Empty input yields the
    /// empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut arms = Vec::new();
        for raw in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, rest) = raw
                .split_once(':')
                .ok_or_else(|| format!("fault `{raw}`: expected `kind:site`"))?;
            let arm = match kind {
                "enospc" => {
                    // A trailing `:N` numeric segment is the hit index.
                    let (site, after) = split_hit_index(rest);
                    FaultArm::durable(site, FaultKind::Enospc, after)
                }
                "panic" => {
                    let (site, after) = split_hit_index(rest);
                    FaultArm::durable(site, FaultKind::Panic, after)
                }
                "truncate" => {
                    let n = rest
                        .strip_prefix("trace:")
                        .and_then(|n| n.parse::<u64>().ok())
                        .ok_or_else(|| format!("fault `{raw}`: expected `truncate:trace:N`"))?;
                    FaultArm::durable("trace", FaultKind::TruncateTrace, n)
                }
                "drop" | "delay" | "torn" => {
                    let (want_site, fault_kind) = match kind {
                        "drop" => ("conn", FaultKind::DropConn),
                        "delay" => ("conn", FaultKind::DelayConn),
                        _ => ("wire", FaultKind::TornWire),
                    };
                    let n = rest
                        .strip_prefix(want_site)
                        .and_then(|r| r.strip_prefix(':'))
                        .and_then(|n| n.parse::<u64>().ok())
                        .ok_or_else(|| format!("fault `{raw}`: expected `{kind}:{want_site}:N`"))?;
                    FaultArm::transient(want_site, fault_kind, n)
                }
                other => {
                    return Err(format!(
                        "fault `{raw}`: unknown kind `{other}` \
                         (enospc|panic|truncate|drop|delay|torn)"
                    ))
                }
            };
            if arm.site.is_empty() {
                return Err(format!("fault `{raw}`: empty site"));
            }
            arms.push(arm);
        }
        Ok(FaultPlan { arms })
    }

    /// Whether the plan arms anything at all.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// The arms targeting the trace sink, reduced to the sink-owned
    /// form (`truncate:trace` wins over `enospc:trace` if both are
    /// armed at the same line, being the more specific corruption).
    pub(crate) fn trace_fault(&self) -> Option<TraceFault> {
        let mut out: Option<TraceFault> = None;
        for arm in self.arms.iter().filter(|a| a.site == "trace") {
            let tf = TraceFault {
                after_lines: arm.after,
                torn: arm.kind == FaultKind::TruncateTrace,
            };
            out = Some(match out {
                Some(prev) if prev.after_lines < tf.after_lines => prev,
                Some(prev) if prev.after_lines == tf.after_lines && prev.torn => prev,
                _ => tf,
            });
        }
        out
    }

    /// Human-readable description of every armed fault, for `tab
    /// faults` and run banners.
    pub fn describe(&self) -> Vec<String> {
        self.arms
            .iter()
            .map(|a| match a.kind {
                FaultKind::Enospc => {
                    format!("enospc at `{}` from hit {}", a.site, a.after)
                }
                FaultKind::Panic => format!("panic at `{}` from hit {}", a.site, a.after),
                FaultKind::TruncateTrace => {
                    format!("trace torn after {} lines", a.after)
                }
                FaultKind::DropConn => {
                    format!("connection dropped at response {}", a.after)
                }
                FaultKind::DelayConn => {
                    format!("connection delayed at response {}", a.after)
                }
                FaultKind::TornWire => {
                    format!("response torn mid-write at response {}", a.after)
                }
            })
            .collect()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe().join(", "))
    }
}

/// The injected-ENOSPC error text carried by a fired `enospc` arm's
/// [`io::Error`]; contains the site so error chains name the boundary.
pub(crate) fn injected_enospc(site: &str) -> io::Error {
    io::Error::other(format!(
        "no space left on device (injected fault at site `{site}`)"
    ))
}

/// A zero-cost-when-disabled fault handle: either a reference to an
/// armed [`FaultPlan`] or nothing. `Copy`, mirroring
/// [`crate::trace::Trace`], so it threads through `par_map` closures
/// freely.
#[derive(Clone, Copy, Default)]
pub struct Faults<'a> {
    plan: Option<&'a FaultPlan>,
}

impl fmt::Debug for Faults<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Faults")
            .field("armed", &self.plan.map_or(0, |p| p.arms.len()))
            .finish()
    }
}

impl<'a> Faults<'a> {
    /// The no-op handle: every check is a single branch.
    pub fn disabled() -> Self {
        Faults { plan: None }
    }

    /// A handle over `plan`. An empty plan behaves like `disabled`.
    pub fn to(plan: &'a FaultPlan) -> Self {
        Faults {
            plan: (!plan.is_empty()).then_some(plan),
        }
    }

    /// Whether any fault is armed. Use to skip building site strings
    /// when nothing can fire.
    pub fn is_enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// Check an I/O boundary: returns the injected ENOSPC error if an
    /// `enospc` arm matching `site` fires on this hit.
    pub fn io(&self, site: &str) -> io::Result<()> {
        if let Some(plan) = self.plan {
            for arm in &plan.arms {
                if arm.kind == FaultKind::Enospc && arm.site == site && arm.hit() {
                    return Err(injected_enospc(site));
                }
            }
        }
        Ok(())
    }

    /// Check a unit-of-work boundary: panics if a `panic` arm matches
    /// `site`. The panic message names the site so `catch_unwind`
    /// layers can report which unit was poisoned.
    pub fn panic_if_armed(&self, site: &str) {
        if self.panic_fires(site) {
            panic!("injected fault: poisoned `{site}`");
        }
    }

    /// Count one hit at a `panic` site and report whether an arm fired,
    /// *without* panicking. Call sites that must corrupt state first
    /// (e.g. the WAL's half-written torn tail) probe with this, do the
    /// damage, and then panic themselves.
    pub(crate) fn panic_fires(&self, site: &str) -> bool {
        let Some(plan) = self.plan else { return false };
        plan.arms
            .iter()
            .any(|arm| arm.kind == FaultKind::Panic && arm.site == site && arm.hit())
    }

    /// Count one server response about to be written against every
    /// armed wire arm, returning the action of the arm that fired (if
    /// any). Every response counts one hit on *all* wire arms, so a
    /// plan like `drop:conn:2,torn:wire:5` indexes both faults on the
    /// same global response sequence. If several arms fire on the same
    /// response, the most destructive wins (drop > torn > delay).
    pub fn wire(&self) -> Option<WireFault> {
        let plan = self.plan?;
        let mut fired: Option<WireFault> = None;
        for arm in &plan.arms {
            let action = match arm.kind {
                FaultKind::DropConn => WireFault::Drop,
                FaultKind::TornWire => WireFault::Torn,
                FaultKind::DelayConn => WireFault::Delay,
                _ => continue,
            };
            if arm.hit() {
                fired = Some(match (fired, action) {
                    (Some(WireFault::Drop), _) | (_, WireFault::Drop) => WireFault::Drop,
                    (Some(WireFault::Torn), _) | (_, WireFault::Torn) => WireFault::Torn,
                    _ => WireFault::Delay,
                });
            }
        }
        fired
    }
}

/// Write `bytes` to `path` crash-consistently: the bytes land in
/// `<path>.tmp` first and are renamed over `path` only once complete,
/// so a killed process never leaves a half-written file at the final
/// path. The parent directory is created if missing.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_path(path);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// The sibling `<path>.tmp` staging name used by [`atomic_write`].
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<FaultPlan>();
    _assert_send_sync::<Faults<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_disabled_plans_never_fire() {
        let f = Faults::disabled();
        assert!(!f.is_enabled());
        f.io("claims.csv").expect("disabled handle cannot fail");
        f.panic_if_armed("cell:X/Y");
        let empty = FaultPlan::parse("").expect("empty spec");
        assert!(empty.is_empty());
        assert!(!Faults::to(&empty).is_enabled());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("enospc").is_err());
        assert!(FaultPlan::parse("panic:").is_err());
        assert!(FaultPlan::parse("truncate:trace:x").is_err());
        assert!(FaultPlan::parse("truncate:claims.csv:3").is_err());
        assert!(FaultPlan::parse("explode:claims.csv").is_err());
    }

    #[test]
    fn enospc_fires_at_matching_site_from_nth_hit() {
        let plan = FaultPlan::parse("enospc:claims.csv,enospc:spill:2").expect("spec");
        let f = Faults::to(&plan);
        assert!(f.is_enabled());
        // Non-matching sites never fail.
        f.io("timings.json").expect("unarmed site");
        // Default arm fires on the first hit and stays failed.
        let e = f.io("claims.csv").expect_err("armed site");
        assert!(e.to_string().contains("claims.csv"), "{e}");
        f.io("claims.csv").expect_err("disk stays full");
        // `:2` arm passes twice, then fails.
        f.io("spill").expect("hit 0");
        f.io("spill").expect("hit 1");
        f.io("spill").expect_err("hit 2");
    }

    #[test]
    fn panic_arm_names_its_site() {
        let plan = FaultPlan::parse("panic:cell:NREF3J/NREF_1C").expect("spec");
        let f = Faults::to(&plan);
        f.panic_if_armed("cell:NREF2J/NREF_P"); // no match
        let err = std::panic::catch_unwind(|| f.panic_if_armed("cell:NREF3J/NREF_1C"))
            .expect_err("armed site panics");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("cell:NREF3J/NREF_1C"), "{msg}");
    }

    #[test]
    fn wire_arms_fire_exactly_once_at_their_index() {
        let plan = FaultPlan::parse("drop:conn:1,delay:conn:3").expect("spec");
        let f = Faults::to(&plan);
        assert_eq!(f.wire(), None, "response 0 passes");
        assert_eq!(f.wire(), Some(WireFault::Drop), "response 1 dropped");
        assert_eq!(f.wire(), None, "transient arm does not stay armed");
        assert_eq!(f.wire(), Some(WireFault::Delay));
        assert_eq!(f.wire(), None);
        // Drop outranks delay when both fire on the same response.
        let both = FaultPlan::parse("delay:conn:0,drop:conn:0").expect("spec");
        assert_eq!(Faults::to(&both).wire(), Some(WireFault::Drop));
        assert!(FaultPlan::parse("torn:wire").is_err());
        assert!(FaultPlan::parse("drop:sock:1").is_err());
        assert!(FaultPlan::parse("delay:conn:x").is_err());
    }

    #[test]
    fn panic_arm_supports_hit_index_and_probe() {
        let plan = FaultPlan::parse("panic:wal:append:2").expect("spec");
        let f = Faults::to(&plan);
        assert!(!f.panic_fires("wal:append"), "hit 0 passes");
        assert!(!f.panic_fires("wal:append"), "hit 1 passes");
        assert!(f.panic_fires("wal:append"), "hit 2 fires");
        assert!(f.panic_fires("wal:append"), "durable arm stays armed");
        assert!(!f.panic_fires("wal"), "site match is exact");
    }

    #[test]
    fn trace_fault_extraction() {
        assert_eq!(
            FaultPlan::parse("enospc:claims.csv").unwrap().trace_fault(),
            None
        );
        assert_eq!(
            FaultPlan::parse("truncate:trace:40").unwrap().trace_fault(),
            Some(TraceFault {
                after_lines: 40,
                torn: true
            })
        );
        // The earlier-firing arm wins.
        assert_eq!(
            FaultPlan::parse("enospc:trace:100,truncate:trace:40")
                .unwrap()
                .trace_fault(),
            Some(TraceFault {
                after_lines: 40,
                torn: true
            })
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("tab_fault_aw_{}", std::process::id()));
        let path = dir.join("out.csv");
        atomic_write(&path, b"v1").expect("first write");
        atomic_write(&path, b"v2").expect("replace");
        assert_eq!(std::fs::read(&path).expect("read back"), b"v2");
        assert!(!tmp_path(&path).exists(), "tmp staging file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
