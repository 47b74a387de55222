//! `tab` — the tab-bench command line.
//!
//! ```text
//! tab gen     --db nref:2000 --out DIR            dump a database as CSVs
//! tab explain --db nref:2000 --config 1c "SQL"    show the chosen plan + estimate
//! tab run     --db nref:2000 --config p  "SQL"    execute (query or INSERT)
//! tab advise  --db skth:0.01 --family SkTH3Js --system C
//! tab bench   --db nref:2000 --family NREF2J --configs p,1c
//! tab goal    --db nref:2000 --family NREF2J --config 1c --steps "10:0.1,60:0.5"
//! ```
//!
//! Databases are generated on the fly: `nref:<proteins>`,
//! `skth:<scale>`, `unth:<scale>` (defaults: `nref:2000`, scale `0.005`).

mod args;

use std::borrow::Cow;
use std::process::ExitCode;

use std::sync::Arc;

use args::parse_command;
use tab_bench_harness::converge::{run_convergence, ConvergenceSpec};
use tab_bench_harness::gate::run_gate;
use tab_bench_harness::replay::{line_diff, render_summary, replay_str};
use tab_core::convergence::{convergence_csv_rows, render_convergence_table, CSV_HEADER};
use tab_core::report::render_cfc_ascii;
use tab_core::{
    build_config, prepare_workload_db_with, run_workload, served_state, Args, BenchSpec, Goal,
    Parallelism, DRAW_SEED,
};
use tab_datagen::{generate_nref, generate_tpch, Distribution, NrefParams, TpchParams};
use tab_engine::{apply_insert, Session, SharedEngine};
use tab_families::Family;
use tab_server::{Client, ServeOptions, Server};
use tab_sqlq::{parse_statement, Statement};
use tab_storage::{BuiltConfiguration, Database};

const USAGE: &str = "\
tab — benchmarking framework for configuration recommenders

USAGE:
  tab gen     --db SPEC --out DIR [--seed N]
  tab explain --db SPEC [--config p|1c] [--timeout-secs T] \"SQL\"
  tab run     --db SPEC [--config p|1c] [--timeout-secs T] \"SQL\"
  tab advise  --db SPEC --family NAME [--system A|B|C] [--workload N] [--trace PATH]
  tab bench   --db SPEC --family NAME [--configs p,1c] [--workload N] [--timeout-secs T]
  tab goal    --db SPEC --family NAME --steps \"10:0.1,60:0.5\" [--config p|1c]
  tab faults  SPEC                    validate a fault-injection spec
                                      (see `repro --faults` / DESIGN.md §10)
  tab replay    TRACE.jsonl           reconstruct a traced run: totals per
                                      cell and per operator kind (exit 1
                                      on a torn trace; never half-replays)
  tab tracediff GOLDEN FRESH          compare two traces line for line
                                      (grid lines in any order); print
                                      `- line` / `+ line` for each line
                                      only one side has and exit 1 on any
                                      difference (DESIGN.md §11)
  tab converge  --db SPEC --family NAME [--profiles A,B,C]
                [--ladder 50,200,800,unlimited] [--max-structures N]
                [--workload N] [--out DIR]
                                      objective-vs-budget convergence curves
  tab serve     --db SPEC [--addr HOST:PORT] [--timeout-secs T]
                [--wal PATH] [--faults SPEC] [--max-connections N]
                [--admission N]
                                      serve configs p and 1c over tab-wire-v1
                                      (thread per connection; stop with the
                                      SHUTDOWN verb). --wal makes inserts
                                      durable: logged + fsynced before the
                                      ack, replayed on restart (DESIGN.md §15)
  tab client    --addr HOST:PORT \"REQUEST LINE\"
                                      send one wire request, print the response
  tab gate                            run every contract check offline
                                      against the goldens in ci/ and print
                                      one row per check; exit 1 naming the
                                      first broken row and file

`tab serve` reads --faults for
wire-level chaos: drop:conn:N, torn:wire:N, delay:conn:N, plus the WAL
sites enospc:wal and panic:wal:append:N (validate with `tab faults`).

Every command that reads a database takes --seed N (default 2005), and
all of them but `gen` take --threads N (worker threads for grid/workload
fan-out; 0 or absent = all cores). `explain` and `run` additionally
accept --query-threads N (intra-query morsel workers; default 1,
0 = all cores), --morsel-rows N (rows per morsel, default 4096),
--buffer-pages N (run through an N-frame buffer pool with clock
eviction that counts page traffic and spill; 0 = off, the default) and
--charge observed|metered (how the meter prices pool traffic:
`observed` charges misses only, `metered` keeps the legacy model-based
charges so totals match a pool-less run). Results are identical at any
thread count or morsel size. A flag a command does not read is an error.

DB SPEC: nref[:proteins] | skth[:scale] | unth[:scale]
FAMILY:  NREF2J | NREF3J | SkTH3J | SkTH3Js | UnTH3J";

fn main() -> ExitCode {
    let (command, args) = match parse_command(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "gen" => cmd_gen(&args).map(|()| ExitCode::SUCCESS),
        "explain" => cmd_explain(&args).map(|()| ExitCode::SUCCESS),
        "run" => cmd_run(&args).map(|()| ExitCode::SUCCESS),
        "advise" => cmd_advise(&args).map(|()| ExitCode::SUCCESS),
        "bench" => cmd_bench(&args).map(|()| ExitCode::SUCCESS),
        "goal" => cmd_goal(&args).map(|()| ExitCode::SUCCESS),
        "faults" => cmd_faults(&args).map(|()| ExitCode::SUCCESS),
        "replay" => cmd_replay(&args).map(|()| ExitCode::SUCCESS),
        "tracediff" => cmd_tracediff(&args),
        "converge" => cmd_converge(&args).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(&args).map(|()| ExitCode::SUCCESS),
        "client" => cmd_client(&args).map(|()| ExitCode::SUCCESS),
        "gate" => cmd_gate(),
        // "" and "help": `parse_command` refused every other name.
        _ => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
    };
    // The help goes only with a command line `parse_command` refused; a
    // command's own error (an unreadable file, a torn trace, a failed
    // run) is one line.
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generate the database named by a `--db` spec.
fn load_db(args: &Args) -> Result<(Database, String), String> {
    let spec = args.get("db").unwrap_or("nref");
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(2005);
    let (kind, param) = match spec.split_once(':') {
        Some((k, p)) => (k, Some(p)),
        None => (spec, None),
    };
    let db = match kind {
        "nref" => {
            let proteins = match param {
                Some(p) => p.parse().map_err(|_| format!("bad protein count `{p}`"))?,
                None => 2_000,
            };
            generate_nref(NrefParams { proteins, seed })
        }
        "skth" | "unth" => {
            let scale = match param {
                Some(p) => p.parse().map_err(|_| format!("bad scale `{p}`"))?,
                None => 0.005,
            };
            generate_tpch(TpchParams {
                scale,
                distribution: if kind == "skth" {
                    Distribution::Zipf(1.0)
                } else {
                    Distribution::Uniform
                },
                seed,
            })
        }
        other => return Err(format!("unknown database `{other}`")),
    };
    Ok((db, kind.to_uppercase()))
}

fn load_config(
    args: &Args,
    db: &Database,
    label: &str,
    par: Parallelism,
) -> Result<BuiltConfiguration, String> {
    let name = args.get("config").unwrap_or("p");
    build_config(db, label, name, par)
        .ok_or_else(|| format!("unknown config `{name}` (use p or 1c)"))
}

/// `--timeout-secs` in cost units, `None` when the flag is absent.
fn timeout_units(args: &Args) -> Result<Option<f64>, String> {
    Ok(args
        .get_parsed::<f64>("timeout-secs")?
        .map(|s| s / tab_engine::SIM_SECONDS_PER_UNIT))
}

fn family_of(name: &str) -> Result<Family, String> {
    Family::parse(name).ok_or_else(|| format!("unknown family `{name}`"))
}

fn sql_arg(args: &Args) -> Result<String, String> {
    if args.positional.is_empty() {
        return Err("missing SQL argument".into());
    }
    Ok(args.positional.join(" "))
}

/// `--workload N`: queries per drawn workload (default 50).
fn workload_size(args: &Args) -> Result<usize, String> {
    Ok(args.get_parsed("workload")?.unwrap_or(50))
}

/// Build `P` and draw `--workload` queries of `family` under it.
fn workload_for(
    args: &Args,
    db: &Database,
    label: &str,
    family: Family,
    par: Parallelism,
) -> Result<(BuiltConfiguration, Vec<tab_sqlq::Query>), String> {
    let p = tab_core::build_p(db, label);
    let w = prepare_workload_db_with(db, family, &p, workload_size(args)?, DRAW_SEED, par)?;
    Ok((p, w))
}

/// Configuration `name` (`p` or `1c`), borrowing the `p` that
/// [`workload_for`] already built rather than building P again.
fn config_beside_p<'a>(
    db: &Database,
    label: &str,
    name: &str,
    p: &'a BuiltConfiguration,
    par: Parallelism,
) -> Option<Cow<'a, BuiltConfiguration>> {
    if name.eq_ignore_ascii_case("p") {
        Some(Cow::Borrowed(p))
    } else {
        build_config(db, label, name, par).map(Cow::Owned)
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let (db, label) = load_db(args)?;
    let out = args.require("out")?;
    for table in db.tables() {
        let path = std::path::Path::new(out).join(format!("{}.csv", table.schema().name));
        tab_storage::export_table(table, &path).map_err(|e| e.to_string())?;
        println!(
            "{}: {} rows -> {}",
            table.schema().name,
            table.n_rows(),
            path.display()
        );
    }
    println!("{label} exported to {out}");
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let spec = BenchSpec::from_args(args)?;
    let (db, label) = load_db(args)?;
    let built = load_config(args, &db, &label, spec.threads)?;
    let sql = sql_arg(args)?;
    let q = tab_sqlq::parse(&sql).map_err(|e| e.to_string())?;
    let timeout = timeout_units(args)?;
    let session = Session::new(&db, &built).with_exec(spec.exec_opts());
    // Plan with the decision trace, then execute the same query
    // instrumented so the rendering pairs estimates with actuals
    // (under `--buffer-pages` the actuals gain a per-operator `pages`
    // hit/miss column).
    let (plan, expl) = session
        .plan_query_explained(&q)
        .map_err(|e| e.to_string())?;
    let r = session.run(&q, timeout).map_err(|e| e.to_string())?;
    print!(
        "{}",
        tab_engine::render_explain(&plan, Some(&r.ops), Some(&expl))
    );
    if !r.io.is_zero() {
        println!("{}", pool_line(&r.io));
    }
    Ok(())
}

/// The buffer-pool traffic line `explain` and `run` print under
/// `--buffer-pages`.
fn pool_line(io: &tab_storage::PoolStats) -> String {
    format!(
        "buffer pool: {} hits, {} misses ({} seq, {} random), {} evictions, {:.1}% hit rate",
        io.hits,
        io.misses(),
        io.misses_seq,
        io.misses_random,
        io.evictions,
        io.hit_rate() * 100.0
    )
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let spec = BenchSpec::from_args(args)?;
    let (mut db, label) = load_db(args)?;
    let mut built = load_config(args, &db, &label, spec.threads)?;
    let sql = sql_arg(args)?;
    let timeout = timeout_units(args)?;
    match parse_statement(&sql).map_err(|e| e.to_string())? {
        Statement::Insert(ins) => {
            let out = apply_insert(&ins, &mut db, &mut built).map_err(|e| e.to_string())?;
            println!(
                "inserted row {} ({:.2} units of maintenance)",
                out.row_id, out.units
            );
        }
        Statement::Query(q) => {
            let session = Session::new(&db, &built).with_exec(spec.exec_opts());
            let r = session.run(&q, timeout).map_err(|e| e.to_string())?;
            match (&r.outcome, &r.rows) {
                (o, Some(rows)) => {
                    for row in rows.iter().take(25) {
                        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                        println!("{}", cells.join(" | "));
                    }
                    if rows.len() > 25 {
                        println!("... ({} rows total)", rows.len());
                    }
                    println!(
                        "-- {} rows in {:.2} simulated seconds via {}",
                        rows.len(),
                        o.sim_seconds_lower_bound(),
                        r.plan.describe()
                    );
                }
                _ => println!(
                    "TIMEOUT after {:.0} simulated seconds",
                    r.outcome.sim_seconds_lower_bound()
                ),
            }
            if !r.io.is_zero() {
                println!("-- {}", pool_line(&r.io));
            }
        }
    }
    Ok(())
}

fn cmd_advise(args: &Args) -> Result<(), String> {
    let par = BenchSpec::from_args(args)?.threads;
    let (db, label) = load_db(args)?;
    let family = family_of(args.require("family")?)?;
    let n = workload_size(args)?;
    // `--trace PATH` captures the advisor's round-by-round decisions as
    // tab-trace-v1 JSONL; the sink must outlive the borrowed Trace.
    let sink = match args.get("trace") {
        Some(path) => Some(
            tab_core::FileTraceSink::create(std::path::Path::new(path))
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?,
        ),
        None => None,
    };
    let trace = sink
        .as_ref()
        .map(|s| tab_core::Trace::to(s))
        .unwrap_or_else(tab_core::Trace::disabled);
    let system = args.get("system").unwrap_or("B");
    let advice = tab_core::advise(&db, &label, family, system, n, par, trace)?;
    let stats = &advice.stats;
    eprintln!(
        "what-if calls: {} (planner {}, cache hits {}, {:.0}% hit rate) in {:.2}s",
        stats.whatif_calls,
        stats.planner_calls,
        stats.cache_hits,
        stats.cache_hit_rate() * 100.0,
        stats.wall_seconds
    );
    match &advice.recommendation {
        None => println!(
            "System {} produced NO recommendation for {} ({} queries) — \
             candidate space exceeds its capacity",
            advice.system,
            family.name(),
            advice.workload
        ),
        Some(cfg) => {
            println!(
                "System {} recommendation for {} ({} queries, budget {} MiB):",
                advice.system,
                family.name(),
                advice.workload,
                advice.budget_bytes / (1 << 20)
            );
            for i in &advice.new_indexes {
                println!("  CREATE INDEX {i}");
            }
            for m in &cfg.mviews {
                println!(
                    "  CREATE MATERIALIZED VIEW {} OVER {} ({} indexes)",
                    m.spec.name,
                    m.spec.base.join(" JOIN "),
                    m.indexes.len()
                );
            }
        }
    }
    // The sink stages at `<path>.tmp`; publish to the final path now
    // that the advise run completed.
    if let Some(s) = sink {
        s.finish().map_err(|e| format!("trace sink failed: {e}"))?;
    }
    Ok(())
}

/// `tab faults SPEC` — parse a fault plan and print what it would arm,
/// so specs can be validated before a long repro run.
fn cmd_faults(args: &Args) -> Result<(), String> {
    let spec = args
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| args.get("spec"))
        .ok_or("faults needs a SPEC argument, e.g. `tab faults enospc:claims.csv`")?;
    let plan = tab_core::FaultPlan::parse(spec)?;
    for line in plan.describe() {
        println!("{line}");
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let par = BenchSpec::from_args(args)?.threads;
    let (db, label) = load_db(args)?;
    let family = family_of(args.require("family")?)?;
    let (p, w) = workload_for(args, &db, &label, family, par)?;
    let timeout_units = timeout_units(args)?.unwrap_or(tab_engine::DEFAULT_TIMEOUT_UNITS);
    // Every name resolves before the first workload runs, so a bad one
    // fails with nothing printed.
    let mut configs = Vec::new();
    for name in args.get("configs").unwrap_or("p,1c").split(',') {
        let built = config_beside_p(&db, &label, name.trim(), &p, par);
        let unknown = || format!("unknown config `{}`", name.trim());
        configs.push((name, built.ok_or_else(unknown)?));
    }
    let mut curves = Vec::new();
    for (name, built) in configs {
        let run = run_workload(&db, &built, &w, timeout_units, par);
        println!(
            "{:>4}: total (lower bound) {:.0}s, timeouts {}/{}",
            name,
            run.total_lower_bound_sim_seconds(),
            run.timeout_count(),
            w.len()
        );
        curves.push((name.trim().to_uppercase(), run.cfc()));
    }
    let refs: Vec<(&str, &tab_core::Cfc)> = curves.iter().map(|(l, c)| (l.as_str(), c)).collect();
    let max_x = tab_engine::units_to_sim_seconds(timeout_units) * 1.1;
    println!("\n{}", render_cfc_ascii(&refs, 0.1, max_x, 64, 16));
    Ok(())
}

/// `tab serve` — boot the concurrent serving front end over the `p`
/// and `1c` configurations and block until a wire `SHUTDOWN` arrives.
/// With `--wal PATH` the engine is durable: the log is replayed before
/// the listener binds (the recovery line precedes the serving line),
/// and every insert is fsynced before its acknowledgement.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let par = BenchSpec::from_args(args)?.threads;
    let (db, label) = load_db(args)?;
    let timeout_units = timeout_units(args)?.unwrap_or(tab_engine::DEFAULT_TIMEOUT_UNITS);
    let faults = args.faults()?.map(Arc::new);
    let state = served_state(db, &label, par);
    let engine = match args.get("wal") {
        Some(path) => {
            let t0 = std::time::Instant::now();
            let (engine, report) =
                SharedEngine::with_wal(state, std::path::Path::new(path), faults.clone())
                    .map_err(|e| format!("wal recovery failed: {e}"))?;
            println!(
                "wal: recovered {} records (torn tail: {}) in {:.3}s",
                report.replayed,
                if report.torn_tail { "yes" } else { "no" },
                t0.elapsed().as_secs_f64()
            );
            Arc::new(engine)
        }
        None => Arc::new(SharedEngine::new(state)),
    };
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        label: label.clone(),
        timeout_units,
        par,
        faults,
        max_connections: args
            .get_parsed("max-connections")?
            .unwrap_or(defaults.max_connections),
        admission: args.get_parsed("admission")?.unwrap_or(defaults.admission),
        ..defaults
    };
    let mut server =
        Server::start(engine, opts).map_err(|e| format!("cannot start server: {e}"))?;
    println!("serving {label} (configs p, 1c) on {}", server.addr());
    println!("stop with: tab client --addr {} SHUTDOWN", server.addr());
    server.wait();
    println!("server stopped");
    Ok(())
}

/// `tab client` — send one `tab-wire-v1` request line, print the JSON
/// response line, exit nonzero on an `"ok":false` envelope.
fn cmd_client(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    if args.positional.is_empty() {
        return Err("client needs a request line, e.g. `tab client PING`".into());
    }
    let line = args.positional.join(" ");
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let response = client.request(&line)?;
    println!("{}", response.line());
    if response.is_ok() {
        Ok(())
    } else {
        Err(response
            .error()
            .unwrap_or_else(|| "request failed".to_string()))
    }
}

/// `tab gate` — run every contract check against the goldens in this
/// tree's `ci/`, spawning this binary as the server the `kill9` row
/// kills. Prints one table row per check; a broken row is named with
/// its file on stderr and the exit code is 1.
fn cmd_gate() -> Result<ExitCode, String> {
    let ci = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci"));
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the tab binary for the kill9 row: {e}"))?;
    match run_gate(ci, &exe, &mut std::io::stdout()) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `tab replay TRACE.jsonl` — reconstruct a traced run's per-cell
/// operator totals and advisor searches. A torn trace (crashed writer
/// or injected `truncate:trace`) is an error, never a half-replay.
fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("replay needs a TRACE.jsonl argument")?;
    let input = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let r = replay_str(&input).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", render_summary(&r));
    Ok(())
}

/// `tab tracediff GOLDEN FRESH` — compare two traces with
/// [`line_diff`]. Prints `- line` for each line only GOLDEN has, `+ line`
/// for each line only FRESH has, and the first `span_*`/`advisor_*`
/// line out of GOLDEN's order; exits 0 when there is none, 1 otherwise
/// or when either trace is torn.
fn cmd_tracediff(args: &Args) -> Result<ExitCode, String> {
    let [golden, fresh] = args.positional.as_slice() else {
        return Err("tracediff needs GOLDEN and FRESH trace arguments".into());
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let (g, f) = (read(golden)?, read(fresh)?);
    let d = line_diff(&g, &f).map_err(|e| format!("{golden} vs {fresh}: {e}"))?;
    if d.is_empty() {
        println!("traces match");
        return Ok(ExitCode::SUCCESS);
    }
    print!("{d}");
    Ok(ExitCode::FAILURE)
}

/// `tab converge` — sweep recommender profiles over a what-if budget
/// ladder and print (optionally write) the convergence curves.
fn cmd_converge(args: &Args) -> Result<(), String> {
    let par = BenchSpec::from_args(args)?.threads;
    let (db, label) = load_db(args)?;
    let family = family_of(args.require("family")?)?;
    let (p, w) = workload_for(args, &db, &label, family, par)?;
    let budget = tab_core::space_budget(&db, &label);
    let mut spec = ConvergenceSpec::default();
    if let Some(profiles) = args.get("profiles") {
        spec.profiles = profiles
            .split(',')
            .map(|s| s.trim().to_uppercase())
            .collect();
    }
    if let Some(ladder) = args.get("ladder") {
        spec.budget_ladder = ladder
            .split(',')
            .map(|s| {
                let s = s.trim();
                if s.eq_ignore_ascii_case("unlimited") || s.eq_ignore_ascii_case("none") {
                    Ok(None)
                } else {
                    s.parse()
                        .map(Some)
                        .map_err(|_| format!("bad ladder rung `{s}`"))
                }
            })
            .collect::<Result<_, String>>()?;
    }
    spec.max_structures = args.get_parsed("max-structures")?;
    let curves = run_convergence(
        &db,
        &p,
        family.name(),
        &w,
        budget,
        par,
        tab_core::Trace::disabled(),
        &spec,
    )?;
    print!("{}", render_convergence_table(&curves));
    if let Some(dir) = args.get("out") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let csv = dir.join("convergence.csv");
        tab_core::report::write_csv(
            &csv,
            &CSV_HEADER,
            &convergence_csv_rows(&curves),
            tab_core::Faults::disabled(),
        )
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
        println!("\nwrote {}", csv.display());
    }
    Ok(())
}

fn cmd_goal(args: &Args) -> Result<(), String> {
    let par = BenchSpec::from_args(args)?.threads;
    let (db, label) = load_db(args)?;
    let family = family_of(args.require("family")?)?;
    let goal = Goal::parse(args.require("steps")?)?;
    let name = args.get("config").unwrap_or("p");
    let (p, w) = workload_for(args, &db, &label, family, par)?;
    let built = config_beside_p(&db, &label, name, &p, par)
        .ok_or_else(|| format!("unknown config `{name}` (use p or 1c)"))?;
    let run = run_workload(&db, &built, &w, tab_engine::DEFAULT_TIMEOUT_UNITS, par);
    let cfc = run.cfc();
    println!(
        "goal {} on {} ({}): {}",
        args.require("steps")?,
        family.name(),
        built.config.name,
        if goal.satisfied_by(&cfc) {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    );
    for (x, f) in goal.steps() {
        println!(
            "  at {x:>8.1}s: required {f:.2}, achieved {:.2}",
            cfc.at(*x)
        );
    }
    Ok(())
}
