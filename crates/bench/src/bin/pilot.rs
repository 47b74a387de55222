//! Quick end-to-end pilot: validates the headline dynamics (1C vs P vs R)
//! on one family before the full reproduction runs.

use std::time::Instant;

use tab_advisor::{AdvisorInput, Recommender, SystemA, SystemB};
use tab_core::{
    build_1c, build_p, prepare_workload, run_workload, space_budget, FileTraceSink, Suite,
    SuiteParams, Trace,
};
use tab_families::Family;
use tab_storage::{BuiltConfiguration, Parallelism};

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    // `--threads N` sets the advisor fan-out width (0 = all cores); the
    // recommendations are identical at any setting.
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(0usize);
    // `--trace FILE` captures advisor round events as tab-trace-v1 JSONL.
    let sink = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(|path| {
            FileTraceSink::create(std::path::Path::new(path))
                .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"))
        });
    let trace = sink
        .as_ref()
        .map(|s| Trace::to(s))
        .unwrap_or_else(Trace::disabled);
    // The sink stages at `<path>.tmp`; publishing (rename to the final
    // path) only happens here, after a complete run.
    let publish = |sink: Option<FileTraceSink>| {
        if let Some(s) = sink {
            match s.finish() {
                Ok(path) => eprintln!("trace published to {}", path.display()),
                Err(e) => {
                    eprintln!("trace sink failed: {e}");
                    std::process::exit(2);
                }
            }
        }
    };
    let params = SuiteParams::default().with_threads(threads);
    let tpch = args.iter().any(|a| a == "tpch");
    let suite = Suite::build(params);
    eprintln!("[{:?}] suite built", t0.elapsed());
    if tpch {
        tpch_pilot(&suite, params, t0, trace);
        publish(sink);
        return;
    }
    for t in suite.nref.tables() {
        eprintln!(
            "  nref.{}: {} rows {} pages",
            t.schema().name,
            t.n_rows(),
            t.n_pages()
        );
    }

    let db = &suite.nref;
    let seq = Parallelism::sequential();
    let p = build_p(db, "NREF");
    eprintln!(
        "[{:?}] P built (aux {} MiB)",
        t0.elapsed(),
        p.report.aux_bytes() / 1048576
    );
    let c1 = build_1c(db, "NREF");
    eprintln!(
        "[{:?}] 1C built (aux {} MiB)",
        t0.elapsed(),
        c1.report.aux_bytes() / 1048576
    );
    let budget = space_budget(db, "NREF");
    eprintln!("budget = {} MiB", budget / 1048576);

    for fam in [Family::Nref2J, Family::Nref3J] {
        let all = fam.enumerate(db);
        eprintln!(
            "[{:?}] {} family size = {}",
            t0.elapsed(),
            fam.name(),
            all.len()
        );
        let w = prepare_workload(&suite, fam, &p);
        eprintln!("[{:?}] workload sampled: {}", t0.elapsed(), w.len());

        let run_p = run_workload(db, &p, &w, params.timeout_units, seq);
        eprintln!(
            "[{:?}] P run: timeouts {}, total_lb {:.0}s",
            t0.elapsed(),
            run_p.timeout_count(),
            run_p.total_lower_bound_sim_seconds()
        );
        let run_1c = run_workload(db, &c1, &w, params.timeout_units, seq);
        eprintln!(
            "[{:?}] 1C run: timeouts {}, total_lb {:.0}s",
            t0.elapsed(),
            run_1c.timeout_count(),
            run_1c.total_lower_bound_sim_seconds()
        );

        // quantiles
        let cp = run_p.cfc();
        let c1c = run_1c.cfc();
        for x in [1.0, 10.0, 31.6, 100.0, 1000.0] {
            eprintln!("  CFC({x:7.1}s): P={:.2} 1C={:.2}", cp.at(x), c1c.at(x));
        }

        // System A and B candidate counts + recommendation
        for (name, rec) in [
            ("A", &SystemA::default() as &dyn Recommender),
            ("B", &SystemB),
        ] {
            let cands = tab_advisor::generate_candidates(
                db,
                &w,
                match name {
                    "A" => tab_advisor::CandidateStyle::SingleColumn,
                    _ => tab_advisor::CandidateStyle::Covering,
                },
            );
            eprintln!(
                "[{:?}] system {name} candidates = {} (x workload = {})",
                t0.elapsed(),
                cands.len(),
                cands.len() * w.len()
            );
            let input = AdvisorInput {
                db,
                current: &p,
                workload: &w,
                budget_bytes: budget,
                par: params.par,
                trace,
            };
            let (cfg, stats) = rec.recommend_with_stats(&input);
            eprintln!(
                "  {name}: what-if calls {} (planner {}, cache hits {}, {:.0}% hit rate), {:.2}s",
                stats.whatif_calls,
                stats.planner_calls,
                stats.cache_hits,
                stats.cache_hit_rate() * 100.0,
                stats.wall_seconds
            );
            match cfg {
                None => eprintln!("  {name}: NO RECOMMENDATION"),
                Some(cfg) => {
                    eprintln!(
                        "  {name}: {} indexes {:?}",
                        cfg.indexes.len(),
                        cfg.indexes
                            .iter()
                            .map(|i| i.to_string())
                            .collect::<Vec<_>>()
                    );
                    let built = BuiltConfiguration::build(cfg, db);
                    let run_r = run_workload(db, &built, &w, params.timeout_units, seq);
                    eprintln!(
                        "[{:?}]  {name} R run: timeouts {}, total_lb {:.0}s",
                        t0.elapsed(),
                        run_r.timeout_count(),
                        run_r.total_lower_bound_sim_seconds()
                    );
                    let cr = run_r.cfc();
                    for x in [1.0, 10.0, 31.6, 100.0, 1000.0] {
                        eprintln!("   CFC({x:7.1}s): R={:.2}", cr.at(x));
                    }
                }
            }
        }
    }
    publish(sink);
    eprintln!("[{:?}] pilot done", t0.elapsed());
}

fn tpch_pilot(suite: &Suite, params: SuiteParams, t0: Instant, trace: Trace<'_>) {
    let seq = Parallelism::sequential();
    use tab_advisor::SystemC;
    for (db, label, fams) in [
        (&suite.skth, "SkTH", vec![Family::SkTH3Js, Family::SkTH3J]),
        (&suite.unth, "UnTH", vec![Family::UnTH3J]),
    ] {
        for t in db.tables() {
            eprintln!(
                "  {label}.{}: {} rows {} pages",
                t.schema().name,
                t.n_rows(),
                t.n_pages()
            );
        }
        let p = build_p(db, label);
        let c1 = build_1c(db, label);
        let budget = space_budget(db, label);
        eprintln!(
            "[{:?}] {label}: P/1C built, budget {} MiB",
            t0.elapsed(),
            budget / 1048576
        );
        for fam in fams {
            let all = fam.enumerate(db);
            eprintln!(
                "[{:?}] {} family size = {}",
                t0.elapsed(),
                fam.name(),
                all.len()
            );
            let w = prepare_workload(suite, fam, &p);
            let run_p = run_workload(db, &p, &w, params.timeout_units, seq);
            eprintln!(
                "[{:?}] P run: timeouts {}, total_lb {:.0}s",
                t0.elapsed(),
                run_p.timeout_count(),
                run_p.total_lower_bound_sim_seconds()
            );
            let run_1c = run_workload(db, &c1, &w, params.timeout_units, seq);
            eprintln!(
                "[{:?}] 1C run: timeouts {}, total_lb {:.0}s",
                t0.elapsed(),
                run_1c.timeout_count(),
                run_1c.total_lower_bound_sim_seconds()
            );
            let input = AdvisorInput {
                db,
                current: &p,
                workload: &w,
                budget_bytes: budget,
                par: params.par,
                trace,
            };
            let (cfg, stats) = SystemC.recommend_with_stats(&input);
            eprintln!(
                "  C: what-if calls {} (planner {}, cache hits {}, {:.0}% hit rate), {:.2}s",
                stats.whatif_calls,
                stats.planner_calls,
                stats.cache_hits,
                stats.cache_hit_rate() * 100.0,
                stats.wall_seconds
            );
            match cfg {
                None => eprintln!("  C: NO RECOMMENDATION"),
                Some(cfg) => {
                    eprintln!(
                        "[{:?}]  C: {} indexes {:?}, {} views {:?}",
                        t0.elapsed(),
                        cfg.indexes.len(),
                        cfg.indexes
                            .iter()
                            .map(|i| i.to_string())
                            .collect::<Vec<_>>(),
                        cfg.mviews.len(),
                        cfg.mviews
                            .iter()
                            .map(|m| (m.spec.name.clone(), m.indexes.len()))
                            .collect::<Vec<_>>()
                    );
                    let built = BuiltConfiguration::build(cfg, db);
                    let run_r = run_workload(db, &built, &w, params.timeout_units, seq);
                    eprintln!(
                        "[{:?}]  C R run: timeouts {}, total_lb {:.0}s",
                        t0.elapsed(),
                        run_r.timeout_count(),
                        run_r.total_lower_bound_sim_seconds()
                    );
                    let (cp, cc, cr) = (run_p.cfc(), run_1c.cfc(), run_r.cfc());
                    for x in [1.0, 10.0, 31.6, 100.0, 1000.0] {
                        eprintln!(
                            "  CFC({x:7.1}s): P={:.2} 1C={:.2} R={:.2}",
                            cp.at(x),
                            cc.at(x),
                            cr.at(x)
                        );
                    }
                }
            }
        }
    }
    eprintln!("[{:?}] tpch pilot done", t0.elapsed());
}
