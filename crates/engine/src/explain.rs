//! Rendering for `tab explain`: the chosen plan with per-operator
//! estimates vs. actuals, plus the planner's decision trace.
//!
//! The renderer is pure formatting over data produced elsewhere —
//! [`PhysicalPlan::op_ests`] from the planner, [`OpActuals`] from the
//! instrumented executor, and [`PlanExplanation`] from
//! [`plan_explained`](crate::planner::plan_explained) — so it has no
//! effect on costs or results.

use crate::exec::OpActuals;
use crate::plan::PhysicalPlan;
use crate::planner::PlanExplanation;

/// Render an EXPLAIN report for `plan`.
///
/// `actuals` (when present) come from an instrumented execution; a
/// timed-out run supplies fewer slots than the plan has operators and
/// the missing cells render as `-`. `expl` (when present) adds the
/// "access paths considered" and candidate-rewrite sections.
pub fn render_explain(
    plan: &PhysicalPlan,
    actuals: Option<&[OpActuals]>,
    expl: Option<&PlanExplanation>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("plan: {}\n", plan.describe()));
    if !plan.mviews_used.is_empty() {
        out.push_str(&format!("views used: {}\n", plan.mviews_used.join(", ")));
    }
    out.push_str(&format!(
        "estimated: {:.3} units, {:.0} rows\n",
        plan.est_cost, plan.est_rows
    ));
    if let Some(acts) = actuals {
        let units: f64 = acts.iter().map(|a| a.units).sum();
        let complete = acts.len() == plan.op_ests.len();
        out.push_str(&format!(
            "actual:    {units:.3} units{}\n",
            if complete { "" } else { " (timed out)" }
        ));
    }
    out.push('\n');
    out.push_str(&operator_table(plan, actuals));

    if let Some(e) = expl {
        if e.per_op.iter().any(|c| c.len() > 1) {
            out.push_str("\naccess paths considered:\n");
            for (slot, choices) in e.per_op.iter().enumerate() {
                let rel = if slot == 0 {
                    plan.driver.rel
                } else {
                    plan.steps[slot - 1].inner.rel
                };
                let source = &plan.query.rels[rel].source;
                let head = if slot == 0 {
                    format!("driver ({source})")
                } else {
                    format!("step {slot} ({source})")
                };
                out.push_str(&format!("  {head}:\n"));
                out.push_str(&choice_list(choices, 4));
            }
        }
        if e.candidates.len() > 1 {
            out.push_str("\nquery candidates:\n");
            out.push_str(&choice_list(&e.candidates, 2));
        }
    }
    out
}

/// The estimates-vs-actuals table, one line per operator slot. When the
/// run went through a buffer pool (some operator saw page traffic) a
/// trailing `pages` column reports per-operator hits/misses; without a
/// pool the column is omitted entirely so the table is byte-identical
/// to pool-less builds.
fn operator_table(plan: &PhysicalPlan, actuals: Option<&[OpActuals]>) -> String {
    let labels = plan.op_labels();
    let pooled = actuals.is_some_and(|a| a.iter().any(|x| x.page_hits + x.page_misses > 0));
    let mut header = vec![
        "operator".to_string(),
        "est.rows".to_string(),
        "act.rows".to_string(),
        "est.cost".to_string(),
        "act.cost".to_string(),
        "probes".to_string(),
    ];
    if pooled {
        header.push("pages".to_string());
    }
    let dash = || "-".to_string();
    // The output slot's estimate is a residual and can round to IEEE
    // negative zero; never print `-0.000`.
    let units = |x: f64| {
        let s = format!("{x:.3}");
        if s == "-0.000" {
            "0.000".to_string()
        } else {
            s
        }
    };
    let mut rows = vec![header];
    for (i, label) in labels.iter().enumerate() {
        let est = plan.op_ests.get(i);
        let act = actuals.and_then(|a| a.get(i));
        let mut row = vec![
            label.clone(),
            est.map_or_else(dash, |e| format!("{:.0}", e.rows)),
            act.map_or_else(dash, |a| a.rows_out.to_string()),
            est.map_or_else(dash, |e| units(e.cost)),
            act.map_or_else(dash, |a| units(a.units)),
            act.map_or_else(dash, |a| {
                if a.probes > 0 {
                    a.probes.to_string()
                } else {
                    dash()
                }
            }),
        ];
        if pooled {
            row.push(act.map_or_else(dash, |a| {
                if a.page_hits + a.page_misses > 0 {
                    format!("{}h/{}m", a.page_hits, a.page_misses)
                } else {
                    dash()
                }
            }));
        }
        rows.push(row);
    }
    let mut total = vec![
        "total".to_string(),
        dash(),
        dash(),
        format!("{:.3}", plan.est_cost),
        actuals.map_or_else(dash, |a| {
            format!("{:.3}", a.iter().map(|x| x.units).sum::<f64>())
        }),
        dash(),
    ];
    if pooled {
        total.push(actuals.map_or_else(dash, |a| {
            let h: u64 = a.iter().map(|x| x.page_hits).sum();
            let m: u64 = a.iter().map(|x| x.page_misses).sum();
            format!("{h}h/{m}m")
        }));
    }
    rows.push(total);

    let ncols = rows[0].len();
    let mut widths = vec![0usize; ncols];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        out.push_str(&format!("{:<w$}", row[0], w = widths[0]));
        for (cell, w) in row[1..].iter().zip(&widths[1..]) {
            out.push_str(&format!("  {cell:>w$}"));
        }
        out.push('\n');
    }
    out
}

/// One indented line per [`PlanChoice`], the chosen one marked `>`.
fn choice_list(choices: &[crate::planner::PlanChoice], indent: usize) -> String {
    let width = choices
        .iter()
        .map(|c| c.description.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for c in choices {
        out.push_str(&format!(
            "{:pad$}{} {:<width$}  {:.3}\n",
            "",
            if c.chosen { '>' } else { ' ' },
            c.description,
            c.cost,
            pad = indent,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::bind;
    use crate::cost::CostMeter;
    use crate::exec::{execute, ExecOpts, Resolver};
    use crate::planner::plan_explained;
    use crate::session::Session;
    use crate::stats_view::RealStats;
    use tab_sqlq::parse;
    use tab_storage::{
        BuiltConfiguration, ColType, ColumnDef, Configuration, Database, IndexSpec, Table,
        TableSchema, Value,
    };

    fn db() -> Database {
        let mut db = Database::new();
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColType::Int),
                ColumnDef::new("g", ColType::Int),
            ],
        ));
        for i in 0..10_000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 5)]);
        }
        db.add_table(t);
        db.collect_stats();
        db
    }

    #[test]
    fn explain_renders_estimates_actuals_and_alternatives() {
        let db = db();
        let mut cfg = Configuration::named("ix");
        cfg.indexes.push(IndexSpec::new("t", vec![0]));
        let built = BuiltConfiguration::build(cfg, &db);
        let q = parse("SELECT t.g, COUNT(*) FROM t WHERE t.id = 7 GROUP BY t.g").unwrap();
        let bound = bind(&q, &db).unwrap();
        let (plan, expl) = plan_explained(&bound, &RealStats::new(&db, &built));
        let session = Session::new(&db, &built);
        let result = session.run(&q, None).unwrap();
        let ops = &result.ops;
        assert_eq!(ops.len(), plan.op_labels().len());
        let text = render_explain(&plan, Some(ops), Some(&expl));
        // The chosen access path, both cost columns, and the losing
        // alternative all appear.
        assert!(text.contains("IndexScan(t cols=[0]"), "{text}");
        assert!(text.contains("est.cost"), "{text}");
        assert!(text.contains("act.cost"), "{text}");
        assert!(text.contains("> IndexScan"), "{text}");
        assert!(text.contains("  SeqScan(t)"), "{text}");
        // Actual units in the table sum to the run's outcome total.
        let total: f64 = ops.iter().map(|a| a.units).sum();
        let reported = result.outcome.units().unwrap();
        assert!((total - reported).abs() < 1e-9, "{total} vs {reported}");
    }

    #[test]
    fn instrumentation_does_not_change_costs() {
        let db = db();
        let built = BuiltConfiguration::build(Configuration::named("p"), &db);
        let q = parse("SELECT t.g, COUNT(*) FROM t GROUP BY t.g").unwrap();
        let plan = Session::new(&db, &built).plan_query(&q).unwrap();
        let resolver = Resolver::new(&db, &built);
        let opts = ExecOpts::default();
        let mut plain_meter = CostMeter::unbounded();
        let plain = execute(&plan, &resolver, &mut plain_meter, &opts, None, None).unwrap();
        let mut ops = Vec::new();
        let mut meter = CostMeter::unbounded();
        let instr = execute(&plan, &resolver, &mut meter, &opts, Some(&mut ops), None).unwrap();
        assert_eq!(plain_meter.units(), meter.units());
        assert_eq!(plain, instr);
        assert!(!ops.is_empty());
    }
}
