//! The per-layer split of a traced pass, read only from what the program
//! already exports: `EpochOutcome` fields, `LpStats`, and the folded span
//! aggregates of `ovnes-obs` (never its journal, which drops events).

use crate::epoch_loop::{Pass, SetupTimes};
use crate::stats::ratio;
use crate::Metric;
use ovnes_obs::Trace;
use std::collections::HashMap;

/// Span aggregates summed over every folded path ending in one span name.
#[derive(Debug, Default, Clone, Copy)]
struct SpanTotals {
    count: u64,
    /// Inclusive time, counting a span nested in a same-named span once.
    total_ns: u64,
    self_ns: u64,
}

fn by_name(trace: &Trace) -> HashMap<&str, SpanTotals> {
    let mut out: HashMap<&str, SpanTotals> = HashMap::new();
    for (path, cell) in &trace.folded {
        let mut names: Vec<&str> = path.split(';').collect();
        let Some(name) = names.pop() else { continue };
        let entry = out.entry(name).or_default();
        entry.count += cell.count;
        entry.self_ns += cell.self_ns;
        if !names.contains(&name) {
            entry.total_ns += cell.total_ns;
        }
    }
    out
}

/// Median set-up time of each call, in milliseconds per run.
pub struct SetupSplit {
    pub topology_ms: f64,
    pub workload_ms: f64,
    pub orchestrator_ms: f64,
}

impl SetupSplit {
    pub fn from_reps(reps: &[SetupTimes]) -> Self {
        let med = |f: fn(&SetupTimes) -> u64| {
            let v: Vec<f64> = reps.iter().map(|r| f(r) as f64 / 1e6).collect();
            crate::stats::median(&v)
        };
        SetupSplit {
            topology_ms: med(|r| r.topology_ns),
            workload_ms: med(|r| r.workload_ns),
            orchestrator_ms: med(|r| r.orchestrator_ns),
        }
    }
}

/// Every per-layer metric, from one traced pass. `untraced_loop_ns` is the
/// median loop time of the same seeds with tracing off.
pub fn layer_metrics(
    setup: &SetupSplit,
    traced: &Pass,
    untraced_loop_ns: f64,
    trace: &Trace,
) -> Vec<Metric> {
    let spans = by_name(trace);
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let epochs = traced.quality.epochs.max(1) as f64;
    let per_epoch_ms = |ns: f64| ns / 1e6 / epochs;
    let l = &traced.layers;
    let p = &l.phases;
    let step_ms: f64 = traced.step_ns.iter().map(|&ns| ns as f64 / 1e6).sum();
    let phases_ms = 1e3 * (p.revalidate + p.forecast + p.solve + p.admit + p.simulate);
    let milp_solves = span("milp_solve").count as f64;
    let milp_nodes = span("milp_node").count as f64;
    let transforms = (span("lp_ftran").count + span("lp_btran").count) as f64;
    let lp = &l.lp;

    let ms = |name: &'static str, value: f64| Metric::new(name, value, "ms");
    let count = |name: &'static str, value: f64| Metric::new(name, value, "count");
    let share = |name: &'static str, value: f64| Metric::new(name, value, "ratio");
    vec![
        ms("topology.generate_ms", setup.topology_ms),
        ms("workload.generate_ms", setup.workload_ms),
        ms("orchestrator.new_ms", setup.orchestrator_ms),
        ms("orchestrator.revalidate_ms", 1e3 * p.revalidate / epochs),
        ms("orchestrator.forecast_ms", 1e3 * p.forecast / epochs),
        ms("orchestrator.solve_ms", 1e3 * p.solve / epochs),
        ms("orchestrator.admit_ms", 1e3 * p.admit / epochs),
        ms("orchestrator.simulate_ms", 1e3 * p.simulate / epochs),
        ms(
            "orchestrator.unattributed_ms",
            (step_ms - phases_ms) / epochs,
        ),
        count("orchestrator.tenants_per_epoch", l.tenants as f64 / epochs),
        count("orchestrator.queue_len", l.queue_len as f64 / epochs),
        count("netsim.samples", traced.quality.samples as f64),
        count("solver.lp_solves", l.lp_solves as f64),
        ms(
            "solver.slave_lp_self_ms",
            per_epoch_ms(span("slave_lp").self_ns as f64),
        ),
        ms(
            "solver.kac_self_ms",
            per_epoch_ms(span("kac").self_ns as f64),
        ),
        count("solver.benders_rounds", span("benders_round").count as f64),
        ms(
            "solver.benders_round_self_ms",
            per_epoch_ms(span("benders_round").self_ns as f64),
        ),
        ms(
            "carry.epoch_solve_self_ms",
            per_epoch_ms(span("epoch_solve").self_ns as f64),
        ),
        count("carry.attempts", l.carry_attempts as f64),
        count("carry.recycled_cuts", l.recycled_cuts as f64),
        count("carry.certified", l.certified as f64),
        count("carry.cold_restarts", l.cold_restarts as f64),
        count("carry.cold_epochs", l.cold_epochs as f64),
        share(
            "carry.certified_share",
            ratio(l.certified as f64, l.carry_attempts as f64),
        ),
        count("milp.solves", milp_solves),
        count("milp.nodes", milp_nodes),
        count("milp.nodes_per_solve", ratio(milp_nodes, milp_solves)),
        ms(
            "milp.node_self_ms",
            per_epoch_ms(span("milp_node").self_ns as f64),
        ),
        count("lp.pivots", lp.total_pivots() as f64),
        count("lp.dual_pivots", lp.dual_pivots as f64),
        count("lp.refactorizations", lp.refactorizations as f64),
        count("lp.factorization_reuses", lp.factorization_reuses as f64),
        count("lp.bound_flips", lp.bound_flips as f64),
        count("lp.pricing_scans", lp.pricing_scans as f64),
        share(
            "lp.warm_share",
            ratio(
                lp.warm_starts as f64,
                (lp.warm_starts + lp.cold_starts) as f64,
            ),
        ),
        share(
            "lp.hypersparse_share",
            ratio(
                (lp.hypersparse_ftrans + lp.hypersparse_btrans) as f64,
                transforms,
            ),
        ),
        ms(
            "lp.factor_ms",
            per_epoch_ms(span("lp_factor").total_ns as f64),
        ),
        ms(
            "lp.ftran_ms",
            per_epoch_ms(span("lp_ftran").total_ns as f64),
        ),
        ms(
            "lp.btran_ms",
            per_epoch_ms(span("lp_btran").total_ns as f64),
        ),
        ms(
            "lp.pricing_ms",
            per_epoch_ms(span("lp_pricing").total_ns as f64),
        ),
        ms(
            "lp.primal_self_ms",
            per_epoch_ms(span("lp_primal").self_ns as f64),
        ),
        ms(
            "lp.dual_self_ms",
            per_epoch_ms(span("lp_dual").self_ns as f64),
        ),
        share(
            "obs.overhead",
            ratio(traced.loop_ns as f64, untraced_loop_ns),
        ),
        count("obs.dropped_spans", trace.dropped as f64),
        share("obs.span_coverage", ratio(phases_ms, step_ms)),
    ]
}
