//! One pass of the benchmark: set up each seed's scenario through the public
//! API, drive its epochs back to back on this thread, time every public
//! call, audit every outcome and fold the decisions into a digest.

use ovnes::orchestrator::{EpochOutcome, EpochPhaseSeconds, Orchestrator, OrchestratorConfig};
use ovnes::slice::SliceRequest;
use ovnes::solver::Degradation;
use ovnes_scenario::{Fnv64, ModelSpec, ScenarioSpec, Workload};
use ovnes_topology::operators::NetworkModel;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Where the epoch loop is, for a watchdog that must report a step that
/// never returns. Statistics only: `Relaxed` publishes nothing else.
pub struct Progress {
    pub seed: AtomicU64,
    pub epoch: AtomicU64,
    pub attempted: AtomicUsize,
}

pub static PROGRESS: Progress = Progress {
    seed: AtomicU64::new(0),
    epoch: AtomicU64::new(0),
    attempted: AtomicUsize::new(0),
};

/// Nanoseconds spent in the three set-up calls, summed over a pass's seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub topology_ns: u64,
    pub workload_ns: u64,
    pub orchestrator_ns: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.topology_ns + self.workload_ns + self.orchestrator_ns
    }
}

/// A scenario ready to run: the orchestrator with its fault schedule, and
/// the request stream in arrival order.
pub struct Prepared {
    pub orch: Orchestrator,
    pub requests: Vec<SliceRequest>,
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds one seed's scenario the way the scenario driver does, timing
/// `NetworkModel::generate`, `WorkloadSpec::generate` and
/// `Orchestrator::new` into `times`.
pub fn prepare(spec: &ScenarioSpec, times: &mut SetupTimes) -> Prepared {
    let ModelSpec::Generated { operator, topology } = &spec.model else {
        panic!("benchmark workloads use generated topologies");
    };
    let Workload::Generated(workload) = &spec.workload else {
        panic!("benchmark workloads use generated request streams");
    };

    let started = Instant::now();
    let model = NetworkModel::generate(*operator, topology);

    times.topology_ns += elapsed_ns(started);

    let started = Instant::now();
    let mut requests = workload.generate(spec.seed, spec.horizon_epochs);
    times.workload_ns += elapsed_ns(started);
    requests.sort_by_key(|r| r.arrival_epoch);

    let dims = (
        model.base_stations.len(),
        model.graph.links().count(),
        model.compute_units.len(),
    );
    let config = OrchestratorConfig {
        solver: spec.solver,
        overbooking: spec.overbooking,
        adaptive_reservations: spec.adaptive_reservations,
        reapply_epochs: spec.reapply_epochs,
        round_width: spec.round_width,
        threads: spec.threads,
        seed: spec.seed,
        budget: spec.budget,
        incremental: spec.incremental,
        lp_fault: None,
        ..Default::default()
    };
    let started = Instant::now();
    let mut orch = Orchestrator::new(model, config);

    times.orchestrator_ns += elapsed_ns(started);

    if let Some(plan) = &spec.faults {
        for event in plan.expand(dims.0, dims.1, dims.2, spec.horizon_epochs as u32) {
            orch.schedule_event(event);
        }
    }
    Prepared { orch, requests }
}

/// The paper's observables, summed over a pass. Deterministic per seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub epochs: usize,
    pub arrivals: usize,
    pub accepted: usize,
    pub net_revenue: f64,
    pub violated_samples: usize,
    pub samples: usize,
    pub degraded_epochs: usize,
}

/// Per-layer inputs read from each `EpochOutcome`, summed over a pass.
#[derive(Debug, Clone, Default)]
pub struct LayerSums {
    pub phases: EpochPhaseSeconds,
    pub tenants: usize,
    pub queue_len: usize,
    pub lp_solves: usize,
    pub lp: ovnes_lp::LpStats,
    pub carry_attempts: usize,
    pub recycled_cuts: usize,
    pub certified: usize,
    pub cold_restarts: usize,
    pub cold_epochs: usize,
}

/// Everything one pass over the run's seeds produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub setup: SetupTimes,
    /// `Orchestrator::step` wall time of every epoch, in order.
    pub step_ns: Vec<u64>,
    /// Wall time of every `Orchestrator::submit` plus every step.
    pub loop_ns: u64,
    /// Heap live after each epoch, above what was live before the seed's
    /// set-up, summed over epochs (bytes).
    pub live_heap_sum: f64,
    pub quality: Quality,
    pub layers: LayerSums,
    pub digest: u64,
    /// Epochs whose step failed or whose outcome broke an invariant.
    pub failed_epochs: usize,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Epochs whose summed radio or compute overcommit exceeds the
    /// domain deficit (reported, not a failure: see [`audit`]).
    pub summed_overcommit_epochs: usize,
}

/// Runs every spec's full horizon back to back.
pub fn run_pass(specs: &[ScenarioSpec]) -> Pass {
    // Reserved up front, so the harness's own buffer never shows in the
    // live-heap figure.
    let epochs = specs.iter().map(|s| s.horizon_epochs).sum();
    let mut pass = Pass {
        step_ns: Vec::with_capacity(epochs),
        ..Pass::default()
    };
    let mut digest = Fnv64::new();
    for spec in specs {
        let heap_before = crate::heap::live_bytes();
        let Prepared { mut orch, requests } = prepare(spec, &mut pass.setup);
        pass.quality.arrivals += requests.len();
        digest.write_u64(spec.seed);
        let mut arrivals = requests.into_iter().peekable();
        for epoch in 0..spec.horizon_epochs as u32 {
            let started = Instant::now();
            while let Some(request) = arrivals.next_if(|r| r.arrival_epoch <= epoch) {
                orch.submit(request);
            }
            let submit_ns = elapsed_ns(started);
            pass.layers.queue_len += orch.queue_len();
            PROGRESS.seed.store(spec.seed, Ordering::Relaxed);
            PROGRESS.epoch.store(u64::from(epoch), Ordering::Relaxed);
            PROGRESS.attempted.fetch_add(1, Ordering::Relaxed);

            let started = Instant::now();
            let stepped = orch.step();
            let step_ns = elapsed_ns(started);
            pass.step_ns.push(step_ns);
            pass.loop_ns += submit_ns + step_ns;
            pass.quality.epochs += 1;

            let out = match stepped {
                Ok(out) => out,
                Err(err) => {
                    pass.fail(format!(
                        "{} seed {} epoch {epoch}: step failed: {err}",
                        spec.name, spec.seed
                    ));
                    break;
                }
            };
            if let Err(why) = audit(&out, epoch, orch.model()) {
                pass.fail(format!(
                    "{} seed {} epoch {epoch}: {why}",
                    spec.name, spec.seed
                ));
            }
            pass.summed_overcommit_epochs += usize::from(sums_exceed_deficit(&out));
            fold_decision(&mut digest, &out);
            pass.record(&out);
            drop(out);
            pass.live_heap_sum += crate::heap::live_bytes().saturating_sub(heap_before) as f64;
        }
    }
    pass.digest = digest.finish();
    pass
}

impl Pass {
    fn fail(&mut self, why: String) {
        self.failed_epochs += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn record(&mut self, out: &EpochOutcome) {
        let q = &mut self.quality;
        q.accepted += out.newly_admitted.len();
        q.net_revenue += out.net_revenue;
        q.violated_samples += out.violation_samples.0;
        q.samples += out.violation_samples.1;
        q.degraded_epochs += usize::from(out.degradation != Degradation::None);

        let l = &mut self.layers;
        l.phases.accumulate(&out.phase_seconds);
        l.tenants += out.admitted.len() + out.rejected.len();
        l.lp_solves += out.solver_stats.lp_solves;
        l.lp.absorb(&out.solver_stats.lp);
        l.certified += out.solver_stats.carry_certified;
        l.cold_restarts += out.solver_stats.carry_cold_restarts;
        if let Some(inc) = &out.incremental {
            l.carry_attempts += usize::from(inc.carried_basis);
            l.recycled_cuts += inc.recycled_cuts;
            l.cold_epochs += usize::from(inc.cold_fallback);
        }
    }
}

/// The outside invariants the chaos suite asserts, checked on every epoch.
///
/// The over-allocation bound is checked per element: the AC-RR relaxation
/// (paper §3.4) has one deficit variable per domain, shared by every
/// radio (resp. CU) capacity row, so it bounds each base station's (CU's)
/// excess over its live capacity. `EpochOutcome::overcommit` sums those
/// excesses over elements, which may exceed the per-element deficit when
/// several elements overflow at once; see [`sums_exceed_deficit`].
fn audit(out: &EpochOutcome, epoch: u32, model: &NetworkModel) -> Result<(), String> {
    const TOL: f64 = 1e-6;
    if out.epoch != epoch {
        return Err(format!("outcome is for epoch {}", out.epoch));
    }
    for (b, bs) in model.base_stations.iter().enumerate() {
        let excess = out.bs_reserved_mhz[b] - bs.capacity_mhz;
        if excess > out.deficit.0 + TOL {
            return Err(format!(
                "BS {b} radio overcommit {excess} exceeds deficit {}",
                out.deficit.0
            ));
        }
    }
    for (c, cu) in model.compute_units.iter().enumerate() {
        let excess = out.cu_reserved_cores[c] - cu.cores;
        if excess > out.deficit.2 + TOL {
            return Err(format!(
                "CU {c} compute overcommit {excess} exceeds deficit {}",
                out.deficit.2
            ));
        }
    }
    if (out.net_revenue - (out.reward - out.penalty)).abs() > 1e-9 {
        return Err(format!(
            "net revenue {} is not reward {} minus penalty {}",
            out.net_revenue, out.reward, out.penalty
        ));
    }
    if out.penalty < out.eviction_penalty - 1e-9 {
        return Err(format!(
            "penalty {} below eviction penalty {}",
            out.penalty, out.eviction_penalty
        ));
    }
    let admitted: HashSet<u32> = out.admitted.iter().copied().collect();
    if let Some(t) = out.rejected.iter().find(|t| admitted.contains(t)) {
        return Err(format!("tenant {t} both admitted and rejected"));
    }
    if let Some(t) = out.newly_admitted.iter().find(|t| !admitted.contains(t)) {
        return Err(format!("tenant {t} newly admitted but not admitted"));
    }
    if let Some(t) = out.evicted.iter().find(|t| admitted.contains(t)) {
        return Err(format!("tenant {t} evicted but still admitted"));
    }
    Ok(())
}

/// Does the summed radio or compute overcommit exceed the domain deficit?
fn sums_exceed_deficit(out: &EpochOutcome) -> bool {
    out.overcommit.0 > out.deficit.0 + 1e-6 || out.overcommit.2 > out.deficit.2 + 1e-6
}

/// Folds one epoch's decision — admitted, rejected and evicted ids plus
/// the net-revenue bits — into the run digest. Wall-clock never enters.
fn fold_decision(digest: &mut Fnv64, out: &EpochOutcome) {
    digest.write_u64(u64::from(out.epoch));
    for ids in [&out.admitted, &out.rejected, &out.evicted] {
        digest.write_u64(ids.len() as u64);
        for &id in ids {
            digest.write_u64(u64::from(id));
        }
    }
    digest.write_f64(out.net_revenue);
}
