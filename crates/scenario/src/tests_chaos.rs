//! Chaos tests: the fault-injection harness driving the orchestrator's
//! failure-semantics contract end to end — no panics under storms, no
//! over-allocation after shrinkage, balanced accounting, and bit-identical
//! sweep fingerprints at any worker count.

use crate::driver::{build_model, orchestrator_for, requests_for, run_scenario, ScenarioSpec};
use crate::faults::FaultPlan;
use crate::presets;
use crate::sweep::run_sweep;
use crate::workload::{ArrivalProcess, DurationModel};
use ovnes::orchestrator::{
    EpochOutcome, InfraEvent, InfraEventKind, Orchestrator, OrchestratorConfig,
};
use ovnes::slice::{SliceRequest, SliceTemplate};
use ovnes::solver::SolverKind;
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

fn small_model(seed: u64) -> NetworkModel {
    NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.02,
            seed,
            k_paths: 4,
        },
    )
}

/// The ISSUE's acceptance scenario: the outage storm completes its
/// multi-day horizon without panicking, degrades at least one epoch,
/// evicts at least one slice, and keeps the books balanced.
#[test]
fn outage_storm_degrades_evicts_and_balances_accounting() {
    let report = run_scenario(&presets::chaos_outage()).expect("storm must complete");
    assert_eq!(report.epochs, 48);
    assert_eq!(report.revenue_trajectory.len(), 48);
    assert!(report.infra_events > 0, "the storm must actually land");
    assert!(
        report.degraded_epochs >= 1,
        "the starved budget must degrade at least one epoch"
    );
    assert!(
        report.evictions >= 1,
        "the edge-CU collapse must evict at least one slice"
    );
    assert!(
        report.eviction_penalty > 0.0,
        "evictions must be charged their SLA-break penalty"
    );
    // Balanced accounting: eviction penalties are a subcomponent of the
    // total penalty, and net revenue is exactly reward − penalty — also
    // where the trajectory must end.
    assert!(report.penalty >= report.eviction_penalty - 1e-9);
    assert!((report.net_revenue - (report.reward - report.penalty)).abs() < 1e-9);
    let last = *report.revenue_trajectory.last().unwrap();
    assert!((last - report.net_revenue).abs() < 1e-9);
    assert!(
        report.deterministic,
        "a counter-only budget must report deterministic"
    );
}

/// The starved-budget preset must take degradation rungs yet still finish.
#[test]
fn starved_budget_degrades_but_completes() {
    let report = run_scenario(&presets::chaos_budget()).expect("budget run must complete");
    assert!(report.degraded_epochs >= 1, "the budget must bind");
    assert_eq!(report.revenue_trajectory.len(), report.epochs);
    assert!(report.deterministic);
}

/// LP warm-path fault injection must not change results, only the path
/// taken to them: the run completes and matches its own replay.
#[test]
fn lp_fault_injection_is_reproducible() {
    let spec = presets::chaos_lpfault();
    let a = run_scenario(&spec).expect("lp-fault run must complete");
    let b = run_scenario(&spec).expect("lp-fault replay must complete");
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// The chaos sweep is bit-identical at 1, 2 and 4 workers — infra events,
/// budget degradation and LP fault injection all stay inside the sweep
/// runner's determinism contract.
#[test]
fn chaos_sweep_is_bit_identical_at_any_worker_count() {
    let specs = presets::chaos_sweep();
    let r1 = run_sweep(&specs, 1).expect("sweep x1");
    let r2 = run_sweep(&specs, 2).expect("sweep x2");
    let r4 = run_sweep(&specs, 4).expect("sweep x4");
    assert_eq!(r1.fingerprint(), r2.fingerprint());
    assert_eq!(r1.fingerprint(), r4.fingerprint());
    assert_eq!(r1.render(), r4.render());
    assert!(r1.total_infra_events > 0);
    assert!(r1.total_degraded_epochs > 0);
    assert!(r1.total_evictions > 0);
}

/// Radio and compute overcommit within the deficit the big-M relaxation
/// priced (transport is audited but excluded: a deferred epoch may carry
/// stale link reservations by design).
fn assert_overcommit_within_deficit(out: &EpochOutcome, context: &str) {
    let epoch = out.epoch;
    assert!(
        out.overcommit.0 <= out.deficit.0 + 1e-6,
        "{context} epoch {epoch}: radio overcommit {} exceeds deficit {}",
        out.overcommit.0,
        out.deficit.0,
    );
    assert!(
        out.overcommit.2 <= out.deficit.2 + 1e-6,
        "{context} epoch {epoch}: compute overcommit {} exceeds deficit {}",
        out.overcommit.2,
        out.deficit.2,
    );
}

/// Epochs of [`steady_week`] the overcommit check runs: through epoch 47,
/// the first on which several elements of one class overflow together, so
/// the sum of their excesses exceeds the deficit that bounds each of them.
const STEADY_HORIZON: usize = 48;

/// A fault-free week of long-lived KAC slices on 5 base stations (the
/// `steady-week` benchmark workload, seed 1), cut at [`STEADY_HORIZON`].
/// Over the full week, several elements of one class overflow together on
/// 39 of its 168 epochs.
fn steady_week() -> ScenarioSpec {
    ScenarioSpec::builder("steady-week")
        .operator(Operator::Romanian, 0.025)
        .horizon(STEADY_HORIZON)
        .threads(1)
        .round_width(8)
        .seed(1)
        .solver(SolverKind::Kac)
        .reapply_epochs(6)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.8 };
            w.duration = DurationModel {
                mean_epochs: 48.0,
                max_epochs: 168,
            };
            w.population.alpha = (0.15, 0.3);
            w.population.sigma_frac = (0.0, 0.5);
        })
        .build()
}

/// After every shrinkage event, and on every epoch of a steady week,
/// enforced radio/compute reservations never exceed the surviving capacity
/// of any element by more than the deficit the big-M relaxation priced.
#[test]
fn shrinkage_never_overcommits_radio_or_compute() {
    let model = small_model(5);
    let n_bs = model.base_stations.len();
    let n_cu = model.compute_units.len();
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Kac,
            ..Default::default()
        },
    );
    for t in 0..4 {
        orch.submit(SliceRequest::from_template(
            t,
            SliceTemplate::embb(),
            0.25,
            2.0,
            1.0,
        ));
        orch.submit(SliceRequest::from_template(
            t + 4,
            SliceTemplate::urllc(),
            0.3,
            1.5,
            1.0,
        ));
    }
    // Storm: half-capacity CUs, a BS outage, a link cut to 10%.
    for cu in 0..n_cu {
        orch.schedule_event(InfraEvent {
            epoch: 3,
            kind: InfraEventKind::CuCapacityLoss { cu, factor: 0.5 },
        });
    }
    orch.schedule_event(InfraEvent {
        epoch: 4,
        kind: InfraEventKind::BsOutage { bs: 0 },
    });
    orch.schedule_event(InfraEvent {
        epoch: 4,
        kind: InfraEventKind::LinkDegradation {
            link: 0,
            factor: 0.1,
        },
    });
    orch.schedule_event(InfraEvent {
        epoch: 6,
        kind: InfraEventKind::BsRecovery { bs: 0 },
    });
    for epoch in 0..10 {
        let out = orch.step().expect("chaos epochs must not error");
        assert_eq!(out.epoch, epoch);
        assert_overcommit_within_deficit(&out, "storm");
        assert_eq!(out.bs_reserved_mhz.len(), n_bs);
        assert_eq!(out.cu_reserved_cores.len(), n_cu);
    }

    let spec = steady_week();
    let mut orch = orchestrator_for(&spec, build_model(&spec));
    let mut arrivals = requests_for(&spec).into_iter().peekable();
    for epoch in 0..spec.horizon_epochs as u32 {
        while arrivals.peek().is_some_and(|r| r.arrival_epoch <= epoch) {
            orch.submit(arrivals.next().expect("peeked arrival"));
        }
        let out = orch.step().expect("steady epochs must not error");
        assert_overcommit_within_deficit(&out, "steady-week");
    }
}

/// A total edge+core compute collapse forces evictions whose one-time
/// penalties land in both `eviction_penalty` and `penalty` of the same
/// epoch, and the evicted tenants leave the admitted set.
#[test]
fn eviction_accounting_is_itemised_per_epoch() {
    let model = small_model(9);
    let n_cu = model.compute_units.len();
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Kac,
            ..Default::default()
        },
    );
    // Compute-hungry slices so the CU collapse actually binds.
    for t in 0..5 {
        orch.submit(SliceRequest::from_template(
            t,
            SliceTemplate::mmtc(),
            0.4,
            1.0,
            1.0,
        ));
    }
    let mut admitted_before = 0;
    for _ in 0..4 {
        admitted_before = orch.step().expect("warmup").admitted.len();
    }
    assert!(admitted_before > 0, "warmup must admit someone");
    for cu in 0..n_cu {
        orch.schedule_event(InfraEvent {
            epoch: 4,
            kind: InfraEventKind::CuCapacityLoss { cu, factor: 0.0 },
        });
    }
    let out = orch.step().expect("collapse epoch must not error");
    assert_eq!(out.infra_events, n_cu);
    assert!(
        !out.evicted.is_empty(),
        "zero compute must evict every compute-consuming slice"
    );
    assert!(out.eviction_penalty > 0.0);
    assert!(out.penalty >= out.eviction_penalty - 1e-9);
    for t in &out.evicted {
        assert!(
            !out.admitted.contains(t),
            "evicted tenant {t} must leave the admitted set"
        );
    }
}

/// BS outage + recovery round-trips: the outage clamps admission on that
/// BS, recovery restores the as-built capacity (no compounding drift),
/// and no epoch errors either way.
#[test]
fn bs_outage_recovery_round_trips() {
    let model = small_model(11);
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Kac,
            ..Default::default()
        },
    );
    for t in 0..3 {
        orch.submit(SliceRequest::from_template(
            t,
            SliceTemplate::embb(),
            0.2,
            2.0,
            1.0,
        ));
    }
    orch.schedule_event(InfraEvent {
        epoch: 2,
        kind: InfraEventKind::BsOutage { bs: 0 },
    });
    orch.schedule_event(InfraEvent {
        epoch: 5,
        kind: InfraEventKind::BsRecovery { bs: 0 },
    });
    let mut during_outage = 0.0f64;
    let mut after_recovery = 0.0f64;
    for epoch in 0..8u32 {
        let out = orch.step().expect("epoch must not error");
        if (2..5).contains(&epoch) {
            during_outage = during_outage.max(out.bs_reserved_mhz[0]);
        }
        if epoch >= 6 {
            after_recovery = after_recovery.max(out.bs_reserved_mhz[0]);
        }
    }
    assert!(
        during_outage <= 1e-9,
        "a downed BS must hold no reservations (saw {during_outage})"
    );
    // Recovery reopens the BS; reservations may (and with active eMBB
    // slices, do) return.
    assert!(after_recovery >= during_outage);
}

/// A scripted-only plan replays through the driver exactly as scheduled:
/// the run applies precisely the scripted events (duplicated plans stack
/// nothing extra) and the whole report is reproducible.
#[test]
fn scripted_plans_apply_exactly_and_reproduce() {
    let storm = vec![
        InfraEvent {
            epoch: 3,
            kind: InfraEventKind::LinkDegradation {
                link: 0,
                factor: 0.3,
            },
        },
        InfraEvent {
            epoch: 5,
            kind: InfraEventKind::LinkDegradation {
                link: 0,
                factor: 1.0,
            },
        },
    ];
    let spec = crate::driver::ScenarioSpec::builder("scripted-chaos")
        .operator(Operator::Romanian, 0.02)
        .horizon(8)
        .tune_workload(|w| {
            w.arrivals = crate::workload::ArrivalProcess::Poisson { rate: 1.0 };
            w.duration.mean_epochs = 4.0;
        })
        .faults(FaultPlan::scripted_only(storm))
        .seed(19)
        .build();
    let a = run_scenario(&spec).expect("scripted chaos runs");
    let b = run_scenario(&spec).expect("scripted chaos replays");
    assert_eq!(a.infra_events, 2);
    assert_eq!(a.fingerprint(), b.fingerprint());
}
