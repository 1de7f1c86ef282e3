//! Cross-epoch incremental mode against the from-scratch driver.
//!
//! KAC carries nothing across epochs, so a KAC horizon driven through the
//! persistent [`EpochSolver`] must match its scratch twin exactly: the
//! same decision trail *and* the same LP work. Decision identity is stated
//! on [`ScenarioReport::decision_fingerprint`], which hashes the full
//! decision trail (admissions, revenue trajectory, violations, degraded /
//! deferred epochs) but not the solver-path telemetry.
//!
//! The Benders carry (basis remap, recycled cuts, incumbent seeding) gets
//! an *objective*-equality check at the solver layer instead: recycled
//! cuts and a seeded incumbent can surface a different vertex among ties,
//! and the master's optimum — not the tie-break — is the contract.
//!
//! [`EpochSolver`]: ovnes::solver::epoch::EpochSolver
//! [`ScenarioReport::decision_fingerprint`]: ovnes_scenario::ScenarioReport::decision_fingerprint

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::slave::{LpCarry, RecycledCut};
use ovnes::solver::{benders, SolverKind};
use ovnes_scenario::driver::{run_scenario, ScenarioSpec};
use ovnes_scenario::presets;
use ovnes_scenario::workload::ArrivalProcess;
use ovnes_scenario::FaultPlan;
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

/// The from-scratch twin of an incremental spec: identical in every field
/// (including the name, which the fingerprint hashes) except the solver
/// persistence.
fn scratch_twin(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut twin = spec.clone();
    twin.incremental = false;
    twin
}

/// A slow-churn incremental KAC run on N1: modest arrivals, long-lived
/// slices, so most epochs differ from the previous by a handful of
/// tenants.
fn slow_churn_kac() -> ScenarioSpec {
    ScenarioSpec::builder("incremental-n1")
        .operator(Operator::Romanian, 0.025)
        .days(2)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.8 };
            w.duration.mean_epochs = 16.0;
            w.population.alpha = (0.15, 0.3);
            w.population.sigma_frac = (0.0, 0.4);
        })
        .reapply_epochs(6)
        .seed(99)
        .incremental(true)
        .build()
}

/// An incremental KAC run under chaos: background BS/link/CU faults force
/// revalidation epochs, and seeded LP fault injection sends epochs down
/// the degrade-to-cold path. Unbudgeted, so decisions cannot depend on
/// where a pivot meter runs out.
fn chaos_kac() -> ScenarioSpec {
    let mut plan = FaultPlan {
        seed: 991,
        ..FaultPlan::default()
    };
    plan.lp_fault_seed = Some(5151);
    ScenarioSpec::builder("chaos-incremental-n1")
        .operator(Operator::Romanian, 0.025)
        .days(1)
        .tune_workload(|w| {
            w.arrivals = ArrivalProcess::Poisson { rate: 0.8 };
            w.duration.mean_epochs = 12.0;
            w.population.alpha = (0.15, 0.3);
        })
        .reapply_epochs(6)
        .seed(101)
        .faults(plan)
        .incremental(true)
        .build()
}

/// KAC under `incremental(true)` is scratch KAC: the same decision trail
/// and exactly the same LP solves, pivots and refactorizations.
#[test]
fn incremental_n1_decisions_match_scratch_twin() {
    let spec = slow_churn_kac();
    let warm = run_scenario(&spec).expect("incremental run");
    let cold = run_scenario(&scratch_twin(&spec)).expect("scratch run");
    assert!(warm.incremental && !cold.incremental);
    assert!(warm.accepted > 0, "horizon admitted nothing");
    assert_eq!(warm.incremental_cold_epochs, 0);
    assert_eq!(
        (warm.lp_solves, warm.lp_pivots, warm.lp_refactorizations),
        (cold.lp_solves, cold.lp_pivots, cold.lp_refactorizations),
        "incremental KAC did different LP work than scratch KAC"
    );
    assert_eq!(
        warm.decision_fingerprint(),
        cold.decision_fingerprint(),
        "incremental decisions diverged from the from-scratch driver"
    );
}

/// The same identity under chaos: faults degrade epochs, never error, and
/// the decision trail still matches the scratch twin.
#[test]
fn chaos_incremental_decisions_match_scratch_twin() {
    let spec = chaos_kac();
    let warm = run_scenario(&spec).expect("chaos incremental run");
    let cold = run_scenario(&scratch_twin(&spec)).expect("chaos scratch run");
    assert_eq!(
        warm.decision_fingerprint(),
        cold.decision_fingerprint(),
        "chaos incremental decisions diverged from the from-scratch driver"
    );
    assert_eq!(warm.solver_errors, 0, "faults must degrade, not error");
    assert!(warm.infra_events > 0, "chaos spec applied no faults");
}

/// Worker invariance of the incremental path itself: the full fingerprint
/// (decision trail *plus* pivot-level incremental telemetry) of an
/// incremental run is bit-identical at 1, 2, and 4 branch-and-bound
/// workers, on a budgeted Benders chaos horizon where carried bases,
/// recycled cuts, and the seeded incumbent are all active.
#[test]
fn incremental_runs_bit_identical_across_bnb_threads() {
    let mut spec = presets::chaos_outage();
    spec.incremental = true;
    spec.threads = 1;
    let serial = run_scenario(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    for threads in [2usize, 4] {
        spec.threads = threads;
        let par = run_scenario(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(
            serial.fingerprint(),
            par.fingerprint(),
            "{}: incremental trajectory diverged at {threads} workers",
            spec.name
        );
    }
}

/// Running the chaos scratch twin twice gives the same full fingerprint:
/// the `incremental` flag flowing through the sweep plumbing leaves the
/// from-scratch run deterministic.
#[test]
fn chaos_incremental_scratch_twin_is_run_to_run_deterministic() {
    let spec = scratch_twin(&chaos_kac());
    let a = run_scenario(&spec).expect("first run");
    let b = run_scenario(&spec).expect("second run");
    assert_eq!(a.fingerprint(), b.fingerprint());
}

fn tiny_model() -> NetworkModel {
    NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale: 0.025,
            seed: 42,
            k_paths: 3,
        },
    )
}

fn tenants_on(model: &NetworkModel, specs: &[(u32, SliceClass, f64, f64)]) -> Vec<TenantInput> {
    let n_bs = model.base_stations.len();
    specs
        .iter()
        .map(|&(id, class, alpha, sigma)| {
            let t = SliceTemplate::for_class(class);
            TenantInput {
                tenant: id,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward,
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: vec![alpha * t.sla_mbps; n_bs],
                sigma,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect()
}

/// Solver-layer contract for the Benders incremental hooks: across an
/// epoch chain with churn (a departure and an arrival between epochs),
/// `solve_carried` with a carried basis, a recycled-cut pool, and the
/// previous admission as incumbent must reach the **same objective** as a
/// plain from-scratch `benders::solve` of each epoch. (Tie-break freedom
/// means the admission sets may legitimately differ; the optimum may not.)
#[test]
fn benders_carried_chain_matches_scratch_objectives() {
    let model = tiny_model();
    let epochs: Vec<Vec<(u32, SliceClass, f64, f64)>> = vec![
        vec![
            (0, SliceClass::Embb, 0.3, 0.2),
            (1, SliceClass::Urllc, 0.4, 0.3),
            (2, SliceClass::Mmtc, 0.2, 0.05),
        ],
        // Same tenant set: the no-churn epoch.
        vec![
            (0, SliceClass::Embb, 0.3, 0.2),
            (1, SliceClass::Urllc, 0.4, 0.3),
            (2, SliceClass::Mmtc, 0.2, 0.05),
        ],
        // Tenant 1 departs, tenant 3 arrives.
        vec![
            (0, SliceClass::Embb, 0.3, 0.2),
            (2, SliceClass::Mmtc, 0.2, 0.05),
            (3, SliceClass::Embb, 0.25, 0.15),
        ],
    ];

    let opts = benders::BendersOptions::default();
    let mut carry = LpCarry::default();
    let mut cuts: Vec<RecycledCut> = Vec::new();
    let mut prev: Option<Vec<Option<usize>>> = None;
    for (k, specs) in epochs.iter().enumerate() {
        let inst = AcrrInstance::build(
            &model,
            tenants_on(&model, specs),
            PathPolicy::Spread,
            true,
            None,
        );
        let scratch =
            benders::solve(&inst, &opts).unwrap_or_else(|e| panic!("epoch {k} scratch: {e}"));
        let warm = benders::solve_carried(
            &inst,
            &opts,
            Some(&mut carry),
            Some(&mut cuts),
            prev.as_deref(),
        )
        .unwrap_or_else(|e| panic!("epoch {k} carried: {e}"));
        assert!(
            (warm.objective - scratch.objective).abs() < 1e-6,
            "epoch {k}: carried objective {} vs scratch {}",
            warm.objective,
            scratch.objective
        );
        if k > 0 {
            assert!(
                warm.stats.recycled_cuts > 0,
                "epoch {k}: the carried master recycled no cuts"
            );
        }
        prev = Some(warm.assigned_cu.clone());
    }
    assert!(!cuts.is_empty(), "the chain never pooled a cut");
}

/// The one-shot MILP through the public EpochSolver API: it carries
/// nothing across epochs, so a two-epoch no-churn chain with the exact
/// `OneShot` solver must agree bit-for-bit with plain `solve_controlled`
/// on both epochs.
#[test]
fn epoch_solver_oneshot_matches_scratch() {
    use ovnes::solver::epoch::EpochSolver;
    use ovnes::solver::{solve_controlled, SolveControls};

    let model = tiny_model();
    let specs = vec![
        (0, SliceClass::Embb, 0.3, 0.2),
        (1, SliceClass::Urllc, 0.4, 0.3),
    ];
    let controls = SolveControls {
        kind: SolverKind::OneShot,
        ..SolveControls::default()
    };
    let mut es = EpochSolver::new();
    for epoch in 0..2 {
        let inst = AcrrInstance::build(
            &model,
            tenants_on(&model, &specs),
            PathPolicy::Spread,
            true,
            None,
        );
        let scratch = solve_controlled(&inst, &controls);
        let (warm, report) = es.solve_epoch(&inst, &controls, &[]);
        assert!(!report.cold_fallback, "epoch {epoch} fell back cold");
        let (s, w) = (
            scratch.allocation.expect("scratch allocation"),
            warm.allocation.expect("warm allocation"),
        );
        assert_eq!(
            s.assigned_cu, w.assigned_cu,
            "epoch {epoch}: admissions differ"
        );
        assert_eq!(
            s.objective.to_bits(),
            w.objective.to_bits(),
            "epoch {epoch}: objective bits differ"
        );
    }
}
