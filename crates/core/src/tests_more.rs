//! Second test battery: risk-model arithmetic, KAC internals, experiment
//! helpers, orchestrator edge cases and template invariants.

use crate::experiment::{heterogeneous, homogeneous, revenue_gain_percent, SigmaLevel, TenantSpec};
use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::problem::{AcrrInstance, PathPolicy, TenantInput, MBPS_PER_MHZ};
use crate::slice::{ServiceModel, SliceClass, SliceRequest, SliceTemplate};
use crate::solver::slave::{solve_slave, SlaveContext, SlaveResult};
use crate::solver::{benders, kac, SolverKind};
use crate::testbed::epoch_to_time;
use ovnes_topology::graph::{Graph, LinkTech};
use ovnes_topology::ksp::k_shortest;
use ovnes_topology::operators::{BaseStation, ComputeUnit, CuKind, NetworkModel, Operator};

fn one_bs_model(edge_cores: f64) -> NetworkModel {
    let mut g = Graph::new();
    let bs = g.add_node(0.0, 0.0);
    let edge = g.add_node(0.0, 0.1);
    g.add_link(bs, edge, 1_000.0, LinkTech::Copper);
    let base_stations = vec![BaseStation {
        node: bs,
        capacity_mhz: 20.0,
    }];
    let compute_units = vec![ComputeUnit {
        node: edge,
        cores: edge_cores,
        kind: CuKind::Edge,
    }];
    let paths = vec![vec![k_shortest(&g, bs, edge, 2)]];
    NetworkModel {
        operator: Operator::Romanian,
        graph: g,
        base_stations,
        compute_units,
        paths,
    }
}

fn simple_tenant(id: u32, forecast: f64, sigma: f64) -> TenantInput {
    TenantInput {
        tenant: id,
        sla_mbps: 50.0,
        reward: 1.0,
        penalty: 1.0,
        delay_budget_us: 30_000.0,
        service: ServiceModel {
            base_cores: 0.0,
            cores_per_mbps: 0.0,
        },
        forecast_mbps: vec![forecast],
        sigma,
        duration_weight: 1.0,
        must_accept: false,
        pinned_cu: None,
    }
}

// ------------------------------------------------------------- risk model

#[test]
fn leg_q_is_zero_without_overbooking() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 10.0, 0.2)],
        PathPolicy::MinDelay,
        false,
        None,
    );
    assert_eq!(inst.leg_q(&inst.legs[0]), 0.0);
    assert_eq!(
        inst.leg_forecast(&inst.legs[0]),
        50.0,
        "no-overbooking pins λ̂ = Λ"
    );
}

#[test]
fn leg_q_scales_with_sigma_and_penalty() {
    let model = one_bs_model(100.0);
    let mk = |sigma: f64, penalty: f64| {
        let mut t = simple_tenant(0, 10.0, sigma);
        t.penalty = penalty;
        let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, None);
        inst.leg_q(&inst.legs[0])
    };
    let base = mk(0.2, 1.0);
    assert!((mk(0.4, 1.0) - 2.0 * base).abs() < 1e-12, "q linear in σ̂");
    assert!((mk(0.2, 3.0) - 3.0 * base).abs() < 1e-12, "q linear in K");
}

#[test]
fn forecast_clamped_strictly_below_sla() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 80.0, 0.2)], // forecast above the 50 Mb/s SLA
        PathPolicy::MinDelay,
        true,
        None,
    );
    let lam_hat = inst.leg_forecast(&inst.legs[0]);
    assert!(lam_hat < 50.0);
    assert!((lam_hat - 0.999 * 50.0).abs() < 1e-9);
    assert!(inst.leg_q(&inst.legs[0]).is_finite());
}

#[test]
fn gamma_none_for_disallowed_pairs() {
    let model = one_bs_model(100.0);
    let mut t = simple_tenant(0, 10.0, 0.2);
    t.delay_budget_us = 1.0; // nothing is reachable in 1 µs
    let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, None);
    assert!(inst.gamma(0, 0).is_none());
    assert!(inst.pairs().is_empty());
    assert!(inst.legs.is_empty());
}

#[test]
fn pinned_cu_restricts_pairs() {
    let mut g = Graph::new();
    let bs = g.add_node(0.0, 0.0);
    let e0 = g.add_node(0.0, 0.1);
    let e1 = g.add_node(0.1, 0.1);
    g.add_link(bs, e0, 1_000.0, LinkTech::Copper);
    g.add_link(bs, e1, 1_000.0, LinkTech::Copper);
    let model = NetworkModel {
        operator: Operator::Romanian,
        base_stations: vec![BaseStation {
            node: bs,
            capacity_mhz: 20.0,
        }],
        compute_units: vec![
            ComputeUnit {
                node: e0,
                cores: 100.0,
                kind: CuKind::Edge,
            },
            ComputeUnit {
                node: e1,
                cores: 100.0,
                kind: CuKind::Core,
            },
        ],
        paths: vec![vec![k_shortest(&g, bs, e0, 2), k_shortest(&g, bs, e1, 2)]],
        graph: g,
    };
    let mut t = simple_tenant(0, 10.0, 0.2);
    t.pinned_cu = Some(1);
    let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, None);
    assert_eq!(inst.pairs(), vec![(0, 1)]);
}

#[test]
fn path_policies_pick_feasible_paths() {
    let model = NetworkModel::generate(
        Operator::Romanian,
        &ovnes_topology::operators::GeneratorConfig {
            scale: 0.03,
            seed: 2,
            k_paths: 4,
        },
    );
    let n_bs = model.base_stations.len();
    for policy in [
        PathPolicy::MinDelay,
        PathPolicy::MaxBottleneck,
        PathPolicy::Spread,
    ] {
        let mut t = simple_tenant(0, 10.0, 0.2);
        t.forecast_mbps = vec![10.0; n_bs];
        let inst = AcrrInstance::build(&model, vec![t], policy, true, None);
        for leg in &inst.legs {
            assert!(
                leg.delay_us <= 30_000.0,
                "{policy:?} must respect the delay budget"
            );
            assert!(!leg.links.is_empty());
        }
    }
}

// ------------------------------------------------------------------ solvers

#[test]
fn benders_converges_with_gap_reported() {
    let model = one_bs_model(100.0);
    let tenants = (0..4).map(|i| simple_tenant(i, 10.0, 0.2)).collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, None);
    let alloc = benders::solve(&inst, &benders::BendersOptions::default()).unwrap();
    assert!(
        alloc.stats.gap.abs() < 1e-5,
        "converged gap, got {}",
        alloc.stats.gap
    );
    assert!(alloc.stats.iterations >= 1);
    // 4 eMBB-like tenants at λ̂ = 10 fit one 150 Mb/s BS only as 3 at Λ or
    // more when squeezed; the optimum accepts all 4 (4·10 = 40 ≤ 150).
    assert_eq!(alloc.accepted(), 4);
}

#[test]
fn kac_shed_loop_drops_net_negative_tenants() {
    // Radio so tight that admitting everyone pins z = λ̂, making high-risk
    // tenants net-negative; the shed loop must drop some.
    let model = one_bs_model(1e6);
    let tenants: Vec<TenantInput> = (0..6)
        .map(|i| {
            let mut t = simple_tenant(i, 24.0, 1.0); // λ̂ ≈ half the SLA
            t.penalty = 8.0; // ξK = 8 ≫ R = 1 at full squeeze
            t
        })
        .collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, None);
    let alloc = kac::solve(&inst, &kac::KacOptions::default()).unwrap();
    // 150 Mb/s radio: 6·24 = 144 fits at the floor, but at the floor every
    // tenant's modelled risk (ξK = 8) dwarfs its reward → shed until the
    // survivors can sit near Λ (risk ≈ 0): 150/50 = 3 tenants.
    assert!(
        alloc.accepted() <= 3,
        "shed loop must drop squeezed tenants"
    );
    assert!(alloc.objective <= 0.0, "result must not be net-negative");
}

#[test]
fn kac_respects_aggregated_capacity() {
    let model = one_bs_model(1e6);
    // Forecast floors of 60 each: only 2 of 5 fit the 150 Mb/s radio.
    let tenants: Vec<TenantInput> = (0..5)
        .map(|i| {
            let mut t = simple_tenant(i, 49.0, 0.1);
            t.sla_mbps = 70.0;
            t.forecast_mbps = vec![60.0];
            t
        })
        .collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, None);
    let alloc = kac::solve(&inst, &kac::KacOptions::default()).unwrap();
    assert!(alloc.accepted() <= 2);
    let used: f64 = alloc.reservations.iter().map(|r| r[0]).sum();
    assert!(used / MBPS_PER_MHZ <= 20.0 + 1e-6);
}

#[test]
fn solver_stats_populate() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 10.0, 0.2)],
        PathPolicy::MinDelay,
        true,
        None,
    );
    for kind in [SolverKind::Benders, SolverKind::Kac, SolverKind::OneShot] {
        let alloc = crate::solver::solve(&inst, kind).unwrap();
        assert!(alloc.stats.iterations >= 1, "{kind:?}");
        assert!(alloc.expected_net_revenue() > 0.0, "{kind:?}");
    }
}

#[test]
fn deficit_vars_report_through_allocation() {
    let model = one_bs_model(0.5); // hopeless compute
    let mut t = simple_tenant(0, 10.0, 0.2);
    t.service = ServiceModel {
        base_cores: 0.0,
        cores_per_mbps: 1.0,
    };
    t.must_accept = true;
    t.pinned_cu = Some(0);
    let inst = AcrrInstance::build(&model, vec![t], PathPolicy::MinDelay, true, Some(1e4));
    let alloc = benders::solve(&inst, &benders::BendersOptions::default()).unwrap();
    assert_eq!(alloc.accepted(), 1, "forced slice stays");
    assert!(alloc.deficit.2 > 1.0, "compute deficit must be reported");
}

/// KAC's deficit fallback runs its relaxed solve under the caller's
/// simplex options, like every strict vet before it.
#[test]
fn kac_deficit_fallback_honours_simplex_options() {
    // Forced tenants overflowing both the radio (4·45 > 150 Mb/s) and the
    // compute (0.5 cores): the strict vet is infeasible, and the relaxed
    // solve must bring in two deficit columns.
    let model = one_bs_model(0.5);
    let tenants: Vec<TenantInput> = (0..4)
        .map(|i| {
            let mut t = simple_tenant(i, 45.0, 0.2);
            t.service.cores_per_mbps = 1.0;
            t.must_accept = true;
            t.pinned_cu = Some(0);
            t
        })
        .collect();
    let inst = AcrrInstance::build(&model, tenants, PathPolicy::MinDelay, true, Some(1e4));
    let simplex = ovnes_lp::SimplexOptions {
        refactor_interval: 1,
        ..ovnes_lp::SimplexOptions::default()
    };
    let options = kac::KacOptions {
        max_iterations: 0,
        simplex: simplex.clone(),
    };
    let alloc = kac::solve(&inst, &options).unwrap();
    assert_eq!(alloc.accepted(), 4, "forced slices stay");
    assert!(alloc.deficit.0 > 0.0 && alloc.deficit.2 > 0.0);

    let all_in = vec![Some(0); 4];
    let strict_inst = AcrrInstance {
        deficit_cost: None,
        ..inst.clone()
    };
    let mut strict = SlaveContext::new(&strict_inst);
    strict.set_simplex_options(simplex.clone());
    assert!(matches!(
        strict.solve_for(&all_in).unwrap(),
        SlaveResult::Infeasible { .. }
    ));
    let relaxed_stats = |options: &ovnes_lp::SimplexOptions| {
        let mut relaxed = SlaveContext::new(&inst);
        relaxed.set_simplex_options(options.clone());
        relaxed.solve_for(&all_in).unwrap();
        relaxed.stats
    };
    let relaxed = relaxed_stats(&simplex);
    assert!(
        relaxed.total_pivots() >= 2,
        "relaxed solve pivoted too little"
    );
    assert_ne!(relaxed, relaxed_stats(&ovnes_lp::SimplexOptions::default()));
    let mut expected = strict.stats;
    expected.absorb(&relaxed);
    assert_eq!(alloc.stats.lp, expected);
}

#[test]
fn slave_handles_empty_admission() {
    let model = one_bs_model(100.0);
    let inst = AcrrInstance::build(
        &model,
        vec![simple_tenant(0, 10.0, 0.2)],
        PathPolicy::MinDelay,
        true,
        None,
    );
    match solve_slave(&inst, &[None]).unwrap() {
        SlaveResult::Feasible { value, z, .. } => {
            assert_eq!(value, 0.0);
            assert!(z.iter().all(|&v| v.abs() < 1e-9));
        }
        SlaveResult::Infeasible { .. } => panic!("empty admission is always feasible"),
    }
}

// ------------------------------------------------------------- experiment

#[test]
fn homogeneous_builder() {
    let specs = homogeneous(SliceClass::Mmtc, 7, 0.3, SigmaLevel::Half, 4.0);
    assert_eq!(specs.len(), 7);
    for s in &specs {
        assert_eq!(s.class, SliceClass::Mmtc);
        assert_eq!(s.alpha, 0.3);
        assert_eq!(s.penalty_factor, 4.0);
    }
}

#[test]
fn heterogeneous_builder_split() {
    let specs = heterogeneous(
        SliceClass::Embb,
        SliceClass::Urllc,
        10,
        25.0,
        SigmaLevel::Zero,
        1.0,
    );
    let urllc = specs
        .iter()
        .filter(|s| s.class == SliceClass::Urllc)
        .count();
    let embb = specs.iter().filter(|s| s.class == SliceClass::Embb).count();
    assert_eq!((urllc, embb), (3, 7)); // 25% of 10, rounded
                                       // β = 0 and β = 100 are pure populations.
    assert!(heterogeneous(
        SliceClass::Embb,
        SliceClass::Urllc,
        10,
        0.0,
        SigmaLevel::Zero,
        1.0
    )
    .iter()
    .all(|s| s.class == SliceClass::Embb));
    assert!(heterogeneous(
        SliceClass::Embb,
        SliceClass::Urllc,
        10,
        100.0,
        SigmaLevel::Zero,
        1.0
    )
    .iter()
    .all(|s| s.class == SliceClass::Urllc));
}

#[test]
fn sigma_levels() {
    assert_eq!(SigmaLevel::Zero.fraction(), 0.0);
    assert_eq!(SigmaLevel::Quarter.fraction(), 0.25);
    assert_eq!(SigmaLevel::Half.fraction(), 0.5);
}

#[test]
fn revenue_gain_edges() {
    assert_eq!(revenue_gain_percent(6.0, 3.0), 100.0);
    assert_eq!(revenue_gain_percent(3.0, 3.0), 0.0);
    assert_eq!(revenue_gain_percent(0.0, 0.0), 0.0);
    assert!(revenue_gain_percent(1.0, 0.0).is_infinite());
}

#[test]
fn tenant_spec_constructible() {
    let s = TenantSpec {
        class: SliceClass::Urllc,
        alpha: 0.4,
        sigma: SigmaLevel::Quarter,
        penalty_factor: 16.0,
    };
    assert_eq!(s.sigma.label(), "σ=λ/4");
}

// ------------------------------------------------------------ templates etc.

#[test]
fn templates_match_table1() {
    let e = SliceTemplate::embb();
    assert_eq!(
        (e.reward, e.sla_mbps, e.delay_budget_us),
        (1.0, 50.0, 30_000.0)
    );
    assert_eq!(e.service.cores_per_mbps, 0.0);
    let m = SliceTemplate::mmtc();
    assert_eq!(
        (m.reward, m.sla_mbps, m.service.cores_per_mbps),
        (3.0, 10.0, 2.0)
    );
    let u = SliceTemplate::urllc();
    assert_eq!(
        (u.reward, u.sla_mbps, u.delay_budget_us),
        (2.2, 25.0, 5_000.0)
    );
    assert_eq!(u.service.cores_per_mbps, 0.2);
}

#[test]
fn mmtc_requests_are_deterministic() {
    let r = SliceRequest::from_template(0, SliceTemplate::mmtc(), 0.5, 3.0, 1.0);
    assert_eq!(
        r.true_sigma_mbps, 0.0,
        "Table 1: mMTC has σ = 0 regardless of input"
    );
    let r = SliceRequest::from_template(0, SliceTemplate::embb(), 0.5, 3.0, 1.0);
    assert_eq!(r.true_sigma_mbps, 3.0);
}

#[test]
fn penalty_is_m_times_reward() {
    let r = SliceRequest::from_template(0, SliceTemplate::urllc(), 0.2, 1.0, 4.0);
    assert!((r.penalty - 4.0 * 2.2).abs() < 1e-12);
}

#[test]
fn epoch_time_axis() {
    assert_eq!(epoch_to_time(0), "06:00");
    assert_eq!(epoch_to_time(17), "23:00");
}

// ------------------------------------------------------------ orchestrator

#[test]
fn diurnal_requests_flow_through() {
    let model = one_bs_model(100.0);
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            season_epochs: 4,
            seed: 21,
            ..Default::default()
        },
    );
    let mut r = SliceRequest::from_template(0, SliceTemplate::embb(), 0.3, 1.0, 1.0);
    r.diurnal = Some((0.5, 48)); // period = 4 epochs × 12 samples
    orch.submit(r);
    let mut total_rev = 0.0;
    for _ in 0..10 {
        total_rev += orch.step().unwrap().net_revenue;
    }
    assert!(
        total_rev > 8.0,
        "diurnal slice must stay admitted, got {total_rev}"
    );
}

#[test]
fn strict_monitoring_mode_still_works() {
    let model = one_bs_model(100.0);
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            monitor_rejected: false, // strict: only admitted slices observed
            seed: 22,
            ..Default::default()
        },
    );
    for t in 0..2 {
        orch.submit(SliceRequest::from_template(
            t,
            SliceTemplate::embb(),
            0.2,
            2.0,
            1.0,
        ));
    }
    let mut admitted = 0;
    for _ in 0..6 {
        admitted = orch.step().unwrap().admitted.len();
    }
    assert!(
        admitted >= 2,
        "capacity is ample; both must be admitted eventually"
    );
}

#[test]
fn rejected_requests_reapply() {
    let model = one_bs_model(2.0); // tiny compute
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            seed: 23,
            ..Default::default()
        },
    );
    // Compute-hungry tenants: only one fits at a time.
    for t in 0..2 {
        let mut r = SliceRequest::from_template(t, SliceTemplate::embb(), 0.2, 1.0, 1.0);
        r.template.service = ServiceModel {
            base_cores: 1.5,
            cores_per_mbps: 0.0,
        };
        orch.submit(r);
    }
    let out = orch.step().unwrap();
    assert_eq!(out.admitted.len() + out.rejected.len(), 2);
    // The rejected tenant must be reconsidered next epoch (stays in queue).
    let out2 = orch.step().unwrap();
    assert_eq!(out2.admitted.len() + out2.rejected.len(), 2);
}

#[test]
fn reward_accounting_sums_active_slices() {
    let model = one_bs_model(1000.0);
    let mut orch = Orchestrator::new(
        model,
        OrchestratorConfig {
            solver: SolverKind::Benders,
            seed: 24,
            ..Default::default()
        },
    );
    for t in 0..3 {
        orch.submit(SliceRequest::from_template(
            t,
            SliceTemplate::mmtc(),
            0.2,
            0.0,
            1.0,
        ));
    }
    let out = orch.step().unwrap();
    assert_eq!(out.admitted.len(), 3);
    assert!((out.reward - 9.0).abs() < 1e-9, "3 mMTC × R = 3");
    assert_eq!(out.penalty, 0.0, "deterministic load under full-SLA prior");
    assert!((out.net_revenue - 9.0).abs() < 1e-9);
}
