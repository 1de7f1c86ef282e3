//! The fixed AC-RR instances and admission chains shared by the `solvers`
//! criterion bench and the `solver_contracts` test, so the loops that time
//! the warm-start engine and the gates on its counters run the same inputs.

use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::kac;
use ovnes::solver::slave::SlaveContext;
use ovnes_lp::{LpStats, SimplexOptions};
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};

/// Simplex options the ambient `OVNES_LP_FAULT_SEED` and
/// `OVNES_LP_REFACTOR_INTERVAL` cannot move: no fault injection, the
/// default refactorization interval.
pub fn pinned_options() -> SimplexOptions {
    SimplexOptions {
        fault: None,
        refactor_interval: 128,
        ..SimplexOptions::default()
    }
}

/// The four probe scales: (label, topology scale, tenants).
pub const SCALES: [(&str, f64, usize); 4] = [
    ("small", 0.02, 3),
    ("paper", 0.04, 6),
    ("10x_paper", 0.12, 20),
    ("100x_paper", 0.4, 60),
];

/// The N1 (Romanian) AC-RR instance at a topology scale: `n_tenants`
/// tenants cycling eMBB / mMTC / uRLLC, each forecast at 30% of its SLA on
/// every base station.
pub fn instance_at(scale: f64, n_tenants: usize, overbooking: bool) -> AcrrInstance {
    let model = NetworkModel::generate(
        Operator::Romanian,
        &GeneratorConfig {
            scale,
            seed: 18,
            k_paths: 3,
        },
    );
    let n_bs = model.base_stations.len();
    let classes = [SliceClass::Embb, SliceClass::Mmtc, SliceClass::Urllc];
    let tenants: Vec<TenantInput> = (0..n_tenants)
        .map(|i| {
            let t = SliceTemplate::for_class(classes[i % 3]);
            TenantInput {
                tenant: i as u32,
                sla_mbps: t.sla_mbps,
                reward: t.reward,
                penalty: t.reward,
                delay_budget_us: t.delay_budget_us,
                service: t.service,
                forecast_mbps: vec![0.3 * t.sla_mbps; n_bs],
                sigma: 0.2,
                duration_weight: 1.0,
                must_accept: false,
                pinned_cu: None,
            }
        })
        .collect();
    AcrrInstance::build(&model, tenants, PathPolicy::Spread, overbooking, None)
}

/// A rotating sequence of admission vectors mimicking consecutive Benders
/// iterations: mostly stable, one tenant flips off and CUs rotate slowly.
fn admission_sequence(inst: &AcrrInstance, steps: usize) -> Vec<Vec<Option<usize>>> {
    let n_t = inst.tenants.len();
    let n_cu = inst.n_cu.max(1);
    (0..steps)
        .map(|s| {
            (0..n_t)
                .map(|t| {
                    if t == s % n_t {
                        None
                    } else {
                        let cu = (t + s / n_t) % n_cu;
                        if inst.cu_allowed[t][cu] {
                            Some(cu)
                        } else {
                            inst.cu_allowed[t].iter().position(|&a| a)
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// A **feasible** admission sequence: start from the KAC heuristic's
/// capacity-vetted admission (under [`pinned_options`]) and drop a
/// rotating admitted tenant per step. Every step is a subset of a feasible admission (fewer legs only relax
/// the reservation LP), so at the big scales the chain measures
/// bound-heavy dual-simplex re-solves — consecutive steps re-open one
/// tenant's reservation windows and close another's — instead of the
/// mostly-Farkas proofs the rotating sequence produces there.
fn feasible_admission_sequence(inst: &AcrrInstance, steps: usize) -> Vec<Vec<Option<usize>>> {
    let kac_options = kac::KacOptions {
        simplex: pinned_options(),
        ..kac::KacOptions::default()
    };
    let base = kac::solve(inst, &kac_options)
        .expect("KAC on the probe instance")
        .assigned_cu;
    let admitted: Vec<usize> = base
        .iter()
        .enumerate()
        .filter_map(|(t, c)| c.map(|_| t))
        .collect();
    assert!(
        !admitted.is_empty(),
        "KAC admitted nothing — the feasible chain would be all-rejected"
    );
    (0..steps)
        .map(|s| {
            let mut v = base.clone();
            v[admitted[s % admitted.len()]] = None;
            v
        })
        .collect()
}

/// The slave re-pricing chain probed at each of [`SCALES`]: 16 rotating
/// admissions at the two small scales (feasible there), and the feasible
/// chain at 10x (8 steps) and 100x (4 steps).
pub fn slave_chain(label: &str, inst: &AcrrInstance) -> Vec<Vec<Option<usize>>> {
    match label {
        "10x_paper" => feasible_admission_sequence(inst, 8),
        "100x_paper" => feasible_admission_sequence(inst, 4),
        _ => admission_sequence(inst, 16),
    }
}

/// Runs the slave chain warm through one context; returns its counters.
pub fn slave_chain_warm(
    inst: &AcrrInstance,
    seq: &[Vec<Option<usize>>],
    options: &SimplexOptions,
) -> LpStats {
    let mut ctx = SlaveContext::new(inst);
    ctx.set_simplex_options(options.clone());
    for assigned in seq {
        ctx.solve_for(assigned).expect("slave solve");
    }
    ctx.stats
}

/// The same chain cold: a fresh context per admission.
pub fn slave_chain_cold(
    inst: &AcrrInstance,
    seq: &[Vec<Option<usize>>],
    options: &SimplexOptions,
) -> LpStats {
    let mut stats = LpStats::default();
    for assigned in seq {
        let mut ctx = SlaveContext::new(inst);
        ctx.set_simplex_options(options.clone());
        ctx.solve_for(assigned).expect("slave solve");
        stats.absorb(&ctx.stats);
    }
    stats
}
