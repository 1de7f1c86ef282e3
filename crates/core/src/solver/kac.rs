//! Knapsack Admission Control (paper Algorithms 2–3).
//!
//! KAC replaces the exact master with a greedy knapsack: each (tenant, CU)
//! item has cost `γ_{τ,c} = Σ_b q·Λ − R` (negative = profitable) and the
//! capacity constraint is built *lazily* from the dual extreme rays of the
//! infeasible slave, aggregated across iterations into a single knapsack row
//! (`w̄`, `W̄`) as in Eq. (29)-(30). Items are sorted by benefit per unit
//! aggregated weight and packed first-fit-decreasing (FFD).
//!
//! Interpretation note (see DESIGN.md): the paper sorts by `ϕ = γ/w̄`
//! decreasing; with profitable items having `γ < 0` the standard FFD reading
//! is to sort by `−γ/max(w̄, ε)` descending and skip unprofitable items,
//! which is what we do.
//!
//! KAC keeps no state across epochs: under `ScenarioSpec::incremental` the
//! orchestrator's epoch solver still calls [`solve`], which re-vets each
//! epoch from a cold slave.

use super::slave::{SlaveContext, SlaveResult};
use super::AcrrError;
use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::SimplexOptions;
use std::collections::HashMap;

/// KAC controls.
#[derive(Debug, Clone)]
pub struct KacOptions {
    /// Maximum lazy-constraint iterations before falling back to dropping
    /// the least profitable admitted tenant.
    pub max_iterations: usize,
    /// Simplex options for every vetting-slave LP solve, the strict vets
    /// and the relaxed deficit fallback alike. This is how a caller's
    /// `SolveControls.lp_fault` (and pivot caps, when it chooses to set
    /// them) reach KAC. KAC runs no branch-and-bound, so the
    /// `threads`/`round_width` knobs of the exact solvers have no KAC
    /// equivalent.
    pub simplex: SimplexOptions,
}

impl Default for KacOptions {
    fn default() -> Self {
        Self {
            max_iterations: 40,
            simplex: SimplexOptions::default(),
        }
    }
}

/// Solves the AC-RR instance with the KAC heuristic.
///
/// Every call is a from-scratch solve: one persistent strict-slave LP
/// warm-starts each vetting solve from the previous one *within* the
/// epoch, but no state crosses epochs.
pub fn solve(instance: &AcrrInstance, options: &KacOptions) -> Result<Allocation, AcrrError> {
    let _span = ovnes_obs::span!("kac");
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }
    // Admissions are vetted against *strict* capacities: the §3.4 big-M
    // deficit exists to absorb forecast drift of already-admitted slices,
    // not to let the greedy overbook into paid-for federated capacity. If
    // even the forced set needs the relaxation, we fall back to it at the
    // end.
    let strict = AcrrInstance {
        deficit_cost: None,
        ..instance.clone()
    };
    let pairs = instance.pairs();
    let n_t = instance.tenants.len();
    let mut gammas: HashMap<(usize, usize), f64> = HashMap::with_capacity(pairs.len());
    for &(t, c) in &pairs {
        let g = instance
            .gamma(t, c)
            .ok_or(AcrrError::Internal("allowed pair has no gamma"))?;
        gammas.insert((t, c), g);
    }

    // One persistent strict-slave LP: every vetting solve below re-prices
    // the RHS and warm-starts from the previous admission's basis.
    let mut slave = SlaveContext::new(&strict);
    slave.set_simplex_options(options.simplex.clone());

    // Aggregated knapsack (Eq. 29): w̄ per item, W̄ total capacity. ε_k
    // normalises each ray so no single cut dominates (the paper's
    // recursive ε is a scaling device; we normalise by the ray's capacity
    // term).
    let mut w_bar: HashMap<(usize, usize), f64> = HashMap::new();
    let mut cap_bar = 0.0f64;
    let mut have_cuts = false;
    let mut stats = SolveStats::default();
    // Tenants force-dropped by the fallback (never readmitted this epoch).
    let mut banned: Vec<bool> = vec![false; n_t];

    let mut extra_rounds = 0usize;
    loop {
        stats.iterations += 1;
        let assigned = greedy_pack(instance, &gammas, &w_bar, cap_bar, have_cuts, &banned);
        stats.lp_solves += 1;
        match slave.solve_for(&assigned)? {
            SlaveResult::Feasible {
                value,
                z,
                deficit,
                cut: _,
            } => {
                // Improvement pass: with the slave's priced reservations,
                // a squeezed tenant may cost more in expected penalty than
                // its reward (`Σ_legs q·(Λ − z) > R`). Shedding it frees
                // room for the survivors; iterate until no tenant is
                // net-negative (the admitted set strictly shrinks, so this
                // terminates).
                let (mut assigned, mut value, mut z, mut deficit) = (assigned, value, z, deficit);
                while let Some(t) = worst_net_negative(instance, &assigned, &z) {
                    assigned[t] = None;
                    stats.lp_solves += 1;
                    match slave.solve_for(&assigned)? {
                        SlaveResult::Feasible {
                            value: v2,
                            z: z2,
                            deficit: d2,
                            ..
                        } => {
                            value = v2;
                            z = z2;
                            deficit = d2;
                        }
                        SlaveResult::Infeasible { .. } => {
                            return Err(AcrrError::Internal(
                                "shedding a tenant cannot break feasibility",
                            ))
                        }
                    }
                }
                let fixed: f64 = assigned
                    .iter()
                    .enumerate()
                    .filter_map(|(t, c)| c.and_then(|c| gammas.get(&(t, c))))
                    .sum();
                let mut reservations = vec![vec![0.0; instance.n_bs]; n_t];
                for (li, leg) in instance.legs.iter().enumerate() {
                    if assigned[leg.tenant] == Some(leg.cu) {
                        reservations[leg.tenant][leg.bs] = z[li];
                    }
                }
                stats.lp.absorb(&slave.stats);
                return Ok(Allocation {
                    objective: fixed + value,
                    assigned_cu: assigned,
                    reservations,
                    deficit,
                    stats,
                });
            }
            SlaveResult::Infeasible { cut } => {
                if stats.iterations <= options.max_iterations {
                    // Feasibility requires cut(u) ≤ 0 ⇔ Σ coeff·u ≤
                    // −constant. Fold into the aggregated knapsack,
                    // normalised by the capacity magnitude (Eq. 30's ε
                    // scaling).
                    let cap_k = -cut.constant;
                    let norm = cap_k.abs().max(1.0);
                    for (&pair, &w) in &cut.coeffs {
                        *w_bar.entry(pair).or_insert(0.0) += w / norm;
                    }
                    cap_bar += cap_k / norm;
                    have_cuts = true;
                } else {
                    // Fallback for pathological aggregation: shed the
                    // least profitable non-forced admitted tenant.
                    // Terminates since the admitted set strictly shrinks.
                    extra_rounds += 1;
                    let victim = assigned
                        .iter()
                        .enumerate()
                        .filter(|(t, c)| c.is_some() && !instance.tenants[*t].must_accept)
                        .max_by(|(ta, ca), (tb, cb)| {
                            let ga = ca.and_then(|c| gammas.get(&(*ta, c))).copied();
                            let gb = cb.and_then(|c| gammas.get(&(*tb, c))).copied();
                            ga.unwrap_or(0.0).total_cmp(&gb.unwrap_or(0.0))
                        })
                        .map(|(t, _)| t);
                    // Only forced tenants remain and they do not fit
                    // strictly, or the shedding ran past every tenant:
                    // lean on the §3.4 relaxation.
                    match victim {
                        Some(t) if extra_rounds <= n_t => banned[t] = true,
                        _ => {
                            stats.lp.absorb(&slave.stats);
                            return finish_with_deficit(instance, &assigned, options, stats);
                        }
                    }
                }
            }
        }
    }
}

/// Finds the admitted, non-forced tenant whose expected risk at its current
/// reservations exceeds its reward by the largest margin (`Σ q(Λ−z) − R`).
fn worst_net_negative(
    instance: &AcrrInstance,
    assigned: &[Option<usize>],
    z: &[f64],
) -> Option<usize> {
    let mut worst: Option<(usize, f64)> = None;
    for (t, cu) in assigned.iter().enumerate() {
        let Some(c) = cu else { continue };
        if instance.tenants[t].must_accept {
            continue;
        }
        let risk: f64 = instance
            .legs
            .iter()
            .enumerate()
            .filter(|(_, l)| l.tenant == t && l.cu == *c)
            .map(|(li, l)| instance.leg_q(l) * (instance.tenants[t].sla_mbps - z[li]))
            .sum();
        let net = risk - instance.tenants[t].reward;
        if net > 1e-9 && worst.is_none_or(|(_, w)| net > w) {
            worst = Some((t, net));
        }
    }
    worst.map(|(t, _)| t)
}

/// Last resort when the strictly-capacitated system cannot even hold the
/// forced slices: price the overflow with the big-M deficit (§3.4), exactly
/// what the orchestrator's relaxed formulation does.
fn finish_with_deficit(
    instance: &AcrrInstance,
    assigned: &[Option<usize>],
    options: &KacOptions,
    mut stats: SolveStats,
) -> Result<Allocation, AcrrError> {
    // Keep only forced tenants; everything optional was already shed.
    let forced: Vec<Option<usize>> = assigned
        .iter()
        .enumerate()
        .map(|(t, c)| {
            if instance.tenants[t].must_accept {
                *c
            } else {
                None
            }
        })
        .collect();
    if instance.deficit_cost.is_none() {
        return Err(AcrrError::Infeasible);
    }
    stats.lp_solves += 1;
    // Fresh context over the *relaxed* instance (the loop's context was
    // strict), under the caller's simplex options like every other vet;
    // keep its pivot counters so `stats.lp` covers every solve.
    let mut relaxed = SlaveContext::new(instance);
    relaxed.set_simplex_options(options.simplex.clone());
    let result = relaxed.solve_for(&forced)?;
    stats.lp.absorb(&relaxed.stats);
    match result {
        SlaveResult::Feasible {
            value, z, deficit, ..
        } => {
            let mut gammas_sum = 0.0;
            for (t, c) in forced.iter().enumerate() {
                if let Some(c) = c {
                    gammas_sum += instance
                        .gamma(t, *c)
                        .ok_or(AcrrError::Internal("forced pair has no gamma"))?;
                }
            }
            let mut reservations = vec![vec![0.0; instance.n_bs]; instance.tenants.len()];
            for (li, leg) in instance.legs.iter().enumerate() {
                if forced[leg.tenant] == Some(leg.cu) {
                    reservations[leg.tenant][leg.bs] = z[li];
                }
            }
            Ok(Allocation {
                objective: gammas_sum + value,
                assigned_cu: forced,
                reservations,
                deficit,
                stats,
            })
        }
        SlaveResult::Infeasible { .. } => Err(AcrrError::Infeasible),
    }
}

/// One FFD pass (Algorithm 2): forced tenants first, then profitable items
/// by benefit per aggregated weight, subject to ≤ 1 CU per tenant and, once
/// rays exist, the aggregated capacity `W̄`.
fn greedy_pack(
    instance: &AcrrInstance,
    gammas: &HashMap<(usize, usize), f64>,
    w_bar: &HashMap<(usize, usize), f64>,
    cap_bar: f64,
    have_cuts: bool,
    banned: &[bool],
) -> Vec<Option<usize>> {
    let _span = ovnes_obs::span!("kac_pack");
    const EPS_W: f64 = 1e-9;
    let n_t = instance.tenants.len();
    let mut assigned: Vec<Option<usize>> = vec![None; n_t];
    let mut budget = cap_bar;

    let weight = |pair: &(usize, usize)| w_bar.get(pair).copied().unwrap_or(0.0);

    // Forced tenants take their cheapest-γ CU unconditionally (constraint
    // (13) outranks the knapsack).
    for (t, ten) in instance.tenants.iter().enumerate() {
        if !ten.must_accept {
            continue;
        }
        let gamma_of = |c: usize| gammas.get(&(t, c)).copied().unwrap_or(f64::INFINITY);
        let best = (0..instance.n_cu)
            .filter(|&c| instance.cu_allowed[t][c])
            .min_by(|&a, &b| gamma_of(a).total_cmp(&gamma_of(b)));
        if let Some(c) = best {
            assigned[t] = Some(c);
            if have_cuts {
                budget -= weight(&(t, c));
            }
        }
    }

    // FFD over all remaining items, best priority ratio first. Note
    // Algorithm 2 has no profitability filter: admission control is done by
    // the (lazily discovered) capacity, with γ only steering the order —
    // risky, low-reward items are packed last and shed first.
    let mut items: Vec<((usize, usize), f64)> = gammas
        .iter()
        .filter(|((t, _), _)| !instance.tenants[*t].must_accept && !banned[*t])
        .map(|(&pair, &g)| {
            let phi = -g / weight(&pair).max(EPS_W);
            (pair, phi)
        })
        .collect();
    // Total order: priority ratio first, then (tenant, CU) — `items` was
    // collected in HashMap order, and a stable sort on φ alone would let
    // that arbitrary order decide ties, making admissions differ from run
    // to run (φ ties are common: same-class tenants share γ and w̄).
    items.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    for ((t, c), _) in items {
        if assigned[t].is_some() {
            continue;
        }
        let w = weight(&(t, c));
        if have_cuts && w > 0.0 && budget - w < 0.0 {
            continue; // does not fit the aggregated knapsack
        }
        assigned[t] = Some(c);
        if have_cuts {
            budget -= w;
        }
    }
    assigned
}
