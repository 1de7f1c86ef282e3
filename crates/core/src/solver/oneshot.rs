//! One-shot AC-RR MILP (paper Problem 2) — the exact linearised formulation
//! with admission binaries `u`, reservations `z` and linearisation variables
//! `y = z·x`, solved directly by branch and bound.
//!
//! Exponential in the number of binaries, so this is the *reference oracle*
//! for small instances: tests cross-check Benders and bound KAC against it.

use super::AcrrError;
use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::{Cmp, Problem, VarId};
use ovnes_milp::{Milp, MilpOptions, MilpOutcome};

/// Solves the AC-RR instance as a single MILP (worker count from
/// [`ovnes_milp::default_threads`]).
pub fn solve(instance: &AcrrInstance) -> Result<Allocation, AcrrError> {
    solve_threaded(instance, ovnes_milp::default_threads())
}

/// [`solve`] with an explicit branch-and-bound worker count — the one-shot
/// tree is the deepest in the codebase, so it benefits the most from the
/// parallel node fan-out. Results are deterministic in `threads`.
pub fn solve_threaded(instance: &AcrrInstance, threads: usize) -> Result<Allocation, AcrrError> {
    solve_tuned(instance, threads, ovnes_milp::default_round_width())
}

/// [`solve_threaded`] with the nodes-per-round window also explicit
/// (`None` ⇒ queue-depth adaptive, see
/// [`ovnes_milp::MilpOptions::round_width`]); results are deterministic in
/// `threads` for any fixed `round_width` policy.
pub fn solve_tuned(
    instance: &AcrrInstance,
    threads: usize,
    round_width: Option<usize>,
) -> Result<Allocation, AcrrError> {
    let options = MilpOptions {
        threads: threads.max(1),
        round_width: round_width.map(|w| w.max(1)),
        ..Default::default()
    };
    solve_with(instance, &options)
}

/// [`solve_tuned`] with full [`MilpOptions`] — the budget-aware entry point
/// ([`solve_budgeted`](super::solve_budgeted) folds node/pivot/wall limits
/// and LP fault injection in here). A node- or wall-limited tree returns
/// its best incumbent with `stats.truncated` set.
pub fn solve_with(instance: &AcrrInstance, options: &MilpOptions) -> Result<Allocation, AcrrError> {
    solve_with_incumbent(instance, options, None)
}

/// [`solve_with`] with an optional warm branch-and-bound cutoff: the
/// objective of a known-feasible admission (e.g. last epoch's, re-evaluated
/// against this epoch's instance). The caller must pass a *slightly relaxed*
/// bound — `objective + abs_gap + ε` — because the search prunes nodes at
/// `bound ≥ cutoff − abs_gap` and would otherwise prune the optimum itself.
/// Seeding only changes which nodes are explored, never the returned
/// objective.
pub fn solve_with_incumbent(
    instance: &AcrrInstance,
    options: &MilpOptions,
    incumbent_bound: Option<f64>,
) -> Result<Allocation, AcrrError> {
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }
    let pairs = instance.pairs();
    let n_t = instance.tenants.len();
    let mut p = Problem::new();

    // u_{τ,c} with objective Γ_{τ,c} = Σ_b q·Λ − R.
    let mut u_vars: Vec<((usize, usize), VarId)> = Vec::with_capacity(pairs.len());
    for &(t, c) in &pairs {
        let gamma = instance
            .gamma(t, c)
            .ok_or(AcrrError::Internal("allowed pair has no gamma"))?;
        u_vars.push(((t, c), p.add_var(0.0, 1.0, gamma)));
    }
    let u_of = |t: usize, c: usize| -> Option<VarId> {
        u_vars
            .iter()
            .find(|((ti, ci), _)| *ti == t && *ci == c)
            .map(|(_, v)| *v)
    };

    // z and y per leg; objective −q on y (risk recovered by reservations).
    let z_vars: Vec<VarId> = instance
        .legs
        .iter()
        .map(|_| p.add_var(0.0, f64::INFINITY, 0.0))
        .collect();
    let y_vars: Vec<VarId> = instance
        .legs
        .iter()
        .map(|leg| p.add_var(0.0, f64::INFINITY, -instance.leg_q(leg)))
        .collect();

    let deficit_vars = instance.deficit_cost.map(|m| {
        (
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
        )
    });

    // (5)/(6 reformulated): at most one CU per tenant; exactly one if forced.
    for t in 0..n_t {
        let row: Vec<(VarId, f64)> = u_vars
            .iter()
            .filter(|((ti, _), _)| *ti == t)
            .map(|(_, v)| (*v, 1.0))
            .collect();
        if row.is_empty() {
            continue;
        }
        let cmp = if instance.tenants[t].must_accept {
            Cmp::Eq
        } else {
            Cmp::Le
        };
        p.add_cons(&row, cmp, 1.0);
    }

    // (2/14) CU capacity with baseline cores on u.
    for c in 0..instance.n_cu {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.cu == c {
                let b = instance.tenants[leg.tenant].service.cores_per_mbps;
                if b != 0.0 {
                    row.push((z_vars[li], b));
                }
            }
        }
        for (t, ten) in instance.tenants.iter().enumerate() {
            if ten.service.base_cores != 0.0 {
                if let Some(u) = u_of(t, c) {
                    row.push((u, ten.service.base_cores));
                }
            }
        }
        if let Some((_, _, dc)) = deficit_vars {
            row.push((dc, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.cu_cores[c]);
    }

    // (3/15) Links.
    for (e, &cap) in instance.link_caps.iter().enumerate() {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.links.contains(&e) {
                row.push((z_vars[li], instance.eta_transport));
            }
        }
        if row.is_empty() {
            continue;
        }
        if let Some((_, db, _)) = deficit_vars {
            row.push((db, -1.0));
        }
        p.add_cons(&row, Cmp::Le, cap);
    }

    // (4/16) Radio.
    for b in 0..instance.n_bs {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (li, leg) in instance.legs.iter().enumerate() {
            if leg.bs == b {
                row.push((z_vars[li], 1.0 / instance.mbps_per_mhz[b]));
            }
        }
        if let Some((dr, _, _)) = deficit_vars {
            row.push((dr, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.bs_radio_mhz[b]);
    }

    // (8)-(12) coupling and linearisation per leg.
    for (li, leg) in instance.legs.iter().enumerate() {
        let t = &instance.tenants[leg.tenant];
        let lam = t.sla_mbps;
        let lam_hat = instance.leg_forecast(leg);
        let u = u_of(leg.tenant, leg.cu).ok_or(AcrrError::Internal(
            "leg does not correspond to an allowed pair",
        ))?;
        let (z, y) = (z_vars[li], y_vars[li]);
        p.add_cons(&[(z, 1.0), (u, -lam)], Cmp::Le, 0.0); // (8)  z ≤ Λu
        p.add_cons(&[(z, 1.0), (u, -lam_hat)], Cmp::Ge, 0.0); // (9)  z ≥ λ̂u
        p.add_cons(&[(y, 1.0), (u, -lam)], Cmp::Le, 0.0); // (10) y ≤ Λu
        p.add_cons(&[(y, 1.0), (z, -1.0)], Cmp::Le, 0.0); // (11) y ≤ z
        p.add_cons(&[(z, 1.0), (u, lam), (y, -1.0)], Cmp::Le, lam); // (12)
    }

    let mut milp = Milp::new(p);
    for (_, v) in &u_vars {
        milp.mark_integer(*v);
    }
    milp.set_options(options.clone());
    if let Some(bound) = incumbent_bound {
        milp.set_incumbent_bound(bound);
    }
    let sol = match milp.solve()? {
        MilpOutcome::Optimal(s) => s,
        MilpOutcome::Infeasible => return Err(AcrrError::Infeasible),
        MilpOutcome::Unbounded => {
            return Err(AcrrError::Internal(
                "objective bounded: u, z, y all bounded",
            ))
        }
    };

    let mut assigned: Vec<Option<usize>> = vec![None; n_t];
    for ((t, c), v) in &u_vars {
        if sol.value(*v) > 0.5 {
            assigned[*t] = Some(*c);
        }
    }
    let mut reservations = vec![vec![0.0; instance.n_bs]; n_t];
    for (li, leg) in instance.legs.iter().enumerate() {
        if assigned[leg.tenant] == Some(leg.cu) {
            reservations[leg.tenant][leg.bs] = sol.value(z_vars[li]);
        }
    }
    let deficit = deficit_vars
        .map(|(r, b, c)| (sol.value(r), sol.value(b), sol.value(c)))
        .unwrap_or((0.0, 0.0, 0.0));
    Ok(Allocation {
        objective: sol.objective,
        assigned_cu: assigned,
        reservations,
        deficit,
        stats: SolveStats {
            iterations: 1,
            lp_solves: sol.nodes,
            gap: 0.0,
            truncated: sol.truncated,
            lp: sol.lp_stats,
            recycled_cuts: 0,
            carry_cold_restarts: 0,
            carry_certified: 0,
        },
    })
}
