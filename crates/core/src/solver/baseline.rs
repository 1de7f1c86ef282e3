//! The `no-overbooking` baseline (paper §4.3.2).
//!
//! Constraint (9) is flipped to `xΛ ≤ z`, which together with (8) pins
//! `z = Λ·x`: accepted slices get the full SLA reserved. The risk term
//! vanishes (`P ≡ 0`), so the problem collapses to an optimal admission
//! MILP over `u` alone — reservations are substituted into the capacity
//! rows. The paper solves this with its optimal method, making the baseline
//! an upper bound among non-overbooking policies; so do we.

use super::AcrrError;
use crate::problem::{AcrrInstance, Allocation, SolveStats};
use ovnes_lp::{Cmp, Problem, VarId};
use ovnes_milp::{Milp, MilpOptions, MilpOutcome};

/// Solves the no-overbooking admission problem optimally (worker count from
/// [`ovnes_milp::default_threads`]).
///
/// Returns [`AcrrError::Internal`] if the instance was built with
/// `overbooking = true` — the baseline must price full-SLA reservations.
pub fn solve(instance: &AcrrInstance) -> Result<Allocation, AcrrError> {
    solve_threaded(instance, ovnes_milp::default_threads())
}

/// [`solve`] with an explicit branch-and-bound worker count (results are
/// deterministic in it).
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
/// (node/pivot/wall limits and LP fault injection arrive through here). A
/// limited tree returns its best incumbent with `stats.truncated` set.
///
/// An instance built with `overbooking = true` is rejected with
/// [`AcrrError::Internal`]: the baseline must price full-SLA reservations.
pub fn solve_with(instance: &AcrrInstance, options: &MilpOptions) -> Result<Allocation, AcrrError> {
    if instance.overbooking {
        return Err(AcrrError::Internal(
            "baseline requires an instance built with overbooking = false",
        ));
    }
    if !instance.forced_feasible() {
        return Err(AcrrError::ForcedInfeasible);
    }
    let pairs = instance.pairs();
    let n_t = instance.tenants.len();
    let mut p = Problem::new();

    // Objective: −Σ R·u (γ reduces to −R since q = 0 without overbooking).
    let u_vars: Vec<((usize, usize), VarId)> = pairs
        .iter()
        .map(|&(t, c)| ((t, c), p.add_var(0.0, 1.0, -instance.tenants[t].reward)))
        .collect();

    let deficit_vars = instance.deficit_cost.map(|m| {
        (
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
            p.add_var(0.0, f64::INFINITY, m),
        )
    });

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

    // Capacity rows with z = Λ·u substituted.
    // CU: Σ_τ (a_τ + b_τ·Σ_b Λ_τ)·u_{τ,c} ≤ C_c.
    for c in 0..instance.n_cu {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for ((t, ci), v) in &u_vars {
            if *ci != c {
                continue;
            }
            let ten = &instance.tenants[*t];
            let legs = instance.legs_of(*t, c).count() as f64;
            let load = ten.service.base_cores + ten.service.cores_per_mbps * ten.sla_mbps * legs;
            if load != 0.0 {
                row.push((*v, load));
            }
        }
        if let Some((_, _, dc)) = deficit_vars {
            row.push((dc, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.cu_cores[c]);
    }

    // Links: Σ legs crossing e contribute Λ·u of their pair.
    for (e, &cap) in instance.link_caps.iter().enumerate() {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for ((t, c), v) in &u_vars {
            let crossings = instance
                .legs_of(*t, *c)
                .filter(|(_, l)| l.links.contains(&e))
                .count() as f64;
            if crossings > 0.0 {
                row.push((
                    *v,
                    crossings * instance.eta_transport * instance.tenants[*t].sla_mbps,
                ));
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

    // Radio: per BS, Σ_pairs Λ/η_b · u ≤ C_b.
    for b in 0..instance.n_bs {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for ((t, c), v) in &u_vars {
            if instance.legs_of(*t, *c).any(|(_, l)| l.bs == b) {
                row.push((*v, instance.tenants[*t].sla_mbps / instance.mbps_per_mhz[b]));
            }
        }
        if let Some((dr, _, _)) = deficit_vars {
            row.push((dr, -1.0));
        }
        p.add_cons(&row, Cmp::Le, instance.bs_radio_mhz[b]);
    }

    let mut milp = Milp::new(p);
    for (_, v) in &u_vars {
        milp.mark_integer(*v);
    }
    milp.set_options(options.clone());
    let sol = match milp.solve()? {
        MilpOutcome::Optimal(s) => s,
        MilpOutcome::Infeasible => return Err(AcrrError::Infeasible),
        MilpOutcome::Unbounded => return Err(AcrrError::Internal("bounded binaries")),
    };

    let mut assigned: Vec<Option<usize>> = vec![None; n_t];
    for ((t, c), v) in &u_vars {
        if sol.value(*v) > 0.5 {
            assigned[*t] = Some(*c);
        }
    }
    let mut reservations = vec![vec![0.0; instance.n_bs]; n_t];
    for leg in &instance.legs {
        if assigned[leg.tenant] == Some(leg.cu) {
            reservations[leg.tenant][leg.bs] = instance.tenants[leg.tenant].sla_mbps;
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
