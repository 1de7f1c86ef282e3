//! The warm-start engine's counter contracts, run live on the probe
//! instances the `solvers` bench times. Every gate reads deterministic
//! counters, never wall-clock. The pivot ceilings are the counts the
//! long-step dual ratio test, dual devex and candidate-list pricing
//! reached: a change that makes the warm path pivot more fails here.
//!
//! Every probe runs under `probes::pinned_options`, so the ambient
//! `OVNES_LP_FAULT_SEED` and `OVNES_LP_REFACTOR_INTERVAL` cannot move
//! its counters: the slave probes take them directly, and Benders takes
//! them as its master's simplex options, whose fault plan and
//! refactorization interval its slave LP inherits.

use ovnes::solver::benders;
use ovnes::solver::slave::SlaveContext;
use ovnes_bench::probes::{
    instance_at, pinned_options, slave_chain, slave_chain_cold, slave_chain_warm, SCALES,
};
use ovnes_lp::revised::gen::GenRng;
use ovnes_lp::revised::SparseLu;

/// Warm slave-chain pivot ceilings, in [`SCALES`] order.
const MAX_CHAIN_PIVOTS: [usize; 4] = [13, 165, 222, 59];

/// Pure-RHS slave re-solve pivot ceilings, in [`SCALES`] order.
const MAX_RESOLVE_PIVOTS: [usize; 4] = [0, 16, 24, 1];

/// Warm Benders pivot ceilings at the small and paper scales.
const MAX_BENDERS_PIVOTS: [usize; 2] = [21, 62];

/// The warm chain pivots no more than its ceiling and than the cold chain,
/// refactorizes less often than cold, and at the big scales folds pivots
/// into the factors (Forrest–Tomlin) and runs hyper-sparse FTRANs.
#[test]
fn warm_slave_chain_beats_cold_at_every_scale() {
    let options = pinned_options();
    for ((label, scale, tenants), max_pivots) in SCALES.into_iter().zip(MAX_CHAIN_PIVOTS) {
        let inst = instance_at(scale, tenants, true);
        let seq = slave_chain(label, &inst);
        let warm = slave_chain_warm(&inst, &seq, &options);
        let cold = slave_chain_cold(&inst, &seq, &options);
        let (wp, cp) = (warm.total_pivots(), cold.total_pivots());
        assert!(
            wp <= max_pivots,
            "{label}: warm chain took {wp} pivots, ceiling {max_pivots}"
        );
        // One pivot of slack per solve: a degenerate-lucky cold start can
        // prove its outcome with zero pivots where the warm re-solve pays
        // one closing pivot.
        assert!(
            wp <= cp + seq.len(),
            "{label}: warm chain took {wp} pivots, cold {cp} over {} solves",
            seq.len()
        );
        assert!(
            warm.refactorizations < cold.refactorizations,
            "{label}: warm chain refactorized {} times, cold {}",
            warm.refactorizations,
            cold.refactorizations
        );
        if matches!(label, "10x_paper" | "100x_paper") {
            assert!(
                warm.eta_compressions > 0,
                "{label}: no Forrest–Tomlin compressions on the warm chain"
            );
            assert!(
                warm.hypersparse_ftrans > 0,
                "{label}: no hyper-sparse FTRANs on the warm chain"
            );
        }
    }
}

/// Re-solving the slave for the next admission changes only its RHS and
/// bounds: the persisted factorization is reused (zero refactorizations),
/// and the long-step dual ratio test flips at least one bound.
#[test]
fn pure_rhs_slave_resolve_reuses_its_factorization() {
    let options = pinned_options();
    for ((label, scale, tenants), max_pivots) in SCALES.into_iter().zip(MAX_RESOLVE_PIVOTS) {
        let inst = instance_at(scale, tenants, true);
        let seq = slave_chain(label, &inst);
        let mut ctx = SlaveContext::new(&inst);
        ctx.set_simplex_options(options.clone());
        ctx.solve_for(&seq[0]).expect("slave solve");
        let before = ctx.stats;
        ctx.solve_for(&seq[1]).expect("slave re-solve");
        let after = ctx.stats;
        let refactorizations = after.refactorizations - before.refactorizations;
        let reuses = after.factorization_reuses - before.factorization_reuses;
        let flips = after.bound_flips - before.bound_flips;
        let pivots = after.total_pivots() - before.total_pivots();
        let cold = slave_chain_cold(&inst, &seq[1..2], &options).total_pivots();
        assert_eq!(refactorizations, 0, "{label}: re-solve refactorized");
        assert!(reuses >= 1, "{label}: re-solve reused no factorization");
        assert!(flips >= 1, "{label}: re-solve flipped no bound");
        assert!(
            pivots <= max_pivots,
            "{label}: re-solve took {pivots} pivots, ceiling {max_pivots}"
        );
        assert!(
            pivots <= cold + 1,
            "{label}: re-solve took {pivots} pivots, cold solve {cold}"
        );
    }
}

/// Warm and cold Benders reach the same objective, warm in fewer pivots.
#[test]
fn warm_benders_matches_cold_in_fewer_pivots() {
    for ((label, scale, tenants), max_pivots) in SCALES.into_iter().zip(MAX_BENDERS_PIVOTS) {
        let inst = instance_at(scale, tenants, true);
        let solve = |warm_start| {
            let mut options = benders::BendersOptions {
                warm_start,
                ..benders::BendersOptions::default()
            };
            options.milp.simplex = pinned_options();
            benders::solve(&inst, &options).expect("Benders solve")
        };
        let (warm, cold) = (solve(true), solve(false));
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "{label}: warm objective {} vs cold {}",
            warm.objective,
            cold.objective
        );
        let (wp, cp) = (warm.stats.lp.total_pivots(), cold.stats.lp.total_pivots());
        assert!(
            wp <= max_pivots,
            "{label}: warm Benders took {wp} pivots, ceiling {max_pivots}"
        );
        assert!(
            wp <= cp,
            "{label}: warm Benders took {wp} pivots, cold {cp}"
        );
    }
}

/// A basis-shaped matrix of dimension `m`: a diagonal, two sub-diagonal
/// bands and sparse long-range coupling — the near-triangular pattern
/// real LP bases have, so elimination is cheap and the pivot search
/// dominates.
fn banded_basis(m: usize) -> Vec<Vec<(u32, f64)>> {
    let mut rng = GenRng::new(0x1A0_FAC7 ^ m as u64);
    (0..m)
        .map(|j| {
            let mut col = vec![(j as u32, 4.0 + rng.next_f64())];
            for d in 1..=2usize {
                if j >= d && rng.chance(0.6) {
                    col.push(((j - d) as u32, rng.uniform(-1.0, 1.0)));
                }
            }
            if rng.chance(0.02) {
                let i = rng.index(m);
                if i != j {
                    col.push((i as u32, rng.uniform(-1.0, 1.0)));
                }
            }
            col.sort_by_key(|&(i, _)| i);
            col.dedup_by_key(|&mut (i, _)| i);
            col
        })
        .collect()
}

/// Bucketed Markowitz selection inspects fewer pivot candidates than the
/// full-rescan baseline on a basis the size of each probe's slave LP
/// (legs + CU + radio + link rows). The 100x-paper scale is left out: its
/// rescan alone is tens of millions of inspections.
#[test]
fn bucketed_lu_scans_less_than_rescan() {
    for (label, scale, tenants) in SCALES.into_iter().take(3) {
        let inst = instance_at(scale, tenants, true);
        let m = inst.legs.len() + inst.n_cu + inst.n_bs + inst.link_caps.len();
        let cols = banded_basis(m);
        let bucketed = SparseLu::factor_cols(m, &cols).expect("nonsingular");
        let rescan = SparseLu::factor_rescan(m, |pos, buf| buf.extend_from_slice(&cols[pos]))
            .expect("nonsingular");
        assert!(
            bucketed.pivot_scan_work() < rescan.pivot_scan_work(),
            "{label}: bucketed scan work {} vs rescan {}",
            bucketed.pivot_scan_work(),
            rescan.pivot_scan_work()
        );
    }
}
