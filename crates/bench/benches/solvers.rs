//! Criterion micro-benchmarks of the AC-RR solvers: Benders decomposition,
//! KAC, the one-shot MILP and the no-overbooking baseline on a fixed
//! medium-size instance, plus the Benders slave LP alone.
//!
//! The `warm_vs_cold` group times the revised-simplex warm-start engine on
//! its two hot paths: the slave re-pricing chain at all four
//! [`SCALES`], and Benders + branch-and-bound at the small and paper
//! scales; plus the randomized LP torture chain. The deterministic counters
//! of the same probes are gated live by the `solver_contracts` test of this
//! crate. End-to-end wall-clock is `perfbench`'s job (`perfbench/README.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use ovnes::solver::slave::solve_slave;
use ovnes::solver::{baseline, benders, kac, oneshot};
use ovnes_bench::probes::{instance_at, slave_chain, slave_chain_cold, slave_chain_warm, SCALES};
use ovnes_lp::revised::gen::{random_bound_edit, random_lp, GenRng, LpGenConfig};
use ovnes_lp::{Basis, LpStats, SimplexOptions};

fn benders_opts(warm: bool) -> benders::BendersOptions {
    benders::BendersOptions {
        warm_start: warm,
        ..benders::BendersOptions::default()
    }
}

/// The randomized LP torture chain shared with the test layers: `cases`
/// random bounded LPs from the common generator, each warm-restarted
/// through `links` bound edits. Returns the accumulated pivot stats.
fn lp_torture_chain(seed: u64, cases: usize, links: usize, cfg: &LpGenConfig) -> LpStats {
    let mut rng = GenRng::new(seed);
    let mut stats = LpStats::default();
    for _ in 0..cases {
        let mut p = random_lp(&mut rng, cfg);
        let mut basis: Option<Basis> = None;
        for _ in 0..links {
            let w = p.solve_warm(basis.as_ref()).expect("torture solve");
            stats.absorb(&w.stats);
            basis = Some(w.basis);
            random_bound_edit(&mut rng, &mut p);
        }
    }
    stats
}

fn bench_solvers(c: &mut Criterion) {
    let inst = instance_at(0.04, 6, true);
    let inst_nov = instance_at(0.04, 6, false);

    c.bench_function("slave_lp_6_tenants", |b| {
        let assigned: Vec<Option<usize>> = vec![Some(0); 6];
        b.iter(|| solve_slave(&inst, &assigned).unwrap())
    });
    c.bench_function("kac_6_tenants", |b| {
        b.iter(|| kac::solve(&inst, &kac::KacOptions::default()).unwrap())
    });
    c.bench_function("benders_6_tenants", |b| {
        b.iter(|| benders::solve(&inst, &benders::BendersOptions::default()).unwrap())
    });
    c.bench_function("oneshot_milp_6_tenants", |b| {
        b.iter(|| oneshot::solve(&inst).unwrap())
    });
    c.bench_function("baseline_6_tenants", |b| {
        b.iter(|| baseline::solve(&inst_nov).unwrap())
    });
}

fn bench_warm_vs_cold(c: &mut Criterion) {
    let options = SimplexOptions::default();
    for (label, scale, tenants) in SCALES {
        let inst = instance_at(scale, tenants, true);
        let seq = slave_chain(label, &inst);
        c.bench_function(&format!("slave_chain_warm_{label}"), |b| {
            b.iter(|| slave_chain_warm(&inst, &seq, &options))
        });
        c.bench_function(&format!("slave_chain_cold_{label}"), |b| {
            b.iter(|| slave_chain_cold(&inst, &seq, &options))
        });
        if label == "small" || label == "paper" {
            c.bench_function(&format!("benders_warm_{label}"), |b| {
                b.iter(|| benders::solve(&inst, &benders_opts(true)).unwrap())
            });
            c.bench_function(&format!("benders_cold_{label}"), |b| {
                b.iter(|| benders::solve(&inst, &benders_opts(false)).unwrap())
            });
        }
    }
    c.bench_function("lp_torture_warm_chains", |b| {
        let cfg = LpGenConfig::torture();
        b.iter(|| lp_torture_chain(0xBE7C_BE7C, 10, 5, &cfg))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solvers, bench_warm_vs_cold
}
criterion_main!(benches);
