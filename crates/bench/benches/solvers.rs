//! Criterion micro-benchmarks of the AC-RR solvers: Benders decomposition,
//! KAC, the one-shot MILP and the no-overbooking baseline on a fixed
//! medium-size instance, plus the Benders slave LP alone.
//!
//! The `warm_vs_cold` group measures the revised-simplex warm-start engine
//! on the two hot paths (Benders + branch-and-bound, and the slave
//! re-pricing chain) at three instance scales, and dumps a machine-readable
//! `BENCH_solvers.json` snapshot — wall-clock medians *and* pivot counts —
//! so subsequent PRs can track the perf trajectory. The snapshot also
//! carries the scenario-engine probes: one preset day end to end
//! (`scenario_day`) and the default named sweep at 1 vs 4 workers with its
//! deterministic fingerprint (`scenario_sweep`).

use criterion::{criterion_group, criterion_main, Criterion};
use ovnes::problem::{AcrrInstance, PathPolicy, TenantInput};
use ovnes::slice::{SliceClass, SliceTemplate};
use ovnes::solver::slave::{solve_slave, SlaveContext};
use ovnes::solver::{baseline, benders, kac, oneshot};
use ovnes_lp::revised::gen::{random_bound_edit, random_lp, GenRng, LpGenConfig};
use ovnes_lp::revised::SparseLu;
use ovnes_lp::{Basis, LpStats};
use ovnes_topology::operators::{GeneratorConfig, NetworkModel, Operator};
use std::time::Instant;

fn instance_at(scale: f64, n_tenants: usize, overbooking: bool) -> AcrrInstance {
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

fn instance(overbooking: bool, n_tenants: usize) -> AcrrInstance {
    instance_at(0.04, n_tenants, overbooking)
}

/// The four benchmark scales: (label, topology scale, tenants).
const SCALES: [(&str, f64, usize); 4] = [
    ("small", 0.02, 3),
    ("paper", 0.04, 6),
    ("10x_paper", 0.12, 20),
    ("100x_paper", 0.4, 60),
];

/// True for the big scales that run snapshot-only (no criterion loops, no
/// full Benders): their cold chains are seconds-to-minutes each.
fn snapshot_only(label: &str) -> bool {
    label == "10x_paper" || label == "100x_paper"
}

/// A **feasible** admission sequence for the big-scale warm-chain probes:
/// start from the KAC heuristic's capacity-vetted admission and drop a
/// rotating admitted tenant per step. Every step is a subset of a feasible
/// admission (fewer legs only relax the reservation LP), so the 10×-paper
/// chain measures real bound-heavy dual-simplex re-solves — consecutive
/// steps re-open one tenant's reservation windows and close another's —
/// instead of the mostly-Farkas proofs the naive rotating sequence produced
/// at that scale.
fn feasible_admission_sequence(inst: &AcrrInstance, steps: usize) -> Vec<Vec<Option<usize>>> {
    let base = kac::solve(inst, &kac::KacOptions::default())
        .expect("KAC on the bench instance")
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

/// Runs the slave re-pricing chain warm (one context) and returns
/// (elapsed seconds, pivot stats).
fn slave_chain_warm(inst: &AcrrInstance, seq: &[Vec<Option<usize>>]) -> (f64, LpStats) {
    let mut ctx = SlaveContext::new(inst);
    let t0 = Instant::now();
    for assigned in seq {
        ctx.solve_for(assigned).expect("slave solve");
    }
    (t0.elapsed().as_secs_f64(), ctx.stats)
}

/// Same chain, cold: a fresh context (and two cold phases) per admission.
fn slave_chain_cold(inst: &AcrrInstance, seq: &[Vec<Option<usize>>]) -> (f64, LpStats) {
    let mut stats = LpStats::default();
    let t0 = Instant::now();
    for assigned in seq {
        let mut ctx = SlaveContext::new(inst);
        ctx.solve_for(assigned).expect("slave solve");
        stats.absorb(&ctx.stats);
    }
    (t0.elapsed().as_secs_f64(), stats)
}

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
    let inst = instance(true, 6);
    let inst_nov = instance(false, 6);

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
    // Criterion loops cover the two smaller scales; the 10×- and 100×-paper
    // scales are measured once by the snapshot below (their cold chains
    // alone are tens of seconds — a multi-sample loop would blow the
    // micro-benchmark budget).
    for (label, scale, tenants) in SCALES {
        if snapshot_only(label) {
            continue;
        }
        let inst = instance_at(scale, tenants, true);
        let seq = admission_sequence(&inst, 16);
        c.bench_function(&format!("slave_chain_warm_{label}"), |b| {
            b.iter(|| slave_chain_warm(&inst, &seq))
        });
        c.bench_function(&format!("slave_chain_cold_{label}"), |b| {
            b.iter(|| slave_chain_cold(&inst, &seq))
        });
        c.bench_function(&format!("benders_warm_{label}"), |b| {
            b.iter(|| benders::solve(&inst, &benders_opts(true)).unwrap())
        });
        c.bench_function(&format!("benders_cold_{label}"), |b| {
            b.iter(|| benders::solve(&inst, &benders_opts(false)).unwrap())
        });
    }
    c.bench_function("lp_torture_warm_chains", |b| {
        let cfg = LpGenConfig::torture();
        b.iter(|| lp_torture_chain(0xBE7C_BE7C, 10, 5, &cfg))
    });
    emit_snapshot();
}

/// One timed + pivot-counted pass per configuration, dumped as JSON for the
/// perf trajectory across PRs.
fn emit_snapshot() {
    let mut entries: Vec<String> = Vec::new();

    for (label, scale, tenants) in SCALES {
        let inst = instance_at(scale, tenants, true);
        let steps = match label {
            "10x_paper" => 8,
            "100x_paper" => 4,
            _ => 16,
        };
        // The big scales run the ROADMAP's feasible chain (bound-heavy
        // re-solves); the smaller scales keep the historical rotating mix
        // (which stays feasible there) for snapshot continuity.
        let seq = if snapshot_only(label) {
            feasible_admission_sequence(&inst, steps)
        } else {
            admission_sequence(&inst, steps)
        };
        let (tw, sw) = slave_chain_warm(&inst, &seq);
        let (tc, sc) = slave_chain_cold(&inst, &seq);
        entries.push(format!(
            concat!(
                "  {{\"bench\": \"slave_chain\", \"scale\": \"{}\", ",
                "\"solves\": {}, \"warm_seconds\": {:.6}, \"cold_seconds\": {:.6}, ",
                "\"warm_pivots\": {}, \"cold_pivots\": {}, ",
                "\"warm_refactorizations\": {}, \"cold_refactorizations\": {}, ",
                "\"warm_factorization_reuses\": {}, ",
                "\"warm_fill_in\": {}, \"cold_fill_in\": {}, ",
                "\"warm_bound_flips\": {}, \"cold_bound_flips\": {}, ",
                "\"warm_pricing_scans\": {}, \"cold_pricing_scans\": {}, ",
                "\"warm_candidate_refreshes\": {}, ",
                "\"warm_eta_compressions\": {}, \"warm_hypersparse_ftrans\": {}, ",
                "\"warm_hypersparse_btrans\": {}, \"warm_pivot_scan_work\": {}, ",
                "\"pivot_reduction\": {:.2}, \"time_speedup\": {:.2}}}"
            ),
            label,
            seq.len(),
            tw,
            tc,
            sw.total_pivots(),
            sc.total_pivots(),
            sw.refactorizations,
            sc.refactorizations,
            sw.factorization_reuses,
            sw.fill_in,
            sc.fill_in,
            sw.bound_flips,
            sc.bound_flips,
            sw.pricing_scans,
            sc.pricing_scans,
            sw.candidate_refreshes,
            sw.eta_compressions,
            sw.hypersparse_ftrans,
            sw.hypersparse_btrans,
            sw.pivot_scan_work,
            sc.total_pivots() as f64 / sw.total_pivots().max(1) as f64,
            tc / tw.max(1e-12),
        ));

        // The acceptance probe for persisted factorizations: one warm
        // pure-RHS re-solve must perform *zero* refactorizations and beat a
        // cold solve of the same admission on wall-clock.
        let mut ctx = SlaveContext::new(&inst);
        ctx.solve_for(&seq[0]).expect("slave solve");
        let before = ctx.stats;
        let t0 = Instant::now();
        ctx.solve_for(&seq[1]).expect("slave re-solve");
        let t_resolve = t0.elapsed().as_secs_f64();
        let after = ctx.stats;
        let mut cold_ctx = SlaveContext::new(&inst);
        let t0 = Instant::now();
        cold_ctx.solve_for(&seq[1]).expect("slave cold solve");
        let t_cold = t0.elapsed().as_secs_f64();
        entries.push(format!(
            concat!(
                "  {{\"bench\": \"slave_resolve\", \"scale\": \"{}\", ",
                "\"resolve_seconds\": {:.6}, \"cold_seconds\": {:.6}, ",
                "\"resolve_refactorizations\": {}, \"resolve_factorization_reuses\": {}, ",
                "\"resolve_pivots\": {}, \"resolve_bound_flips\": {}, ",
                "\"resolve_pricing_scans\": {}, ",
                "\"resolve_eta_compressions\": {}, \"resolve_hypersparse_ftrans\": {}, ",
                "\"cold_pivots\": {}, \"time_speedup\": {:.2}}}"
            ),
            label,
            t_resolve,
            t_cold,
            after.refactorizations - before.refactorizations,
            after.factorization_reuses - before.factorization_reuses,
            after.total_pivots() - before.total_pivots(),
            after.bound_flips - before.bound_flips,
            after.pricing_scans - before.pricing_scans,
            after.eta_compressions - before.eta_compressions,
            after.hypersparse_ftrans - before.hypersparse_ftrans,
            cold_ctx.stats.total_pivots(),
            t_cold / t_resolve.max(1e-12),
        ));

        if !snapshot_only(label) {
            let t0 = Instant::now();
            let aw = benders::solve(&inst, &benders_opts(true)).expect("benders warm");
            let tw = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let ac = benders::solve(&inst, &benders_opts(false)).expect("benders cold");
            let tc = t0.elapsed().as_secs_f64();
            assert!(
                (aw.objective - ac.objective).abs() < 1e-6,
                "warm/cold Benders disagree at {label}: {} vs {}",
                aw.objective,
                ac.objective
            );
            entries.push(format!(
                concat!(
                    "  {{\"bench\": \"benders_bnb\", \"scale\": \"{}\", ",
                    "\"iterations\": {}, \"warm_seconds\": {:.6}, \"cold_seconds\": {:.6}, ",
                    "\"warm_pivots\": {}, \"cold_pivots\": {}, ",
                    "\"warm_refactorizations\": {}, \"cold_refactorizations\": {}, ",
                    "\"warm_factorization_reuses\": {}, ",
                    "\"warm_fill_in\": {}, \"cold_fill_in\": {}, ",
                    "\"warm_bound_flips\": {}, \"cold_bound_flips\": {}, ",
                    "\"warm_pricing_scans\": {}, \"cold_pricing_scans\": {}, ",
                    "\"warm_candidate_refreshes\": {}, ",
                    "\"warm_eta_compressions\": {}, \"warm_hypersparse_ftrans\": {}, ",
                    "\"warm_hits\": {}, \"pivot_reduction\": {:.2}, \"time_speedup\": {:.2}}}"
                ),
                label,
                aw.stats.iterations,
                tw,
                tc,
                aw.stats.lp.total_pivots(),
                ac.stats.lp.total_pivots(),
                aw.stats.lp.refactorizations,
                ac.stats.lp.refactorizations,
                aw.stats.lp.factorization_reuses,
                aw.stats.lp.fill_in,
                ac.stats.lp.fill_in,
                aw.stats.lp.bound_flips,
                ac.stats.lp.bound_flips,
                aw.stats.lp.pricing_scans,
                ac.stats.lp.pricing_scans,
                aw.stats.lp.candidate_refreshes,
                aw.stats.lp.eta_compressions,
                aw.stats.lp.hypersparse_ftrans,
                aw.stats.lp.warm_starts,
                ac.stats.lp.total_pivots() as f64 / aw.stats.lp.total_pivots().max(1) as f64,
                tc / tw.max(1e-12),
            ));
        }

        // The factorization probe: bucketed-Markowitz `factor` vs the
        // retained full-rescan baseline on a basis-shaped matrix whose
        // dimension tracks the instance (legs + CU + radio + link rows —
        // the row count the slave LP's bases live in). The shape is the
        // near-triangular banded-plus-coupling pattern real LP bases have,
        // so elimination cost is small and the probe isolates exactly what
        // the bucketed rewrite removed: the Θ(m²) per-stage pivot rescan.
        {
            let m = inst.legs.len() + inst.n_cu + inst.n_bs + inst.link_caps.len();
            let mut rng = GenRng::new(0x1A0_FAC7 ^ m as u64);
            let mut cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
            for j in 0..m {
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
                cols.push(col);
            }
            let nnz: usize = cols.iter().map(Vec::len).sum();
            let time_min = |f: &dyn Fn() -> SparseLu| {
                (0..3)
                    .map(|_| {
                        let t0 = Instant::now();
                        let lu = f();
                        (t0.elapsed().as_secs_f64(), lu)
                    })
                    .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                    .expect("three factor passes")
            };
            let (t_fast, fast) =
                time_min(&|| SparseLu::factor_cols(m, &cols).expect("nonsingular"));
            let (t_slow, slow) = time_min(&|| {
                SparseLu::factor_rescan(m, |pos, buf| buf.extend_from_slice(&cols[pos]))
                    .expect("nonsingular")
            });
            entries.push(format!(
                concat!(
                    "  {{\"bench\": \"lu_factor\", \"scale\": \"{}\", ",
                    "\"dim\": {}, \"nnz\": {}, \"fill_in\": {}, ",
                    "\"bucketed_seconds\": {:.6}, \"rescan_seconds\": {:.6}, ",
                    "\"bucketed_scan_work\": {}, \"rescan_scan_work\": {}, ",
                    "\"scan_reduction\": {:.2}, \"time_speedup\": {:.2}}}"
                ),
                label,
                m,
                nnz,
                fast.fill_in(),
                t_fast,
                t_slow,
                fast.pivot_scan_work(),
                slow.pivot_scan_work(),
                slow.pivot_scan_work() as f64 / fast.pivot_scan_work().max(1) as f64,
                t_slow / t_fast.max(1e-12),
            ));
        }
    }

    // Serial-vs-parallel branch and bound on the deepest tree in the suite:
    // a 14-tenant one-shot AC-RR MILP (≈130 nodes). The parallel run fans
    // node relaxations across `workers` threads through the deterministic
    // round scheduler, so the objective and admission set must match the
    // serial run bit-for-bit; wall-clock must not regress (on a single-core
    // machine the rounds degenerate to the identical serial work — parity —
    // while multi-core machines see real speedup). Min of 5 passes per
    // mode to keep the committed numbers stable.
    {
        const WORKERS: usize = 4;
        let inst = instance_at(0.04, 14, true);
        // Min-of-5 per mode: the parity gate sits at 1.05x, and on a
        // single-core box scheduler noise alone swings a median past it —
        // the minimum is the standard noise-robust wall-clock statistic.
        let time_min = |threads: usize| {
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    oneshot::solve_threaded(&inst, threads).expect("oneshot");
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let serial = oneshot::solve_threaded(&inst, 1).expect("oneshot serial");
        let parallel = oneshot::solve_threaded(&inst, WORKERS).expect("oneshot parallel");
        let deterministic = serial.objective.to_bits() == parallel.objective.to_bits()
            && serial.assigned_cu == parallel.assigned_cu
            && serial.stats.lp == parallel.stats.lp;
        assert!(
            deterministic,
            "parallel B&B diverged from serial: {} vs {}",
            serial.objective, parallel.objective
        );
        let t_serial = time_min(1);
        let t_parallel = time_min(WORKERS);
        entries.push(format!(
            concat!(
                "  {{\"bench\": \"milp_parallel\", \"scale\": \"paper\", ",
                "\"workers\": {}, \"nodes\": {}, \"deterministic\": {}, ",
                "\"serial_objective\": {:.6}, \"parallel_objective\": {:.6}, ",
                "\"serial_seconds\": {:.6}, \"parallel_seconds\": {:.6}, ",
                "\"speedup\": {:.2}}}"
            ),
            WORKERS,
            serial.stats.lp_solves,
            deterministic,
            serial.objective,
            parallel.objective,
            t_serial,
            t_parallel,
            t_serial / t_parallel.max(1e-12),
        ));
    }

    // Scenario-engine probes: one named preset day end to end
    // (`scenario_day`), and the full default sweep at 1 vs 4 workers with
    // the bit-identical-report guarantee checked and recorded
    // (`scenario_sweep`). Wall-clock columns track the workload engine's
    // perf trajectory; the fingerprint column pins the deterministic
    // observables.
    {
        let spec = ovnes_scenario::presets::fig5(Operator::Romanian);
        let t0 = Instant::now();
        let day = ovnes_scenario::run_scenario(&spec).expect("scenario_day probe");
        let t_day = t0.elapsed().as_secs_f64();
        entries.push(format!(
            concat!(
                "  {{\"bench\": \"scenario_day\", \"scale\": \"paper\", ",
                "\"name\": \"{}\", \"epochs\": {}, \"arrivals\": {}, ",
                "\"accepted\": {}, \"acceptance_ratio\": {:.6}, ",
                "\"violation_rate\": {:.6}, \"net_revenue\": {:.6}, ",
                "\"lp_solves\": {}, \"lp_pivots\": {}, ",
                "\"wall_seconds\": {:.6}}}"
            ),
            day.name,
            day.epochs,
            day.arrivals,
            day.accepted,
            day.acceptance_ratio,
            day.violation_rate,
            day.net_revenue,
            day.lp_solves,
            day.lp_pivots,
            t_day,
        ));

        const SWEEP_WORKERS: usize = 4;
        let specs = ovnes_scenario::presets::default_sweep();
        // Min-of-3 per worker count, for the same reason as the MILP
        // probe above: the parity gate must not trip on scheduler noise.
        let sweep_min = |workers: usize| {
            (0..3)
                .map(|_| ovnes_scenario::run_sweep(&specs, workers).expect("sweep"))
                .min_by(|a, b| a.wall_seconds.partial_cmp(&b.wall_seconds).unwrap())
                .expect("three sweep passes")
        };
        let serial = sweep_min(1);
        let parallel = sweep_min(SWEEP_WORKERS);
        let deterministic = serial.fingerprint() == parallel.fingerprint();
        assert!(
            deterministic,
            "sweep diverged between 1 and {SWEEP_WORKERS} workers"
        );
        entries.push(format!(
            concat!(
                "  {{\"bench\": \"scenario_sweep\", \"scale\": \"paper\", ",
                "\"scenarios\": {}, \"workers\": {}, \"deterministic\": {}, ",
                "\"fingerprint\": \"{:#018x}\", ",
                "\"arrivals\": {}, \"accepted\": {}, \"acceptance_ratio\": {:.6}, ",
                "\"violation_rate\": {:.6}, \"net_revenue\": {:.6}, ",
                "\"lp_solves\": {}, \"lp_pivots\": {}, ",
                "\"serial_seconds\": {:.6}, \"parallel_seconds\": {:.6}, ",
                "\"speedup\": {:.2}}}"
            ),
            serial.scenarios.len(),
            SWEEP_WORKERS,
            deterministic,
            serial.fingerprint(),
            serial.total_arrivals,
            serial.total_accepted,
            serial.acceptance_ratio,
            serial.violation_rate,
            serial.total_net_revenue,
            serial.total_lp_solves,
            serial.total_lp_pivots,
            serial.wall_seconds,
            parallel.wall_seconds,
            serial.wall_seconds / parallel.wall_seconds.max(1e-12),
        ));

        // The chaos probe (`scenario_outage`): the outage-storm preset —
        // scripted edge-CU blackout + background faults under a starved
        // deterministic solve budget — run twice, with the replay
        // fingerprint equality recorded. The snapshot gate asserts the
        // storm actually bites: events applied, epochs degraded, slices
        // evicted with their penalties booked, and the run reproducible.
        let spec = ovnes_scenario::presets::chaos_outage();
        let t0 = Instant::now();
        let storm = ovnes_scenario::run_scenario(&spec).expect("scenario_outage probe");
        let t_storm = t0.elapsed().as_secs_f64();
        let replay = ovnes_scenario::run_scenario(&spec).expect("scenario_outage replay");
        let reproducible = storm.deterministic && storm.fingerprint() == replay.fingerprint();
        assert!(reproducible, "outage storm must replay bit-identically");
        entries.push(format!(
            concat!(
                "  {{\"bench\": \"scenario_outage\", \"scale\": \"paper\", ",
                "\"name\": \"{}\", \"epochs\": {}, \"infra_events\": {}, ",
                "\"degraded_epochs\": {}, \"deferred_epochs\": {}, ",
                "\"evictions\": {}, \"rehomes\": {}, ",
                "\"eviction_penalty\": {:.6}, \"net_revenue\": {:.6}, ",
                "\"deterministic\": {}, \"fingerprint\": \"{:#018x}\", ",
                "\"wall_seconds\": {:.6}}}"
            ),
            storm.name,
            storm.epochs,
            storm.infra_events,
            storm.degraded_epochs,
            storm.deferred_epochs,
            storm.evictions,
            storm.rehomes,
            storm.eviction_penalty,
            storm.net_revenue,
            reproducible,
            storm.fingerprint(),
            t_storm,
        ));
    }

    // The randomized LP torture chain (shared generator with the unit and
    // integration suites): pivot/flip/pricing telemetry for the engine
    // itself, independent of the AC-RR instance shapes.
    let cfg = LpGenConfig::torture();
    let t0 = Instant::now();
    let ts = lp_torture_chain(0xBE7C_BE7C, 40, 5, &cfg);
    let t_torture = t0.elapsed().as_secs_f64();
    entries.push(format!(
        concat!(
            "  {{\"bench\": \"lp_torture\", \"scale\": \"torture\", ",
            "\"seconds\": {:.6}, \"warm_starts\": {}, \"cold_starts\": {}, ",
            "\"pivots\": {}, \"dual_pivots\": {}, \"bound_flips\": {}, ",
            "\"pricing_scans\": {}, \"candidate_refreshes\": {}}}"
        ),
        t_torture,
        ts.warm_starts,
        ts.cold_starts,
        ts.total_pivots(),
        ts.dual_pivots,
        ts.bound_flips,
        ts.pricing_scans,
        ts.candidate_refreshes,
    ));

    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    // Repo root: two levels up from the bench crate manifest.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solvers.json");
    std::fs::write(path, &json).expect("write BENCH_solvers.json");
    println!("snapshot written: BENCH_solvers.json");
    print!("{json}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solvers, bench_warm_vs_cold
}
criterion_main!(benches);
