//! The observability bargain, enforced: spans and histograms may watch
//! the solver, but they must never touch it. With tracing off the
//! journal stays empty; on or off, the scenario fingerprints below are
//! pinned to the exact values the engine produced before `ovnes-obs`
//! existed, at every worker count.
//!
//! If a change legitimately moves these constants (a solver change, not
//! an observability change), update them together with the snapshot in
//! `BENCH_solvers.json` — never from inside an observability PR.

use std::sync::{Mutex, MutexGuard};

use ovnes_scenario::driver::run_scenario;
use ovnes_scenario::presets;

/// Fingerprints (full telemetry + decision-only) for the two pinned
/// presets, identical at 1/2/4 B&B threads. The decision pins predate
/// `ovnes-obs`.
const PINNED: &[(&str, u64, u64)] = &[
    ("fig5-n1", 0x9a4b_b64b_4d5c_ff6e, 0xc5c6_25d5_de9f_6ac3),
    (
        "chaos-outage-n1",
        0xcd3d_d436_f16c_f546,
        0x702b_c576_984d_e831,
    ),
];

/// `ovnes_obs::set_enabled` is process-global, so tests that flip it
/// must not interleave.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_pinned(context: &str) {
    for &(name, fingerprint, decision_fingerprint) in PINNED {
        for threads in [1usize, 2, 4] {
            let mut spec = presets::preset(name).expect("pinned preset exists");
            spec.threads = threads;
            let report = run_scenario(&spec).expect("pinned preset runs");
            assert_eq!(
                report.fingerprint(),
                fingerprint,
                "{name} fingerprint moved ({context}, threads={threads})"
            );
            assert_eq!(
                report.decision_fingerprint(),
                decision_fingerprint,
                "{name} decision fingerprint moved ({context}, threads={threads})"
            );
        }
    }
}

/// With observability off (the default), the pinned scenarios reproduce
/// their pre-obs fingerprints bit for bit AND the tracer records nothing:
/// zero journal bytes past the constant header, zero folded paths, an
/// empty metric registry.
#[test]
fn obs_off_pins_fingerprints_and_writes_zero_journal_bytes() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(false);
    let _ = ovnes_obs::trace::drain();
    let _ = ovnes_obs::metrics::drain_global();

    assert_pinned("obs off");

    let trace = ovnes_obs::trace::drain();
    assert!(trace.is_empty(), "disabled tracer still folded spans");
    assert!(trace.events.is_empty(), "disabled tracer journaled events");
    let mut folded = Vec::new();
    trace.write_folded(&mut folded).expect("write folded");
    assert_eq!(folded.len(), 0, "disabled tracer wrote folded bytes");
    assert!(
        ovnes_obs::metrics::drain_global().is_empty(),
        "disabled registry accumulated metrics"
    );
}

/// The same fingerprints with observability ON: wall-clock capture and
/// span recording must be invisible to the deterministic outputs. This
/// is the wall-clock-never-in-fingerprints invariant, end to end.
#[test]
fn obs_on_leaves_fingerprints_bitwise_identical() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(true);
    let _ = ovnes_obs::trace::drain();

    assert_pinned("obs on");

    // And the runs actually traced: the guard is only meaningful if the
    // instrumented paths executed with recording live.
    let trace = ovnes_obs::trace::drain();
    assert!(
        trace.total_ns("scenario") > 0,
        "obs-on run recorded no scenario spans"
    );
    let _ = ovnes_obs::metrics::drain_global();
    ovnes_obs::set_enabled(false);
}

/// Decision-latency percentiles ride along in every report (the
/// histogram is counter-shaped, so it records whether or not tracing is
/// on) — but they are wall-clock and therefore hash-excluded, which the
/// pinned-fingerprint tests above already prove.
#[test]
fn decision_latency_percentiles_present_in_report() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(false);
    let mut spec = presets::preset("fig5-n1").expect("preset");
    spec.threads = 1;
    let report = run_scenario(&spec).expect("run");
    let [p50, p90, p99, p999] = report.decision_latency_percentiles;
    assert!(p50 > 0.0, "p50 decision latency missing from report");
    assert!(
        p50 <= p90 && p90 <= p99 && p99 <= p999,
        "decision latency percentiles not monotone: {:?}",
        report.decision_latency_percentiles
    );
    assert!(
        report.bs_utilisation.p99 >= report.bs_utilisation.p90,
        "CdfSummary p99 below p90"
    );
}
