//! `perfbench` — the repository benchmark.
//!
//! Runs one named workload through the public epoch loop (set-up, then
//! `Orchestrator::submit`/`step` back to back on one thread), checks every
//! outcome, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer split of a traced pass (`--trace 1`). The last line of
//! standard output is one JSON object; the line before it records the run
//! (seeds, epochs, passes, cores, git revision, decision digest).
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-week --seed 1 --seconds 20 --trace 0
//! ```

mod epoch_loop;
mod heap;
mod layers;
mod stats;
mod workloads;

use epoch_loop::{prepare, run_pass, Pass, SetupTimes};
use stats::{median, quantile, ratio};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Environment variables that change the solve path; the benchmark refuses
/// to run under any of them.
const SOLVE_PATH_VARS: [&str; 4] = [
    "OVNES_MILP_THREADS",
    "OVNES_MILP_ROUND_WIDTH",
    "OVNES_LP_FAULT_SEED",
    "OVNES_LP_REFACTOR_INTERVAL",
];

/// Set-up repetitions whose median is reported as `setup_s`.
const SETUP_REPS: usize = 25;

/// A seed kept out of all tuning; a later claim must also hold on it.
const HELD_OUT_SEED: u64 = 9001;

/// Largest accepted `--seconds`; longer runs would meet `RUN_DEADLINE`.
const MAX_SECONDS: f64 = 150.0;

/// Wall-clock limit of a whole run. A step that never returns fails the
/// run at this point instead of hanging it.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Epochs per seed (the full week unless shortened for tests).
    epochs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut epochs = workloads::HORIZON_EPOCHS;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (0.0..=MAX_SECONDS).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--epochs" => {
                epochs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&e| (1..=workloads::HORIZON_EPOCHS).contains(&e))
                    .ok_or_else(bad)?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        epochs,
    })
}

/// Refuses environments that would change the solve path, or trace an
/// untraced run.
fn check_environment(trace: bool) -> Result<(), String> {
    let set: Vec<&str> = SOLVE_PATH_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {set:?} set: it changes the solve path"
        ));
    }
    if !trace && std::env::var_os("OVNES_OBS").is_some() {
        return Err(
            "refusing to run with OVNES_OBS set: only the traced run (--trace 1) may trace".into(),
        );
    }
    Ok(())
}

/// The commit this checkout was made from, when it is a git work tree.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    read(".git/HEAD")
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Times `SETUP_REPS` set-ups of every seed, without running them.
fn setup_reps(specs: &[ovnes_scenario::ScenarioSpec]) -> Vec<SetupTimes> {
    (0..SETUP_REPS)
        .map(|_| {
            let mut times = SetupTimes::default();
            for spec in specs {
                drop(std::hint::black_box(prepare(spec, &mut times)));
            }
            times
        })
        .collect()
}

/// Untraced passes for `budget`: at least one, and another only while it
/// is expected to end within the budget.
fn timed_passes(specs: &[ovnes_scenario::ScenarioSpec], budget: Duration) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = vec![run_pass(specs)];
    let per_pass = started.elapsed();
    while started.elapsed() + per_pass <= budget {
        passes.push(run_pass(specs));
    }
    passes
}

/// Decisions must not depend on repetition or tracing: every pass must
/// reproduce the first one's digest and quality figures exactly.
fn consistency_failures(passes: &[&Pass]) -> Vec<String> {
    let first = passes[0];
    passes
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, p)| p.digest != first.digest || p.quality != first.quality)
        .map(|(i, p)| {
            format!(
                "pass {i} decided differently: digest {:#018x} vs {:#018x}",
                p.digest, first.digest
            )
        })
        .collect()
}

fn end_to_end(passes: &[Pass], setups: &[SetupTimes]) -> Vec<Metric> {
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_ns() as f64 / 1e9).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.quality.epochs as f64 / (p.loop_ns as f64 / 1e9))
        .collect();
    let step_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.step_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let q = &passes[0].quality;
    vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("epochs_per_s", median(&rates), "1/s"),
        Metric::new("epoch_p50_ms", quantile(&step_ms, 0.50), "ms"),
        Metric::new("epoch_p90_ms", quantile(&step_ms, 0.90), "ms"),
        Metric::new(
            "live_heap_mb",
            passes[0].live_heap_sum / q.epochs.max(1) as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        Metric::new("net_revenue", q.net_revenue, "revenue"),
        Metric::new(
            "acceptance_ratio",
            ratio(q.accepted as f64, q.arrivals as f64),
            "ratio",
        ),
        Metric::new(
            "sla_compliance_rate",
            1.0 - ratio(q.violated_samples as f64, q.samples as f64),
            "ratio",
        ),
        Metric::new(
            "undegraded_epoch_share",
            1.0 - ratio(q.degraded_epochs as f64, q.epochs as f64),
            "ratio",
        ),
    ]
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Fails the run if it is still going at `RUN_DEADLINE`. The thread is
/// never joined: it either fires and exits the process, or dies with it.
fn arm_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        let p = &epoch_loop::PROGRESS;
        eprintln!(
            "perfbench: no result after {} s: seed {} epoch {} did not return",
            RUN_DEADLINE.as_secs(),
            p.seed.load(Ordering::Relaxed),
            p.epoch.load(Ordering::Relaxed),
        );
        let attempted = p.attempted.load(Ordering::Relaxed).max(1);
        println!("{}", result_line(false, attempted, 1, &[]));
        std::process::exit(1);
    });
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_environment(a.trace).map(|()| a)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    ovnes_obs::set_enabled(false);
    arm_watchdog();

    let seeds: Vec<u64> = (0..args.workload.seeds_per_run())
        .map(|i| args.seed.wrapping_add(i))
        .collect();
    let specs: Vec<_> = seeds
        .iter()
        .map(|&s| {
            let mut spec = args.workload.spec(s);
            spec.horizon_epochs = args.epochs;
            spec
        })
        .collect();
    let budget = Duration::from_secs_f64(args.seconds);

    let setups = setup_reps(&specs);
    let (passes, traced, metrics) = if args.trace {
        let untraced = timed_passes(&specs, budget / 2);
        let untraced_loop_ns = median(
            &untraced
                .iter()
                .map(|p| p.loop_ns as f64)
                .collect::<Vec<_>>(),
        );
        drop(ovnes_obs::trace::drain());
        ovnes_obs::set_enabled(true);
        let traced = run_pass(&specs);
        ovnes_obs::set_enabled(false);
        let trace = ovnes_obs::trace::drain();
        let split = layers::SetupSplit::from_reps(&setups);
        let metrics = layers::layer_metrics(&split, &traced, untraced_loop_ns, &trace);
        (untraced, Some(traced), metrics)
    } else {
        let passes = timed_passes(&specs, budget);
        let metrics = end_to_end(&passes, &setups);
        (passes, None, metrics)
    };

    let all: Vec<&Pass> = passes.iter().chain(traced.as_ref()).collect();
    let mut failures: Vec<String> = all.iter().flat_map(|p| p.failures.clone()).collect();
    failures.extend(consistency_failures(&all));
    let attempted: usize = all.iter().map(|p| p.quality.epochs).sum();
    let failed: usize = all.iter().map(|p| p.failed_epochs).sum();
    let correct = failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    for why in &failures {
        eprintln!("perfbench: {why}");
    }

    let step_samples: usize = passes.iter().map(|p| p.step_ns.len()).sum();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "run: {{\"workload\": {}, \"seeds\": {seeds:?}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"epochs_per_pass\": {}, \"passes\": {}, \"traced_passes\": {}, \"step_samples\": {step_samples}, \
         \"setup_reps\": {SETUP_REPS}, \"nproc\": {nproc}, \"git_rev\": {}, \"digest\": \"{:#018x}\", \
         \"summed_overcommit_epochs\": {}}}",
        json_string(args.workload.name()),
        passes[0].quality.epochs,
        passes.len(),
        usize::from(traced.is_some()),
        json_string(&git_rev()),
        passes[0].digest,
        passes[0].summed_overcommit_epochs,
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
