//! Short runs of every workload through the built binary: every metric
//! named in `BENCHMARK.json` is printed with its unit, deterministic
//! figures repeat exactly across runs and across tracing, and a polluted
//! environment is refused.

mod json;

use json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["steady-week", "admission-storm", "benders-outage"];

/// Epochs per seed in these tests: enough to admit, carry and branch.
const EPOCHS: &str = "8";

struct Run {
    record: Json,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }

    fn metrics(&self) -> &BTreeMap<String, Json> {
        self.result
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object")
    }

    fn digest(&self) -> &str {
        self.record
            .get("digest")
            .and_then(Json::as_str)
            .expect("digest in the run record")
    }
}

fn bench(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for var in [
        "OVNES_MILP_THREADS",
        "OVNES_MILP_ROUND_WIDTH",
        "OVNES_LP_FAULT_SEED",
        "OVNES_LP_REFACTOR_INTERVAL",
        "OVNES_OBS",
    ] {
        cmd.env_remove(var);
    }
    cmd.envs(envs.iter().copied());
    cmd.output().expect("spawn perfbench")
}

fn run(workload: &str, trace: &str) -> Run {
    let out = bench(
        &[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--epochs",
            EPOCHS,
        ],
        &[],
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., record, result] = lines[..] else {
        panic!("expected a run record and a result line, got {stdout:?}");
    };
    let record = record.strip_prefix("run: ").expect("run record prefix");
    let run = Run {
        record: Json::parse(record).expect("run record is JSON"),
        result: Json::parse(result).expect("result line is JSON"),
    };
    assert_eq!(
        run.result.get("correct").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(run.result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(run.result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    run
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_prints_exactly(run: &Run, declared: &[(String, String)]) {
    let printed: Vec<(String, String)> = run
        .metrics()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    let mut expected = declared.to_vec();
    expected.sort();
    assert_eq!(printed, expected);
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        assert_prints_exactly(&run(workload, "0"), &end_to_end);
        assert_prints_exactly(&run(workload, "1"), &per_layer);
    }
}

#[test]
fn decisions_repeat_across_runs_and_tracing() {
    const DETERMINISTIC: [&str; 5] = [
        "live_heap_mb",
        "net_revenue",
        "acceptance_ratio",
        "sla_compliance_rate",
        "undegraded_epoch_share",
    ];
    for workload in WORKLOADS {
        let (a, b) = (run(workload, "0"), run(workload, "0"));
        assert_eq!(
            a.digest(),
            b.digest(),
            "{workload}: digest differs between runs"
        );
        for name in DETERMINISTIC {
            assert_eq!(a.metric(name), b.metric(name), "{workload}: {name}");
        }
        let (t, u) = (run(workload, "1"), run(workload, "1"));
        assert_eq!(
            a.digest(),
            t.digest(),
            "{workload}: tracing changed a decision"
        );
        for (name, m) in t.metrics() {
            if m.get("unit").and_then(Json::as_str) == Some("count") {
                assert_eq!(t.metric(name), u.metric(name), "{workload}: count {name}");
            }
        }
    }
}

#[test]
fn only_benders_outage_reaches_branch_and_bound_and_carry() {
    for workload in WORKLOADS {
        let t = run(workload, "1");
        let reached = workload == "benders-outage";
        for name in [
            "milp.nodes",
            "solver.benders_rounds",
            "carry.attempts",
            "carry.recycled_cuts",
        ] {
            assert_eq!(t.metric(name) > 0.0, reached, "{workload}: {name}");
        }
    }
}

#[test]
fn refuses_environments_that_change_the_solve_path() {
    let args = [
        "--workload",
        "steady-week",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--epochs",
        "1",
    ];
    for env in [
        ("OVNES_MILP_THREADS", "2"),
        ("OVNES_MILP_ROUND_WIDTH", "4"),
        ("OVNES_LP_FAULT_SEED", "7"),
        ("OVNES_LP_REFACTOR_INTERVAL", "8"),
        ("OVNES_OBS", "1"),
    ] {
        let out = bench(&args, &[env]);
        assert_eq!(out.status.code(), Some(2), "{env:?} accepted");
        assert!(out.stdout.is_empty(), "{env:?} printed a result");
    }
    let out = bench(&["--workload", "no-such-workload"], &[]);
    assert_eq!(out.status.code(), Some(2));
}
