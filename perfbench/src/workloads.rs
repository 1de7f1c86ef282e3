//! The named workloads: one `ScenarioSpec` recipe each, expanded per seed.
//!
//! Every workload runs the N1 (Romanian) topology at harness scale 0.025
//! (5 base stations) for 168 hourly epochs, and pins branch-and-bound to
//! one worker and round width 8 so the solve path never depends on the
//! environment.

use ovnes::solver::SolverKind;
use ovnes_scenario::{
    ArrivalProcess, ClassMix, DurationModel, FaultPlan, ScenarioSpec, WorkloadSpec,
};
use ovnes_topology::operators::Operator;

/// Epochs per seed (one simulated week of hourly epochs).
pub const HORIZON_EPOCHS: usize = 168;

/// Topology scale: 5 base stations of the N1 network.
pub const SCALE: f64 = 0.025;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long-lived slices: forecasting over long histories dominates.
    SteadyWeek,
    /// Bursty short-lived demand: large AC-RR instances, solve dominates.
    AdmissionStorm,
    /// Benders with cross-epoch carry under infrastructure faults.
    BendersOutage,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SteadyWeek,
        Workload::AdmissionStorm,
        Workload::BendersOutage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyWeek => "steady-week",
            Workload::AdmissionStorm => "admission-storm",
            Workload::BendersOutage => "benders-outage",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeds strung back to back in one run (`--seed S` runs S, S+1, …).
    /// Per-seed work varies by 18–29% (coefficient of variation of step
    /// time over seeds 1–40), so a run averages enough seeds to hold the
    /// spread of its timings across seed sets near 5–8%. A pass then takes
    /// 10–25 s on a 2-core x86-64 machine. `benders-outage` keeps 24: each
    /// further seed raises the chance that a run contains one of the seeds
    /// whose step does not return (see the README).
    pub fn seeds_per_run(self) -> u64 {
        match self {
            Workload::SteadyWeek => 20,
            Workload::AdmissionStorm => 30,
            Workload::BendersOutage => 24,
        }
    }

    /// The scenario for one seed. The seed drives the request stream, the
    /// traffic simulation and (on `benders-outage`) the fault schedule.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let builder = ScenarioSpec::builder(self.name())
            .operator(Operator::Romanian, SCALE)
            .horizon(HORIZON_EPOCHS)
            .threads(1)
            .round_width(8)
            .seed(seed);
        match self {
            Workload::SteadyWeek => builder
                .solver(SolverKind::Kac)
                .reapply_epochs(6)
                .tune_workload(|w| {
                    w.arrivals = ArrivalProcess::Poisson { rate: 0.8 };
                    w.duration = DurationModel {
                        mean_epochs: 48.0,
                        max_epochs: HORIZON_EPOCHS as u32,
                    };
                    w.population.alpha = (0.15, 0.3);
                    w.population.sigma_frac = (0.0, 0.5);
                })
                .build(),
            Workload::AdmissionStorm => builder
                .solver(SolverKind::Kac)
                .reapply_epochs(4)
                .tune_workload(|w| {
                    w.arrivals = ArrivalProcess::Mmpp {
                        base_rate: 5.0,
                        burst_rate: 15.0,
                        p_enter_burst: 0.1,
                        p_exit_burst: 0.4,
                    };
                    w.duration = DurationModel {
                        mean_epochs: 4.0,
                        max_epochs: 96,
                    };
                    w.population.size = 32;
                    w.population.churn_per_epoch = 0.05;
                    w.population.alpha = (0.2, 0.5);
                })
                .build(),
            Workload::BendersOutage => builder
                .solver(SolverKind::Benders)
                .reapply_epochs(6)
                .incremental(true)
                .faults(FaultPlan {
                    seed,
                    ..FaultPlan::default()
                })
                .workload(WorkloadSpec {
                    arrivals: ArrivalProcess::Poisson { rate: 1.2 },
                    mix: ClassMix {
                        urllc: 0.4,
                        mmtc: 0.3,
                        embb: 0.3,
                    },
                    duration: DurationModel {
                        mean_epochs: 6.0,
                        max_epochs: 96,
                    },
                    ..WorkloadSpec::default()
                })
                .build(),
        }
    }
}
