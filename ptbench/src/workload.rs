//! The three benchmark workloads: which scenarios they run, under which
//! campaign configuration, and how many of the hits they shrink.
//!
//! Every workload has the same two phases, so every end-to-end metric is
//! defined on every workload:
//!
//! 1. **search** — one campaign per scenario ([`Campaign::run`]);
//! 2. **shrink** — [`minimize_scenario_trial`](ptest::minimize_scenario_trial)
//!    over the first hits of each campaign's last round.
//!
//! The workloads differ in where the time goes: `fig1_learn` in a
//! learning multi-round campaign on two workers, `pipeline_explore` in a
//! single sweep of short trials across every exploration axis, and
//! `race_shrink` in shrinking many hits of five race scenarios.

use ptest::campaign::{CampaignConfig, LearningConfig};
use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::faults::multicore::CrossCorePipelineScenario;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::master::{
    ClockSkewConfig, InterruptConfig, MemoryModelSpec, PreemptionSpec, QuantumConfig,
    RandomPriorityConfig, ScheduleSpec,
};
use ptest::Scenario;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's adaptive loop: a four-round learning campaign of the
    /// Fig. 1 livelock on two workers.
    Fig1Learn,
    /// One sweep round of the 3-slave pipeline across every
    /// schedule × memory × preemption combination.
    PipelineExplore,
    /// Shrinking many manifesting hits of five race scenarios.
    RaceShrink,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig1Learn,
        Workload::PipelineExplore,
        Workload::RaceShrink,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Learn => "fig1_learn",
            Workload::PipelineExplore => "pipeline_explore",
            Workload::RaceShrink => "race_shrink",
        }
    }

    /// Whether `trials_per_s` times the search campaigns. `race_shrink`
    /// searches once, untimed, for hits to shrink, and counts the
    /// shrinks' candidate trials instead — each one a full trial.
    #[must_use]
    pub fn search_is_timed(self) -> bool {
        self != Workload::RaceShrink
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one repetition of a workload does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Trials per round of the `fig1_learn` campaign.
    pub fig1_trials: usize,
    /// Rounds of the `fig1_learn` campaign.
    pub fig1_rounds: usize,
    /// Hits of the last `fig1_learn` round that are shrunk.
    pub fig1_hits: usize,
    /// Trials of the `pipeline_explore` sweep.
    pub pipeline_trials: usize,
    /// Hits of the `pipeline_explore` sweep shrunk per combination of
    /// exploration axes.
    pub pipeline_hits: usize,
    /// Trials of each `race_shrink` scan campaign.
    pub race_trials: usize,
    /// Hits of each `race_shrink` scan that are shrunk.
    pub race_hits: usize,
}

impl Size {
    /// The size the benchmark measures.
    pub const FULL: Size = Size {
        fig1_trials: 256,
        fig1_rounds: 4,
        fig1_hits: 64,
        pipeline_trials: 3000,
        pipeline_hits: 8,
        race_trials: 256,
        race_hits: 40,
    };

    /// A few trials of everything, for the benchmark's own tests.
    pub const QUICK: Size = Size {
        fig1_trials: 8,
        fig1_rounds: 2,
        fig1_hits: 2,
        pipeline_trials: 30,
        pipeline_hits: 2,
        race_trials: 12,
        race_hits: 1,
    };
}

/// One search campaign of a workload and how many of its hits to shrink.
pub struct Search {
    /// The scenario under test.
    pub scenario: Box<dyn Scenario>,
    /// The campaign configuration.
    pub config: CampaignConfig,
    /// Hits of the campaign's last round to shrink per rotation lane
    /// (see [`rotation_period`]), in trial order. Taking the same number
    /// from every combination of exploration axes keeps the shrink
    /// metrics from depending on which combinations a seed favours.
    pub hits: usize,
}

/// Trials after which a campaign's spec rotation repeats: the least
/// common multiple of its rotation list lengths. Trial `t` runs in lane
/// `t % rotation_period`.
#[must_use]
pub fn rotation_period(cfg: &CampaignConfig) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    [
        cfg.schedule_budgets.len(),
        cfg.memory_models.len(),
        cfg.preemption_specs.len(),
    ]
    .into_iter()
    .filter(|&n| n > 0)
    .fold(1, |acc, n| acc / gcd(acc, n) * n)
}

/// The searches of `workload` at master seed `seed`.
#[must_use]
pub fn searches(workload: Workload, seed: u64, size: &Size) -> Vec<Search> {
    let no_learning = LearningConfig {
        enabled: false,
        ..LearningConfig::default()
    };
    match workload {
        Workload::Fig1Learn => vec![Search {
            scenario: Box::new(Fig1AdaptiveScenario::default()),
            config: CampaignConfig {
                trials_per_round: size.fig1_trials,
                rounds: size.fig1_rounds,
                workers: 2,
                master_seed: seed,
                ..CampaignConfig::default()
            },
            hits: size.fig1_hits,
        }],
        Workload::PipelineExplore => vec![Search {
            scenario: Box::new(CrossCorePipelineScenario::buggy()),
            config: CampaignConfig {
                trials_per_round: size.pipeline_trials,
                rounds: 1,
                workers: 1,
                master_seed: seed,
                learning: no_learning,
                // Pairwise-coprime list lengths (3, 2, 5): over 30
                // consecutive trials every combination of the three axes
                // occurs once.
                schedule_budgets: pipeline_schedule_budgets(),
                memory_models: vec![MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()],
                preemption_specs: pipeline_preemption_specs(),
                ..CampaignConfig::default()
            },
            hits: size.pipeline_hits,
        }],
        Workload::RaceShrink => {
            let scenarios: Vec<Box<dyn Scenario>> = vec![
                Box::new(OrderViolationScenario::buggy()),
                Box::new(AtomicityRaceScenario::buggy()),
                Box::new(QuantumAtomicityScenario::buggy()),
                Box::new(StoreVisibilityScenario::buggy()),
                Box::new(IsrSharedVarScenario::buggy()),
            ];
            scenarios
                .into_iter()
                .map(|scenario| Search {
                    scenario,
                    config: CampaignConfig {
                        trials_per_round: size.race_trials,
                        rounds: 1,
                        workers: 1,
                        master_seed: seed,
                        learning: no_learning,
                        ..CampaignConfig::default()
                    },
                    hits: size.race_hits,
                })
                .collect()
        }
    }
}

/// The schedule budgets `pipeline_explore` rotates through: no priority
/// change points, the scheduler's default number, and twice that.
pub fn pipeline_schedule_budgets() -> Vec<usize> {
    let default = RandomPriorityConfig::default().change_points;
    vec![0, default, 2 * default]
}

/// The preemption lanes `pipeline_explore` rotates through: inert,
/// quantum, interrupts, clock skew, quantum + interrupts, each with the
/// library's default settings except the interrupt horizon.
///
/// Two thirds of pipeline trials end within 1,000 cycles, so under the
/// default 60,000-cycle horizon interrupts fired in only 30% of the
/// interrupt lane's trials. The horizon is the workload's 10th-percentile
/// trial length instead, and they fire in all of them (`tests/lanes.rs`).
pub fn pipeline_preemption_specs() -> Vec<PreemptionSpec> {
    let quantum = Some(QuantumConfig::default());
    let interrupts = Some(InterruptConfig {
        horizon: 500,
        ..InterruptConfig::default()
    });
    vec![
        PreemptionSpec::default(),
        PreemptionSpec {
            quantum,
            ..PreemptionSpec::default()
        },
        PreemptionSpec {
            interrupts,
            ..PreemptionSpec::default()
        },
        PreemptionSpec {
            clock_skew: Some(ClockSkewConfig::default()),
            ..PreemptionSpec::default()
        },
        PreemptionSpec {
            quantum,
            interrupts,
            ..PreemptionSpec::default()
        },
    ]
}

/// The exploration specs trial `trial` of a campaign runs under — the
/// campaign engine's rotation rule, restated from its documentation on
/// [`CampaignConfig`] because the engine keeps it private.
#[must_use]
pub fn trial_specs(
    cfg: &CampaignConfig,
    base: &ptest::AdaptiveTestConfig,
    trial: usize,
) -> (ScheduleSpec, MemoryModelSpec, PreemptionSpec) {
    let schedule = if cfg.schedule_budgets.is_empty() {
        base.schedule
    } else {
        let rp = match base.schedule {
            ScheduleSpec::RandomPriority(rp) => rp,
            ScheduleSpec::LockStep => RandomPriorityConfig::default(),
        };
        ScheduleSpec::RandomPriority(RandomPriorityConfig {
            change_points: cfg.schedule_budgets[trial % cfg.schedule_budgets.len()],
            ..rp
        })
    };
    let memory = if cfg.memory_models.is_empty() {
        base.memory
    } else {
        cfg.memory_models[trial % cfg.memory_models.len()]
    };
    let preemption = if cfg.preemption_specs.is_empty() {
        base.preemption
    } else {
        cfg.preemption_specs[trial % cfg.preemption_specs.len()]
    };
    (schedule, memory, preemption)
}
