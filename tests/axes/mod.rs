//! The exploration-axis table shared by the per-axis acceptance tests
//! (`integration_schedule.rs`, `integration_memory.rs`,
//! `integration_preemption.rs`): one row per axis (schedule, memory
//! model, preemption), and one check per pillar that runs on any row.
//!
//! Three pillars hold on every axis:
//!
//! 1. **The control anchor holds.** Lock-step scheduling, sequential
//!    consistency and non-preemptive execution are the historical fast
//!    paths with no exploration machinery at all;
//!    `integration_multicore.rs` pins them against the pre-refactor
//!    golden fixtures byte for byte.
//! 2. **Axis-sensitive bugs become reachable.** Each axis's racy
//!    scenarios are invisible to every pattern seed under the control
//!    spec but detected under their own spec (randomized priorities, a
//!    store buffer, a quantum or interrupt plan), and every detection
//!    replays byte-identically from its recorded seeds.
//! 3. **Campaigns explore the axis.** Per-trial seeds derive from the
//!    master seed, outcomes record the replay quadruple, and per-spec
//!    detection rows land in `RoundReport::axis_detection`.

use ptest::faults::guard_tripped;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
use ptest::faults::weakmem::{IriwScenario, StoreVisibilityScenario};
use ptest::{
    AdaptiveTest, Campaign, CampaignConfig, LearningConfig, MemoryModelSpec, PreemptionSpec,
    RoundReport, Scenario, ScheduleSpec, TestReport, TrialEngine, TrialOverrides, TrialScratch,
};

/// The control spec of an axis, which hides that axis's races.
#[derive(Clone, Copy)]
enum Control {
    Schedule(ScheduleSpec),
    Memory(MemoryModelSpec),
    Preemption(PreemptionSpec),
}

/// One exploration axis and the scenarios that race on it alone.
pub struct Axis {
    /// The axis's name in `RoundReport::axis_detection`.
    name: &'static str,
    control: Control,
    /// Racy scenarios whose own spec on this axis exposes the race.
    buggy: Vec<Box<dyn Scenario>>,
    /// Their properly synchronized variants.
    fixed: Vec<Box<dyn Scenario>>,
    /// `(pattern seeds, axis seeds)` searched for a manifestation.
    grid: (u64, u64),
    /// A two-lane rotation of the axis, and its lanes' labels.
    rotation: CampaignConfig,
    lanes: [&'static str; 2],
    /// Whether the race stays invisible in the rotation's first lane.
    first_lane_clean: bool,
}

fn axes() -> [Axis; 3] {
    [
        Axis {
            name: "schedule",
            control: Control::Schedule(ScheduleSpec::LockStep),
            buggy: vec![
                Box::new(OrderViolationScenario::buggy()),
                Box::new(AtomicityRaceScenario::buggy()),
            ],
            fixed: vec![
                Box::new(OrderViolationScenario::fixed()),
                Box::new(AtomicityRaceScenario::fixed()),
            ],
            grid: (4, 8),
            rotation: CampaignConfig {
                schedule_budgets: vec![0, 3],
                ..CampaignConfig::default()
            },
            lanes: ["random-priority(d=0)", "random-priority(d=3)"],
            first_lane_clean: false,
        },
        Axis {
            name: "memory",
            control: Control::Memory(MemoryModelSpec::SeqCst),
            buggy: vec![
                Box::new(StoreVisibilityScenario::buggy()),
                Box::new(IriwScenario::buggy()),
            ],
            fixed: vec![
                Box::new(StoreVisibilityScenario::fenced()),
                Box::new(IriwScenario::fenced()),
            ],
            grid: (3, 16),
            rotation: CampaignConfig {
                memory_models: vec![MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()],
                ..CampaignConfig::default()
            },
            lanes: ["seq-cst", "store-buffer(d=24)"],
            first_lane_clean: true,
        },
        Axis {
            name: "preemption",
            control: Control::Preemption(PreemptionSpec::default()),
            buggy: vec![
                Box::new(IsrSharedVarScenario::buggy()),
                Box::new(QuantumAtomicityScenario::buggy()),
            ],
            fixed: vec![
                Box::new(IsrSharedVarScenario::fixed()),
                Box::new(QuantumAtomicityScenario::fixed()),
            ],
            grid: (4, 8),
            rotation: CampaignConfig {
                preemption_specs: vec![
                    PreemptionSpec::default(),
                    IsrSharedVarScenario::buggy().base_config().preemption,
                ],
                ..CampaignConfig::default()
            },
            lanes: ["none", "irq(n=12)"],
            first_lane_clean: true,
        },
    ]
}

/// The row of the axis named `name`.
pub fn axis(name: &str) -> Axis {
    axes()
        .into_iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("no axis named {name}"))
}

impl Axis {
    /// Runs one trial of `scenario` at pattern seed `seed` and seed
    /// `axis_seed` on this axis, under the control spec or the
    /// scenario's own.
    fn run(&self, scenario: &dyn Scenario, control: bool, seed: u64, axis_seed: u64) -> TestReport {
        let mut seeds = [seed; 3];
        let mut overrides = TrialOverrides::default();
        match self.control {
            Control::Schedule(spec) => {
                seeds[0] = axis_seed;
                overrides.schedule = control.then_some(spec);
            }
            Control::Memory(spec) => {
                seeds[1] = axis_seed;
                overrides.memory = control.then_some(spec);
            }
            Control::Preemption(spec) => {
                seeds[2] = axis_seed;
                overrides.preemption = control.then_some(spec);
            }
        }
        overrides.irq_seed = Some(seeds[2]);
        let report = TrialEngine::new(scenario.base_config())
            .unwrap()
            .run_scenario_trial_overridden(
                scenario,
                seed,
                seeds[0],
                seeds[1],
                overrides,
                &mut TrialScratch::new(),
            )
            .unwrap();
        assert_eq!(recorded_seeds(&report), seeds.map(Some));
        report
    }

    /// The first `(seed, axis_seed)` of the search grid at which
    /// `scenario` manifests under its own spec.
    fn find_detection(&self, scenario: &dyn Scenario) -> Option<(u64, u64)> {
        let (seeds, axis_seeds) = self.grid;
        (0..seeds)
            .flat_map(|seed| (0..axis_seeds).map(move |axis_seed| (seed, axis_seed)))
            .find(|&(seed, axis_seed)| guard_tripped(&self.run(scenario, false, seed, axis_seed)))
    }

    /// The labels and trial counts of this axis's detection rows.
    fn rows<'r>(&self, round: &'r RoundReport) -> Vec<(&'r str, usize)> {
        round
            .axis_detection
            .iter()
            .filter(|d| d.axis == self.name)
            .map(|d| (d.label.as_str(), d.trials))
            .collect()
    }
}

/// The schedule, memory and irq seeds a report records, as its
/// configuration records them.
fn recorded_seeds(report: &TestReport) -> [Option<u64>; 3] {
    let cfg = &report.config;
    let seeds = [cfg.schedule_seed, cfg.memory_seed, cfg.irq_seed];
    let echoed = [report.schedule_seed, report.memory_seed, report.irq_seed];
    assert_eq!(seeds, echoed.map(Some), "the report echoes its seeds");
    seeds
}

fn one_round(scenario: &dyn Scenario, cfg: CampaignConfig) -> RoundReport {
    let cfg = CampaignConfig {
        rounds: 1,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        ..cfg
    };
    let mut report = Campaign::run(&cfg, scenario).unwrap();
    report.rounds.remove(0)
}

/// The five acceptance checks, each run on one axis's row.
impl Axis {
    /// Every racy scenario is invisible under the control spec, across
    /// pattern and axis seeds, but detected under its own spec, and the
    /// detection replays byte-identically.
    pub fn racy_scenarios_are_control_invisible_but_detected(&self) {
        for scenario in &self.buggy {
            let name = format!("{}/{}", self.name, scenario.name());
            for seed in 0..6 {
                let report = self.run(scenario.as_ref(), true, seed, seed ^ 0x5A5A);
                let summary = report.summary();
                assert!(!guard_tripped(&report), "{name}: seed {seed}: {summary}");
            }
            let (seed, axis_seed) = self
                .find_detection(scenario.as_ref())
                .unwrap_or_else(|| panic!("{name}: no seed pair in the search grid"));
            let first = self.run(scenario.as_ref(), false, seed, axis_seed);
            let again = self.run(scenario.as_ref(), false, seed, axis_seed);
            assert!(guard_tripped(&first), "{name}");
            assert_eq!(first.machine_summary(), again.machine_summary(), "{name}");
        }
    }

    /// The properly synchronized variants stay clean under both the
    /// control spec and their own.
    pub fn fixed_variants_stay_clean_under_both_specs(&self) {
        for scenario in &self.fixed {
            assert!(
                self.find_detection(scenario.as_ref()).is_none(),
                "{}/{}: properly synchronized variant tripped its guard",
                self.name,
                scenario.name()
            );
            let report = self.run(scenario.as_ref(), true, 0, 0);
            assert!(!guard_tripped(&report), "{}", report.summary());
        }
    }

    /// A campaign over a racy scenario detects the bug, records every
    /// trial's replay quadruple, and any bug-finding trial reproduces
    /// from its recorded seeds and `CampaignConfig::trial_specs` alone.
    pub fn campaign_detection_is_replayable_from_recorded_seeds(&self) {
        let scenario = self.buggy[0].as_ref();
        let cfg = CampaignConfig {
            trials_per_round: 12,
            workers: 4,
            master_seed: 2009,
            ..CampaignConfig::default()
        };
        let round = one_round(scenario, cfg.clone());
        assert_eq!(self.rows(&round), [(self.lanes[1], 12)], "{}", self.name);
        let hit = round
            .trials
            .iter()
            .find(|t| !t.summary.bugs.is_empty())
            .unwrap_or_else(|| panic!("{}: no trial detected", self.name));
        let base = scenario.base_config();
        let (schedule, memory, preemption) = cfg.trial_specs(&base, hit.trial);
        let replay = TrialEngine::new(base)
            .unwrap()
            .run_scenario_trial_overridden(
                scenario,
                hit.seed,
                hit.schedule_seed,
                hit.memory_seed,
                TrialOverrides {
                    schedule: Some(schedule),
                    memory: Some(memory),
                    preemption: Some(preemption),
                    irq_seed: Some(hit.irq_seed),
                    ..TrialOverrides::default()
                },
                &mut TrialScratch::new(),
            )
            .unwrap();
        assert_eq!(replay.machine_summary(), hit.summary, "{}", self.name);
    }

    /// A rotation sweeps two specs of the axis within a round and
    /// aggregates detection per spec; the control lane stays clean.
    pub fn rotation_aggregates_detection_per_spec(&self) {
        let round = one_round(
            self.buggy[0].as_ref(),
            CampaignConfig {
                trials_per_round: 16,
                workers: 2,
                master_seed: 7,
                ..self.rotation.clone()
            },
        );
        assert_eq!(self.rows(&round), [(self.lanes[0], 8), (self.lanes[1], 8)]);
        let control_lane = round
            .axis_detection
            .iter()
            .find(|d| d.axis == self.name && d.label == self.lanes[0]);
        if self.first_lane_clean {
            assert_eq!(control_lane.unwrap().trials_with_bugs, 0, "{}", self.name);
        }
    }

    /// Single-seed entry points stay a one-seed story: every axis seed
    /// derives deterministically from the pattern seed, and
    /// reproduction through `AdaptiveTest::reproduce` replays them.
    pub fn reproduce_carries_the_axis_seeds(&self) {
        let derived = [
            ptest::derived_schedule_seed(3),
            ptest::derived_memory_seed(3),
            ptest::derived_irq_seed(3),
        ];
        let scenario = self.buggy.last().unwrap().as_ref();
        let first = AdaptiveTest::run_scenario(scenario, 3).unwrap();
        assert_eq!(recorded_seeds(&first), derived.map(Some), "{}", self.name);
        let again = AdaptiveTest::reproduce(&first, |sys| scenario.setup(sys)).unwrap();
        assert_eq!(first.machine_summary(), again.machine_summary());
        assert_eq!(recorded_seeds(&first), recorded_seeds(&again));
    }
}
