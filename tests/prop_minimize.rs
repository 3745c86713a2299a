//! Minimization determinism properties: shrinking is a pure function of
//! the (scenario, configuration, master seed) triple — the same hit
//! shrinks to a byte-identical [`ptest::MinimizedRepro`] no matter how
//! many workers the campaign ran on, the minimized reproducer reports
//! the same bug class as the original hit, and its serialized form
//! replays byte-identically. Exercised over the race scenarios ×
//! {lock-step, random-priority} × {seq-cst, store-buffer}.

use proptest::prelude::*;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::{
    replay_minimized, Campaign, CampaignConfig, CampaignReport, Configured, LearningConfig,
    MemoryModelSpec, Scenario, ScheduleSpec, TrialEngine, TrialScratch,
};

fn minimizing_cfg(workers: usize, master_seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials_per_round: 6,
        rounds: 1,
        workers,
        master_seed,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        minimize_bugs: true,
        ..CampaignConfig::default()
    }
}

fn run(scenario: &dyn Scenario, workers: usize, master_seed: u64) -> CampaignReport {
    Campaign::run(&minimizing_cfg(workers, master_seed), scenario).expect("valid campaign")
}

/// Checks the shrink contract on every reproducer a report carries:
/// strictly shorter patterns, same bug class, byte-identical replay of
/// the serialized reproducer through a fresh engine.
fn check_contract(scenario: &dyn Scenario, report: &CampaignReport) {
    let engine = TrialEngine::new(scenario.base_config()).expect("valid scenario");
    let mut scratch = TrialScratch::new();
    for m in report.rounds.iter().flat_map(|r| &r.minimized) {
        assert!(
            m.repro.minimized_symbols < m.repro.original_symbols,
            "{}/{}: no shrink ({} -> {})",
            m.repro.scenario,
            m.repro.bug_class,
            m.repro.original_symbols,
            m.repro.minimized_symbols,
        );
        assert!(
            m.repro
                .summary
                .bugs
                .iter()
                .any(|b| b.class == m.repro.bug_class),
            "minimized summary lost class {}",
            m.repro.bug_class
        );
        let json = ptest::minimized_repro_to_json(&m.repro).expect("serializable");
        let parsed = ptest::minimized_repro_from_json(&json).expect("parseable");
        assert_eq!(parsed, m.repro, "reproducer JSON round-trip drifted");
        let replay = replay_minimized(&engine, scenario, &parsed, &mut scratch)
            .expect("minimized reproducer replays");
        assert_eq!(
            replay.machine_summary(),
            m.repro.summary,
            "{}/{}: minimized triple did not replay byte-identically",
            m.repro.scenario,
            m.repro.bug_class,
        );
    }
}

/// The full schedule × memory matrix over both schedule-sensitive race
/// scenarios and the store-visibility (weak-memory) race: every cell is
/// worker-count independent, and every reproducer that falls out
/// satisfies the shrink contract. Cells where the combination cannot
/// manifest the race (e.g. lock-step runs of the schedule-sensitive
/// races) legitimately minimize nothing — determinism must hold there
/// too.
#[test]
fn minimizing_matrix_is_worker_count_independent() {
    let order = OrderViolationScenario::buggy();
    let atomicity = AtomicityRaceScenario::buggy();
    let dekker = StoreVisibilityScenario::buggy();
    let scenarios: [&dyn Scenario; 3] = [&order, &atomicity, &dekker];
    let schedules = [ScheduleSpec::LockStep, ScheduleSpec::random_priority()];
    let memories = [MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()];

    let mut minimized_cells = 0usize;
    for scenario in scenarios {
        for schedule in schedules {
            for memory in memories {
                let cell = Configured::adjust(ConfiguredView(scenario), |cfg| {
                    cfg.schedule = schedule;
                    cfg.memory = memory;
                });
                let one = run(&cell, 1, 2009);
                let three = run(&cell, 3, 2009);
                assert_eq!(
                    ptest::campaign_report_to_json(&one).unwrap(),
                    ptest::campaign_report_to_json(&three).unwrap(),
                    "{} under {}/{}: workers leaked into the report",
                    scenario.name(),
                    schedule.label(),
                    memory.label(),
                );
                check_contract(&cell, &one);
                minimized_cells += usize::from(one.rounds.iter().any(|r| !r.minimized.is_empty()));
            }
        }
    }
    assert!(
        minimized_cells >= 3,
        "too few matrix cells produced reproducers ({minimized_cells}): the matrix is vacuous"
    );
}

/// Borrowing adapter so one `&dyn Scenario` can be wrapped by
/// [`Configured`] (which takes ownership) without cloning concrete
/// scenario types.
struct ConfiguredView<'a>(&'a dyn Scenario);

impl Scenario for ConfiguredView<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn base_config(&self) -> ptest::AdaptiveTestConfig {
        self.0.base_config()
    }

    fn setup(&self, sys: &mut ptest::MultiCoreSystem) -> Vec<ptest::ProgramId> {
        self.0.setup(sys)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For random master seeds, a minimizing campaign of the
    /// order-violation race is worker-count independent and every
    /// reproducer satisfies the shrink contract.
    #[test]
    fn minimizing_campaigns_agree_across_worker_counts(master_seed in 0u64..1_000) {
        let scenario = OrderViolationScenario::buggy();
        let one = run(&scenario, 1, master_seed);
        let four = run(&scenario, 4, master_seed);
        prop_assert_eq!(&one, &four);
        check_contract(&scenario, &one);
    }
}
