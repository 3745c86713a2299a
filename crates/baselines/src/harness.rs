//! [`run_merged`] and its knobs: one merged pattern executed on a fresh
//! system by the trial engine's [`CycleLoop`], with a [`Committer`] as
//! its driver. Used by the systematic explorer and by ablation
//! experiments that bypass pattern generation.

use ptest_automata::Alphabet;
use ptest_core::{
    uncaptured_system, Bug, BugKind, Committer, CommitterConfig, CommitterStatus, CycleLoop,
    DetectorConfig, MergedPattern, Scenario,
};
use ptest_master::{MultiCoreSystem, SnapshotCache, SystemConfig};
use ptest_pcore::ProgramId;

/// Knobs of a single merged-pattern run.
#[derive(Debug, Clone)]
pub struct RunKnobs {
    /// System configuration.
    pub system: SystemConfig,
    /// Detector thresholds.
    pub detector: DetectorConfig,
    /// Detector cadence in cycles.
    pub check_interval: u64,
    /// Simulation budget.
    pub max_cycles: u64,
    /// Cycles to keep draining after the pattern completes.
    pub drain_cycles: u64,
    /// Master-side pacing between commands.
    pub inter_command_gap: u64,
    /// Stack size for created tasks.
    pub stack_bytes: Option<u32>,
    /// How long a command may stay unanswered before the committer
    /// declares a timeout.
    pub response_timeout: ptest_soc::Cycles,
}

impl RunKnobs {
    /// Derives run knobs from a scenario's adaptive configuration, so a
    /// baseline executes a scenario under the same environmental
    /// conditions (system, detector, pacing, budgets) the adaptive
    /// tester would.
    #[must_use]
    pub fn from_scenario(scenario: &dyn Scenario) -> RunKnobs {
        let cfg = scenario.base_config();
        RunKnobs {
            system: cfg.system,
            detector: cfg.detector,
            check_interval: cfg.check_interval,
            max_cycles: cfg.max_cycles,
            drain_cycles: cfg.drain_cycles,
            inter_command_gap: cfg.inter_command_gap,
            stack_bytes: cfg.stack_bytes,
            response_timeout: cfg.response_timeout,
        }
    }
}

impl Default for RunKnobs {
    fn default() -> RunKnobs {
        RunKnobs {
            system: SystemConfig::default(),
            detector: DetectorConfig::default(),
            check_interval: 25,
            max_cycles: 1_000_000,
            drain_cycles: 60_000,
            inter_command_gap: 30,
            stack_bytes: None,
            response_timeout: ptest_soc::Cycles::new(50_000),
        }
    }
}

/// Result of one merged-pattern run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Bugs detected.
    pub bugs: Vec<Bug>,
    /// Commands issued.
    pub commands: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Final committer status.
    pub status: CommitterStatus,
}

impl RunOutcome {
    /// Whether a bug matching the predicate was found.
    #[must_use]
    pub fn found<F: Fn(&BugKind) -> bool>(&self, pred: F) -> bool {
        self.bugs.iter().any(|b| pred(&b.kind))
    }
}

/// Executes `merged` on a fresh system: the trial engine's
/// [`CycleLoop`] with a [`Committer`] driving this explicit pattern.
///
/// # Panics
///
/// Panics if the committer rejects the pattern (unknown symbols / no
/// programs) — a caller bug, not a runtime condition.
#[must_use]
pub fn run_merged(
    merged: MergedPattern,
    alphabet: &Alphabet,
    knobs: &RunKnobs,
    setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
) -> RunOutcome {
    run_merged_with(merged, alphabet, knobs, setup, true)
}

/// [`run_merged`] with fast-forward on or off (off is the reference).
pub(crate) fn run_merged_with(
    merged: MergedPattern,
    alphabet: &Alphabet,
    knobs: &RunKnobs,
    setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
    fast_forward: bool,
) -> RunOutcome {
    let mut sys = MultiCoreSystem::new(uncaptured_system(&knobs.system, &knobs.detector));
    let programs = setup(&mut sys);
    let mut committer = Committer::new(
        merged,
        alphabet,
        CommitterConfig {
            programs,
            stack_bytes: knobs.stack_bytes,
            inter_command_gap: knobs.inter_command_gap,
            response_timeout: knobs.response_timeout,
            ..CommitterConfig::default()
        },
    )
    .expect("caller-provided pattern is valid");
    let cycle_loop = CycleLoop {
        detector: knobs.detector,
        check_interval: knobs.check_interval,
        max_cycles: knobs.max_cycles,
        drain_cycles: knobs.drain_cycles,
        fast_forward,
    };
    let (bugs, cycles) = cycle_loop.run(
        &mut sys,
        &mut committer,
        None,
        None,
        &mut SnapshotCache::new(),
    );
    RunOutcome {
        bugs,
        commands: committer.commands_issued(),
        cycles,
        status: committer.status(),
    }
}

/// Executes `merged` on a fresh system prepared by `scenario` — the
/// [`Scenario`]-first face of [`run_merged`], giving the systematic
/// explorer and ablation experiments the same repeatable setup the
/// adaptive engine and campaigns use.
///
/// # Panics
///
/// As for [`run_merged`].
#[must_use]
pub fn run_merged_scenario(
    merged: MergedPattern,
    alphabet: &Alphabet,
    knobs: &RunKnobs,
    scenario: &dyn Scenario,
) -> RunOutcome {
    run_merged(merged, alphabet, knobs, |sys| scenario.setup(sys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_automata::GenerateOptions;
    use ptest_core::{FnScenario, MergeOp, PatternGenerator, PatternMerger};
    use ptest_pcore::{Op, Program};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn healthy_run_completes_without_bugs() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let patterns = g.generate_batch(&mut rng, 2, GenerateOptions::sized(6));
        let merged = PatternMerger::new().merge(&patterns, MergeOp::cyclic());
        let outcome = run_merged(merged, g.regex().alphabet(), &RunKnobs::default(), |sys| {
            vec![sys
                .kernel_of_mut(0)
                .register_program(Program::new(vec![Op::Compute(10), Op::Exit]).unwrap())]
        });
        assert_eq!(outcome.status, CommitterStatus::Done);
        assert!(outcome.bugs.is_empty());
        assert!(outcome.commands > 0);
    }

    #[test]
    fn scenario_run_matches_closure_run() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let patterns = g.generate_batch(&mut rng, 2, GenerateOptions::sized(6));
        let merged = PatternMerger::new().merge(&patterns, MergeOp::cyclic());
        let setup = |sys: &mut MultiCoreSystem| {
            vec![sys
                .kernel_of_mut(0)
                .register_program(Program::new(vec![Op::Compute(10), Op::Exit]).unwrap())]
        };
        let scenario = FnScenario::new("compute", ptest_core::AdaptiveTestConfig::default(), setup);
        let knobs = RunKnobs::from_scenario(&scenario);
        let via_scenario =
            run_merged_scenario(merged.clone(), g.regex().alphabet(), &knobs, &scenario);
        let via_closure = run_merged(merged, g.regex().alphabet(), &knobs, setup);
        assert_eq!(via_scenario.commands, via_closure.commands);
        assert_eq!(via_scenario.cycles, via_closure.cycles);
        assert_eq!(via_scenario.status, via_closure.status);
    }

    #[test]
    fn fast_forward_leaves_merged_runs_unchanged() {
        use ptest_core::TrialEngine;
        use ptest_faults::multicore::CrossCorePipelineScenario;
        use ptest_faults::philosophers::PhilosophersScenario;

        let scenarios: [&dyn Scenario; 2] = [
            &PhilosophersScenario::buggy(),
            &CrossCorePipelineScenario::buggy(),
        ];
        let mut bugs = 0;
        for scenario in scenarios {
            let cfg = scenario.base_config();
            let engine = TrialEngine::new(cfg.clone()).unwrap();
            let g = engine.generator();
            let knobs = RunKnobs::from_scenario(scenario);
            for seed in 0..8 {
                let mut rng = StdRng::seed_from_u64(seed);
                let patterns = g.generate_batch(&mut rng, cfg.n, GenerateOptions::sized(cfg.s));
                let merged = PatternMerger::new().merge(&patterns, cfg.op);
                let run = |fast_forward| {
                    let outcome = run_merged_with(
                        merged.clone(),
                        g.regex().alphabet(),
                        &knobs,
                        |sys| scenario.setup(sys),
                        fast_forward,
                    );
                    format!("{outcome:?}")
                };
                let reference = run(false);
                assert_eq!(run(true), reference, "{} seed {seed}", scenario.name());
                bugs += usize::from(!reference.contains("bugs: []"));
            }
        }
        assert!(bugs > 0, "some run finds a bug");
    }
}
