//! Shared builders for the `exp_*` experiment binaries.
//!
//! Every experiment used to hand-roll the same worker programs, GC-fault
//! configurations, option formatting and seed loops; this library holds
//! the one copy. The binaries are thin: build a scenario, hand it to the
//! campaign engine (parallel seeds, per-round aggregation), print the
//! table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ptest::campaign::RoundReport;
use ptest::pcore::{GcFaultMode, Op, Program};
use ptest::{
    AdaptiveTestConfig, BugKind, Campaign, CampaignConfig, CampaignReport, FnScenario,
    LearningConfig, MultiCoreSystem, ProgramId, Scenario,
};

/// The machine-summary classes of the crash family (case study 1's
/// outcome): the slave died or stopped answering.
pub const CRASH_CLASSES: &[&str] = &["slave_crash", "command_timeout"];

/// Per-class detection metrics of one campaign round: how many trials
/// found a bug of one of `classes`, and the mean commands-to-first-bug
/// over exactly those trials. The round's built-in aggregates count
/// *any* bug class; experiments that claim a specific class (deadlock,
/// crash) must filter with this instead.
#[must_use]
pub fn class_detection(round: &RoundReport, classes: &[&str]) -> (usize, Option<f64>) {
    let mut hits = 0usize;
    let mut commands = 0u64;
    for trial in &round.trials {
        if trial
            .summary
            .bugs
            .iter()
            .any(|b| classes.contains(&b.class.as_str()))
        {
            hits += 1;
            // commands_to_first_bug is Some whenever a trial has bugs.
            commands += trial.commands_to_first_bug.unwrap_or(0);
        }
    }
    let mean = (hits > 0).then(|| commands as f64 / hits as f64);
    (hits, mean)
}

/// Whether a bug kind is in the crash class of case study 1 (the slave
/// died or stopped answering).
#[must_use]
pub fn crash_kind(k: &BugKind) -> bool {
    matches!(
        k,
        BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
    )
}

/// Renders an optional count, `—` when absent.
#[must_use]
pub fn fmt_count(value: Option<u64>) -> String {
    value.map_or("—".to_owned(), |v| v.to_string())
}

/// Renders an optional mean with one decimal, `—` when absent.
#[must_use]
pub fn fmt_mean(value: Option<f64>) -> String {
    value.map_or("—".to_owned(), |v| format!("{v:.1}"))
}

/// Registers one compute-and-exit worker program — the standard healthy
/// slave workload of the experiments.
pub fn register_worker(sys: &mut MultiCoreSystem, work: u32) -> Vec<ProgramId> {
    vec![sys
        .kernel_mut()
        .register_program(Program::new(vec![Op::Compute(work), Op::Exit]).expect("valid"))]
}

/// A named scenario whose slave runs one compute-and-exit worker under
/// the given configuration.
pub fn worker_scenario(
    name: &str,
    work: u32,
    config: AdaptiveTestConfig,
) -> FnScenario<impl Fn(&mut MultiCoreSystem) -> Vec<ProgramId> + Send + Sync> {
    FnScenario::new(name, config, move |sys| register_worker(sys, work))
}

/// The GC-leak adaptive configuration shared by the crash-detection
/// experiments: cyclic churn over a small heap with a leaky collector.
#[must_use]
pub fn gc_leak_config(heap_bytes: u32, leak_every: u32) -> AdaptiveTestConfig {
    let mut cfg = AdaptiveTestConfig {
        n: 4,
        s: 64,
        cyclic_generation: true,
        max_cycles: 30_000_000,
        ..AdaptiveTestConfig::default()
    };
    cfg.system.kernel.heap_bytes = heap_bytes;
    cfg.system.kernel.gc_fault = GcFaultMode::LeakDeadBlocks { leak_every };
    cfg
}

/// A campaign configuration for experiment sweeps: fixed distribution
/// (learning off) so each campaign measures exactly the scenario it was
/// given, trials fanned across the local cores.
#[must_use]
pub fn sweep_campaign(trials: usize, master_seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials_per_round: trials,
        rounds: 1,
        workers: default_workers(),
        master_seed,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        ..CampaignConfig::default()
    }
}

/// A campaign configuration exercising the cross-trial feedback loop.
#[must_use]
pub fn adaptive_campaign(trials: usize, rounds: usize, master_seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials_per_round: trials,
        rounds,
        workers: default_workers(),
        master_seed,
        learning: LearningConfig::default(),
        ..CampaignConfig::default()
    }
}

/// Worker threads for experiment campaigns: the machine's parallelism,
/// capped at 8 (trial counts in the experiments are small).
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(8)
}

/// Runs a campaign, panicking on configuration errors — experiment
/// binaries treat those as programming mistakes, not runtime conditions.
///
/// # Panics
///
/// When the scenario or campaign configuration is invalid.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig, scenario: &dyn Scenario) -> CampaignReport {
    Campaign::run(cfg, scenario).expect("experiment campaign configuration is valid")
}

/// Prints the standard per-round campaign table: detection rate, mean
/// commands to first detection, totals.
pub fn print_round_table(report: &CampaignReport) {
    println!("| round | trials with bugs | detection rate | mean commands to detection | commands | cycles |");
    println!("|---|---|---|---|---|---|");
    for round in &report.rounds {
        println!(
            "| {} | {}/{} | {:.0}% | {} | {} | {} |",
            round.round,
            round.trials_with_bugs,
            round.trials.len(),
            round.detection_rate() * 100.0,
            fmt_mean(round.mean_commands_to_first_bug),
            round.total_commands,
            round.total_cycles,
        );
    }
}

/// Dumps a campaign report as pretty JSON (the archive format) under a
/// heading.
pub fn print_campaign_json(heading: &str, report: &CampaignReport) {
    println!("\n{heading}");
    println!(
        "{}",
        ptest::campaign_report_to_json(report).expect("campaign reports serialize")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_consistent_configs() {
        let cfg = gc_leak_config(6 * 1024, 1);
        assert!(cfg.cyclic_generation);
        assert_eq!(cfg.system.kernel.heap_bytes, 6 * 1024);
        let sweep = sweep_campaign(8, 3);
        assert!(!sweep.learning.enabled);
        assert_eq!(sweep.rounds, 1);
        let adaptive = adaptive_campaign(8, 2, 3);
        assert!(adaptive.learning.enabled);
        assert!(default_workers() >= 1);
        assert_eq!(fmt_count(None), "—");
        assert_eq!(fmt_count(Some(12)), "12");
        assert_eq!(fmt_mean(Some(1.25)), "1.2");
    }

    #[test]
    fn class_detection_filters_by_bug_class() {
        use ptest::faults::philosophers::PhilosophersScenario;
        let report = run_campaign(&sweep_campaign(4, 0), &PhilosophersScenario::buggy());
        let round = &report.rounds[0];
        let (deadlocks, mean) = class_detection(round, &["deadlock"]);
        assert!(deadlocks > 0, "cyclic merge finds the deadlock");
        assert!(mean.is_some());
        let (crashes, crash_mean) = class_detection(round, CRASH_CLASSES);
        assert_eq!(crashes, 0, "philosophers never crash the slave");
        assert!(crash_mean.is_none());
    }

    #[test]
    fn worker_scenario_runs_under_a_campaign() {
        let scenario = worker_scenario(
            "smoke",
            20,
            AdaptiveTestConfig {
                n: 2,
                s: 4,
                ..AdaptiveTestConfig::default()
            },
        );
        let report = run_campaign(&sweep_campaign(2, 1), &scenario);
        assert_eq!(report.total_trials(), 2);
        assert_eq!(report.scenario, "smoke");
    }
}
