//! Exploration-axis smoke: on each of the schedule, memory-model and
//! preemption axes, detect a seeded race that the axis's control spec
//! (lock-step, sequential consistency, no interrupts) can never reach,
//! replay it from its recorded seed quadruple, and prove the fixed
//! variant clean.
//!
//! ```sh
//! cargo run --release --example axis_race -- --trials 12 --workers 2 --out axis_reports
//! ```
//!
//! Runs one campaign round per racy scenario under the scenario's own
//! spec: the order violation under PCT-style randomized priorities, the
//! Dekker store-visibility race under a store buffer, and the ISR-vs-task
//! lost update under a seeded interrupt plan. Exits non-zero if a
//! campaign detects nothing, if the first hit does not replay
//! byte-for-byte from its `(seed, schedule_seed, memory_seed, irq_seed)`
//! quadruple and [`CampaignConfig::trial_specs`], or if the fixed variant
//! shows the race's bug class over the same trial budget (the CI smoke
//! criterion). Each
//! campaign archive and replayed report is written under `--out` for
//! upload.

use ptest::faults::races::OrderViolationScenario;
use ptest::faults::timers::IsrSharedVarScenario;
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::{
    Campaign, CampaignConfig, LearningConfig, Scenario, TrialEngine, TrialOverrides, TrialScratch,
};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

fn num(name: &str, default: usize) -> usize {
    arg(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::path::PathBuf::from(arg("--out").unwrap_or_else(|| "axis_reports".into()));
    std::fs::create_dir_all(&out)?;
    let config = CampaignConfig {
        trials_per_round: num("--trials", 12),
        rounds: 1,
        workers: num("--workers", 2),
        master_seed: num("--seed", 2009) as u64,
        learning: LearningConfig {
            enabled: false,
            ..LearningConfig::default()
        },
        ..CampaignConfig::default()
    };
    let races: [(&str, &dyn Scenario, &dyn Scenario); 3] = [
        (
            "schedule",
            &OrderViolationScenario::buggy(),
            &OrderViolationScenario::fixed(),
        ),
        (
            "memory",
            &StoreVisibilityScenario::buggy(),
            &StoreVisibilityScenario::fenced(),
        ),
        (
            "preemption",
            &IsrSharedVarScenario::buggy(),
            &IsrSharedVarScenario::fixed(),
        ),
    ];
    for (axis, scenario, fixed) in races {
        let campaign = Campaign::run(&config, scenario)?;
        let round = &campaign.rounds[0];
        for row in round.axis_detection.iter().filter(|d| d.axis == axis) {
            println!(
                "{axis} {}: {}/{} trials detected ({} bugs)",
                row.label, row.trials_with_bugs, row.trials, row.bugs
            );
        }
        std::fs::write(
            out.join(format!("{axis}_campaign.json")),
            ptest::campaign_report_to_json(&campaign)? + "\n",
        )?;
        let hit = round
            .trials
            .iter()
            .find(|t| !t.summary.bugs.is_empty())
            .ok_or_else(|| format!("{axis}: no trial revealed the race"))?;
        println!(
            "  trial {}: seed={} schedule_seed={} memory_seed={} irq_seed={} -> {}",
            hit.trial,
            hit.seed,
            hit.schedule_seed,
            hit.memory_seed,
            hit.irq_seed,
            hit.summary.bugs[0].detail
        );

        // Replay from the recorded quadruple and the rotation's specs.
        let base = scenario.base_config();
        let (schedule, memory, preemption) = config.trial_specs(&base, hit.trial);
        let replay = TrialEngine::new(base)?.run_scenario_trial_overridden(
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
        )?;
        std::fs::write(
            out.join(format!("{axis}_replay.json")),
            ptest::report_to_json(&replay)? + "\n",
        )?;
        if replay.machine_summary() != hit.summary {
            return Err(format!("{axis}: the recorded quadruple did not replay the trial").into());
        }
        println!("  replayed byte-identically from the recorded seed quadruple");

        // The fixed variant must never show the race's bug class over
        // the same trial budget: detection is the bug's fault, not the
        // harness's.
        let class = &hit.summary.bugs[0].class;
        let control = Campaign::run(&config, fixed)?;
        let dirty = control.rounds[0]
            .trials
            .iter()
            .filter(|t| t.summary.bugs.iter().any(|b| &b.class == class))
            .count();
        if dirty > 0 {
            return Err(format!("{axis}: fixed variant hit {class} in {dirty} trials").into());
        }
        println!(
            "  fixed variant free of {class} across {} trials",
            control.total_trials()
        );
    }
    Ok(())
}
