//! The benchmark's own tests: every workload runs at quick size and
//! emits exactly the metrics `BENCHMARK.json` names, and the traced copy
//! of the trial loop agrees with `TrialEngine`.

use ptbench::bench::{self, Options};
use ptbench::replay::{engine_trial, trial_input};
use ptbench::traced::{run_traced, LayerTotals};
use ptbench::workload::{rotation_period, searches, Size, Workload};
use ptbench::{END_TO_END, PER_LAYER};
use ptest::master::SnapshotCache;
use ptest::{TrialEngine, TrialScratch};

/// The metric names listed under `section` in `BENCHMARK.json`.
fn declared_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside ptbench/");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
    let body = &json[start..];
    let end = body.find(']').expect("sections are arrays");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().trim_start_matches('"');
            rest[..rest.find('"').expect("quoted name")].to_owned()
        })
        .collect()
}

fn names(table: &[(&str, &str)]) -> Vec<String> {
    table.iter().map(|(name, _)| (*name).to_owned()).collect()
}

#[test]
fn benchmark_json_names_the_emitted_metrics_and_workloads() {
    assert_eq!(declared_names("end_to_end"), names(&END_TO_END));
    assert_eq!(declared_names("per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(declared_names("workloads"), workloads);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn every_workload_emits_every_metric_at_quick_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = bench::run(&Options {
                workload,
                seed: 3,
                seconds: 0.0,
                trace,
                size: Size::QUICK,
            });
            let label = format!("{} trace={trace}", workload.name());
            assert_eq!(result.check.failed, 0, "{label}: {:?}", result.check.errors);
            assert!(result.check.attempted > 0, "{label}");
            let expected = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let emitted: Vec<(&str, &str)> = result.metrics.iter().map(|m| (m.0, m.1)).collect();
            assert_eq!(emitted, expected, "{label}");
            for (name, _, value) in &result.metrics {
                assert!(
                    value.is_finite() && *value >= 0.0,
                    "{label}: {name} = {value}"
                );
                if !trace {
                    assert!(*value > 0.0, "{label}: end-to-end metric {name} is zero");
                }
            }
            assert!(result.fingerprints.contains_key("campaign_reports"));
            assert!(result.fingerprints.contains_key("reproducers"));
            if trace {
                assert!(result.fingerprints.contains_key("system.exec_cycles"));
            }
        }
    }
}

#[test]
fn traced_loop_agrees_with_trial_engine_on_every_scenario() {
    for workload in Workload::ALL {
        for search in searches(workload, 11, &Size::QUICK) {
            let name = search.scenario.name().to_owned();
            let mut engine =
                TrialEngine::new(search.scenario.base_config()).expect("scenario compiles");
            // Two passes through every rotation lane: with idle
            // fast-forward, and cycle by cycle.
            for fast_forward in [true, false] {
                engine.set_fast_forward(fast_forward);
                let mut scratch = TrialScratch::new();
                let mut cache = SnapshotCache::new();
                let mut totals = LayerTotals::default();
                let trials = (2 * rotation_period(&search.config)).max(6);
                for trial in 0..trials {
                    let input = trial_input(&search, 0, trial);
                    let report =
                        engine_trial(&engine, &search, &input, &mut scratch).expect("trial runs");
                    let traced = run_traced(
                        &engine,
                        search.scenario.as_ref(),
                        &input,
                        &mut cache,
                        &mut totals,
                    )
                    .expect("traced trial runs");
                    assert!(
                        traced.agrees_with(&report),
                        "{name} trial {trial} (fast-forward {fast_forward}): traced {:?} vs engine cycles {} commands {} bugs {}",
                        (traced.cycles, traced.commands_issued, traced.bugs.len()),
                        report.cycles,
                        report.commands_issued,
                        report.bugs.len()
                    );
                }
                assert_eq!(totals.trials, trials as u64);
                if !fast_forward {
                    assert_eq!(
                        totals.skipped_cycles, 0,
                        "{name}: skipped with fast-forward off"
                    );
                }
            }
        }
    }
}

#[test]
fn rotation_period_is_the_lcm_of_the_rotation_lists() {
    let pipeline = searches(Workload::PipelineExplore, 1, &Size::QUICK);
    assert_eq!(rotation_period(&pipeline[0].config), 30);
    let fig1 = searches(Workload::Fig1Learn, 1, &Size::QUICK);
    assert_eq!(rotation_period(&fig1[0].config), 1);
}
