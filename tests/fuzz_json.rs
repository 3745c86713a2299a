//! The JSON readers take files a user hands them: a reproducer to
//! replay, a campaign archive, a checkpoint to resume from, a report
//! summary. A damaged file must come back as an error, never abort the
//! host. Each reader is fed every truncation and seeded single-byte
//! mutations of a real document of its kind.

use std::panic::{self, AssertUnwindSafe};

use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::pcore::{Op, Program};
use ptest::{AdaptiveTest, AdaptiveTestConfig, Campaign, CampaignConfig, FnScenario, ProgramId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Single-byte mutations tried per document.
const MUTATIONS: usize = 5_000;

fn compute_setup(sys: &mut ptest::MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_of_mut(0)
        .register_program(Program::new(vec![Op::Compute(15), Op::Exit]).expect("valid"))]
}

fn small_config() -> AdaptiveTestConfig {
    AdaptiveTestConfig {
        n: 2,
        s: 4,
        seed: 1,
        ..AdaptiveTestConfig::default()
    }
}

fn small_campaign() -> CampaignConfig {
    CampaignConfig {
        trials_per_round: 3,
        rounds: 2,
        workers: 1,
        ..CampaignConfig::default()
    }
}

/// Every prefix of `doc`, then `MUTATIONS` copies of it with one byte
/// replaced (seeded; a replacement that splits a character reads as
/// U+FFFD).
fn damaged(doc: &str, seed: u64) -> impl Iterator<Item = String> + '_ {
    let truncations = (0..doc.len())
        .filter(|&end| doc.is_char_boundary(end))
        .map(|end| doc[..end].to_owned());
    let mut rng = StdRng::seed_from_u64(seed);
    let mutations = (0..MUTATIONS).map(move |_| {
        let mut bytes = doc.as_bytes().to_vec();
        let at = rng.random_range(0..bytes.len());
        bytes[at] = rng.random::<u8>();
        String::from_utf8_lossy(&bytes).into_owned()
    });
    truncations.chain(mutations)
}

/// Feeds `parse` every damaged copy of `doc` and asserts that none
/// panics.
fn assert_never_panics<T>(doc: &str, seed: u64, parse: fn(&str) -> Result<T, serde_json::Error>) {
    assert!(parse(doc).is_ok(), "the undamaged document parses");
    for input in damaged(doc, seed) {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| parse(&input).is_ok()));
        assert!(outcome.is_ok(), "parsing panicked on:\n{input}");
    }
}

#[test]
fn damaged_summaries_are_errors_not_panics() {
    // A summary with a bug in it: Fig. 1's livelock.
    let report = AdaptiveTest::run_scenario(&Fig1AdaptiveScenario::default(), 1).unwrap();
    assert!(!report.bugs.is_empty());
    let doc = ptest::report_to_json(&report).unwrap();
    assert_never_panics(&doc, 1, ptest::summary_from_json);
}

#[test]
fn damaged_campaign_reports_are_errors_not_panics() {
    let scenario = FnScenario::new("fuzz", small_config(), compute_setup);
    let report = Campaign::run(&small_campaign(), &scenario).unwrap();
    let doc = ptest::campaign_report_to_json(&report).unwrap();
    assert_never_panics(&doc, 2, ptest::campaign_report_from_json);
}

#[test]
fn damaged_checkpoints_are_errors_not_panics() {
    let scenario = FnScenario::new("fuzz", small_config(), compute_setup);
    let checkpoint = Campaign::run_until(&small_campaign(), &scenario, 1).unwrap();
    let doc = ptest::campaign_checkpoint_to_json(&checkpoint).unwrap();
    assert_never_panics(&doc, 3, ptest::campaign_checkpoint_from_json);
}

#[test]
fn damaged_reproducers_are_errors_not_panics() {
    // The fixture concatenates pretty documents; the first ends at the
    // first closing brace in column 0.
    let fixture = include_str!("fixtures/root_causes.txt");
    let end = fixture.find("\n}\n").expect("a whole document") + 2;
    assert_never_panics(&fixture[..end], 4, ptest::minimized_repro_from_json);
}
