//! The paper's future-work question, answered: how does the probability
//! distribution influence test-pattern generation and fault detection?
//! Sweeps distribution skews over the pCore lifecycle PFA, measures the
//! pattern shape and the philosophers' deadlock detection rate under
//! each, then lets cross-trial learning start from the uniform
//! distribution.

use std::cmp::Ordering;

use ptest::automata::GenerateOptions;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::{Configured, PatternGenerator, ProbabilityAssignment, Regex, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{adaptive_campaign, detect, round_table, run_campaign, Table};

const PATTERNS: u32 = 10_000;

fn pd(tch: f64, ts: f64, td: f64, ty: f64) -> ProbabilityAssignment {
    ProbabilityAssignment::weights([
        ("TC", 1.0),
        ("TCH", tch),
        ("TS", ts),
        ("TD", td),
        ("TY", ty),
        ("TR", 1.0),
    ])
}

/// The philosophers' buggy variant under distribution `pd`.
fn philosophers(pd: &ProbabilityAssignment) -> impl Scenario {
    Configured::adjust(PhilosophersScenario::buggy(), |cfg| cfg.pd = pd.clone())
}

pub(crate) fn tables() -> Vec<Table> {
    // Each distribution with the rank its detection rate claims: above
    // (`Greater`) or below (`Less`) every other distribution's.
    let highest = Some((Ordering::Greater, "highest rate"));
    let lowest = Some((Ordering::Less, "lowest rate"));
    let distributions = [
        ("uniform", ProbabilityAssignment::Uniform, None),
        ("paper (Fig 5)", pd(0.6, 0.2, 0.1, 0.1), None),
        ("long-lived (TCH 0.8)", pd(0.8, 0.08, 0.06, 0.06), highest),
        ("churn-heavy (TD 0.45)", pd(0.05, 0.05, 0.45, 0.45), lowest),
        ("suspend-heavy (TS 0.6)", pd(0.2, 0.6, 0.1, 0.1), None),
    ];

    let title = format!("Future work: pattern shape, means over {PATTERNS} sized-16 patterns");
    let mut shape = Table::new(title, &["distribution", "len", "TCH", "TS", "P(end=TD)"]);
    for (label, assignment, _) in &distributions {
        let g = PatternGenerator::new(Regex::pcore_task_lifecycle(), assignment)
            .expect("every swept distribution fits the lifecycle skeleton");
        let name = |s| g.regex().alphabet().name(s);
        let mut rng = StdRng::seed_from_u64(1);
        let (mut len, mut tch, mut ts, mut end_td, mut complete) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for _ in 0..PATTERNS {
            let p = g.generate(&mut rng, GenerateOptions::sized(16));
            len += p.len() as u64;
            for &s in p.symbols() {
                tch += u64::from(name(s) == Some("TCH"));
                ts += u64::from(name(s) == Some("TS"));
            }
            if let Some(&last) = p.symbols().last() {
                if g.dfa().accepts(p.symbols()) {
                    complete += 1;
                    end_td += u64::from(name(last) == Some("TD"));
                }
            }
        }
        let mean = |count: u64| format!("{:.2}", count as f64 / f64::from(PATTERNS));
        let end_td = format!("{:.2}", end_td as f64 / complete.max(1) as f64);
        shape.row(cells![label, mean(len), mean(tch), mean(ts), end_td]);
    }

    let title = "deadlock detection on the philosophers (12-trial campaigns)";
    let mut detection = Table::new(title, &["distribution", "detection rate"]);
    let found: Vec<_> = distributions
        .iter()
        .map(|(_, assignment, _)| detect(&philosophers(assignment), 12, 0, &["deadlock"]))
        .collect();
    let rate = |i: usize| found[i].hits as f64 / found[i].trials as f64;
    for (i, (label, _, rank)) in distributions.iter().enumerate() {
        let row = detection.row(cells![label, found[i].rate()]);
        if let Some((rank, paper)) = *rank {
            let ranked = |j| j == i || rate(i).partial_cmp(&rate(j)) == Some(rank);
            row.claim(paper, (0..found.len()).all(ranked));
        }
    }

    let uniform = philosophers(&ProbabilityAssignment::Uniform);
    let report = run_campaign(&adaptive_campaign(12, 3, 0), &uniform);
    let learning = round_table(
        "cross-trial learning from a uniform start (12 trials/round)",
        &report,
        "learning raises the detection rate above round 0's",
        |first, last| last > first,
    );
    vec![shape, detection, learning]
}
