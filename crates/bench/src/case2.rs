//! Case study 2: the dining-philosophers deadlock and the influence of
//! the merge policy (`op`). Only the strict-alternation merge lands all
//! three creates inside the philosophers' acquisition window — the
//! paper's "we set the pattern merger … to force cyclic execution
//! sequences"; the fixed lock order never deadlocks under any policy.

use ptest::faults::philosophers::PhilosophersScenario;
use ptest::faults::Variant;
use ptest::{AdaptiveTest, BugKind, Configured, MergeOp};

use crate::{bug_table, detect, fmt_mean, Table};

pub(crate) fn tables() -> Vec<Table> {
    let title = "Case study 2: deadlock detection per merge policy (20-trial campaigns)";
    let header = &[
        "merge op",
        "variant",
        "detection rate",
        "mean commands to detection",
    ];
    let mut policies = Table::new(title, header);
    for (label, op) in [
        ("RoundRobin(1) 'cyclic'", MergeOp::cyclic()),
        ("RoundRobin(3)", MergeOp::RoundRobin { chunk: 3 }),
        ("RandomInterleave", MergeOp::RandomInterleave { seed: 7 }),
        ("Staggered(4)", MergeOp::Staggered { overlap: 4 }),
        ("Sequential", MergeOp::Sequential),
    ] {
        for scenario in [PhilosophersScenario::buggy(), PhilosophersScenario::fixed()] {
            let swept = Configured::adjust(scenario, |cfg| cfg.op = op);
            let d = detect(&swept, 20, 0, &["deadlock"]);
            let variant = format!("{:?}", scenario.variant);
            let row = policies.row(cells![label, variant, d.rate(), fmt_mean(d.mean_commands)]);
            if scenario.variant == Variant::Buggy && op == MergeOp::cyclic() {
                row.claim("detects the deadlock (> 0)", d.hits > 0);
            } else {
                row.claim("never deadlocks (0)", d.hits == 0);
            }
        }
    }

    let deadlock = |seed| {
        let report = AdaptiveTest::run_scenario(&PhilosophersScenario::buggy(), seed)
            .expect("the case-study configuration is valid");
        report
            .bugs
            .into_iter()
            .find(|b| matches!(b.kind, BugKind::Deadlock { .. }))
    };
    let (seed, bug) = (0..10)
        .find_map(|seed| Some((seed, deadlock(seed)?)))
        .unzip();
    let seed = seed.map_or("none in 0..10".to_owned(), |s: u64| s.to_string());
    let title = format!("first deadlock (cyclic merge, seed {seed})");
    vec![policies, bug_table(&title, bug.as_ref(), 0)]
}
