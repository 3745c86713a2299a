//! The paper's §I comparison, measured: pTest vs the ConTest-style random
//! tester and the CHESS-style systematic explorer on shared scenarios —
//! command legality, the GC crash, and a 2-task AB-BA deadlock plus the
//! systematic explorer's space explosion at paper scale.

use ptest::baselines::{RandomTester, RandomTesterConfig, SystematicConfig, SystematicExplorer};
use ptest::faults::philosophers::philosopher_program;
use ptest::faults::Variant;
use ptest::{
    AdaptiveTest, AdaptiveTestConfig, BugKind, FnScenario, PatternGenerator, Scenario, TestPattern,
};

use crate::{crash_kind, detect, fmt_mean, gc_leak_config, worker_scenario, Table, CRASH_CLASSES};

pub(crate) fn tables() -> Vec<Table> {
    // Long-lived workers, so every command targets a live task: the
    // remaining rejections are pure service-order violations.
    let config = AdaptiveTestConfig {
        n: 3,
        s: 16,
        cyclic_generation: true,
        ..AdaptiveTestConfig::default()
    };
    let server = worker_scenario("long-lived-server", 5_000_000, config);
    let ptest = AdaptiveTest::run_scenario(&server, 8).expect("valid configuration");
    let budget = ptest.commands_issued.max(100);
    let random_cfg = RandomTesterConfig {
        command_budget: budget,
        seed: 8,
        ..RandomTesterConfig::default()
    };
    let random = RandomTester::new(random_cfg)
        .run_scenario(&server)
        .expect("the scenario registers a program");
    let title = "Section I: command legality on a healthy slave (same budget)";
    let header = &["tester", "commands", "ordering errors", "total errors"];
    let mut legality = Table::new(title, header);
    let (commands, ordering) = (ptest.commands_issued, ptest.ordering_errors());
    let tester = "pTest (PFA patterns)";
    let row = legality.row(cells![tester, commands, ordering, ptest.error_replies]);
    row.claim("0 ordering errors", ordering == 0);
    let (commands, ordering) = (random.commands_issued, random.ordering_errors);
    let tester = "random (ConTest-style)";
    let row = legality.row(cells![tester, commands, ordering, random.error_replies]);
    row.claim("> 0 ordering errors", ordering > 0);

    let gc = worker_scenario("gc-crash", 30, gc_leak_config(6 * 1024, 1));
    let d = detect(&gc, 4, 3, CRASH_CLASSES);
    let mut random_cfg = RandomTesterConfig {
        command_budget: 10_000,
        seed: 3,
        max_cycles: 30_000_000,
        ..RandomTesterConfig::default()
    };
    random_cfg.system = gc.base_config().system;
    let random = RandomTester::new(random_cfg)
        .run_scenario(&gc)
        .expect("the scenario registers a program");
    let title = "commands to detect the GC crash (case-study-1 shape)";
    let mut crash = Table::new(title, &["tester", "found", "commands issued"]);
    let found = format!("{}/{} trials", d.hits, d.trials);
    let mean = format!("{} mean", fmt_mean(d.mean_commands));
    let row = crash.row(cells!["pTest (4-trial campaign)", found, mean]);
    row.claim("finds the crash", d.hits > 0);
    let found = random.found(crash_kind);
    let row = crash.row(cells!["random", found, random.commands_issued]);
    row.claim("finds the crash", found);

    let generator = PatternGenerator::pcore_paper().expect("the pCore PFA compiles");
    let alphabet = generator.regex().alphabet().clone();
    let sym = |name| alphabet.sym(name).expect("pCore service");
    let (tc, tch, td) = (sym("TC"), sym("TCH"), sym("TD"));
    let ab_ba = FnScenario::new("ab-ba", AdaptiveTestConfig::default(), |sys| {
        let kernel = sys.kernel_of_mut(0);
        let forks = vec![kernel.create_mutex(), kernel.create_mutex()];
        (0..2)
            .map(|i| kernel.register_program(philosopher_program(i, &forks, Variant::Buggy)))
            .collect::<Vec<_>>()
    });
    let explorer = SystematicExplorer::new(SystematicConfig::default());
    let title = "2-task AB-BA deadlock and the interleaving space";
    let mut systematic = Table::new(title, &["tester", "found", "runs/space", "commands"]);
    let patterns = vec![TestPattern::new(vec![tc, tch, td]); 2];
    let report = explorer.explore_scenario(&patterns, &alphabet, &ab_ba);
    let found = report.found(|k| matches!(k, BugKind::Deadlock { .. }));
    let space = |size: Option<usize>| size.map_or("?".to_owned(), |s| s.to_string());
    let runs = format!("{}/{}", report.runs, space(report.space_size));
    let tester = "systematic (CHESS-style)";
    let row = systematic.row(cells![tester, found, runs, report.total_commands]);
    row.claim("finds the AB-BA deadlock", found);
    // Paper scale: 16 patterns of 8 services.
    let big = vec![TestPattern::new(vec![tc, tch, tch, tch, tch, tch, tch, td]); 16];
    let worker = worker_scenario("worker", 30, AdaptiveTestConfig::default());
    let report = explorer.explore_scenario(&big, &alphabet, &worker);
    let runs = format!("{}/{}", report.runs, space(report.space_size));
    let tester = "systematic @ paper scale (16 × 8)";
    let row = systematic.row(cells![tester, "—", runs, report.total_commands]);
    row.claim("refuses: space > limit (runs = 0)", report.runs == 0);
    vec![legality, crash, systematic]
}
