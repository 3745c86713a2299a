//! Paper Figure 1: resuming S2 first completes, resuming S1 first lands
//! the second resume inside S1's `a→b` window and both processes yield to
//! each other forever. Sweeps the race window and the master's resume
//! gap, then hunts the same fault with a learning campaign.

use ptest::faults::fig1::{run, Fig1AdaptiveScenario, Fig1Order, Fig1Outcome, Fig1Scenario};

use crate::{adaptive_campaign, round_table, run_campaign, Table};

/// Runs the scenario: the outcome's cell and whether the run completed.
fn outcome(order: Fig1Order, window: u32, resume_gap: u64) -> (String, bool) {
    let scenario = Fig1Scenario {
        order,
        window,
        resume_gap,
        ..Fig1Scenario::default()
    };
    match run(scenario) {
        Fig1Outcome::Completed { cycles } => (format!("completed @{cycles}cy"), true),
        Fig1Outcome::Livelock { tasks } => {
            (format!("LIVELOCK ({} tasks spin)", tasks.len()), false)
        }
    }
}

pub(crate) fn tables() -> Vec<Table> {
    let mut programs = Table::new("Figure 1: the two slave processes", &["S1", "S2"]);
    for (s1, s2) in [
        ("a: x = 1", "f: y = 1"),
        ("b: while (y == 1)", "g: while (x == 1)"),
        ("c: yield();", "h: yield();"),
        ("d: x = 0;", "i: y = 0;"),
        ("e: end;", "j: end;"),
    ] {
        programs.row(cells![s1, s2]);
    }

    let window = Fig1Scenario::default().window;
    let mut orders = Table::new("both master resume orders", &["order", "measured"]);
    let (cell, completed) = outcome(Fig1Order::S2First, window, 0);
    let row = orders.row(cells!["L then K (resume S2 first)", cell]);
    row.claim("completes", completed);
    let (cell, completed) = outcome(Fig1Order::S1First, window, 0);
    let row = orders.row(cells!["K then L (resume S1 first)", cell]);
    row.claim("enters deadlock state", !completed);

    let title = "race-window sweep (K then L, gap = 0)";
    let mut windows = Table::new(title, &["S1 window", "outcome"]);
    for w in [0u32, 2, 4, 8, 16, 32, 64, 128] {
        windows.row(cells![w, outcome(Fig1Order::S1First, w, 0).0]);
    }

    let title = format!("resume-gap sweep (K then L, window = {window})");
    let mut gaps = Table::new(title, &["master gap K->L", "outcome"]);
    for gap in [0u64, 16, 32, 64, 128, 256, 512] {
        let (cell, completed) = outcome(Fig1Order::S1First, window, gap);
        let row = gaps.row(cells![gap, cell]);
        row.claim(
            "livelocks iff gap ≤ window",
            completed == (gap > u64::from(window)),
        );
    }

    let campaign = adaptive_campaign(12, 3, 2009);
    let report = run_campaign(&campaign, &Fig1AdaptiveScenario::default());
    let learning = round_table(
        "adaptive campaign on the Figure 1 scenario (learning on)",
        &report,
        "learning keeps the detection rate ≥ round 0's",
        |first, last| last >= first,
    );
    vec![programs, orders, windows, gaps, learning]
}
