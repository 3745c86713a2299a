//! Case study 1: the 16-task quick-sort stress test and the garbage
//! collection crash. Sixteen active tasks each quick-sort 128 two-byte
//! integers on 512-byte stacks under create/delete churn. With the
//! injected GC defect pCore dies of memory exhaustion; the healthy control
//! survives the same command stream. Smaller heaps crash sooner, rarer
//! leaks later.

use ptest::faults::stress::{StressScenario, StressSpec};
use ptest::pcore::GcFaultMode;
use ptest::AdaptiveTest;

use crate::{bug_table, crash_kind, detect, fmt_mean, Detection, Row, Table, CRASH_CLASSES};

const TRIALS: usize = 6;
const HEADER: &[&str] = &[
    "configuration",
    "crashes",
    "mean commands to detection",
    "mean cycles",
];

/// Runs `TRIALS` trials of `spec` into a row of `table`.
fn measure<'t>(table: &'t mut Table, label: &str, spec: StressSpec) -> (&'t mut Row, Detection) {
    let d = detect(&StressScenario { spec }, TRIALS, 1, CRASH_CLASSES);
    let crashes = format!("{}/{}", d.hits, d.trials);
    let row = table.row(cells![
        label,
        crashes,
        fmt_mean(d.mean_commands),
        d.mean_cycles
    ]);
    (row, d)
}

pub(crate) fn tables() -> Vec<Table> {
    let mut control = Table::new("Case study 1: faulty vs healthy garbage collector", HEADER);
    let (row, d) = measure(&mut control, "faulty GC (paper)", StressSpec::paper(1));
    row.claim("crashes in every trial", d.hits == TRIALS);
    let (row, d) = measure(&mut control, "healthy GC (control)", StressSpec::healthy(1));
    row.claim("never crashes", d.hits == 0);

    let mut heaps = Table::new("heap-size sweep (faulty GC)", HEADER);
    let mut prev = None;
    for kb in [12u32, 16, 24, 32, 48] {
        let spec = StressSpec {
            heap_bytes: kb * 1024,
            ..StressSpec::paper(1)
        };
        let (row, d) = measure(&mut heaps, &format!("{kb} KB heap"), spec);
        if let Some((prev_kb, prev_mean)) = prev {
            let later = matches!((prev_mean, d.mean_commands), (Some(p), Some(m)) if m > p);
            row.claim(format!("crashes later than with {prev_kb} KB"), later);
        }
        prev = Some((kb, d.mean_commands));
    }

    let mut leaks = Table::new("leak-period sweep (24 KB heap)", HEADER);
    let mut prev = None;
    for leak_every in [1u32, 2, 4, 8] {
        let gc_fault = GcFaultMode::LeakDeadBlocks { leak_every };
        let spec = StressSpec {
            gc_fault,
            ..StressSpec::paper(1)
        };
        let (row, d) = measure(&mut leaks, &format!("leak_every = {leak_every}"), spec);
        if let Some((prev_every, prev_mean)) = prev {
            let later = match (prev_mean, d.mean_commands) {
                (Some(p), Some(m)) => m > p,
                (_, None) => true,
                (None, Some(_)) => false,
            };
            row.claim(
                format!("crashes later than leak_every = {prev_every}, or never"),
                later,
            );
        }
        prev = Some((leak_every, d.mean_commands));
    }

    let report = AdaptiveTest::run_scenario(&StressScenario::paper(), 1)
        .expect("the paper's stress configuration is valid");
    let crash = report.bugs.iter().find(|b| crash_kind(&b.kind));
    let first = bug_table("first crash (faulty GC, seed 1)", crash, 5);
    vec![control, heaps, leaks, first]
}
