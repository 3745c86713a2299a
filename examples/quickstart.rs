//! Quickstart: run pTest's adaptive testing procedure (Algorithm 1)
//! against a healthy pCore and print the report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ptest::pcore::{Op, Program};
use ptest::{AdaptiveTest, AdaptiveTestConfig, MergeOp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Algorithm 1 inputs: RE (the pCore task life cycle, Eq. 2), the
    // probability distribution (Figure 5), n patterns of size s, and the
    // merge policy `op`.
    let config = AdaptiveTestConfig {
        n: 4,
        s: 10,
        op: MergeOp::cyclic(),
        seed: 2009,
        ..AdaptiveTestConfig::default()
    };

    let report = AdaptiveTest::run(config, |sys| {
        // The slave workload each created task runs: compute long enough
        // to outlive its command lifecycle, then exit.
        let program =
            Program::new(vec![Op::Compute(2_000), Op::Exit]).expect("valid work-model program");
        vec![sys.kernel_of_mut(0).register_program(program)]
    })?;

    println!("== pTest quickstart ==");
    println!("{}", report.summary());
    println!();
    println!("generated patterns:");
    let regex = ptest::Regex::pcore_task_lifecycle();
    for (i, p) in report.patterns.iter().enumerate() {
        println!("  T[{i}] = {}", p.render(regex.alphabet()));
    }
    println!();
    println!(
        "merged pattern ({} steps): {}",
        report.merged.len(),
        report.merged.render(regex.alphabet())
    );
    println!();
    println!(
        "coverage: {:.0}% of DFA transitions, {:.0}% of states",
        report.coverage.transition_coverage() * 100.0,
        report.coverage.state_coverage() * 100.0
    );
    if report.bugs.is_empty() {
        println!("no anomalies detected — pCore handled the pattern.");
    } else {
        for bug in &report.bugs {
            println!("BUG: {bug}");
        }
    }
    Ok(())
}
