//! Experiment E6 — paper Figure 4 / Definition 2: state recording of
//! concurrent processes.
//!
//! Runs a two-pattern adaptive test, pausing mid-way and at completion to
//! dump the `(qm, qs, TP, SN, δS)` records in the paper's format
//! (`CP1 = (m2, s1, p1->p2->p3, 2, p3)`).
//!
//! ```sh
//! cargo run --release -p ptest-bench --bin exp_fig4
//! ```

use ptest::automata::GenerateOptions;
use ptest::pcore::{Op, Program};
use ptest::{
    Committer, CommitterConfig, MergeOp, MultiCoreSystem, PatternGenerator, PatternMerger,
    SystemConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== E6: Figure 4 — state recording (Definition 2) ==\n");
    let generator = PatternGenerator::pcore_paper()?;
    let alphabet = generator.regex().alphabet().clone();
    let mut rng = StdRng::seed_from_u64(14);
    let patterns = generator.generate_batch(&mut rng, 2, GenerateOptions::sized(5));
    for (i, p) in patterns.iter().enumerate() {
        println!("TP{} = {}", i, p.render(&alphabet));
    }
    let merged = PatternMerger::new().merge(&patterns, MergeOp::cyclic());
    println!("merged = {}\n", merged.render(&alphabet));

    let mut sys = MultiCoreSystem::new(SystemConfig::default());
    let prog = sys
        .kernel_mut()
        .register_program(Program::new(vec![Op::Compute(5_000), Op::Exit])?);
    let mut committer = Committer::new(
        merged,
        &alphabet,
        CommitterConfig {
            programs: vec![prog],
            inter_command_gap: 40,
            ..CommitterConfig::default()
        },
    )?;

    let checkpoints = [120u64, 300, 100_000];
    let mut at = 0u64;
    for cp in checkpoints {
        while at < cp {
            at += 1;
            sys.step();
            if committer.step(&mut sys) != ptest::CommitterStatus::Running {
                break;
            }
        }
        println!(
            "state records at cycle {at} (committer {:?}):",
            committer.status()
        );
        for r in committer.state_records(&sys) {
            println!("  {}", r.render(&alphabet));
        }
        println!();
        if committer.is_finished() {
            break;
        }
    }
    println!("fields per Definition 2: (qm, qs, TP, SN, deltaS)");
    Ok(())
}
