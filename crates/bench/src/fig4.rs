//! Paper Figure 4 and Definition 2: the state records of concurrent
//! processes. Runs a two-pattern test, pausing mid-way and at completion
//! to dump the `(qm, qs, TP, SN, δS)` records in the paper's format
//! (`CP1 = (m2, s1, p1->p2->p3, 2, p3)`).

use ptest::automata::GenerateOptions;
use ptest::pcore::{Op, Program};
use ptest::{
    Committer, CommitterConfig, CommitterStatus, MergeOp, MultiCoreSystem, PatternGenerator,
    PatternMerger, SystemConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Table;

/// The `qm` field of record `CP{i}`, if the record renders in the paper's
/// five-field form.
fn qm(i: usize, record: &str) -> Option<&str> {
    let inner = record
        .strip_prefix(&format!("CP{i} = ("))?
        .strip_suffix(')')?;
    let fields: Vec<&str> = inner.split(", ").collect();
    (fields.len() == 5).then_some(fields[0])
}

pub(crate) fn tables() -> Vec<Table> {
    let generator = PatternGenerator::pcore_paper().expect("the pCore PFA compiles");
    let alphabet = generator.regex().alphabet().clone();
    let mut rng = StdRng::seed_from_u64(14);
    let patterns = generator.generate_batch(&mut rng, 2, GenerateOptions::sized(5));
    let merged = PatternMerger::new().merge(&patterns, MergeOp::cyclic());
    let mut shown = Table::new("Figure 4: the test patterns", &["pattern", "services"]);
    for (i, p) in patterns.iter().enumerate() {
        shown.row(cells![format!("TP{i}"), p.render(&alphabet)]);
    }
    shown.row(cells!["merged (cyclic)", merged.render(&alphabet)]);

    let mut sys = MultiCoreSystem::new(SystemConfig::default());
    let program = Program::new(vec![Op::Compute(5_000), Op::Exit]).expect("valid");
    let programs = vec![sys.kernel_of_mut(0).register_program(program)];
    let config = CommitterConfig {
        programs,
        inter_command_gap: 40,
        ..CommitterConfig::default()
    };
    let mut committer = Committer::new(merged, &alphabet, config).expect("pCore services only");

    let mut records = Table::new("state records", &["cycle", "committer", "record"]);
    let checkpoints = [120u64, 300, 100_000];
    let mut at = 0u64;
    for cp in checkpoints {
        while at < cp {
            at += 1;
            sys.step();
            if committer.step(&mut sys) != CommitterStatus::Running {
                break;
            }
        }
        let last = committer.is_finished() || cp == checkpoints[checkpoints.len() - 1];
        let status = format!("{:?}", committer.status());
        for (i, r) in committer.state_records(&sys).iter().enumerate() {
            let record = r.render(&alphabet);
            let form = qm(i, &record);
            let (paper, holds) = if last {
                ("(finished, qs, TP, SN, δS)", form == Some("finished"))
            } else {
                ("(qm, qs, TP, SN, δS)", form.is_some())
            };
            let row = records.row(cells![at, status, record]);
            row.claim(format!("CP{i} = {paper}"), holds);
        }
        if last {
            break;
        }
    }
    vec![shown, records]
}
