//! The benchmark binary. `run.py` builds it and passes its own
//! arguments through:
//!
//! ```text
//! ptbench --workload <fig1_learn|pipeline_explore|race_shrink> --seed <n>
//!         --seconds <s> --trace <0|1> [--record-dir <dir> --build-id <id>]
//! ```
//!
//! It prints one line per metric and, as its last line, the result
//! object `{"correct", "attempted", "failed", "metrics"}`; a failed
//! output check shows as `"correct": false`, not as an exit code. With
//! `--record-dir`, the run's output fingerprints are compared with those
//! of earlier runs of the same build at the same workload and seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ptbench::bench::{self, Options};
use ptbench::replay::Check;
use ptbench::workload::{Size, Workload};

const USAGE: &str = "usage: ptbench --workload <fig1_learn|pipeline_explore|race_shrink> \
--seed <n> --seconds <s> --trace <0|1> [--record-dir <dir> --build-id <id>]";

struct Args {
    options: Options,
    record: Option<(PathBuf, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record_dir = None;
    let mut build_id = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--record-dir" => record_dir = Some(PathBuf::from(value)),
            "--build-id" => build_id = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let record = match (record_dir, build_id) {
        (Some(dir), Some(id)) if id.chars().all(|c| c.is_ascii_alphanumeric()) => Some((dir, id)),
        (None, None) => None,
        _ => return Err("--record-dir and an alphanumeric --build-id go together".to_owned()),
    };
    Ok(Args {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size: Size::FULL,
        },
        record,
    })
}

/// Compares `fingerprints` with the record earlier runs left in `path`,
/// then stores the union. Every fingerprint both have must match.
fn check_record(path: &Path, fingerprints: &BTreeMap<String, u64>, check: &mut Check) {
    let mut record: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(Ok(value))) = (parts.next(), parts.next().map(str::parse)) {
                record.insert(name.to_owned(), value);
            }
        }
    }
    for (name, value) in fingerprints {
        match record.get(name) {
            Some(earlier) if earlier != value => {
                check.fail(
                    1,
                    format!("{name} differs from an earlier run at this seed"),
                );
            }
            Some(_) => {}
            None => {
                record.insert(name.clone(), *value);
            }
        }
    }
    let text: String = record.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let tmp = path.with_extension("tmp");
    let stored = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&tmp, text))
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = stored {
        eprintln!(
            "ptbench: could not store the run record {}: {e}",
            path.display()
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ptbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = args.options;
    let bench::RunResult {
        mut check,
        metrics,
        fingerprints,
    } = bench::run(&opts);
    if let Some((dir, build_id)) = &args.record {
        let name = format!("{}-seed{}-{build_id}.txt", opts.workload.name(), opts.seed);
        check_record(&dir.join(name), &fingerprints, &mut check);
    }

    println!(
        "workload {} seed {} trace {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for error in &check.errors {
        eprintln!("ptbench: check failed: {error}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0,
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
