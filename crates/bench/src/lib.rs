//! The paper reproduction: one table of figures, each a function that
//! runs its experiment and returns the tables it prints. Rows that
//! measure a claim of the paper carry that claim and whether the measured
//! value meets it, so the `exp` binary's output, its exit code and the
//! tier-1 figure tests are the same code.
//!
//! ```sh
//! cargo run --release -p ptest-bench --bin exp -- --figure all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::num::NonZeroUsize;

use ptest::campaign::RoundReport;
use ptest::pcore::{GcFaultMode, Op, Program};
use ptest::{
    AdaptiveTestConfig, Bug, BugKind, Campaign, CampaignConfig, CampaignReport, FnScenario,
    LearningConfig, MultiCoreSystem, ProgramId, Regex, Scenario,
};

/// Builds a row's cells from anything that displays.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

mod ablation_pd;
mod baselines;
mod case1;
mod case2;
mod fig1;
mod fig3;
mod fig4;
mod fig5;

/// One reproduced figure, table or case study of the paper: its
/// `--figure` name and the function that runs it at its one size.
pub type Figure = (&'static str, fn() -> Vec<Table>);

/// Every figure, in the paper's order.
pub const FIGURES: &[Figure] = &[
    ("fig1", fig1::tables),
    ("fig3", fig3::tables),
    ("fig4", fig4::tables),
    ("fig5", fig5::tables),
    ("case1", case1::tables),
    ("case2", case2::tables),
    ("baselines", baselines::tables),
    ("ablation_pd", ablation_pd::tables),
];

/// Parses the `exp` command line, `--figure NAME|all`, into the figures
/// to run.
///
/// # Errors
///
/// A usage message listing the valid names for any other command line.
pub fn select<S: AsRef<str>>(args: &[S]) -> Result<Vec<&'static Figure>, String> {
    let name = match args {
        [flag, name] if flag.as_ref() == "--figure" => name.as_ref(),
        _ => "",
    };
    let chosen: Vec<_> = FIGURES
        .iter()
        .filter(|(f, _)| name == "all" || *f == name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<_> = FIGURES.iter().map(|(name, _)| *name).collect();
        return Err(format!("usage: exp --figure <{}|all>", names.join("|")));
    }
    Ok(chosen)
}

/// A claim of the paper attached to the row that measures it.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The paper's value or statement.
    pub paper: String,
    /// Whether the measured row meets it.
    pub holds: bool,
}

#[derive(Debug, Clone)]
struct Row {
    cells: Vec<String>,
    claim: Option<Claim>,
}

impl Row {
    /// Attaches the paper's value or statement and whether this row's
    /// measurement meets it.
    fn claim(&mut self, paper: impl Into<String>, holds: bool) {
        let paper = paper.into();
        self.claim = Some(Claim { paper, holds });
    }
}

/// One printed table: a titled Markdown table whose rows may carry a
/// [`Claim`], shown in a trailing `claim` column.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: &'static [&'static str],
    rows: Vec<Row>,
}

impl Table {
    fn new(title: impl Into<String>, header: &'static [&'static str]) -> Table {
        Table {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) -> &mut Row {
        assert_eq!(cells.len(), self.header.len(), "{}: row width", self.title);
        self.rows.push(Row { cells, claim: None });
        self.rows.last_mut().expect("a row was just pushed")
    }

    /// The claims this table's rows carry, in row order.
    pub fn claims(&self) -> impl Iterator<Item = &Claim> {
        self.rows.iter().filter_map(|r| r.claim.as_ref())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn line(f: &mut fmt::Formatter<'_>, cells: impl Iterator<Item = String>) -> fmt::Result {
            for cell in cells {
                write!(f, "| {} ", cell.replace('|', "\\|"))?;
            }
            writeln!(f, "|")
        }
        let claimed = self.claims().next().is_some();
        writeln!(f, "### {}\n", self.title)?;
        let header = self.header.iter().map(ToString::to_string);
        line(f, header.chain(claimed.then(|| "claim".to_owned())))?;
        let columns = self.header.len() + usize::from(claimed);
        writeln!(f, "{}|", "|---".repeat(columns))?;
        for row in &self.rows {
            let claim = row.claim.as_ref().map_or(String::new(), |c| {
                format!("{} {}", if c.holds { "✓" } else { "✗" }, c.paper)
            });
            line(f, row.cells.iter().cloned().chain(claimed.then_some(claim)))?;
        }
        Ok(())
    }
}

/// The machine-summary classes of the crash family (case study 1's
/// outcome): the slave died or stopped answering.
const CRASH_CLASSES: &[&str] = &["slave_crash", "command_timeout"];

/// How often a one-round campaign found a bug of the classes asked for.
struct Detection {
    /// Trials that found a bug of one of the classes.
    hits: usize,
    /// Trials run.
    trials: usize,
    /// Mean commands to the first bug over exactly the hit trials.
    mean_commands: Option<f64>,
    /// Mean cycles over all trials.
    mean_cycles: u64,
}

impl Detection {
    /// The detection rate as `NN% (hits/trials)`.
    fn rate(&self) -> String {
        let pct = 100.0 * self.hits as f64 / self.trials as f64;
        format!("{pct:.0}% ({}/{})", self.hits, self.trials)
    }
}

/// Runs `trials` trials of `scenario` as one round with learning off, so
/// the campaign measures exactly the scenario it was given, and counts
/// the trials that found a bug of one of `classes`. The round's built-in
/// aggregates count *any* bug class; a figure that claims a specific
/// class (deadlock, crash) must filter with this instead.
fn detect(scenario: &dyn Scenario, trials: usize, seed: u64, classes: &[&str]) -> Detection {
    let mut cfg = adaptive_campaign(trials, 1, seed);
    cfg.learning.enabled = false;
    let report = run_campaign(&cfg, scenario);
    let round = &report.rounds[0];
    // commands_to_first_bug is Some whenever a trial has bugs.
    let commands: Vec<u64> = round
        .trials
        .iter()
        .filter(|t| {
            t.summary
                .bugs
                .iter()
                .any(|b| classes.contains(&b.class.as_str()))
        })
        .map(|t| t.commands_to_first_bug.unwrap_or(0))
        .collect();
    let mean = commands.iter().sum::<u64>() as f64 / commands.len() as f64;
    Detection {
        hits: commands.len(),
        trials: round.trials.len(),
        mean_commands: (!commands.is_empty()).then_some(mean),
        mean_cycles: round.total_cycles / round.trials.len() as u64,
    }
}

/// Whether a bug kind is in the crash class of case study 1 (the slave
/// died or stopped answering).
fn crash_kind(k: &BugKind) -> bool {
    use BugKind::{CommandTimeout, SlaveCrash};
    matches!(k, SlaveCrash { .. } | CommandTimeout { .. })
}

/// Renders an optional mean with one decimal, `—` when absent.
fn fmt_mean(value: Option<f64>) -> String {
    value.map_or("—".to_owned(), |v| format!("{v:.1}"))
}

/// A named scenario whose slave runs one compute-and-exit worker under
/// the given configuration.
fn worker_scenario(
    name: &str,
    work: u32,
    config: AdaptiveTestConfig,
) -> FnScenario<impl Fn(&mut MultiCoreSystem) -> Vec<ProgramId> + Send + Sync> {
    FnScenario::new(name, config, move |sys| {
        let program = Program::new(vec![Op::Compute(work), Op::Exit]).expect("valid");
        vec![sys.kernel_of_mut(0).register_program(program)]
    })
}

/// The GC-leak adaptive configuration of the crash comparison: cyclic
/// churn over a small heap with a leaky collector.
fn gc_leak_config(heap_bytes: u32, leak_every: u32) -> AdaptiveTestConfig {
    let mut cfg = AdaptiveTestConfig {
        n: 4,
        s: 64,
        cyclic_generation: true,
        max_cycles: 30_000_000,
        ..AdaptiveTestConfig::default()
    };
    cfg.system.kernel.heap_bytes = heap_bytes;
    cfg.system.kernel.gc_fault = GcFaultMode::LeakDeadBlocks { leak_every };
    cfg
}

/// A campaign exercising the cross-trial feedback loop, on the machine's
/// parallelism capped at 8 workers (reports do not depend on it).
fn adaptive_campaign(trials: usize, rounds: usize, master_seed: u64) -> CampaignConfig {
    let workers = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
    CampaignConfig {
        trials_per_round: trials,
        rounds,
        workers: workers.min(8),
        master_seed,
        learning: LearningConfig::default(),
        ..CampaignConfig::default()
    }
}

/// Runs a campaign, panicking on configuration errors — the figures'
/// configurations are fixed, so an error is a programming mistake.
fn run_campaign(cfg: &CampaignConfig, scenario: &dyn Scenario) -> CampaignReport {
    Campaign::run(cfg, scenario).expect("experiment campaign configuration is valid")
}

/// The per-round campaign table (detection rate, mean commands to first
/// detection, totals). The last round carries the learning claim `paper`,
/// which holds when `holds(first round's rate, last round's rate)`.
fn round_table(
    title: &str,
    report: &CampaignReport,
    paper: &str,
    holds: fn(f64, f64) -> bool,
) -> Table {
    const HEADER: &[&str] = &[
        "round",
        "trials with bugs",
        "detection rate",
        "mean commands to detection",
        "commands",
        "cycles",
    ];
    let mut table = Table::new(title, HEADER);
    let rate = RoundReport::detection_rate;
    let first = report.rounds.first().map_or(0.0, rate);
    for (i, round) in report.rounds.iter().enumerate() {
        let row = table.row(cells![
            round.round,
            format!("{}/{}", round.trials_with_bugs, round.trials.len()),
            format!("{:.0}%", rate(round) * 100.0),
            fmt_mean(round.mean_commands_to_first_bug),
            round.total_commands,
            round.total_cycles,
        ]);
        if i + 1 == report.rounds.len() {
            row.claim(paper, holds(first, rate(round)));
        }
    }
    table
}

/// The first detected bug's Definition-2 state records, then the last
/// `trace_lines` lines of the slave trace at detection.
fn bug_table(title: &str, bug: Option<&Bug>, trace_lines: usize) -> Table {
    let detected = bug.map_or("none detected".to_owned(), ToString::to_string);
    let mut table = Table::new(format!("{title}: {detected}"), &["at detection"]);
    let re = Regex::pcore_task_lifecycle();
    if let Some(bug) = bug {
        for r in &bug.state_records {
            table.row(cells![r.render(re.alphabet())]);
        }
        for line in &bug.trace_tail[bug.trace_tail.len().saturating_sub(trace_lines)..] {
            table.row(cells![line]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `exp --figure all`'s output: every table the figures must print,
    /// byte for byte. A change meant to move a printed number records it
    /// again.
    const EXP_ALL: &str = include_str!("../tests/fixtures/exp_all.txt");

    /// The tables `EXP_ALL` prints for figure `name`, each followed by a
    /// blank line, as `exp` prints them.
    fn golden_tables(name: &str) -> &'static str {
        let header = format!("## {name}\n\n");
        let start = EXP_ALL.find(&header).expect("figure in the golden") + header.len();
        let rest = &EXP_ALL[start..];
        // The next figure's header, else the closing claims-count line.
        let end = rest
            .find("\n## ")
            .or_else(|| rest.trim_end().rfind('\n'))
            .expect("a line follows every figure");
        &rest[..=end]
    }

    /// Runs one figure at its printed size and asserts that it carries
    /// exactly `claims` claim rows, that every one holds, and that it
    /// prints exactly the golden tables.
    fn assert_claims(name: &str, claims: usize) {
        let tables = (select(&["--figure", name]).expect("registered")[0].1)();
        let all: Vec<&Claim> = tables.iter().flat_map(Table::claims).collect();
        let failed: Vec<&str> = all
            .iter()
            .filter(|c| !c.holds)
            .map(|c| c.paper.as_str())
            .collect();
        let printed: String = tables.iter().map(|t| format!("{t}\n")).collect();
        assert!(failed.is_empty(), "{name}: {failed:?} fail\n{printed}");
        assert_eq!(all.len(), claims, "{name}: claim rows\n{printed}");
        assert!(claims > 0, "{name} carries no claim");
        assert!(
            printed == golden_tables(name),
            "{name}: tables drifted from the golden\n{printed}"
        );
    }

    /// One test per figure: `test: figure => number of claim rows`, and
    /// `TESTED`, the figures covered.
    macro_rules! figure_tests {
        ($($test:ident: $name:literal => $claims:literal,)*) => {
            const TESTED: &[&str] = &[$($name),*];
            $(
                #[test]
                fn $test() {
                    assert_claims($name, $claims);
                }
            )*
        };
    }

    figure_tests! {
        fig1_claims_hold: "fig1" => 10,
        fig3_claims_hold: "fig3" => 13,
        fig4_claims_hold: "fig4" => 4,
        fig5_claims_hold: "fig5" => 7,
        case1_claims_hold: "case1" => 9,
        case2_claims_hold: "case2" => 10,
        baselines_claims_hold: "baselines" => 6,
        ablation_pd_claims_hold: "ablation_pd" => 3,
    }

    #[test]
    fn dispatch_selects_figures_by_unique_name() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "figure names are unique");
        assert_eq!(names, TESTED, "every figure has a claims test");
        let chosen = |name| {
            select(&["--figure", name]).map(|f| f.iter().map(|(n, _)| *n).collect::<Vec<_>>())
        };
        assert_eq!(
            chosen("all"),
            Ok(names.clone()),
            "all runs each figure once"
        );
        for name in names {
            assert_eq!(chosen(name), Ok(vec![name]));
        }
        assert!(select(&["--figur", "fig1"]).is_err());
    }

    #[test]
    fn builders_produce_consistent_configs() {
        let cfg = gc_leak_config(6 * 1024, 1);
        assert!(cfg.cyclic_generation);
        assert_eq!(cfg.system.kernel.heap_bytes, 6 * 1024);
        let adaptive = adaptive_campaign(8, 2, 3);
        assert!(adaptive.learning.enabled);
        assert_eq!((adaptive.trials_per_round, adaptive.rounds), (8, 2));
        assert!((1..=8).contains(&adaptive.workers));
        assert_eq!(fmt_mean(None), "—");
        assert_eq!(fmt_mean(Some(1.25)), "1.2");
    }

    #[test]
    fn class_detection_filters_by_bug_class() {
        use ptest::faults::philosophers::PhilosophersScenario;
        let deadlocks = detect(&PhilosophersScenario::buggy(), 4, 0, &["deadlock"]);
        assert!(deadlocks.hits > 0, "cyclic merge finds the deadlock");
        assert!(deadlocks.mean_commands.is_some());
        let crashes = detect(&PhilosophersScenario::buggy(), 4, 0, CRASH_CLASSES);
        assert_eq!(crashes.hits, 0, "philosophers never crash the slave");
        assert!(crashes.mean_commands.is_none());
        assert_eq!((crashes.trials, crashes.rate()), (4, "0% (0/4)".to_owned()));
    }

    #[test]
    fn worker_scenario_runs_under_a_campaign() {
        let config = AdaptiveTestConfig {
            n: 2,
            s: 4,
            ..AdaptiveTestConfig::default()
        };
        let scenario = worker_scenario("smoke", 20, config);
        let report = run_campaign(&adaptive_campaign(2, 1, 1), &scenario);
        assert_eq!(report.total_trials(), 2);
        assert_eq!(report.scenario, "smoke");
    }
}
