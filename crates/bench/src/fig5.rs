//! Paper Table I, Eq. 2 and Figure 5: the pCore task-lifecycle PFA —
//! the kernel services, the minimal DFA skeleton of the lifecycle regular
//! expression, the Figure 5 distribution attached to it, sample patterns,
//! and legality and branch frequencies over 100 000 generated patterns.

use std::collections::BTreeMap;

use ptest::automata::{pfa_to_dot, GenerateOptions};
use ptest::pcore::Service;
use ptest::PatternGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Table;

const PATTERNS: u32 = 100_000;

pub(crate) fn tables() -> Vec<Table> {
    let title = "Table I: kernel services of pCore for task management";
    let mut services = Table::new(title, &["service", "abbrev", "description"]);
    for svc in Service::ALL {
        services.row(cells![svc.full_name(), svc.abbrev(), svc.description()]);
    }

    let generator = PatternGenerator::pcore_paper().expect("the pCore PFA compiles");
    let re = generator.regex();
    let name = |s| re.alphabet().name(s).unwrap_or("?");
    let (dfa, pfa) = (generator.dfa(), generator.pfa());
    let mut skeleton = Table::new("Eq. 2 and its minimal DFA", &["element", "measured"]);
    skeleton.row(cells!["RE (Eq. 2)", re.source()]);
    let (states, transitions) = (dfa.len(), dfa.transition_count());
    let row = skeleton.row(cells!["DFA states", states]);
    row.claim("4", states == 4);
    let row = skeleton.row(cells!["DFA transitions", transitions]);
    row.claim("6", transitions == 6);

    let header = &["state", "service", "p", "next"];
    let mut figure5 = Table::new("Figure 5: the distribution on the skeleton", header);
    let labels = ["start", "running", "waiting", "done"]; // by construction order
    for q in 0..pfa.len() {
        let state = format!("{}(q{q})", labels.get(q).unwrap_or(&"state"));
        for &(sym, target, p) in pfa.transitions_from(q) {
            let (p, next) = (format!("{p:.2}"), format!("q{target}"));
            figure5.row(cells![state, name(sym), p, next]);
        }
    }

    let mut rng = StdRng::seed_from_u64(42);
    let title = "sample test patterns (Algorithm 2)";
    let mut samples = Table::new(title, &["s", "len", "pattern"]);
    for s in [8usize, 32, 128] {
        let p = generator.generate(&mut rng, GenerateOptions::sized(s));
        let shown = p.render(re.alphabet());
        let clipped: String = shown.chars().take(80).collect();
        let more = if shown.len() > 80 { " …" } else { "" };
        samples.row(cells![s, p.len(), format!("{clipped}{more}")]);
    }

    let (mut legal, mut tch) = (0u32, 0u64);
    let mut after_tc = BTreeMap::new();
    for _ in 0..PATTERNS {
        let p = generator.generate(&mut rng, GenerateOptions::sized(32));
        legal += u32::from(generator.is_legal_prefix(p.symbols()));
        // The branch taken at the first visit to `running`.
        if let Some(&second) = p.symbols().get(1) {
            *after_tc.entry(name(second)).or_insert(0u32) += 1;
        }
        tch += p.symbols().iter().filter(|&&s| name(s) == "TCH").count() as u64;
    }
    let title = format!("validation over {PATTERNS} patterns");
    let mut checks = Table::new(title, &["check", "measured"]);
    let legal_pct = format!("{:.2}%", 100.0 * f64::from(legal) / f64::from(PATTERNS));
    let row = checks.row(cells!["legality (prefix of L(RE))", legal_pct]);
    row.claim("100%", legal == PATTERNS);
    for (service, paper) in [("TCH", 0.6), ("TS", 0.2), ("TD", 0.1), ("TY", 0.1)] {
        let got = f64::from(after_tc.get(service).copied().unwrap_or(0)) / f64::from(PATTERNS);
        let (branch, got_cell) = (format!("P({service} after TC)"), format!("{got:.3}"));
        let row = checks.row(cells![branch, got_cell]);
        row.claim(format!("{paper:.2} ± 0.01"), (got - paper).abs() <= 0.01);
    }
    let mean_tch = tch as f64 / f64::from(PATTERNS);
    checks.row(cells!["mean TCH per pattern", format!("{mean_tch:.2}")]);
    let expected = pfa.expected_pattern_length(100_000, 1e-12);
    let expected = format!("{:.2}", expected.expect("the lifecycle PFA absorbs"));
    checks.row(cells!["expected lifecycle length (fixed point)", expected]);

    let mut dot = Table::new("Figure 5 in Graphviz (paste into `dot -Tpng`)", &["dot"]);
    for line in pfa_to_dot(pfa, "pCore task lifecycle (Fig. 5)").lines() {
        dot.row(cells![line]);
    }
    vec![services, skeleton, figure5, samples, checks, dot]
}
