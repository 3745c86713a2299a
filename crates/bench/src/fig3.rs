//! Paper Figure 3 with Definition 1 and Eq. 1: the example PFA for
//! `(a c* d) | b` under `P = {a: 0.6, b: 0.4, c: 0.3, d: 0.7}`, its
//! structure, and its probabilistic semantics checked over 100 000
//! generated walks.

use ptest::automata::GenerateOptions;
use ptest::{Dfa, Pfa, ProbabilityAssignment, Regex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Table;

const PAPER_P: [(&str, f64); 4] = [("a", 0.6), ("b", 0.4), ("c", 0.3), ("d", 0.7)];
const WALKS: u32 = 100_000;

pub(crate) fn tables() -> Vec<Table> {
    let re = Regex::parse("(a c* d) | b").expect("the Figure 3 regex parses");
    let alphabet = re.alphabet();
    let dfa = Dfa::from_regex(&re).minimize();
    let pd = ProbabilityAssignment::weights(PAPER_P);
    let pfa = Pfa::from_dfa(&dfa, alphabet.clone(), &pd).expect("P fits the skeleton");
    pfa.validate().expect("the Figure 3 PFA is stochastic");
    let sym = |name| alphabet.sym(name).expect("symbol interned");

    let title = "Figure 3: the PFA for (a c* d) | b";
    let mut structure = Table::new(title, &["element", "measured"]);
    let row = structure.row(cells!["states |Q|", pfa.len()]);
    row.claim("3", pfa.len() == 3);
    for q in 0..pfa.len() {
        for &(s, target, p) in pfa.transitions_from(q) {
            let name = alphabet.name(s).unwrap_or("?");
            let paper = PAPER_P.iter().find(|(n, _)| *n == name);
            let paper = paper.map_or(f64::NAN, |&(_, p)| p);
            let edge = format!("q{q} --{name}--> q{target}");
            let row = structure.row(cells![edge, format!("{p:.1}")]);
            row.claim(format!("{name} {paper:.1}"), (p - paper).abs() < 1e-12);
        }
        if pfa.is_accepting(q) {
            structure.row(cells![format!("q{q}"), "final"]);
        }
    }

    let mut rng = StdRng::seed_from_u64(2009);
    let (mut starts_a, mut c_after_a, mut total_len, mut accepted) = (0u32, 0u32, 0u64, 0u32);
    for _ in 0..WALKS {
        let w = pfa.generate(&mut rng, GenerateOptions::sized(128));
        accepted += u32::from(dfa.accepts(&w));
        total_len += w.len() as u64;
        if w.first() == Some(&sym("a")) {
            starts_a += 1;
            c_after_a += u32::from(w.get(1) == Some(&sym("c")));
        }
    }
    let title = format!("semantics over {WALKS} walks");
    let mut semantics = Table::new(title, &["quantity", "measured"]);
    let a = 0.4 + 0.6 * (1.0 + 1.0 / 0.7);
    semantics.row(cells![
        "analytic E[len] = 0.4 + 0.6·(1 + 1/0.7)",
        format!("{a:.4}")
    ]);
    let mut near = |quantity: &str, value: f64, paper: f64, tolerance, claim| {
        let row = semantics.row(cells![quantity, format!("{value:.4}")]);
        row.claim(claim, (value - paper).abs() <= tolerance);
    };
    let p_a = f64::from(starts_a) / f64::from(WALKS);
    near("P(first = a)", p_a, 0.6, 0.01, "0.6 ± 0.01");
    let p_c = f64::from(c_after_a) / f64::from(starts_a);
    near("P(c after a)", p_c, 0.3, 0.01, "0.3 ± 0.01");
    let len = total_len as f64 / f64::from(WALKS);
    near("E[len]", len, a, a / 100.0, "analytic ± 1%");
    let fixed = pfa.expected_pattern_length(100_000, 1e-12);
    let fixed = fixed.expect("the Figure 3 PFA absorbs");
    near("E[len] via fixed point", fixed, a, 1e-6, "analytic ± 1e-6");
    let accepted_cell = format!("{accepted}/{WALKS}");
    let row = semantics.row(cells!["walks accepted by the DFA", accepted_cell]);
    row.claim("all walks in L", accepted == WALKS);
    for (word, paper) in [("b", 0.4), ("a d", 0.6 * 0.7), ("a c d", 0.6 * 0.3 * 0.7)] {
        let symbols: Vec<_> = word.split(' ').map(sym).collect();
        let p = pfa.sequence_probability(&symbols);
        let row = semantics.row(cells![format!("P({word})"), format!("{p:.3}")]);
        row.claim(format!("{paper:.3}"), (p - paper).abs() <= 1e-9);
    }
    vec![structure, semantics]
}
