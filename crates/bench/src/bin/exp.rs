//! Reproduces the paper's figures and case studies and checks the
//! paper's claims against the measured rows: prints every table as
//! Markdown and exits non-zero if any claim fails.
//!
//! ```sh
//! cargo run --release -p ptest-bench --bin exp -- --figure all
//! cargo run --release -p ptest-bench --bin exp -- --figure fig1
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures = match ptest_bench::select(&args) {
        Ok(figures) => figures,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let (mut claims, mut failed) = (0, 0);
    for (name, run) in figures {
        println!("## {name}\n");
        for table in run() {
            println!("{table}");
            claims += table.claims().count();
            failed += table.claims().filter(|c| !c.holds).count();
        }
    }
    println!("{} of {claims} claims hold", claims - failed);
    ExitCode::from(u8::from(failed > 0))
}
