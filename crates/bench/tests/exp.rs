//! Anything but `--figure NAME|all` exits 2 with a usage line naming
//! every figure, and prints no tables.

#[test]
fn unknown_figure_exits_non_zero_and_lists_the_names() {
    for args in [&["--figure", "bogus"][..], &[]] {
        let mut exp = std::process::Command::new(env!("CARGO_BIN_EXE_exp"));
        let out = exp.args(args).output().expect("exp runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let usage = String::from_utf8_lossy(&out.stderr);
        for (name, _) in ptest_bench::FIGURES {
            assert!(usage.contains(name), "{usage}");
        }
    }
}
