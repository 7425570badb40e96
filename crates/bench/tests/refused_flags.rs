//! A flag is honoured or refused, never parsed and dropped: a
//! binary-specific flag given to a binary that does not act on it exits 2
//! with the usage text, like any unknown flag, before anything runs.

use std::process::Command;

fn assert_refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(args[0]), "names the flag: {stderr}");
    assert!(
        stderr.contains("usage:"),
        "carries the usage text: {stderr}"
    );
    assert!(out.stdout.is_empty(), "refused before any run started");
}

#[test]
fn unconsumed_flags_exit_2_with_usage() {
    let table2 = env!("CARGO_BIN_EXE_table2_scalability");
    // The population is table2's sweep axis.
    assert_refused(table2, &["--population", "9"]);
    assert_refused(table2, &["--assert-recovery"]);
    assert_refused(env!("CARGO_BIN_EXE_figures_p3000"), &["--smoke"]);
    // Nothing is written from gauge samples outside figures_p3000 and
    // ablation_petalup.
    assert_refused(env!("CARGO_BIN_EXE_resilience"), &["--gauges", "60000"]);
    // perf sweeps the population on its ladder and reads no gauges.
    let perf = env!("CARGO_BIN_EXE_perf");
    assert_refused(perf, &["--population", "9"]);
    assert_refused(perf, &["--gauges", "60000"]);
}

#[test]
fn removed_flags_exit_2_with_usage() {
    // One seed is `--seeds N`, a BENCH report is named by its
    // `--profile-out` file, and the P = 50 000 / 100 000 rungs are perf's
    // paper-scale ladder: none of these spellings is a harness flag.
    for bin in [
        env!("CARGO_BIN_EXE_perf"),
        env!("CARGO_BIN_EXE_figures_p3000"),
    ] {
        for args in ["--seed 7", "--label eq --out A", "--scale --label arena"] {
            assert_refused(bin, &args.split(' ').collect::<Vec<_>>());
        }
    }
}
