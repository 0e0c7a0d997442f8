//! The bench binaries that take arguments reject the ones they do not
//! read: a typo exits 2 with a one-line usage on stderr instead of
//! silently running a different, often much longer, measurement.

use std::process::Command;

#[test]
fn unread_arguments_exit_two_with_usage() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_perf_core"), &["--smok"][..]),
        (env!("CARGO_BIN_EXE_ext_trace"), &["--smok"]),
        (env!("CARGO_BIN_EXE_ext_trace"), &["--fixture", "day.csv"]),
        (env!("CARGO_BIN_EXE_ext_trace"), &["--smoke", "--fixture"]),
        (env!("CARGO_BIN_EXE_ext_faults"), &["--jsn"]),
        (env!("CARGO_BIN_EXE_v1_sim_vs_analysis"), &["--papr"]),
        (env!("CARGO_BIN_EXE_fig10_validation_time"), &["abc"]),
        (env!("CARGO_BIN_EXE_fig10_validation_time"), &["0"]),
        (env!("CARGO_BIN_EXE_fig11_validation_speedup"), &["abc"]),
        (env!("CARGO_BIN_EXE_fig11_validation_speedup"), &["3", "4"]),
    ] {
        let out = Command::new(bin).args(args).output().expect("bin runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        assert!(
            stderr.starts_with("usage: ") && stderr.lines().count() == 1,
            "{bin} {args:?} must print a one-line usage, got: {stderr}"
        );
    }
}
