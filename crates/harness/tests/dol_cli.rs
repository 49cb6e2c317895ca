//! Argument validation of the `dol` binary.

use std::process::Command;

/// `--insts 0` leaves nothing to time, so every subcommand that takes it
/// rejects it with the usage text and exit status 2 instead of printing
/// NaN speedups.
#[test]
fn zero_insts_is_a_usage_error() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dol-zero-insts");
    let dir = dir.to_str().unwrap();
    for args in [
        &["run", "-w", "stream_sum", "-p", "TPC", "-n", "0"][..],
        &["compare", "--workload", "stream_sum", "--insts", "0"],
        &["trace", "record", "-w", "stream_sum", "-d", dir, "-n", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dol"))
            .args(args)
            .output()
            .expect("dol runs");
        assert_eq!(out.status.code(), Some(2), "dol {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage:"), "dol {args:?}: {stderr}");
    }
}
