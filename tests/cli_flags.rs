//! The `ccmatic` binary rejects what its usage text does not list: an
//! unknown flag, a removed one, or a value that does not parse prints the
//! usage and exits non-zero instead of running with defaults.

use std::process::{Command, Output};

fn ccmatic(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccmatic")).args(args).output().expect("run ccmatic")
}

/// The run failed at argument parsing: non-zero exit, the usage on stderr
/// naming `needle`, and nothing on stdout (no work was started).
fn assert_rejected(args: &[&str], needle: &str) {
    let out = ccmatic(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must exit non-zero");
    assert!(stderr.contains("usage: ccmatic"), "{args:?} must print the usage: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr should mention `{needle}`: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["synth", "--no-such-flag"], "--no-such-flag");
}

#[test]
fn removed_threads_flag_is_rejected() {
    assert_rejected(&["synth", "--threads", "4"], "--threads");
}

#[test]
fn malformed_budget_is_rejected() {
    assert_rejected(&["synth", "--budget-secs", "x"], "--budget-secs");
}

#[test]
fn malformed_cca_is_rejected() {
    assert_rejected(&["verify", "--cca", "1,x"], "--cca");
}

#[test]
fn flag_without_value_is_rejected() {
    assert_rejected(&["synth", "--lookback"], "--lookback");
}

#[test]
fn valid_verify_still_succeeds() {
    let out = ccmatic(&["verify", "--cca", "1,0,-1,0,1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "RoCC must verify: {stdout}");
    assert!(stdout.starts_with("VERIFIED"), "{stdout}");
}
