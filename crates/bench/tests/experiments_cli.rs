//! The `experiments` command line through the real binary: the
//! `--engine` flag takes exactly the two per-station backends and
//! refuses anything else before any experiment runs.

use std::process::Command;

#[test]
fn engine_batch_is_refused_with_the_engine_usage_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--no-cache", "--engine", "batch", "list"])
        .output()
        .expect("experiments runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --engine expects exact | fast-exact, got \"batch\""),
        "{stderr}"
    );
}
