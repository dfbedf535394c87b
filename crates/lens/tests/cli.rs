//! The `jle-lens` binary end to end: the committed flight fixture replays
//! bit-exactly from the command line.

use std::process::Command;

#[test]
fn committed_flight_fixture_replays_without_divergence() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/flight-snapshot-exact-seed7.json");
    let out = Command::new(env!("CARGO_BIN_EXE_jle-lens"))
        .args(["replay", "--flight", fixture])
        .output()
        .expect("jle-lens runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.lines().any(|l| l == "divergence: none"), "{stdout}");
}
