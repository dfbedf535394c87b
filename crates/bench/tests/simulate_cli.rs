//! The `simulate` command line through the real binary: a station count
//! of zero is refused with the same message `ElectionParams::decode` and
//! the lens give, and exit code 2, before any engine runs.

use jle_protocols::params::ZERO_STATIONS;
use std::process::Command;

#[test]
fn zero_stations_are_refused() {
    for protocol in ["lesk", "lewk"] {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["--n", "0", "--protocol", protocol])
            .output()
            .expect("simulate runs");
        assert_eq!(out.status.code(), Some(2), "--protocol {protocol}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(ZERO_STATIONS), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
