//! The `experiments` command line through the real binary: there is no
//! backend knob to turn (one per-station engine runs every per-station
//! experiment), and a warm pass over a filled cache reproduces the cached
//! tables byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("jle-experiments-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn engine_flag_is_refused_as_unknown() {
    for engine in ["fast-exact", "exact", "batch"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--no-cache", "--engine", engine, "list"])
            .output()
            .expect("experiments runs");
        assert_eq!(out.status.code(), Some(2), "--engine {engine}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: unknown flag --engine"), "{stderr}");
    }
}

/// Run `experiments --quick --cache-dir cache e15` in `dir`.
fn e15_pass(dir: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(dir)
        .args(["--quick", "--no-progress", "--cache-dir", "cache", "e15"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("experiments runs");
    assert!(status.success(), "experiments e15 must exit 0");
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// E15's agreement table (part a, served from the store on a warm pass)
/// and its identity table (part c) must come back byte-identical from a
/// fully cached second pass; its throughput table (part b) is timed live
/// and is deliberately not compared.
#[test]
fn e15_warm_pass_reproduces_the_cached_tables() {
    let dir = workdir("e15");
    e15_pass(&dir);
    let tables = ["results/e15_0.csv", "results/e15_2.csv"];
    let cold: Vec<String> = tables.iter().map(|t| read(&dir.join(t))).collect();
    assert!(cold[0].contains("agreement"), "{}", cold[0]);
    assert!(cold[1].contains("identity"), "{}", cold[1]);
    e15_pass(&dir);
    for (table, before) in tables.iter().zip(&cold) {
        assert_eq!(&read(&dir.join(table)), before, "{table} changed on the warm pass");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
