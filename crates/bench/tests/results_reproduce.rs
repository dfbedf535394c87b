//! The spec-unit experiments reproduce the committed `results/` byte for
//! byte, through the real binary: `experiments --no-cache` at full scale
//! in a scratch directory, every written file compared with its committed
//! twin. E15 (b)'s throughput table is timed live, so `e15.md` and
//! `e15_1.csv` are the only files not compared. E1, whose table reports
//! each median with its bootstrap interval (`jle_analysis::median_ci`),
//! is checked the same way by a test of its own.
//!
//! Full scale takes seconds under release codegen and minutes in debug, so
//! a debug `cargo test` lists this test as ignored; CI runs it with
//! `cargo test --release -p jle-bench --test results_reproduce`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The experiments whose election units are `LensSpec`s.
const IDS: [&str; 13] =
    ["e6", "e9", "e10", "e11", "e13", "e14", "e15", "e18", "e22", "e23", "e24", "e25", "e26"];

/// E15 (b)'s timed output.
const TIMED: [&str; 2] = ["e15.md", "e15_1.csv"];

/// The files of `dir` that belong to one of [`IDS`] (`e6.md`, `e6_0.csv`,
/// `e6.svg`, …), sorted.
fn files_of_ids(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| IDS.contains(&name.split(['.', '_']).next().unwrap_or("")))
        .collect();
    names.sort();
    names
}

/// Runs `experiments --no-cache` at full scale on `ids` in a fresh
/// scratch directory named after `tag`, and returns that directory.
fn run_experiments(tag: &str, ids: &[&str]) -> PathBuf {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("jle-results-reproduce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&dir)
        .args(["--no-cache", "--no-progress"])
        .args(ids)
        .stdout(Stdio::null())
        .status()
        .expect("experiments runs");
    assert!(status.success(), "experiments must exit 0");
    dir
}

fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scale: run under release codegen")]
fn spec_unit_experiments_reproduce_the_committed_results() {
    let dir = run_experiments("spec-units", &IDS);
    let committed = committed();
    let written = files_of_ids(&dir.join("results"));
    assert_eq!(written, files_of_ids(&committed), "the same files, by name");
    assert_eq!(written.len(), 45);
    for name in written.iter().filter(|name| !TIMED.contains(&name.as_str())) {
        let fresh = std::fs::read(dir.join("results").join(name)).unwrap();
        let kept = std::fs::read(committed.join(name)).unwrap();
        assert!(fresh == kept, "results/{name} differs from the committed file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// E1 is the committed table built on `median_ci`: its medians, their
/// bootstrap intervals and the plot drawn from them rewrite byte for byte.
#[test]
#[cfg_attr(debug_assertions, ignore = "full scale: run under release codegen")]
fn e1_bootstrap_table_reproduces_the_committed_results() {
    let dir = run_experiments("e1", &["e1"]);
    for name in ["e1.md", "e1.svg", "e1_0.csv", "e1_1.csv"] {
        let fresh = std::fs::read(dir.join("results").join(name))
            .unwrap_or_else(|e| panic!("results/{name} was not written: {e}"));
        let kept = std::fs::read(committed().join(name)).unwrap();
        assert!(fresh == kept, "results/{name} differs from the committed file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
