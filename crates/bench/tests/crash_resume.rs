//! Crash tolerance of the chunk store through the real binary: a cold
//! `experiments` run SIGKILLed part-way, then finished with `--resume`,
//! writes tables byte-identical to an uninterrupted run's.
//!
//! Chunk writes are a temp file plus a `rename`, with no lock or claim
//! file, so a kill can only leave whole chunks and stray temp files
//! behind; this is the test that relies on it. The kill points are
//! placed by watching the store fill: after the first chunk file and at a
//! quarter, half and three quarters of a full run's chunk count.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// 8 units, 104 chunks at `--quick`: small, but enough chunk writes for
/// kills to land between them.
const EXPERIMENT: &str = "e9";

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jle-crash-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `experiments --quick --cache-dir cache [extra] e9`, run in `dir`.
fn experiments(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.current_dir(dir)
        .args(["--quick", "--no-progress", "--cache-dir", "cache"])
        .args(extra)
        .arg(EXPERIMENT)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// Chunk files in the store under `dir` (`cache/<aa>/<key>/t*.json`).
fn chunk_count(dir: &Path) -> usize {
    let read = |d: &Path| std::fs::read_dir(d).into_iter().flatten().flatten();
    read(&dir.join("cache"))
        .flat_map(|shard| read(&shard.path()).collect::<Vec<_>>())
        .flat_map(|unit| read(&unit.path()).collect::<Vec<_>>())
        .filter(|f| {
            let name = f.file_name();
            let name = name.to_string_lossy();
            name.starts_with('t') && name.ends_with(".json")
        })
        .count()
}

/// Every file `experiments` wrote under `dir/results`, by name.
fn tables(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
        .collect()
}

#[test]
fn sigkilled_cold_runs_resume_to_the_clean_tables() {
    let clean = workdir("clean");
    assert!(experiments(&clean, &[]).status().unwrap().success(), "clean run");
    let want = tables(&clean);
    assert!(want.contains_key(&format!("{EXPERIMENT}.md")), "{:?}", want.keys());
    let total = chunk_count(&clean);
    assert!(total >= 8, "{total} chunks");

    let mut mid_run_kills = 0;
    for (k, at) in [1, total / 4, total / 2, 3 * total / 4].into_iter().enumerate() {
        let dir = workdir(&format!("kill{k}"));
        let mut child = experiments(&dir, &[]).spawn().unwrap();
        while chunk_count(&dir) < at && child.try_wait().unwrap().is_none() {
            std::thread::sleep(Duration::from_micros(200));
        }
        let running = child.try_wait().unwrap().is_none();
        let _ = child.kill();
        child.wait().unwrap();
        let left = chunk_count(&dir);
        if running && left < total {
            mid_run_kills += 1;
        }

        let resumed = experiments(&dir, &["--resume"]).status().unwrap();
        assert!(resumed.success(), "resume after a kill at {left} of {total} chunks");
        assert!(tables(&dir) == want, "tables after a kill at {left} of {total} chunks differ");
        assert_eq!(chunk_count(&dir), total);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(mid_run_kills > 0, "no kill landed before the run finished");
    let _ = std::fs::remove_dir_all(&clean);
}
