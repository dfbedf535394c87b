//! Sharded on-disk result store: `<root>/<aa>/<key>/t<start>-<end>.json`.
//!
//! One directory per work unit (keyed by [`Fingerprint`], sharded by its
//! two-char hex prefix to keep directories small), one JSON file per
//! completed trial chunk. Writes are atomic — temp file in the same
//! directory, then `rename` — so a killed sweep never leaves a partially
//! written shard under a final name. Loading is corruption-tolerant: a
//! shard that is unreadable, unparsable, mis-keyed, mis-ranged, or
//! truncated is deleted and reported as absent, which makes the scheduler
//! recompute it; corruption can cost time, never correctness and never a
//! panic.

use crate::fingerprint::Fingerprint;
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files written concurrently by one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One shard's layout on disk: [`ResultStore::write_chunk`] writes a
/// `ChunkFile<&[R]>` and [`ResultStore::load_chunk`] reads a
/// `ChunkFile<Vec<R>>`, both straight from and to text, without a `Value`
/// tree.
#[derive(Serialize, Deserialize)]
struct ChunkFile<R> {
    key: String,
    start: u64,
    end: u64,
    results: R,
}

/// The on-disk store rooted at a cache directory (`results/.cache` by
/// convention).
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Open (and create, with its full hierarchy) a store at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of one work unit.
    pub fn unit_dir(&self, key: &Fingerprint) -> PathBuf {
        self.root.join(key.shard()).join(key.hex())
    }

    /// Path of one chunk shard.
    pub fn chunk_path(&self, key: &Fingerprint, start: u64, end: u64) -> PathBuf {
        self.unit_dir(key).join(format!("t{start:08}-{end:08}.json"))
    }

    /// Atomically persist one completed chunk. Writers of the same shard
    /// need no coordination: by the determinism contract they write
    /// byte-identical content for the same fingerprint and range, and each
    /// `rename` replaces the shard whole.
    pub fn write_chunk<R: Serialize>(
        &self,
        key: &Fingerprint,
        start: u64,
        end: u64,
        results: &[R],
    ) -> io::Result<()> {
        debug_assert_eq!(results.len() as u64, end - start, "chunk length must match its range");
        let chunk = ChunkFile { key: key.hex().to_string(), start, end, results };
        let text = serde_json::to_string(&chunk).expect("chunk serialization");
        self.write_atomic(&self.chunk_path(key, start, end), text.as_bytes())
    }

    /// Load one chunk if present and intact. Any defect — missing file,
    /// bad JSON, wrong key/range, wrong result count, undecodable result —
    /// deletes the shard and returns `None` so the caller recomputes it.
    pub fn load_chunk<R: Deserialize>(
        &self,
        key: &Fingerprint,
        start: u64,
        end: u64,
    ) -> Option<Vec<R>> {
        let path = self.chunk_path(key, start, end);
        let text = fs::read_to_string(&path).ok()?;
        let intact = serde_json::from_str::<ChunkFile<Vec<R>>>(&text).ok().filter(|c| {
            c.key == key.hex()
                && c.start == start
                && c.end == end
                && c.results.len() as u64 == end - start
        });
        match intact {
            Some(chunk) => Some(chunk.results),
            None => {
                // Corrupt shard: discard so the slot is recomputed. A
                // failed delete is harmless — the rewrite replaces it.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Record the human-readable spec of a unit next to its shards, once.
    /// Best-effort (failures are ignored by callers); read back by
    /// [`ResultStore::load_spec_info`] for fingerprint-addressed replay.
    pub fn write_spec_info(&self, key: &Fingerprint, spec_pretty: &str) -> io::Result<()> {
        let path = self.unit_dir(key).join("spec.json");
        if path.exists() {
            return Ok(());
        }
        self.write_atomic(&path, spec_pretty.as_bytes())
    }

    /// Look up a unit's recorded spec by fingerprint hex — full, or any
    /// unique prefix of at least two characters (the shard width). Returns
    /// the full fingerprint hex and the parsed spec, or `None` when the
    /// prefix is unknown, ambiguous, or the unit ran before spec recording
    /// existed.
    pub fn load_spec_info(&self, hex: &str) -> Option<(String, Value)> {
        if hex.len() < 2 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        let shard_dir = self.root.join(&hex[..2]);
        let mut hits: Vec<String> = fs::read_dir(&shard_dir)
            .ok()?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(hex))
            .collect();
        if hits.len() != 1 {
            return None;
        }
        let full = hits.pop()?;
        let text = fs::read_to_string(shard_dir.join(&full).join("spec.json")).ok()?;
        let spec = serde_json::from_str(&text).ok()?;
        Some((full, spec))
    }

    /// Write `bytes` to a temp file next to `path`, then `rename` it into
    /// place. The directory is created only when the temp file cannot be
    /// (the unit's first write), so a write is two directory-entry
    /// operations.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().expect("store paths have parents");
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = match fs::File::create(&tmp) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(dir)?;
                fs::File::create(&tmp)?
            }
            created => created?,
        };
        let written = file.write_all(bytes);
        drop(file);
        written.and_then(|()| fs::rename(&tmp, path)).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::WorkSpec;
    use serde_json::json;

    fn tmp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("jle-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    fn key() -> Fingerprint {
        Fingerprint::of(&WorkSpec::new("e0", "p", json!({"n": 1u64}), 0), "s", "f64")
    }

    #[test]
    fn chunk_roundtrip() {
        let store = tmp_store("roundtrip");
        let k = key();
        let data = vec![1.5f64, 2.0, 3.25];
        store.write_chunk(&k, 0, 3, &data).unwrap();
        assert_eq!(store.load_chunk::<f64>(&k, 0, 3).unwrap(), data);
        // Wrong range: absent, and does not invent data.
        assert!(store.load_chunk::<f64>(&k, 0, 4).is_none());
    }

    #[test]
    fn truncated_shard_is_discarded_not_a_panic() {
        let store = tmp_store("truncated");
        let k = key();
        store.write_chunk(&k, 0, 4, &[1.0f64, 2.0, 3.0, 4.0]).unwrap();
        let path = store.chunk_path(&k, 0, 4);
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.load_chunk::<f64>(&k, 0, 4).is_none());
        assert!(!path.exists(), "corrupt shard must be deleted");
    }

    #[test]
    fn garbled_and_miskeyed_shards_are_discarded() {
        let store = tmp_store("garbled");
        let k = key();
        let path = store.chunk_path(&k, 0, 2);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"not json at all {{{").unwrap();
        assert!(store.load_chunk::<f64>(&k, 0, 2).is_none());
        // A shard whose embedded key disagrees with its location.
        store.write_chunk(&k, 0, 2, &[1.0f64, 2.0]).unwrap();
        let text = fs::read_to_string(store.chunk_path(&k, 0, 2)).unwrap();
        let other = Fingerprint::of(&WorkSpec::new("e9", "q", json!({"n": 2u64}), 9), "s", "f64");
        let other_path = store.chunk_path(&other, 0, 2);
        fs::create_dir_all(other_path.parent().unwrap()).unwrap();
        fs::write(&other_path, &text).unwrap();
        assert!(store.load_chunk::<f64>(&other, 0, 2).is_none());
    }

    #[test]
    fn wrong_result_count_is_discarded() {
        let store = tmp_store("count");
        let k = key();
        let path = store.chunk_path(&k, 0, 3);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(
            &path,
            format!(r#"{{"key":"{}","start":0,"end":3,"results":[1.0,2.0]}}"#, k.hex()),
        )
        .unwrap();
        assert!(store.load_chunk::<f64>(&k, 0, 3).is_none());
    }

    #[test]
    fn reordered_pretty_and_escaped_envelopes_still_load() {
        let store = tmp_store("envelope");
        let k = key();
        let path = store.chunk_path(&k, 0, 2);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let hex = k.hex();
        for text in [
            format!(r#"{{"results":[1.5,2.0],"end":2,"start":0,"key":"{hex}"}}"#),
            format!("{{\n  \"key\": \"{hex}\",\n  \"start\": 0,\n  \"end\": 2,\n  \"results\": [\n    1.5,\n    2.0\n  ]\n}}\n"),
            format!(r#"{{"k\u0065y":"{hex}","st\u0061rt":0,"end":2,"re\u0073ults":[1.5,2.0]}}"#),
            format!(r#"{{"key":"{hex}","start":0,"end":2,"note":{{"x":[null]}},"results":[1.5,2.0]}}"#),
            // Integral floats read as integers, as every u64 field does.
            format!(r#"{{"key":"{hex}","start":0.0,"end":2,"results":[1.5,2.0]}}"#),
        ] {
            fs::write(&path, &text).unwrap();
            assert_eq!(store.load_chunk::<f64>(&k, 0, 2), Some(vec![1.5, 2.0]), "{text}");
            assert!(path.exists(), "an intact shard is kept: {text}");
        }
    }

    #[test]
    fn concurrent_writers_of_the_same_chunk_never_corrupt_it() {
        // Many threads hammering write_chunk on the same fingerprint+range
        // (the deterministic-content scenario two processes computing the
        // same unit produce) must leave the shard readable at all times,
        // never torn, and leak no temp files.
        let store = tmp_store("concurrent");
        let k = key();
        let data: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.write_chunk(&k, 0, 16, &data).unwrap();
                        if let Some(got) = store.load_chunk::<f64>(&k, 0, 16) {
                            assert_eq!(got, data, "a visible shard is always intact");
                        }
                    }
                });
            }
        });
        assert_eq!(store.load_chunk::<f64>(&k, 0, 16).unwrap(), data);
        let leftovers: Vec<_> = fs::read_dir(store.unit_dir(&k))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temps must be cleaned up: {leftovers:?}");
    }

    #[test]
    fn spec_info_written_once() {
        let store = tmp_store("spec");
        let k = key();
        store.write_spec_info(&k, "{\"a\":1}").unwrap();
        store.write_spec_info(&k, "{\"b\":2}").unwrap();
        let text = fs::read_to_string(store.unit_dir(&k).join("spec.json")).unwrap();
        assert_eq!(text, "{\"a\":1}");
    }

    #[test]
    fn spec_info_loads_by_full_hex_and_unique_prefix() {
        let store = tmp_store("spec-load");
        let k = key();
        store.write_spec_info(&k, "{\"n\": 7}").unwrap();
        let (full, spec) = store.load_spec_info(k.hex()).expect("full hex resolves");
        assert_eq!(full, k.hex());
        assert_eq!(spec.get("n").unwrap().as_u64(), Some(7));
        let (full, _) = store.load_spec_info(&k.hex()[..8]).expect("unique prefix resolves");
        assert_eq!(full, k.hex());
        assert!(store.load_spec_info("f").is_none(), "sub-shard prefixes are rejected");
        assert!(store.load_spec_info("zz00").is_none(), "non-hex is rejected");
        assert!(store.load_spec_info("0123456789abcdef").is_none() || k.hex().starts_with("0123"));
    }
}
