//! Byte-level pins for everything the store persists: the canonical JSON
//! a fingerprint hashes, the fingerprint hex itself, and the text of a
//! written chunk. A change to the JSON layer that moves any byte here
//! would silently orphan every existing cache entry.

use jle_orchestrator::sha256::sha256_hex;
use jle_orchestrator::{canonical_json, Fingerprint, ResultStore, WorkSpec};
use serde_json::json;

fn spec() -> WorkSpec {
    WorkSpec::new(
        "e1",
        "lesk n=1024 \"eps\"=0.5",
        json!({
            "kind": "exact_election",
            "n": 1024u64,
            "eps": 0.1f64,
            "adv": {"t": 32u64, "strategy": "saturating", "offset": -3i64},
            "weights": [0.5f64, 1.0f64, 1e-7f64, 18446744073709551615u64],
            "faults": null,
            "label": "tab\there é",
            "nested": {"z": {}, "a": []},
        }),
        7,
    )
}

#[test]
fn fingerprint_hex_is_pinned() {
    let keyed = canonical_json(&spec().to_value());
    assert_eq!(
        keyed,
        r#"{"base_seed":7,"experiment":"e1","params":{"adv":{"offset":-3,"strategy":"saturating","t":32},"eps":0.1,"faults":null,"kind":"exact_election","label":"tab\there é","n":1024,"nested":{"a":[],"z":{}},"weights":[0.5,1,0.0000001,18446744073709551615]},"point":"lesk n=1024 \"eps\"=0.5"}"#
    );
    let fp =
        Fingerprint::of(&spec(), "jle-sim-v1+engine=fast-exact", "jle_engine::report::RunReport");
    assert_eq!(fp.hex(), "d7390985d0617aa6eb2dca6380660128e5189d5f91e4c98cafdf6abcf5af6320");
}

#[test]
fn chunk_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("jle-pinned-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let key = Fingerprint::of(&spec(), "s", "tuple");
    let results: Vec<(u64, i64, f64, String, Option<bool>)> = vec![
        (0, -1, 0.25, "a\"b".to_string(), None),
        (u64::MAX, i64::MIN, -1.5e-9, String::new(), Some(true)),
        (42, 0, 3.0, "ünï\u{1}".to_string(), Some(false)),
    ];
    store.write_chunk(&key, 0, 3, &results).unwrap();
    let bytes = std::fs::read(store.chunk_path(&key, 0, 3)).unwrap();
    assert_eq!(
        sha256_hex(&bytes),
        "e419a5875c7019c0d1cc37890c6d01ebe8c392d29a502ebc64d4708e25af4ce4"
    );
    assert_eq!(store.load_chunk(&key, 0, 3), Some(results));
    let _ = std::fs::remove_dir_all(&dir);
}
