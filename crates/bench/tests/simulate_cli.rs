//! The `simulate` command line through the real binary: a station count
//! of zero is refused with the same message `ElectionParams::decode` and
//! the lens give, and exit code 2, before any engine runs; a matrix of
//! runs prints the bytes recorded under `tests/simulate_pinned/`, every
//! invalid flag combination exits 2 without a panic, and the lens replays
//! a unit-disk `cluster` run and the pinned lease-under-churn run to the
//! reports `simulate` prints.

use jle_protocols::params::ZERO_STATIONS;
use serde::Value;
use std::path::Path;
use std::process::{Command, Output};

fn simulate(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args.split_whitespace())
        .output()
        .expect("simulate runs")
}

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

/// Each run's stdout is pinned byte for byte in `simulate_pinned/NAME.json`.
const PINNED: &[(&str, &str)] = &[
    (
        "cohort_lesk_saturating",
        "--n 64 --protocol lesk --eps 0.5 --adversary saturating --adv-eps 0.5 --t-window 32 \
         --seed 7",
    ),
    ("cohort_lesu_noise", "--n 128 --protocol lesu --adversary none --noise 0.1 --seed 3"),
    (
        "cohort_backoff_random",
        "--n 32 --protocol backoff --adversary random --adv-eps 0.5 --seed 5",
    ),
    (
        "cohort_willard_weak_periodic",
        "--n 256 --protocol willard --cd weak --adversary periodic --seed 11",
    ),
    ("cohort_arss_burst", "--n 64 --protocol arss --adversary burst --t-window 16 --seed 2"),
    ("lewk_strong", "--n 16 --protocol lewk --cd strong --adversary saturating --seed 4"),
    ("lewk_weak", "--n 16 --protocol lewk --cd weak --adversary saturating --seed 4"),
    ("lewu_strong", "--n 12 --protocol lewu --cd strong --adversary none --seed 9"),
    ("lewu_weak", "--n 12 --protocol lewu --cd weak --adversary none --seed 9"),
    (
        "churn_lesk",
        "--n 32 --protocol lesk --churn-join-prob 0.3 --churn-leave-prob 0.2 \
         --churn-rejoin-after 256 --seed 6",
    ),
    (
        "churn_lewu",
        "--n 16 --protocol lewu --cd weak --adversary none --churn-join-prob 0.3 --churn-seed 9 \
         --seed 1 --max-slots 20000",
    ),
    ("trials16_lesk", "--n 64 --protocol lesk --trials 16 --seed 100"),
    (
        "lease_churn",
        "--n 16 --max-slots 12288 --lease-beacon 8 --churn-join-prob 0.4 --churn-leave-prob 0.4 \
         --churn-rejoin-after 1024 --seed 7",
    ),
    (
        "dense_linear_cluster",
        "--topology dense-linear:3,4 --protocol cluster --adversary none --seed 2 \
         --max-slots 200000",
    ),
    ("core_tail_lesk", "--topology core-tail:4,4 --protocol lesk --adversary none --seed 3"),
    ("unit_disk_lesk", UNIT_DISK_LESK),
    ("unit_disk_cluster", UNIT_DISK_CLUSTER),
];

const UNIT_DISK_LESK: &str = "--topology unit-disk:32,0.3,1 --protocol lesk --eps 0.4 \
                              --adversary none --seed 3 --max-slots 200000";
const UNIT_DISK_CLUSTER: &str = "--topology unit-disk:32,0.3,1 --protocol cluster --eps 0.4 \
                                 --adversary none --seed 3 --max-slots 200000";

#[test]
fn pinned_runs_print_their_recorded_bytes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/simulate_pinned");
    for (name, args) in PINNED {
        let out = simulate(args);
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        let want = std::fs::read(dir.join(format!("{name}.json"))).expect("pinned output");
        assert!(
            out.stdout == want,
            "{name}: stdout differs from the pinned bytes\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn invalid_combinations_exit_2() {
    for args in [
        "--protocol cluster",
        "--protocol cluster --trials 4",
        "--protocol nope",
        "--adversary nope",
        "--cd nope",
        "--bogus 1",
        "--topology moebius:3",
        "--topology dense-linear:2,2 --protocol willard",
        "--topology dense-linear:2,2 --protocol arss",
        "--topology dense-linear:2,2 --noise 0.1",
        "--topology dense-linear:2,2 --churn-join-prob 0.2",
        "--topology dense-linear:2,2 --lease-beacon 8",
        "--churn-join-prob 0.2 --protocol backoff",
        "--churn-join-prob 0.2 --protocol willard",
        "--churn-join-prob 0.2 --protocol arss --trials 3",
        "--churn-seed 5 --protocol cluster",
        "--lease-beacon 8 --cd weak",
        "--lease-beacon 8 --protocol lesu",
        "--lease-beacon 8 --protocol cluster",
        "--lease-beacon 0",
        "--churn-join-prob 1.5 --churn-seed 3",
        "--eps 2",
        "--trace-out trace.json",
        "--server tcp:127.0.0.1:1 --protocol lewk",
        "--server tcp:127.0.0.1:1 --protocol arss",
        "--server tcp:127.0.0.1:1 --protocol cluster",
        "--server tcp:127.0.0.1:1 --noise 0.1",
        "--server tcp:127.0.0.1:1 --topology dense-linear:2,2",
        "--server tcp:127.0.0.1:1 --churn-join-prob 0.2",
        "--server tcp:127.0.0.1:1 --lease-beacon 8",
        "--server nowhere",
    ] {
        let out = simulate(args);
        assert_eq!(out.status.code(), Some(2), "{args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: ") && !stderr.contains("panicked"), "{args}: {stderr}");
    }
}

/// A unit-disk `cluster` run replayed through the lens: the lens's spec
/// must pick the same clusters (every node its own) as `simulate`, so
/// the two reports agree field for field.
#[test]
fn the_lens_replays_a_unit_disk_cluster_run() {
    let out = simulate(UNIT_DISK_CLUSTER);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let printed: Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let params = serde_json::json!({
        "kind": "election_run",
        "engine": "multihop",
        "n": 32u64,
        "cd": "Strong",
        "adv": {"eps": {"num": 2147483648u64}, "t_window": 1u64, "kind": "None"},
        "max_slots": 200_000u64,
        "stop": "all-terminated",
        "proto": {"proto": "cluster", "eps": 0.4f64},
        "topology": "unit-disk:32,0.3,1",
    });
    let spec = jle_lens::LensSpec::from_params(&params).unwrap();
    let replayed = jle_lens::replay(&spec, 3, 64, false).unwrap().report;
    let replayed = serde_json::to_value(&replayed);
    for key in ["slots", "resolved_at", "winner", "leaders"] {
        assert_eq!(printed.get(key), replayed.get(key), "{key}");
    }
    let rows = |v: &Value| -> Vec<Value> {
        let clusters = v.get("multihop").and_then(|m| m.get("clusters"));
        let clusters = clusters.and_then(Value::as_seq).expect("per-cluster rows");
        clusters
            .iter()
            .map(|c| {
                let field = |k: &str| c.get(k).cloned().unwrap_or(Value::Null);
                serde_json::json!([
                    field("cluster"),
                    field("size"),
                    field("resolved_at"),
                    field("leader")
                ])
            })
            .collect()
    };
    assert_eq!(rows(&printed).len(), 32, "every node is its own cluster");
    assert_eq!(rows(&printed), rows(&replayed));
}

/// The pinned `lease_churn` run replayed through the lens from its spec
/// tree: the churn plan drawn from the seed, the leases and their shared
/// ledger all come from the spec, so the replay prints the pinned run.
#[test]
fn the_lens_replays_the_pinned_lease_churn_run() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/simulate_pinned");
    let pinned = std::fs::read_to_string(dir.join("lease_churn.json")).unwrap();
    let printed: Value = serde_json::from_str(&pinned).unwrap();
    let params = serde_json::json!({
        "kind": "election_run",
        "engine": "fast-exact",
        "n": 16u64,
        "cd": "Strong",
        "adv": {"eps": {"num": 2147483648u64}, "t_window": 32u64, "kind": "Saturating"},
        "max_slots": 12_288u64,
        "stop": "horizon",
        "proto": {"proto": "lesk", "eps": 0.5f64},
        "churn_recipe": {"join_prob": 0.4f64, "join_window": 1024u64, "leave_prob": 0.4f64,
            "leave_window": 2048u64, "rejoin_after": 1024u64},
        "lease": {"beacon": 8u64, "miss_tolerance": 10u64, "timeout": 512u64},
    });
    let spec = jle_lens::LensSpec::from_params(&params).unwrap();
    let replayed = jle_lens::replay(&spec, 7, 64, false).unwrap().report;
    assert_eq!(replayed.outcome().label(), printed.get("outcome").and_then(Value::as_str).unwrap());
    let replayed = serde_json::to_value(&replayed);
    for key in ["slots", "resolved_at", "winner", "leaders", "timed_out"] {
        assert_eq!(printed.get(key), replayed.get(key), "{key}");
    }
    for (block, keys) in [
        (
            "split_brain",
            &[
                "believers",
                "windows",
                "split_slots",
                "longest_split",
                "max_believers",
                "reelections",
            ] as &[&str],
        ),
        ("counts", &["nulls", "singles", "collisions", "jammed"]),
    ] {
        for key in keys {
            let field = |v: &Value| v.get(block).and_then(|b| b.get(key)).cloned();
            assert!(field(&printed).is_some(), "{block}.{key} is pinned");
            assert_eq!(field(&printed), field(&replayed), "{block}.{key}");
        }
    }
}
