//! `serde_json::from_str` (derived `from_parser`, reading fields straight
//! from the text) must accept, decode and refuse exactly as the `Value`
//! tree decode path did, and `serde_json::to_string` (each type writing
//! itself) must give the bytes the tree writer gave. The tree path is
//! gone; `pull_equiv.verdicts` holds its verdict on every input decoded
//! here, and on every value written here, recorded at the commit named
//! in its header: the value written back on accept, the exact error on
//! reject, the bytes on write. An input with no row fails the test.
//! Built with `--cfg record_verdicts`, the suite appends the tree path's
//! verdicts to the file `JLE_RECORD_VERDICTS` names instead of checking;
//! it refuses to run where `Value` conversions go through text.
//!
//! The inputs are seeded mutations of real text (reordered, duplicated,
//! dropped, unknown and escaped keys; numbers spelled as floats,
//! exponents, negatives and overflows; pretty whitespace; truncations;
//! trailing garbage) and hand-picked enum and attribute edge cases. The
//! real text is `RunReport` JSON and every external format: a lens spec
//! carrying a fault plan and a churn plan, the committed flight artifact,
//! a `--metrics-out` snapshot and a sweepd `submit` frame's `spec` and
//! `trace`.

use jle_engine::{
    ChurnPlan, ClusterOutcome, EnergyStats, FaultPlan, MultihopReport, RunReport, SplitBrainStats,
    StationChurn, StationFaults,
};
use jle_orchestrator::WorkSpec;
use jle_radio::history::StateCounts;
use jle_telemetry::metrics::MetricSample;
use jle_telemetry::{FlightRecord, MetricRegistry, MetricsSnapshot, SlotEvent, TraceContext};
use serde::de::Parser;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;

#[path = "../../../vendor/serde_json/tests/verdicts/mod.rs"]
mod verdicts;

/// Externally tagged, one variant of each kind.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    New(u64),
    Pair(u64, String),
    Named {
        a: u64,
        #[serde(default)]
        b: Option<bool>,
    },
}

/// Every field attribute the derive supports.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Knobs {
    id: u64,
    #[serde(skip)]
    cache: Vec<u64>,
    #[serde(default)]
    label: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    extra: Option<Shape>,
    shapes: Vec<Shape>,
}

/// A derived type with a type parameter.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Tagged<T> {
    tag: String,
    items: Vec<T>,
}

/// Every field omitted on the way out: writes `{}`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Omitted {
    #[serde(skip)]
    hidden: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    maybe: Option<u64>,
}

/// Conditional fields before, between and after the ones always written.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Sparse {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    a: Option<u64>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    b: Vec<String>,
    c: u64,
    #[serde(skip)]
    d: bool,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    e: Option<Shape>,
}

/// Conditional and skipped fields inside struct variants, an empty struct
/// variant, and a wider tuple variant.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Variants {
    Both {
        #[serde(default, skip_serializing_if = "Option::is_none")]
        x: Option<u64>,
        #[serde(skip)]
        hidden: u8,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        y: Option<f64>,
    },
    Empty {},
    Triple(u8, i32, f32),
    Unit,
}

/// Newtype, tuple and unit structs.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(f64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Triple(u64, String, Option<bool>);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Nothing;

/// Floats of both widths, alone and in containers.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Floats {
    wide: f64,
    narrow: f32,
    all: Vec<f64>,
    maybe: Option<f32>,
}

/// The parts of a lens spec that are plans; the spec's other keys are
/// skipped.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Plans {
    #[serde(default)]
    faults: Option<FaultPlan>,
    #[serde(default)]
    churn: Option<ChurnPlan>,
}

/// The parts of a sweepd `submit` frame that are external types.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Submit {
    spec: WorkSpec,
    #[serde(default)]
    trace: Option<TraceContext>,
}

/// The recorded verdicts, next to this file.
const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/pull_equiv.verdicts");

/// `serde_json::to_string(x)` (`x` writes itself) must be the bytes the
/// tree writer gave for `x`'s `Value` tree, as recorded. Returns the
/// text.
fn writes_agree<T: Serialize + Debug + ?Sized>(x: &T) -> String {
    verdicts::written(x)
}

/// Decode `s` as `T` and check the verdict against the tree path's
/// recorded one: the value written back, or the exact error. Returns
/// whether `T` accepted `s`. A rejection by `from_str` is also one by the
/// pull reader alone.
fn agree<T: Deserialize + Serialize + PartialEq + Debug>(s: &str) -> bool {
    let took = verdicts::decoded::<T>(s);
    let mut p = Parser::new(s);
    let pull = T::from_parser(&mut p).and_then(|v| p.end().map(|()| v));
    assert_eq!(pull.is_ok(), took, "input {s:?}");
    took
}

/// Check `s` against the external formats; whether `T` took it.
fn agree_formats<T: Deserialize + Serialize + PartialEq + Debug>(s: &str) -> bool {
    agree::<Plans>(s);
    agree::<Submit>(s);
    agree::<WorkSpec>(s);
    agree::<TraceContext>(s);
    agree::<SlotEvent>(s);
    agree::<FlightRecord>(s);
    agree::<MetricSample>(s);
    agree::<MetricsSnapshot>(s);
    agree::<StationChurn>(s);
    agree::<ChurnPlan>(s);
    agree::<StationFaults>(s);
    agree::<FaultPlan>(s);
    agree::<T>(s)
}

/// Check `s` against every type under test; whether `RunReport` took it.
fn agree_all(s: &str) -> bool {
    agree_formats::<Vec<SlotEvent>>(s);
    agree::<SplitBrainStats>(s);
    agree::<Shape>(s);
    agree::<Knobs>(s);
    agree::<Tagged<Shape>>(s);
    agree::<Sparse>(s);
    agree::<Variants>(s);
    agree::<Option<u64>>(s);
    agree::<Vec<(u64, String)>>(s);
    agree::<Vec<RunReport>>(s);
    agree::<RunReport>(s)
}

fn reports() -> Vec<RunReport> {
    let plain = RunReport {
        slots: 142,
        resolved_at: Some(141),
        winner: Some(573),
        leaders: vec![573],
        all_terminated: true,
        counts: StateCounts { nulls: 0, singles: 1, collisions: 141, jammed: 67 },
        energy: EnergyStats { transmissions: 24002, listens: 121406 },
        ..RunReport::default()
    };
    let split = RunReport {
        slots: 4096,
        timed_out: true,
        cap_hit: true,
        leader_crashed: true,
        split_brain: SplitBrainStats {
            tracked: true,
            windows: 3,
            split_slots: 40,
            longest_split: 17,
            max_believers: 3,
            believers: vec![4, 9],
            reelections: 2,
        },
        noise_slots: 11,
        ..plain.clone()
    };
    let multihop = RunReport {
        multihop: Some(MultihopReport {
            topology: "core_tail(8, 8) \"quoted\"".to_string(),
            components: 1,
            clusters: vec![
                ClusterOutcome { cluster: 0, size: 8, resolved_at: Some(12), leader: Some(3) },
                ClusterOutcome { cluster: 1, size: 9, resolved_at: None, leader: None },
            ],
            converged_at: Some(30),
            network_leader: Some(3),
            cross_cluster_interference: 5,
        }),
        ..plain.clone()
    };
    vec![plain, split, multihop, RunReport::default()]
}

/// splitmix64: a fixed, seeded stream of mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Placeholder a mutation puts where raw number text goes after rendering.
const RAW: &str = "@raw@";
const SPELLINGS: [&str; 7] = ["3.0", "1e2", "-1", "18446744073709551616", "2.5", "-0", "\"3\""];

fn filler(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Str("x".to_string()),
        2 => Value::U64(7),
        3 => Value::Str(RAW.to_string()),
        4 => {
            Value::Seq(vec![Value::Map(vec![("k".into(), Value::Seq(vec![]))]), Value::Bool(true)])
        }
        _ => Value::Map(vec![
            ("slots".into(), Value::Map(vec![("deep".into(), Value::Seq(vec![Value::Null]))])),
            ("\"q\"".into(), Value::F64(-0.5)),
        ]),
    }
}

/// Apply one structural mutation to the entries of an object.
fn mutate_map(m: &mut Vec<(String, Value)>, rng: &mut Rng) {
    if m.is_empty() {
        m.push(("zz_unknown".into(), filler(rng)));
        return;
    }
    let i = rng.below(m.len());
    match rng.below(6) {
        // Reorder.
        0 => {
            for k in (1..m.len()).rev() {
                m.swap(k, rng.below(k + 1));
            }
        }
        // Duplicate a key, with another value, before or after the first.
        1 => {
            let dup = (m[i].0.clone(), filler(rng));
            let at = rng.below(m.len() + 1);
            m.insert(at, dup);
        }
        // Drop a key.
        2 => {
            m.remove(i);
        }
        // An unknown key holding a nested value.
        3 => {
            let at = rng.below(m.len() + 1);
            m.insert(at, ("zz_unknown".into(), filler(rng)));
        }
        // A number slot spelled another way.
        4 => m[i].1 = Value::Str(RAW.to_string()),
        // Recurse into a nested object, if the entry holds one.
        _ => match &mut m[i].1 {
            Value::Map(inner) => mutate_map(inner, rng),
            Value::Seq(xs) if !xs.is_empty() => {
                let j = rng.below(xs.len());
                if let Value::Map(inner) = &mut xs[j] {
                    mutate_map(inner, rng);
                }
            }
            _ => m[i].1 = filler(rng),
        },
    }
}

/// Text-level mutations after rendering.
fn mutate_text(mut text: String, rng: &mut Rng) -> String {
    while let Some(at) = text.find(&format!("\"{RAW}\"")) {
        let raw = SPELLINGS[rng.below(SPELLINGS.len())];
        text.replace_range(at..at + RAW.len() + 2, raw);
    }
    // Escape one character of a key: "slots" -> "\u0073lots".
    if rng.below(3) == 0 {
        let keys: Vec<usize> = text.match_indices("\":").map(|(i, _)| i).collect();
        if let Some(&end) = keys.get(rng.below(keys.len().max(1))) {
            let start = text[..end].rfind('"').unwrap_or(0) + 1;
            if let Some((off, c)) =
                text[start..end].char_indices().find(|(_, c)| c.is_ascii_alphanumeric())
            {
                text.replace_range(start + off..start + off + 1, &format!("\\u{:04x}", c as u32));
            }
        }
    }
    match rng.below(8) {
        0 => text.push_str(" x"),
        1 => text.push('}'),
        2 => text.push_str("{}"),
        _ => {}
    }
    text
}

#[test]
fn real_reports_decode_identically() {
    for r in reports() {
        let compact = serde_json::to_string(&r).unwrap();
        let pretty = serde_json::to_string_pretty(&r).unwrap();
        assert!(agree_all(&compact), "{compact}");
        assert!(agree_all(&pretty), "{pretty}");
        assert_eq!(serde_json::from_str::<RunReport>(&compact).unwrap(), r);
    }
    let all = serde_json::to_string(&reports()).unwrap();
    assert_eq!(serde_json::from_str::<Vec<RunReport>>(&all).unwrap(), reports());
}

#[test]
fn seeded_mutations_of_real_reports_decode_identically() {
    let (mut accepted, mut rejected) = (0, 0);
    let mut rng = Rng(0x5eed);
    for r in reports() {
        let tree = serde::Serialize::to_json_value(&r);
        for round in 0..300 {
            let mut v = tree.clone();
            let Value::Map(m) = &mut v else { unreachable!("a report is an object") };
            for _ in 0..1 + rng.below(3) {
                mutate_map(m, &mut rng);
            }
            let text = if round % 4 == 0 {
                serde_json::to_string_pretty(&v).unwrap()
            } else {
                serde_json::to_string(&v).unwrap()
            };
            let text = mutate_text(text, &mut rng);
            if agree_all(&text) {
                accepted += 1;
            } else {
                rejected += 1;
            }
            // Wrapped in an array with an intact report next to it.
            agree::<Vec<RunReport>>(&format!("[{text},{}]", serde_json::to_string(&r).unwrap()));
        }
    }
    // The mutations must exercise both outcomes, not just one.
    assert!(accepted > 200 && rejected > 200, "accepted {accepted}, rejected {rejected}");
}

#[test]
fn truncations_and_trailing_garbage_decode_identically() {
    let all = serde_json::to_string(&reports()).unwrap();
    for text in [all.clone(), serde_json::to_string_pretty(&reports()).unwrap()] {
        for cut in (0..text.len()).step_by(97) {
            if let Some(prefix) = text.get(..cut) {
                assert!(!agree_all(prefix));
            }
        }
        for tail in [" x", "]", ",", "{}", " null"] {
            agree_all(&format!("{text}{tail}"));
        }
    }
    let one = serde_json::to_string(&reports()[2]).unwrap();
    for cut in 0..one.len() {
        if let Some(prefix) = one.get(..cut) {
            assert!(!agree_all(prefix), "{prefix}");
        }
    }
}

#[test]
fn number_spellings_in_u64_slots_decode_identically() {
    let base = serde_json::to_string(&reports()[1]).unwrap();
    for raw in ["3.0", "1e2", "-1", "18446744073709551616", "1.5", "-0", "0.0", "1E2", "null"] {
        let text = base.replacen("\"slots\":4096", &format!("\"slots\":{raw}"), 1);
        assert_ne!(text, base);
        let took = agree_all(&text);
        assert_eq!(took, ["3.0", "1e2", "-0", "0.0", "1E2"].contains(&raw), "{raw}");
    }
}

#[test]
fn enums_and_attributes_decode_identically() {
    let texts = [
        r#""Unit""#,
        r#""\u0055nit""#,
        r#"{"Unit":null}"#,
        r#"{"Unit":[1,{"a":2}]}"#,
        r#"{"New":5}"#,
        r#"{"New":3.0}"#,
        r#"{"N\u0065w":5}"#,
        r#"{"New":-5}"#,
        r#"{"Pair":[1,"a"]}"#,
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[1,"a",2]}"#,
        r#"{"Pair":{"0":1}}"#,
        r#"{"Named":{"a":1}}"#,
        r#"{"Named":{"a":1,"b":true,"a":"dup"}}"#,
        r#"{"Named":{"b":null,"a":2,"zz":[[{}]]}}"#,
        r#"{"Named":{"b":true}}"#,
        r#"{"Named":[1]}"#,
        r#"{"Unit":null,"New":1}"#,
        r#"{"New":1,"New":1}"#,
        r#"{}"#,
        r#""New""#,
        r#""Bogus""#,
        r#"{"Bogus":1}"#,
        "null",
        "[]",
        "5",
        r#"{"id":1,"cache":[1,2],"shapes":[]}"#,
        r#"{"id":1,"cache":"not a list","shapes":["Unit"]}"#,
        r#"{"id":1,"label":"x","shapes":["Unit",{"New":2}],"extra":{"Pair":[1,"b"]}}"#,
        r#"{"id":1,"shapes":[],"extra":null}"#,
        r#"{"id":1,"shapes":[],"extra":"Pair"}"#,
        r#"{"shapes":[],"label":"no id"}"#,
        r#"{"id":2,"id":"dup","shapes":[{"Named":{"a":1}}],"label":"é\n"}"#,
        r#"{"tag":"t","items":["Unit",{"New":1},{"Pair":[2,"p"]}]}"#,
        r#"{"tag":"t","items":[],"tag":5}"#,
        r#"{"items":[],"tag":"t"}"#,
        r#"{"tag":"t"}"#,
        r#"{"tag":"t","items":[{"New":1,"Unit":null}]}"#,
        r#"[[1,"a"],[2,"b"]]"#,
        r#"[[1,"a"],[2]]"#,
        "[]  ",
        " 7 ",
        "7 7",
    ];
    for text in texts {
        agree_all(text);
    }
    // A unit variant takes `null` as its payload and nothing else.
    assert!(agree::<Shape>(r#"{"Unit":null}"#));
    assert!(!agree::<Shape>(r#"{"Unit":[1,{"a":2}]}"#));
    assert!(!agree::<Shape>(r#"{"Unit":null,"New":1}"#));
    let knobs: Knobs = serde_json::from_str(r#"{"id":1,"cache":[1,2],"shapes":[]}"#).unwrap();
    assert!(knobs.cache.is_empty(), "a skipped field stays at its default");
    let tagged: Tagged<u64> = serde_json::from_str(r#"{"tag":"t","items":[1,2]}"#).unwrap();
    assert_eq!(tagged, Tagged { tag: "t".to_string(), items: vec![1, 2] });
    // A station map reads back only keys spelled as its writer spells
    // them, each once, with one error on both paths.
    let faults =
        r#"{"wake_at":0,"crash_at":null,"recover_at":null,"deaf":null,"sensing_flip_prob":0}"#;
    let joins = r#"{"join_at":5,"leave_at":null,"rejoin_at":null}"#;
    let station_keys = [
        (r#""+1""#, r#"map key "+1" is not a u64 in decimal"#),
        (r#""01""#, r#"map key "01" is not a u64 in decimal"#),
        (r#""""#, r#"map key "" is not a u64 in decimal"#),
        (r#""18446744073709551616""#, r#"map key "18446744073709551616" is not a u64 in decimal"#),
        (r#""-1""#, r#"map key "-1" is not a u64 in decimal"#),
        (r#""1","1""#, r#"duplicate map key "1""#),
        (r#""1","01""#, r#"map key "01" is not a u64 in decimal"#),
    ];
    for (keys, want) in station_keys {
        let entries = |v: &str| keys.split(',').map(|k| format!("{k}:{v}")).collect::<Vec<_>>();
        let text = format!(r#"{{"seed":1,"faults":{{{}}}}}"#, entries(faults).join(","));
        refused::<FaultPlan>(&text, want);
        refused::<ChurnPlan>(
            &format!(r#"{{"seed":1,"churn":{{{}}}}}"#, entries(joins).join(",")),
            want,
        );
    }
    for key in ["0", "1", "18446744073709551615"] {
        let text = format!(r#"{{"seed":1,"faults":{{"{key}":{faults}}}}}"#);
        assert!(agree::<FaultPlan>(&text));
        assert_eq!(
            serde_json::to_string(&serde_json::from_str::<FaultPlan>(&text).unwrap()).unwrap(),
            text
        );
    }
}

/// `T` refuses `s` with the error `want` on the pull path and through
/// `from_str` (the tree path's error, as recorded).
fn refused<T: Deserialize + Serialize + PartialEq + Debug>(s: &str, want: &str) {
    assert!(!agree::<T>(s), "{s}");
    let mut p = Parser::new(s);
    assert_eq!(T::from_parser(&mut p).unwrap_err().to_string(), want, "{s}");
    assert_eq!(serde_json::from_str::<T>(s).unwrap_err().to_string(), want, "{s}");
}

/// A lens spec carrying a fault plan and a churn plan, as `LensSpec`
/// writes it.
const LENS_SPEC: &str = r#"{"kind":"election_run","engine":"fast-exact","n":8,"cd":"Strong","adv":{"eps":{"num":2147483648},"t_window":64,"kind":"Saturating"},"max_slots":20000,"stop":"all-terminated","proto":{"proto":"lesk","eps":0.5},"noise":0.125,"faults":{"seed":3,"faults":{"0":{"wake_at":0,"crash_at":40,"recover_at":400,"deaf":null,"sensing_flip_prob":0},"6":{"wake_at":9,"crash_at":null,"recover_at":null,"deaf":[3,17],"sensing_flip_prob":0.25}}},"churn":{"seed":5,"churn":{"2":{"join_at":104,"leave_at":null,"rejoin_at":null},"3":{"join_at":127,"leave_at":30,"rejoin_at":90},"7":{"join_at":126,"leave_at":null,"rejoin_at":null}}},"topology":"dense-linear:2,4","discipline":"counter"}"#;

/// The committed flight artifact `jle-lens replay --flight` replays.
const FLIGHT: &str = include_str!("../../lens/fixtures/flight-snapshot-exact-seed7.json");

/// A sweepd `submit` frame with a trace context, as the client writes it.
const SUBMIT: &str = r#"{"v":1,"op":"submit","id":8,"spec":{"base_seed":42,"experiment":"e15","params":{"n":64,"eps":0.5},"point":"lesk/n=64"},"trials":8,"trace":{"trace_id":"00000000deadbeef","parent_span":3}}"#;

/// One line of a `--metrics-out` export: a counter, a gauge and a
/// histogram.
fn metrics_line() -> String {
    let reg = MetricRegistry::new();
    reg.counter("jle_test_trials_total", "trials run").add(41);
    reg.gauge("jle_test_ratio", "a \"quoted\" ratio").set(0.375);
    let h = reg.histogram("jle_test_slots", "slots per trial");
    for x in [0, 3, 900, u64::MAX] {
        h.observe(x);
    }
    serde_json::to_string(&reg.snapshot()).unwrap()
}

/// The object at `path` (keys, or indices into arrays) inside `v`.
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Vec<(String, Value)> {
    let mut v = v;
    for key in path {
        v = match v {
            Value::Map(m) => &mut m.iter_mut().find(|(k, _)| k == key).expect("path key").1,
            Value::Seq(xs) => &mut xs[key.parse::<usize>().expect("path index")],
            _ => panic!("no container at {key}"),
        };
    }
    let Value::Map(m) = v else { panic!("no object at {path:?}") };
    m
}

/// Seeded mutations of `text`, each aimed at the object at one of
/// `paths`, decoded as every external format; `T` must both accept and
/// reject some of them.
fn mutations_agree<T: Deserialize + Serialize + PartialEq + Debug>(
    text: &str,
    paths: &[&[&str]],
    seed: u64,
) {
    assert!(agree_formats::<T>(text), "the real text decodes: {text:.80}");
    let tree: Value = serde_json::from_str(text).unwrap();
    let (mut accepted, mut rejected) = (0, 0);
    let mut rng = Rng(seed);
    for round in 0..400 {
        let mut v = tree.clone();
        let m = at(&mut v, paths[rng.below(paths.len())]);
        for _ in 0..1 + rng.below(3) {
            mutate_map(m, &mut rng);
        }
        let text = if round % 4 == 0 {
            serde_json::to_string_pretty(&v).unwrap()
        } else {
            serde_json::to_string(&v).unwrap()
        };
        if agree_formats::<T>(&mutate_text(text, &mut rng)) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted > 40 && rejected > 40, "accepted {accepted}, rejected {rejected}");
}

#[test]
fn seeded_mutations_of_external_formats_decode_identically() {
    let plans: &[&[&str]] = &[
        &[],
        &["faults"],
        &["faults", "faults"],
        &["faults", "faults", "6"],
        &["churn"],
        &["churn", "churn"],
        &["churn", "churn", "3"],
    ];
    mutations_agree::<Plans>(LENS_SPEC, plans, 0x1e45);
    let flight: &[&[&str]] = &[&[], &["context"], &["events", "3"], &["spec"]];
    mutations_agree::<FlightRecord>(FLIGHT, flight, 0xf11e);
    let metrics = metrics_line();
    let samples: &[&[&str]] = &[&[], &["metrics", "0"], &["metrics", "1"], &["metrics", "2"]];
    mutations_agree::<MetricsSnapshot>(&metrics, samples, 0x3e7);
    let frame: &[&[&str]] = &[&[], &["spec"], &["spec", "params"], &["trace"]];
    mutations_agree::<Submit>(SUBMIT, frame, 0x5b);
}

#[test]
fn external_formats_write_their_own_bytes() {
    let plans: Plans = serde_json::from_str(LENS_SPEC).unwrap();
    let text = writes_agree(&plans);
    assert!(LENS_SPEC.contains(&text[1..text.len() - 1]), "{text}");
    let record: FlightRecord = serde_json::from_str(FLIGHT).unwrap();
    assert_eq!(serde_json::to_string_pretty(&record).unwrap(), FLIGHT.trim_end());
    writes_agree(&record);
    let metrics = metrics_line();
    let snapshot: MetricsSnapshot = serde_json::from_str(&metrics).unwrap();
    assert_eq!(writes_agree(&snapshot), metrics);
    let submit: Submit = serde_json::from_str(SUBMIT).unwrap();
    writes_agree(&submit);
    assert!(SUBMIT.contains(&format!(r#""spec":{},"#, writes_agree(&submit.spec))));
    assert!(SUBMIT.contains(&format!(r#""trace":{}}}"#, writes_agree(&submit.trace))));
}

#[test]
fn reports_write_the_tree_writers_bytes() {
    for r in reports() {
        let text = writes_agree(&r);
        assert_eq!(text.contains("\"multihop\""), r.multihop.is_some(), "{text}");
    }
    writes_agree(&reports());
    writes_agree(reports().as_slice());
    writes_agree(&&reports()[2]);
    writes_agree(&Box::new(reports()[1].clone()));
    writes_agree(&Some(reports()[0].clone()));
}

#[test]
fn omitted_fields_write_the_tree_writers_bytes() {
    assert_eq!(writes_agree(&Omitted { hidden: 5, maybe: None }), "{}");
    assert_eq!(writes_agree(&Omitted { hidden: 5, maybe: Some(2) }), r#"{"maybe":2}"#);
    for a in [None, Some(1)] {
        for b in [vec![], vec!["x".to_string()]] {
            for e in [None, Some(Shape::Pair(2, "p".to_string()))] {
                writes_agree(&Sparse { a, b: b.clone(), c: 3, d: true, e });
            }
        }
    }
    let sparse = Sparse { a: None, b: vec![], c: 3, d: true, e: None };
    assert_eq!(writes_agree(&sparse), r#"{"c":3}"#);
    for x in [None, Some(1)] {
        for y in [None, Some(0.5)] {
            writes_agree(&Variants::Both { x, hidden: 9, y });
        }
    }
    assert_eq!(writes_agree(&Variants::Both { x: None, hidden: 9, y: None }), r#"{"Both":{}}"#);
    assert_eq!(writes_agree(&Variants::Empty {}), r#"{"Empty":{}}"#);
    assert_eq!(writes_agree(&Variants::Triple(255, -7, 0.5)), r#"{"Triple":[255,-7,0.5]}"#);
    assert_eq!(writes_agree(&Variants::Unit), r#""Unit""#);
    assert_eq!(writes_agree(&Newtype(2.5)), "2.5");
    assert_eq!(writes_agree(&Triple(1, "t".to_string(), None)), r#"[1,"t",null]"#);
    assert_eq!(writes_agree(&Nothing), "null");
    for shape in [
        Shape::Unit,
        Shape::New(7),
        Shape::Pair(1, "a".to_string()),
        Shape::Named { a: 1, b: None },
        Shape::Named { a: 2, b: Some(true) },
    ] {
        writes_agree(&shape);
        writes_agree(&Knobs {
            id: 1,
            cache: vec![1, 2],
            label: "l".to_string(),
            extra: Some(shape),
            shapes: vec![Shape::Unit, Shape::New(3)],
        });
    }
    writes_agree(&Tagged { tag: "t".to_string(), items: vec![Some(1u64), None] });
}

#[test]
fn floats_write_the_tree_writers_bytes() {
    let wide = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e21,
        1e-7,
        3.0,
        -3.0,
        0.1 + 0.2,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        123456789012345680.0,
    ];
    let narrow = [f32::NAN, f32::INFINITY, -0.0, 3.0, 0.1, f32::MAX, f32::MIN_POSITIVE, 1e-45];
    for &w in &wide {
        for &n in &narrow {
            writes_agree(&Floats { wide: w, narrow: n, all: wide.to_vec(), maybe: Some(n) });
        }
        writes_agree(&w);
    }
    for &n in &narrow {
        writes_agree(&n);
        writes_agree(&Variants::Triple(0, 0, n));
    }
    assert_eq!(
        writes_agree(&[f64::NAN, f64::INFINITY, -0.0, 1e21, 3.0][..]),
        "[null,null,-0,1000000000000000000000,3]"
    );
    assert_eq!(writes_agree(&0.1f32), "0.10000000149011612");
}

#[test]
fn strings_and_integers_write_the_tree_writers_bytes() {
    let controls: String = (0u8..0x20).map(char::from).collect();
    let strings = [
        String::new(),
        controls,
        "quote\" back\\slash / \u{7f}".to_string(),
        "é😀ünï \u{2028}".to_string(),
        "plain".to_string(),
    ];
    for s in &strings {
        writes_agree(s);
        writes_agree(s.as_str());
        writes_agree(&Tagged { tag: s.clone(), items: vec![s.clone()] });
    }
    writes_agree(&strings[..]);
    writes_agree(&(u8::MAX, i8::MIN, u16::MAX, i16::MIN));
    writes_agree(&(u64::MAX, i64::MIN, i64::MAX, usize::MAX, isize::MIN));
    writes_agree(&vec![0u32, 9, 10, 99, 100, u32::MAX]);
    writes_agree(&(true, false, 'c', None::<u8>));
}
