//! The pull path of `serde_json::from_str` (derived `from_parser`, reading
//! fields straight from the text) must accept exactly what the `Value`
//! tree path accepts, and decode it to the same value. Every input here is
//! decoded both ways as every type under test: equal values, or both
//! rejected; and `from_str` must return the tree path's result, error text
//! included.
//!
//! The inputs are seeded mutations of real `RunReport` JSON (reordered,
//! duplicated, dropped, unknown and escaped keys; numbers spelled as
//! floats, exponents, negatives and overflows; pretty whitespace;
//! truncations; trailing garbage) and hand-picked enum and attribute
//! edge cases.

use jle_engine::{ClusterOutcome, EnergyStats, MultihopReport, RunReport, SplitBrainStats};
use jle_radio::history::StateCounts;
use serde::de::Parser;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;

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

/// Decode `s` as `T` both ways and check that they agree. Returns whether
/// `T` accepted `s`.
fn agree<T: Deserialize + PartialEq + Debug>(s: &str) -> bool {
    let mut p = Parser::new(s);
    let pull = T::from_parser(&mut p).and_then(|v| p.end().map(|()| v));
    let tree = serde_json::from_str::<Value>(s).and_then(T::from_json_value_owned);
    match (&pull, &tree) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "input {s:?}"),
        (Err(_), Err(_)) => {}
        _ => panic!("pull {pull:?} but tree {tree:?} for input {s:?}"),
    }
    let accepted = tree.is_ok();
    let via = serde_json::from_str::<T>(s).map_err(|e| e.to_string());
    assert_eq!(via, tree.map_err(|e| e.to_string()), "input {s:?}");
    accepted
}

/// Check `s` against every type under test; whether `RunReport` took it.
fn agree_all(s: &str) -> bool {
    agree::<SplitBrainStats>(s);
    agree::<Shape>(s);
    agree::<Knobs>(s);
    agree::<Tagged<Shape>>(s);
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
    assert!(agree::<Shape>(r#"{"Unit":[1,{"a":2}]}"#));
    assert!(!agree::<Shape>(r#"{"Unit":null,"New":1}"#));
    let knobs: Knobs = serde_json::from_str(r#"{"id":1,"cache":[1,2],"shapes":[]}"#).unwrap();
    assert!(knobs.cache.is_empty(), "a skipped field stays at its default");
    let tagged: Tagged<u64> = serde_json::from_str(r#"{"tag":"t","items":[1,2]}"#).unwrap();
    assert_eq!(tagged, Tagged { tag: "t".to_string(), items: vec![1, 2] });
}
