//! Canonical work-unit fingerprints: the content-addressed cache keys.
//!
//! A [`WorkSpec`] names one unit of Monte-Carlo work — an experiment id, a
//! sweep-point label, the full parameter tree (simulation config,
//! adversary, fault plan, protocol, caps, …) and the base seed. Its
//! fingerprint is the SHA-256 of a *canonical* JSON rendering (object keys
//! sorted recursively, shortest-round-trip float formatting) of the spec
//! plus a code-version salt and the concrete result type, so
//!
//! * identical specs always hash identically, across processes and runs;
//! * perturbing any parameter — `n`, `ε`, `T`, a seed, a strategy, a fault
//!   plan — changes the key;
//! * bumping the salt (a code-behaviour change) or changing the projected
//!   result type invalidates the cache instead of serving stale data.

use serde::{Deserialize, Serialize, Value};

/// Description of one cacheable unit of Monte-Carlo work.
///
/// `params` must capture **everything** the trial closure's behaviour
/// depends on except the per-trial seed (which is `base_seed + index` by
/// the workspace-wide convention). Anything left out of `params` is
/// invisible to the cache and will alias.
///
/// The fields are declared in their canonical (sorted) order, which is
/// the order they are written in; every field is required on read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkSpec {
    /// Seed of trial 0.
    pub base_seed: u64,
    /// Experiment id, e.g. `"e1"`.
    pub experiment: String,
    /// Full parameter tree (JSON value).
    pub params: Value,
    /// Sweep-point label, e.g. `"lesk/clean/n=65536"`.
    pub point: String,
}

impl WorkSpec {
    /// Create a spec.
    pub fn new(
        experiment: impl Into<String>,
        point: impl Into<String>,
        params: Value,
        base_seed: u64,
    ) -> Self {
        WorkSpec { experiment: experiment.into(), point: point.into(), params, base_seed }
    }

    /// The spec as a JSON value (canonical field order).
    pub fn to_value(&self) -> Value {
        self.to_json_value()
    }

    /// The spec's canonical JSON, [`canonical_json`] of [`Self::to_value`],
    /// written straight from the fields: they are declared in sorted
    /// order, so only `params` is sorted, and no tree is built.
    pub fn canonical_json(&self) -> String {
        format!(
            "{{\"base_seed\":{},\"experiment\":{},\"params\":{},\"point\":{}}}",
            self.base_seed,
            json(&self.experiment),
            canonical_json(&self.params),
            json(&self.point)
        )
    }
}

/// The compact JSON text of `x`.
fn json<T: Serialize + ?Sized>(x: &T) -> String {
    serde_json::to_string(x).expect("JSON text")
}

/// Recursively sort object keys so logically equal values render
/// identically regardless of construction order. Stable, so duplicate
/// keys (already pathological) keep their relative order.
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Seq(xs) => Value::Seq(xs.iter().map(canonicalize).collect()),
        Value::Map(m) => {
            let mut entries: Vec<(String, Value)> =
                m.iter().map(|(k, x)| (k.clone(), canonicalize(x))).collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(entries)
        }
        other => other.clone(),
    }
}

/// Canonical compact JSON rendering of a value (sorted keys at every
/// level; floats in Rust's shortest-round-trip form).
pub fn canonical_json(v: &Value) -> String {
    let mut out = String::new();
    write_canonical(v, &mut out);
    out
}

/// Append [`canonicalize`]`(v)`'s compact text without building it: each
/// object's entries written in the same stable key order.
fn write_canonical(v: &Value, out: &mut String) {
    match v {
        Value::Seq(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(x, out);
            }
            out.push(']');
        }
        Value::Map(m) => {
            let mut entries: Vec<&(String, Value)> = m.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            out.push('{');
            for (i, (k, x)) in entries.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json(k));
                out.push(':');
                write_canonical(x, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&json(scalar)),
    }
}

/// A content-addressed cache key: 64 lowercase hex chars of SHA-256.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint(String);

impl Fingerprint {
    /// Fingerprint a spec under a code-version `salt` for results of type
    /// `result_type` (pass `std::any::type_name::<R>()`).
    ///
    /// The hashed text is the canonical JSON of `{"result_type", "salt",
    /// "spec"}`, written directly: those keys and the spec's are already in
    /// sorted order.
    pub fn of(spec: &WorkSpec, salt: &str, result_type: &str) -> Self {
        let keyed = format!(
            "{{\"result_type\":{},\"salt\":{},\"spec\":{}}}",
            json(result_type),
            json(salt),
            spec.canonical_json()
        );
        Fingerprint(crate::sha256::sha256_hex(keyed.as_bytes()))
    }

    /// The full hex key.
    pub fn hex(&self) -> &str {
        &self.0
    }

    /// The two-char shard prefix under which this key is stored.
    pub fn shard(&self) -> &str {
        &self.0[..2]
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn spec() -> WorkSpec {
        WorkSpec::new("e1", "clean/n=16", json!({"n": 16u64, "eps": 0.5f64}), 1000)
    }

    #[test]
    fn key_order_does_not_matter() {
        let a = json!({"n": 16u64, "eps": 0.5f64});
        let b = json!({"eps": 0.5f64, "n": 16u64});
        assert_eq!(canonical_json(&a), canonical_json(&b));
        let fa = Fingerprint::of(&WorkSpec::new("e1", "p", a, 7), "s", "t");
        let fb = Fingerprint::of(&WorkSpec::new("e1", "p", b, 7), "s", "t");
        assert_eq!(fa, fb);
    }

    #[test]
    fn nested_maps_are_sorted_too() {
        let a = json!({"outer": {"b": 1u64, "a": 2u64}});
        assert_eq!(canonical_json(&a), r#"{"outer":{"a":2,"b":1}}"#);
    }

    #[test]
    fn every_keyed_field_matters() {
        let base = Fingerprint::of(&spec(), "salt", "ty");
        let mut point = spec();
        point.point = "other".into();
        let mut seed = spec();
        seed.base_seed += 1;
        let mut exp = spec();
        exp.experiment = "e2".into();
        let mut params = spec();
        params.params = json!({"n": 17u64, "eps": 0.5f64});
        for (what, fp) in [
            ("point", Fingerprint::of(&point, "salt", "ty")),
            ("base_seed", Fingerprint::of(&seed, "salt", "ty")),
            ("experiment", Fingerprint::of(&exp, "salt", "ty")),
            ("params", Fingerprint::of(&params, "salt", "ty")),
            ("salt", Fingerprint::of(&spec(), "salt2", "ty")),
            ("result_type", Fingerprint::of(&spec(), "salt", "ty2")),
        ] {
            assert_ne!(base, fp, "perturbing {what} must change the key");
        }
    }

    #[test]
    fn canonical_text_is_the_sorted_trees() {
        let params =
            json!({"z": [json!({"b": 1u64, "a": "x\"y"})], "a": {"d": null, "c": -0.5f64}});
        let spec = WorkSpec::new("e\u{1}", "p/n=2", params, u64::MAX);
        assert_eq!(spec.canonical_json(), canonical_json(&spec.to_value()));
        let keyed = json!({"spec": spec.to_value(), "salt": "s", "result_type": "Vec<u64>"});
        let hex = crate::sha256::sha256_hex(canonical_json(&keyed).as_bytes());
        assert_eq!(Fingerprint::of(&spec, "s", "Vec<u64>").hex(), hex);
    }

    #[test]
    fn fingerprint_shape() {
        let fp = Fingerprint::of(&spec(), "salt", "ty");
        assert_eq!(fp.hex().len(), 64);
        assert!(fp.hex().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(fp.shard(), &fp.hex()[..2]);
        assert_eq!(fp.to_string(), fp.hex());
    }
}
