//! The typed election spec: one election of the paper as data.
//!
//! An [`ElectionParams`] is the tuple the paper describes an election by —
//! station count `n`, collision-detection model, `(T, 1−ε)`-bounded
//! jammer, protocol and slot cap — in the parameter-tree shape the result
//! store fingerprints, `jle-sweepd` executes and the lens replays. All of
//! them decode the tree through these derived types, and the builders
//! write it from them, so no two readers can disagree about what a tree
//! means and the bytes are the ones the cache keys were recorded from.
//!
//! Decoding is strict. A key no type declares is a
//! [`serde::Error::unknown_field`], and an unknown kind or protocol is a
//! [`serde::Error::unknown_variant`]; both answer
//! [`serde::Error::is_unknown`], which readers report as "unsupported"
//! rather than "invalid". A tree that names a knob this code does not
//! know is refused, never run without it: that would compute something
//! under a fingerprint that promises something else.
//!
//! Some protocol shapes only the experiments run: ARSS, and LESK with a
//! warm start `u0` or a non-paper increment `divisor`. An experiment's
//! cache key and its stations come from one [`ElectionParams`] all the
//! same, but every reader of election trees refuses these shapes as
//! unknown ([`ProtoParams::portable`]), exactly as it did before they were
//! typed.
//!
//! [`ElectionParams::run`] is sweepd's trial body. The experiments and the
//! lens run the same elections as `jle_lens::LensSpec`s, which carry these
//! protocol shapes too.

use jle_adversary::AdversarySpec;
use jle_engine::{run_cohort, run_fast_exact, PerStation, Protocol, RunReport, SimConfig};
use jle_radio::CdModel;
use serde::{Deserialize, Serialize, Value};

use crate::{
    lewk, lewu, ArssMacProtocol, BackoffProtocol, DutyCycledLesk, LeskProtocol, LesuProtocol,
    WillardProtocol,
};

/// Which engine an election tree runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElectionKind {
    /// The O(1)-per-slot cohort engine (`run_cohort`).
    #[serde(rename = "cohort_election")]
    Cohort,
    /// The per-station fast-exact engine, or the batch backend, which is
    /// bit-identical to it per trial.
    #[serde(rename = "exact_election")]
    Exact,
}

/// The protocol every station runs: `{"proto": "lesk", "eps": 0.5}`,
/// `{"proto": "lesu"}`, …
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "proto", deny_unknown_fields)]
pub enum ProtoParams {
    /// [`LeskProtocol`] with jamming tolerance `eps`.
    #[serde(rename = "lesk")]
    Lesk {
        /// The protocol's ε parameter.
        eps: f64,
        /// Local-only: the initial estimate `u` (0 when unset).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        u0: Option<f64>,
        /// Local-only: the per-`Collision` increment is `ε/divisor`
        /// (the paper's `ε/8` when unset).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        divisor: Option<f64>,
    },
    /// [`LesuProtocol`].
    #[serde(rename = "lesu")]
    Lesu,
    /// [`BackoffProtocol`].
    #[serde(rename = "backoff")]
    Backoff,
    /// [`WillardProtocol`].
    #[serde(rename = "willard")]
    Willard,
    /// Local-only: [`ArssMacProtocol`] with step `gamma`. A missing
    /// `gamma` decodes as 0 so that the tree is refused as unsupported,
    /// like every `arss` tree, rather than as malformed.
    #[serde(rename = "arss")]
    Arss {
        /// The multiplicative-weights step γ.
        #[serde(default)]
        gamma: f64,
    },
    /// [`crate::ClusterElection`]: one LESK(`eps`) election per topology
    /// cluster. Multi-hop only, so no election tree carries it and it has
    /// no single-channel station.
    #[serde(rename = "cluster")]
    Cluster {
        /// The per-cluster LESK ε parameter.
        eps: f64,
        /// The spread phase's quiet horizon
        /// ([`crate::ClusterElection::with_quiet_target`]; its default
        /// when unset).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        quiet: Option<u64>,
    },
    /// [`lewk`]: LESK with weak-CD leader notification. Per-station only,
    /// so no election tree carries it and the cohort engine refuses it.
    #[serde(rename = "lewk")]
    Lewk {
        /// The protocol's ε parameter.
        eps: f64,
    },
    /// [`lewu`]: LESU with weak-CD leader notification. Per-station only,
    /// like [`ProtoParams::Lewk`].
    #[serde(rename = "lewu")]
    Lewu,
    /// [`DutyCycledLesk`]: LESK(`eps`) awake one slot in `period`, station
    /// `i` in the slots `≡ i (mod period)`. Per-station only, like
    /// [`ProtoParams::Lewk`].
    #[serde(rename = "duty-lesk")]
    DutyLesk {
        /// The protocol's ε parameter.
        eps: f64,
        /// The duty period (at least 1).
        period: u64,
    },
}

/// The protocols an [`ElectionParams`] tree may name.
const ELECTION_PROTOS: &[&str] = &["lesk", "lesu", "backoff", "willard"];

/// The keys a `lesk` tree may carry outside the experiments.
const LESK_KEYS: &[&str] = &["proto", "eps"];

impl ProtoParams {
    /// The paper's LESK with jamming tolerance `eps`.
    pub fn lesk(eps: f64) -> Self {
        ProtoParams::Lesk { eps, u0: None, divisor: None }
    }

    /// The wire name (`lesk`, `lesu`, …), for labels.
    pub fn label(&self) -> &'static str {
        match self {
            ProtoParams::Lesk { .. } => "lesk",
            ProtoParams::Lesu => "lesu",
            ProtoParams::Backoff => "backoff",
            ProtoParams::Willard => "willard",
            ProtoParams::Arss { .. } => "arss",
            ProtoParams::Cluster { .. } => "cluster",
            ProtoParams::Lewk { .. } => "lewk",
            ProtoParams::Lewu => "lewu",
            ProtoParams::DutyLesk { .. } => "duty-lesk",
        }
    }

    /// Refuse the local-only shapes (module docs) as the unknown variant
    /// or field they were before they were typed, so readers report them
    /// unsupported and `--server` runs them locally.
    pub fn portable(&self) -> Result<(), serde::Error> {
        match self {
            ProtoParams::Arss { .. } => Err(serde::Error::unknown_variant("arss", ELECTION_PROTOS)),
            ProtoParams::Lesk { u0: Some(_), .. } => {
                Err(serde::Error::unknown_field("u0", LESK_KEYS))
            }
            ProtoParams::Lesk { divisor: Some(_), .. } => {
                Err(serde::Error::unknown_field("divisor", LESK_KEYS))
            }
            _ => Ok(()),
        }
    }

    /// Whether only the per-station engines run it: the notification
    /// wrappers, the per-cluster election and the duty-cycled LESK have no
    /// uniform cohort.
    pub fn per_station(&self) -> bool {
        matches!(
            self,
            Self::Lewk { .. } | Self::Lewu | Self::Cluster { .. } | Self::DutyLesk { .. }
        )
    }

    /// Refuse parameters the protocol's constructor would panic on: every
    /// LESK-based protocol needs `0 < eps < 1`, a LESK increment divisor
    /// must be positive, ARSS's step must lie in `(0, 1]` and a duty
    /// period must be at least 1. Every reader of trees from outside the
    /// process calls it, so such a tree is refused, never run.
    pub fn check(&self) -> Result<(), String> {
        let eps = match *self {
            ProtoParams::Lesk { divisor: Some(d), .. } if d.is_nan() || d <= 0.0 => {
                return Err(format!("proto `lesk`: `divisor` must be positive, got {d}"))
            }
            ProtoParams::Arss { gamma } if !(gamma > 0.0 && gamma <= 1.0) => {
                return Err(format!("proto `arss`: `gamma` must be in (0, 1], got {gamma}"))
            }
            ProtoParams::DutyLesk { period: 0, .. } => {
                return Err("proto `duty-lesk`: `period` must be at least 1".into())
            }
            ProtoParams::Lesk { eps, .. }
            | ProtoParams::Cluster { eps, .. }
            | ProtoParams::Lewk { eps }
            | ProtoParams::DutyLesk { eps, .. } => eps,
            ProtoParams::Lesu
            | ProtoParams::Backoff
            | ProtoParams::Willard
            | ProtoParams::Arss { .. }
            | ProtoParams::Lewu => return Ok(()),
        };
        if eps > 0.0 && eps < 1.0 {
            Ok(())
        } else {
            Err(format!("proto `{}`: `eps` must be in (0, 1), got {eps}", self.label()))
        }
    }

    /// The per-station factory the single-channel per-station engines
    /// take: every station runs the protocol through [`PerStation`] (the
    /// notification wrappers and the duty-cycled LESK are per-station
    /// protocols already).
    ///
    /// # Panics
    /// The returned factory panics for [`ProtoParams::Cluster`], which has
    /// no single-channel station.
    pub fn station_factory(self) -> impl Fn(u64) -> Box<dyn Protocol> + Send + Sync + 'static {
        move |station| -> Box<dyn Protocol> {
            match self {
                ProtoParams::Lesk { eps, u0, divisor } => {
                    Box::new(PerStation::new(lesk_station(eps, u0, divisor)))
                }
                ProtoParams::Lesu => Box::new(PerStation::new(LesuProtocol::new())),
                ProtoParams::Backoff => Box::new(PerStation::new(BackoffProtocol::new())),
                ProtoParams::Willard => Box::new(PerStation::new(WillardProtocol::new())),
                ProtoParams::Arss { gamma } => {
                    Box::new(PerStation::new(ArssMacProtocol::new(gamma)))
                }
                ProtoParams::Lewk { eps } => Box::new(lewk(eps)),
                ProtoParams::Lewu => Box::new(lewu()),
                ProtoParams::DutyLesk { eps, period } => {
                    Box::new(DutyCycledLesk::new(eps, period, station))
                }
                ProtoParams::Cluster { .. } => panic!("{}", CLUSTER_IS_MULTIHOP),
            }
        }
    }
}

/// Why a tree with `"n": 0` is refused: the engines need at least one
/// station, so readers reject it while decoding instead of letting a
/// run panic.
pub const ZERO_STATIONS: &str = "`n` must be at least 1: an election needs a station";

/// LESK as a [`ProtoParams::Lesk`] names it: exactly
/// `LeskProtocol::new(eps)` when `u0` and `divisor` are unset.
#[doc(hidden)]
pub fn lesk_station(eps: f64, u0: Option<f64>, divisor: Option<f64>) -> LeskProtocol {
    let lesk = match divisor {
        Some(d) => LeskProtocol::with_increment_divisor(eps, d),
        None => LeskProtocol::new(eps),
    };
    match u0 {
        Some(u) => lesk.starting_at(u),
        None => lesk,
    }
}

#[doc(hidden)]
pub const CLUSTER_IS_MULTIHOP: &str =
    "proto `cluster` runs one election per topology cluster, on the multihop engine only";

#[doc(hidden)]
pub const NOT_UNIFORM: &str = "protos `cluster`, `lewk`, `lewu` and `duty-lesk` run per station: \
                               the cohort engine cannot run them";

/// Evaluate `$body` once per uniform protocol of a [`ProtoParams`], with
/// `$make` bound to a constructor (`impl Fn() -> U`) of that protocol, so
/// each arm calls a generic engine entry point such as `run_cohort` or
/// `run_batch_uniform` monomorphised for its protocol: no `match` on the
/// protocol runs inside the engine's slot loop.
///
/// Panics for the per-station protocols ([`ProtoParams::per_station`]);
/// [`ElectionParams::decode`] never yields them.
#[macro_export]
macro_rules! with_uniform_proto {
    ($proto:expr, $make:ident => $body:expr) => {
        match $proto {
            $crate::ProtoParams::Lesk { eps, u0, divisor } => {
                let $make = move || $crate::params::lesk_station(eps, u0, divisor);
                $body
            }
            $crate::ProtoParams::Lesu => {
                let $make = $crate::LesuProtocol::new;
                $body
            }
            $crate::ProtoParams::Backoff => {
                let $make = $crate::BackoffProtocol::new;
                $body
            }
            $crate::ProtoParams::Willard => {
                let $make = $crate::WillardProtocol::new;
                $body
            }
            $crate::ProtoParams::Arss { gamma } => {
                let $make = move || $crate::ArssMacProtocol::new(gamma);
                $body
            }
            $crate::ProtoParams::Cluster { .. }
            | $crate::ProtoParams::Lewk { .. }
            | $crate::ProtoParams::Lewu
            | $crate::ProtoParams::DutyLesk { .. } => panic!("{}", $crate::params::NOT_UNIFORM),
        }
    };
}

/// One single-channel election: the `cohort_election` / `exact_election`
/// parameter tree. Fields are declared in the order the tree's bytes
/// list them.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ElectionParams {
    /// Which engine runs it.
    pub kind: ElectionKind,
    /// Station count.
    pub n: u64,
    /// Collision-detection model.
    pub cd: CdModel,
    /// The `(T, 1−ε)`-bounded jammer.
    pub adv: AdversarySpec,
    /// Slot cap.
    pub max_slots: u64,
    /// The protocol every station runs.
    pub proto: ProtoParams,
}

impl ElectionParams {
    /// A `cohort_election` unit.
    pub fn cohort(
        proto: ProtoParams,
        n: u64,
        cd: CdModel,
        adv: AdversarySpec,
        max_slots: u64,
    ) -> Self {
        ElectionParams { kind: ElectionKind::Cohort, n, cd, adv, max_slots, proto }
    }

    /// Decode an election tree (module docs). The per-station protocols
    /// (`cluster`, `lewk`, `lewu`, `duty-lesk`) are refused as unknown variants: no
    /// election tree carries them; so are the local-only shapes
    /// ([`ProtoParams::portable`]). `n == 0` is refused with
    /// [`ZERO_STATIONS`], and out-of-range protocol parameters with
    /// [`ProtoParams::check`]'s message.
    pub fn decode(tree: &Value) -> Result<Self, serde::Error> {
        let params = Self::from_json_value(tree)?;
        if params.proto.per_station() {
            return Err(serde::Error::unknown_variant(params.proto.label(), ELECTION_PROTOS));
        }
        params.proto.portable()?;
        if params.n == 0 {
            return Err(serde::Error::custom(ZERO_STATIONS));
        }
        params.proto.check().map_err(serde::Error::custom)?;
        Ok(params)
    }

    /// The run's [`SimConfig`], before a seed is set.
    pub fn config(&self) -> SimConfig {
        SimConfig::new(self.n, self.cd).with_max_slots(self.max_slots)
    }

    /// Run the election for `seed`, with no observer attached: a cohort
    /// election on [`run_cohort`], an exact one on [`run_fast_exact`].
    ///
    /// # Panics
    /// A cohort election panics for a per-station protocol
    /// ([`ProtoParams::per_station`]); [`ElectionParams::decode`] never
    /// yields one.
    pub fn run(&self, seed: u64) -> RunReport {
        let config = self.config().with_seed(seed);
        match self.kind {
            ElectionKind::Cohort => {
                with_uniform_proto!(self.proto, make => run_cohort(&config, &self.adv, make))
            }
            ElectionKind::Exact => run_fast_exact(&config, &self.adv, self.proto.station_factory()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn tree(proto: Value) -> Value {
        json!({
            "kind": "cohort_election",
            "n": 8u64,
            "cd": "Strong",
            "adv": {"eps": {"num": 2147483648u64}, "t_window": 1u64, "kind": "None"},
            "max_slots": 1000u64,
            "proto": proto,
        })
    }

    #[test]
    fn out_of_range_parameters_are_refused_at_decode() {
        for eps in [2.0, -1.0, 0.0, 1.0] {
            let err = ElectionParams::decode(&tree(json!({"proto": "lesk", "eps": eps})));
            let err = err.expect_err("an eps outside (0, 1) is refused");
            assert!(!err.is_unknown(), "invalid, not unsupported: {err}");
            assert!(err.to_string().contains("`eps` must be in (0, 1)"), "{err}");
        }
        // A tree decodes through its text, where a NaN is written `null`:
        // refused before the range check, as text with `null` there is.
        let err = ElectionParams::decode(&tree(json!({"proto": "lesk", "eps": f64::NAN})));
        let err = err.expect_err("a NaN eps is refused");
        assert!(!err.is_unknown(), "invalid, not unsupported: {err}");
        assert_eq!(err.to_string(), "expected number, found null");
        assert!(ElectionParams::decode(&tree(json!({"proto": "lesk", "eps": 0.5}))).is_ok());
    }

    #[test]
    fn check_covers_every_ranged_parameter() {
        let bad = [
            ProtoParams::Lesk { eps: 0.5, u0: None, divisor: Some(0.0) },
            ProtoParams::Arss { gamma: 0.0 },
            ProtoParams::Arss { gamma: 1.5 },
            ProtoParams::Cluster { eps: 1.0, quiet: None },
            ProtoParams::Lewk { eps: -0.5 },
            ProtoParams::DutyLesk { eps: 0.5, period: 0 },
            ProtoParams::DutyLesk { eps: 1.5, period: 4 },
        ];
        for proto in bad {
            assert!(proto.check().is_err(), "{proto:?}");
        }
        let good = [
            ProtoParams::lesk(0.5),
            ProtoParams::Lesk { eps: 0.5, u0: Some(6.0), divisor: Some(2.0) },
            ProtoParams::Lesu,
            ProtoParams::Arss { gamma: 1.0 },
            ProtoParams::Cluster { eps: 0.4, quiet: Some(16) },
            ProtoParams::Lewu,
            ProtoParams::DutyLesk { eps: 0.5, period: 1 },
        ];
        for proto in good {
            assert_eq!(proto.check(), Ok(()), "{proto:?}");
        }
    }
}
