//! Shared helpers for the golden-seed suites (`golden_seed.rs`,
//! `topology_identity.rs`): the fixture protocols, the canonical
//! report+trace snapshot, and the fixture comparison.
//!
//! Each integration-test binary compiles its own copy and uses a subset,
//! hence the `dead_code` allowance.

#![allow(dead_code)]

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_engine::{Action, PerStation, Protocol, RunReport, SimConfig, Status, UniformProtocol};
use jle_radio::{CdModel, ChannelState, Observation};
use rand::RngCore;
use std::path::PathBuf;

pub const MAX_SLOTS: u64 = 4_000;
pub const SEED: u64 = 0xA11CE;

/// Fixed-probability uniform protocol (memoryless).
#[derive(Debug, Clone)]
pub struct Fixed(pub f64);

impl UniformProtocol for Fixed {
    fn tx_prob(&mut self, _: u64) -> f64 {
        self.0
    }
    fn on_state(&mut self, _: u64, _: ChannelState) {}
}

/// History-dependent backoff in the LESK mold: exercises `on_state` on
/// every channel state, a non-trivial `estimate()` for trace recording,
/// and probabilities that sweep through the binomial sampler's regimes.
#[derive(Debug, Clone)]
pub struct Backoff {
    u: f64,
}

impl Backoff {
    pub fn new() -> Self {
        Backoff { u: 0.0 }
    }
}

impl UniformProtocol for Backoff {
    fn tx_prob(&mut self, _: u64) -> f64 {
        2f64.powf(-self.u)
    }
    fn on_state(&mut self, _: u64, state: ChannelState) {
        match state {
            ChannelState::Null => self.u = (self.u - 1.0).max(0.0),
            ChannelState::Collision => self.u += 0.5,
            ChannelState::Single => {}
        }
    }
    fn estimate(&self) -> Option<f64> {
        Some(self.u)
    }
}

/// Stops via `finished()` after a fixed number of observed slots.
#[derive(Debug, Clone)]
pub struct CountDown(pub u32);

impl UniformProtocol for CountDown {
    fn tx_prob(&mut self, _: u64) -> f64 {
        0.0
    }
    fn on_state(&mut self, _: u64, _: ChannelState) {
        self.0 -= 1;
    }
    fn finished(&self) -> bool {
        self.0 == 0
    }
}

/// Duty-cycles a station: awake only in slots `≡ phase (mod period)`.
/// Exercises the active-set loop's park/wake heap in a fixture — with
/// period 4 over 12 stations the awake prefix shrinks to ~3 each slot.
pub struct DutyBackoff {
    inner: PerStation<Backoff>,
    period: u64,
    phase: u64,
}

impl DutyBackoff {
    pub fn new(period: u64, phase: u64) -> Self {
        DutyBackoff { inner: PerStation::new(Backoff::new()), period, phase: phase % period }
    }
}

impl Protocol for DutyBackoff {
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action {
        if slot % self.period == self.phase {
            self.inner.act(slot, rng)
        } else {
            Action::Sleep
        }
    }
    fn feedback(&mut self, slot: u64, transmitted: bool, obs: Observation) {
        self.inner.feedback(slot, transmitted, obs);
    }
    fn status(&self) -> Status {
        self.inner.status()
    }
    fn finished(&self) -> bool {
        self.inner.finished()
    }
    fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }
    fn wake_hint(&self, slot: u64) -> u64 {
        let next = slot + 1;
        next + (self.phase + self.period - next % self.period) % self.period
    }
}

/// FNV-1a (64-bit), the digest pinning trace content.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn push(&mut self, byte: u8) {
        self.0 ^= byte as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    pub fn push_all(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push(b);
        }
    }
}

/// Render report + trace digest as one canonical JSON line.
pub fn snapshot(report: &RunReport) -> String {
    let body = serde_json::to_string(report).expect("RunReport serializes");
    let trace = match &report.trace {
        None => "null".to_string(),
        Some(t) => {
            let mut h = Fnv::new();
            for s in t.iter() {
                let code = match s.state() {
                    ChannelState::Null => 0u8,
                    ChannelState::Single => 1,
                    ChannelState::Collision => 2,
                };
                let b = code
                    | (u8::from(s.jammed()) << 2)
                    | (u8::from(s.clean_single()) << 3)
                    | (u8::from(s.any_transmitter()) << 4);
                h.push(b);
            }
            for &e in &t.estimates {
                h.push_all(&e.to_bits().to_le_bytes());
            }
            format!(
                "{{\"len\":{},\"estimates\":{},\"digest\":\"{:016x}\"}}",
                t.len(),
                t.estimates.len(),
                h.0
            )
        }
    };
    format!("{{\"report\":{body},\"trace\":{trace}}}\n")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"))
}

/// Compare against (or, under `UPDATE_GOLDEN=1`, rewrite) the fixture.
pub fn check(name: &str, report: &RunReport) {
    let actual = snapshot(report);
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    assert_eq!(actual, expected, "golden-seed mismatch for `{name}`");
}

/// Compare against an existing fixture, *never* rewriting it — used by the
/// identity suites that replay another backend's fixtures, where honoring
/// `UPDATE_GOLDEN` could paper over a drifted backend.
pub fn check_against_existing(name: &str, report: &RunReport) {
    let actual = snapshot(report);
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); it is never regenerated by this suite")
    });
    assert_eq!(actual, expected, "backend identity broken against fixture `{name}`");
}

/// The budget-saturating jammer: deterministic given the budget.
pub fn saturating() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Saturating)
}

/// Oblivious random jammer: draws from the adversary RNG every slot, so
/// these fixtures also pin the adversary seed-stream separation.
pub fn random_jammer() -> AdversarySpec {
    AdversarySpec::new(Rate::from_f64(0.5), 16, JamStrategyKind::Random { prob: 0.7 })
}

pub fn exact_config(cd: CdModel) -> SimConfig {
    SimConfig::new(12, cd).with_seed(SEED).with_max_slots(MAX_SLOTS).with_trace(true)
}

pub fn cohort_config(cd: CdModel) -> SimConfig {
    SimConfig::new(64, cd).with_seed(SEED).with_max_slots(MAX_SLOTS).with_trace(true)
}
