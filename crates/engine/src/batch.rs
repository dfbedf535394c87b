//! Batched lockstep trials: K runs of the same experiment per slot pass.
//!
//! Monte-Carlo sweeps over election-scale configurations are dominated by
//! *short* runs — a few dozen slots of work wrapped in per-trial setup
//! (station boxes, scratch vectors, key derivation) that the
//! [`FastExactStations`](crate::FastExactStations) backend pays once per
//! trial. The counter-based streams of [`crate::streams`] make every draw
//! a pure function of `(run_seed, station, slot, draw_index)`, so nothing
//! couples one trial's randomness to another's — K trials of the same
//! experiment can advance through the *same* slot loop together:
//!
//! * **Structure-of-arrays state.** Per-station trial membership
//!   (running / leader) lives in bitplanes where one `u64` word covers
//!   64 trials, so the per-slot bookkeeping walks words, not stations ×
//!   trials.
//! * **One pass per slot.** Station iteration, `station_key` material
//!   ([`slot_material`] is mixed once per slot for the whole batch), and
//!   protocol-state touching amortize across every live trial.
//! * **Early retirement.** A trial that resolves (or stops) leaves the
//!   live set by clearing one bit; because draws are coordinate-pure,
//!   retirement cannot shift any other trial's streams — the survivors'
//!   bits are identical to what a solo run would produce.
//!
//! **Bit-identity contract:** trial `k` of a batch over `seeds` produces
//! exactly the [`RunReport`] of
//! `run_fast_exact(&config.with_seed(seeds[k]), …)`. The `seed` field of
//! the config handed to the batch entry point is *ignored* — the seed
//! slice is the per-trial authority. The fast backend's awake-prefix
//! permutation order is unobservable (all of its per-slot effects are
//! set-level: transmitter counts, lone-transmitter identity, per-station
//! feedback independence, min-id estimates, sorted leader lists), which
//! is what lets the batch backend walk stations in id order while
//! staying on the fast backend's exact bits. Because the bits agree,
//! batch results may share the fast backend's cache entries (the
//! orchestrator aliases the engine salt — see `DESIGN.md` §17).
//!
//! Each trial is one lane of the core ([`crate::core`]): the adversary,
//! noise, truth, energy, trace, resolution, and stop-rule steps are the
//! very code [`crate::SimCore`] runs for a solo trial, so only the station
//! side differs. That side is [`BatchUniformStations`], entered through
//! [`run_batch_uniform`]: every running station of a trial of a
//! [`UniformProtocol`] carries *identical*
//! [`PerStation`](crate::PerStation)-wrapped state (the same invariant the
//! cohort backend rests on), so the batch keeps **one** shared state per
//! trial. The election protocols sweeps run (LESK, LESU, and the Willard
//! and backoff baselines) are uniform; fault-wrapped, churned and
//! duty-cycled stations run per trial on the fast-exact backend instead.

use crate::config::SimConfig;
use crate::core::{Jammer, Lane, Tally};
use crate::protocol::UniformProtocol;
use crate::report::RunReport;
use crate::streams::{draw_mask, gen_bool_threshold, slot_material, station_key};
use jle_adversary::AdversarySpec;
use jle_radio::{CdModel, ChannelState};

/// The set trials of a word-packed trial mask, in trial order.
#[inline]
fn trials(mask: &[u64]) -> Trials<'_> {
    Trials { mask, w: 0, word: mask.first().copied().unwrap_or(0) }
}

/// The set bits of one mask word, lowest first.
#[inline]
fn bits(word: u64) -> Trials<'static> {
    Trials { mask: &[], w: 0, word }
}

/// Iterator behind [`trials`] and [`bits`]: the word being drained and
/// its index in `mask`.
struct Trials<'a> {
    mask: &'a [u64],
    w: usize,
    word: u64,
}

impl Iterator for Trials<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.w += 1;
            self.word = *self.mask.get(self.w)?;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.w << 6) | b)
    }
}

/// Clear every set trial of `mask` that `keep` rejects; returns whether
/// any trial is left.
fn retain_trials(mask: &mut [u64], mut keep: impl FnMut(usize) -> bool) -> bool {
    let mut any = false;
    for (w, word) in mask.iter_mut().enumerate() {
        for b in bits(*word) {
            if keep((w << 6) | b) {
                any = true;
            } else {
                *word &= !(1u64 << b);
            }
        }
    }
    any
}

/// A trial mask with the first `k` bits set (padding bits stay clear).
fn full_mask(k: usize) -> Vec<u64> {
    let mut mask = vec![u64::MAX; k.div_ceil(64)];
    if let Some(last) = mask.last_mut() {
        if !k.is_multiple_of(64) {
            *last = (1u64 << (k % 64)) - 1;
        }
    }
    mask
}

/// The batched lockstep backend: K trials of a
/// [`PerStation`](crate::PerStation)-wrapped [`UniformProtocol`] with
/// **one** shared protocol state per trial.
///
/// # The uniform-path invariant
///
/// Running a uniform protocol through
/// [`FastExactStations`](crate::FastExactStations) gives every
/// station its own `PerStation<U>` copy, but those copies can never
/// diverge while their stations run: per slot each running copy receives
/// exactly one `tx_prob` call (identical mutation) and then either
/// (a) a non-clean-single slot, where every running station — transmitter
/// or listener, under all three CD models — applies the *same* single
/// `on_state` update (a weak/no-CD transmitter's `TxAssumedCollision`
/// collapses to `Collision`, which is also what every listener hears on
/// any slot with transmitters or jamming; no-CD listeners collapse `Null`
/// to `Collision` too), or (b) a clean single, where every
/// divergently-updated station *terminates on the spot* (strong CD: the
/// transmitter becomes `Leader`, listeners `NonLeader`; weak/no-CD:
/// listeners become `NonLeader` and the transmitter — the only survivor —
/// absorbs one `on_state(Collision)`). Divergence and termination
/// coincide, so one shared `U` plus per-station status bitplanes
/// reproduce the fast backend's bits exactly; a terminating station's
/// `finished()` freezes at the shared state's pre-`on_state` value.
///
/// # Degenerate-probability word path
///
/// With the state shared, `tx_prob` is called once per trial per slot.
/// When it returns `p ≤ 0` every running station listens and when it
/// returns `p ≥ 1` every running station transmits — in both cases
/// *without consuming a draw*: `PerStation::act` skips the draw at
/// `p = 0`, and at `p = 1` the vendored `gen_bool(1.0)` is
/// unconditionally `true` while the per-slot [`StationRng`] stream is
/// discarded at slot end, so the skipped draw is unobservable. The
/// Never-resolving `AlwaysCollide`-style workloads spend almost every
/// slot here: per-slot cost collapses from `O(n)` draws to
/// word-granularity bookkeeping, which is where `bench_gate`'s
/// `batch_speedup` ratio comes from.
///
/// # Mid-probability kernel
///
/// LESK and LESU sweeps are the opposite case: after the first few
/// slots almost every slot has `0 < p < 1`, and the per-station draws
/// are nearly all of the backend's time. Those slots run a
/// word-at-a-time kernel on the fast backend's exact bits:
///
/// * once per slot, each mid trial's `p` becomes the integer
///   threshold `t = ceil(p·2^53)` (`streams::gen_bool_threshold`), and
///   `x >> 11 < t` holds exactly when the vendored `gen_bool(p)` would
///   return `true` on draw `x`;
/// * per station and trial word of `running & live & mid`,
///   `streams::draw_mask` builds the transmit mask from each trial's
///   first slot-stream draw, with no float work and no branch on the
///   outcome;
/// * the masks' set bits are recorded station by station in id order,
///   so transmitter counts and `lone_transmitter` match the fast
///   backend's;
/// * after the sweep each mid trial's listeners are `active −
///   transmitters`: every running station of the trial drew.
///
/// On a 2-vCPU box this halved the per-trial batch cost at n = 256 and
/// K = 64 (LESK ε = 0.5 under saturating jamming: about 217–299 µs →
/// 109–115 µs per trial; LESU: 201–219 → 90–114 µs).
///
/// Bit-identity contract: trial `k` matches
/// `run_fast_exact(&config.with_seed(seeds[k]), adversary, |_| PerStation::new(factory()))`
/// exactly, for any pure `factory` (same initial state per call).
pub struct BatchUniformStations<U> {
    config: SimConfig,
    n: usize,
    k: usize,
    words: usize,
    keys: Vec<u64>,
    /// Non-terminal membership, `[station * words + word]`.
    running: Vec<u64>,
    /// Elected leaders (strong-CD clean singles), same layout.
    leader: Vec<u64>,
    tallies: Vec<Tally>,
    /// One shared protocol state per trial — the invariant above is what
    /// makes this sufficient.
    shared: Vec<U>,
    /// Per trial: the `finished()` flag last recorded for the running
    /// stations (they all share it).
    shared_finished: Vec<bool>,
    /// Per-slot scratch: per-trial `gen_bool_threshold` of the
    /// transmission probability, and the word-mask of trials needing
    /// per-station draws (`0 < p < 1`).
    thresholds: Vec<u64>,
    mid: Vec<u64>,
    lanes: Vec<Lane>,
}

/// Lowest-indexed station still running in `trial` (only called when the
/// trial has exactly one).
fn find_single_running(running: &[u64], n: usize, words: usize, trial: usize) -> u64 {
    let (w, bit) = (trial / 64, trial % 64);
    for i in 0..n {
        if running[i * words + w] >> bit & 1 != 0 {
            return i as u64;
        }
    }
    unreachable!("caller guarantees a running station exists");
}

impl<U: UniformProtocol> BatchUniformStations<U> {
    /// Build the lockstep state; `factory()` must yield the same initial
    /// protocol state on every call (one call per trial).
    pub fn new(
        config: &SimConfig,
        adversary: &AdversarySpec,
        seeds: &[u64],
        mut factory: impl FnMut() -> U,
    ) -> Self {
        assert!(config.n >= 1, "need at least one station");
        assert!(config.n <= u64::from(u32::MAX), "batch backend indexes stations with u32");
        assert!(seeds.len() <= u32::MAX as usize, "batch backend indexes trials with u32");
        let (n, k) = (config.n as usize, seeds.len());
        let words = k.div_ceil(64);
        // Counter-stream keys, station-major (`[station * K + trial]`).
        let mut keys = Vec::with_capacity(n * k);
        for i in 0..config.n {
            for &s in seeds {
                keys.push(station_key(s, i));
            }
        }
        let lanes = seeds
            .iter()
            .map(|&s| Lane::new(config, Jammer::commit_first(adversary, s), s))
            .collect();
        let shared: Vec<U> = (0..k).map(|_| factory()).collect();
        // Construction-time fold: every station of a finished-at-birth
        // uniform protocol reports finished (and Running), so the trial
        // retires before slot 0 — exactly the fast backend's fold.
        let shared_finished: Vec<bool> = shared.iter().map(U::finished).collect();
        let tallies = shared_finished
            .iter()
            .map(|&fin| {
                let mut tally = Tally::new(config.n);
                tally.settle(config.n, false, fin, false);
                tally
            })
            .collect();
        BatchUniformStations {
            config: config.clone(),
            n,
            k,
            words,
            keys,
            running: full_mask(k).repeat(n),
            leader: vec![0u64; n * words],
            tallies,
            shared,
            shared_finished,
            thresholds: vec![0; k],
            mid: vec![0u64; words],
            lanes,
        }
    }

    /// Drive every trial to completion; per-trial reports in seed order,
    /// bit-identical to solo fast-exact runs over `PerStation`.
    ///
    /// Each slot retires finished trials, then walks the live trials'
    /// lanes through the same per-slot sequence [`crate::SimCore`] plays
    /// for one (begin, act, commit, feedback, end), and stopping trials
    /// leave the live mask.
    pub fn run(mut self) -> Vec<RunReport> {
        let mut lanes = std::mem::take(&mut self.lanes);
        let config = self.config.clone();
        let mut live = full_mask(lanes.len());
        for slot in 0..config.max_slots {
            // Retire trials whose stations all finished — before the slot is
            // played, like the core loop's top-of-slot check.
            if !retain_trials(&mut live, |k| !self.tallies[k].finished()) {
                break;
            }
            for k in trials(&live) {
                lanes[k].begin_slot();
            }
            self.act(slot, &live, &mut lanes);
            for k in trials(&live) {
                let lane = &mut lanes[k];
                let estimate = if lane.traced() { self.estimate(k) } else { None };
                lane.commit(&config, slot, estimate, |actions, _| actions.lone_transmitter);
            }
            self.feedback(slot, &config, &live, &lanes);
            retain_trials(&mut live, |k| {
                !lanes[k].end_slot(&config, slot, || self.tallies[k].all_terminated())
            });
        }
        // Statuses are frozen once a trial retires, so one pass at the end
        // serves every trial.
        let mut reports = Vec::with_capacity(lanes.len());
        for (k, lane) in lanes.into_iter().enumerate() {
            let mut report = lane.finish(&config, self.tallies[k].finished());
            report.leaders = self.leaders(k);
            reports.push(report);
        }
        reports
    }

    /// The action phase for every live trial, filling each live lane's
    /// `actions`.
    fn act(&mut self, slot: u64, live: &[u64], lanes: &mut [Lane]) {
        // One `tx_prob` call per trial resolves the degenerate
        // probabilities at word granularity; only trials with 0 < p < 1
        // fall through to per-station draws.
        let (n, k, words) = (self.n, self.k, self.words);
        let slot_mat = slot_material(slot);
        let mut any_mid = false;
        self.mid.fill(0);
        for trial in trials(live) {
            let active = self.tallies[trial].active();
            if active == 0 {
                continue; // no running stations: nobody acts
            }
            // Same clamp-then-gate as PerStation::act, so NaN and
            // negative probabilities take the no-draw listen path.
            let p = self.shared[trial].tx_prob(slot).clamp(0.0, 1.0);
            let actions = &mut lanes[trial].actions;
            if p == 1.0 {
                actions.transmitters = active;
                if active == 1 {
                    actions.lone_transmitter =
                        Some(find_single_running(&self.running, n, words, trial));
                }
            } else if p > 0.0 {
                self.thresholds[trial] = gen_bool_threshold(p);
                self.mid[trial / 64] |= 1u64 << (trial % 64);
                any_mid = true;
            } else {
                // NaN falls through `p > 0.0` to land here too.
                actions.listeners = active;
            }
        }
        if any_mid {
            // Word-at-a-time kernel: per station and trial word, one
            // transmit mask from integer-threshold draws, whose set bits
            // are recorded station by station in id order.
            for i in 0..n {
                let (base, ik) = (i * words, i * k);
                for (w, &live_w) in live.iter().enumerate() {
                    let mask = self.running[base + w] & live_w & self.mid[w];
                    if mask == 0 {
                        continue;
                    }
                    let lo = w << 6;
                    let hi = k.min(lo + 64);
                    let tx = draw_mask(
                        mask,
                        &self.keys[ik + lo..ik + hi],
                        &self.thresholds[lo..hi],
                        slot_mat,
                    );
                    for b in bits(tx) {
                        lanes[lo | b].actions.record_transmitter(i as u64);
                    }
                }
            }
            // Every running station of a mid trial either transmitted or
            // listened.
            for trial in trials(&self.mid) {
                let actions = &mut lanes[trial].actions;
                actions.listeners = self.tallies[trial].active() - actions.transmitters;
            }
        }
    }

    /// The estimate trial `trial`'s trace records: that of its
    /// lowest-indexed non-terminal station (the fast backend's rule).
    fn estimate(&self, trial: usize) -> Option<f64> {
        // Every running copy is identical, so the lowest-indexed
        // non-terminal station's estimate is the shared state's.
        if self.tallies[trial].active() > 0 {
            self.shared[trial].estimate()
        } else {
            None
        }
    }

    /// Feedback for every live trial from its lane's ground truth.
    fn feedback(&mut self, slot: u64, config: &SimConfig, live: &[u64], lanes: &[Lane]) {
        // One shared-state update per trial, except on clean singles
        // where the divergently-updated stations all terminate (see the
        // invariant in the type docs).
        let (n, words) = (self.n, self.words);
        for trial in trials(live) {
            let active = self.tallies[trial].active();
            if active == 0 {
                continue; // nobody listens; nothing updates
            }
            let (w, bit) = (trial / 64, 1u64 << (trial % 64));
            let truth = *lanes[trial].truth();
            let was = self.shared_finished[trial];
            if truth.is_clean_single() {
                // Terminating stations freeze `finished()` at the shared
                // state's pre-on_state value.
                let frozen = self.shared[trial].finished();
                let tx = lanes[trial]
                    .actions
                    .lone_transmitter
                    .expect("clean single has exactly one transmitter")
                    as usize;
                if config.cd == CdModel::Strong {
                    self.tallies[trial].settle(active, was, frozen, true);
                    for i in 0..n {
                        self.running[i * words + w] &= !bit;
                    }
                    self.leader[tx * words + w] |= bit;
                } else {
                    // Weak/no-CD: listeners terminate NonLeader; the
                    // transmitter absorbs one Collision.
                    self.tallies[trial].settle(active - 1, was, frozen, true);
                    for i in (0..n).filter(|&i| i != tx) {
                        self.running[i * words + w] &= !bit;
                    }
                    self.shared[trial].on_state(slot, ChannelState::Collision);
                }
            } else {
                // Every running station hears the same effective state:
                // Null only on empty unjammed slots under a CD model that
                // can tell (no-CD collapses Null to Collision).
                let state =
                    if !truth.jammed && truth.transmitters == 0 && config.cd != CdModel::NoCd {
                        ChannelState::Null
                    } else {
                        ChannelState::Collision
                    };
                self.shared[trial].on_state(slot, state);
            }
            let now = self.shared[trial].finished();
            let tally = &mut self.tallies[trial];
            tally.settle(tally.active(), was, now, false);
            self.shared_finished[trial] = now;
        }
    }

    /// Trial `trial`'s `Leader` stations, in id order.
    fn leaders(&self, trial: usize) -> Vec<u64> {
        let (w, bit) = (trial / 64, 1u64 << (trial % 64));
        let mut leaders = Vec::new();
        for i in 0..self.n {
            if self.leader[i * self.words + w] & bit != 0 {
                leaders.push(i as u64);
            }
        }
        leaders
    }
}

impl<U> std::fmt::Debug for BatchUniformStations<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchUniformStations")
            .field("n", &self.n)
            .field("trials", &self.k)
            .finish_non_exhaustive()
    }
}

/// Run `seeds.len()` lockstep trials of a uniform protocol with one
/// shared state per trial. Bit-identical per trial to
/// `run_fast_exact(&config.with_seed(seeds[k]), adversary, |_| Box::new(PerStation::new(factory())))`
/// for any pure `factory`; this is the path the `batch_throughput`
/// bench group and sweepd's `exact_election` units ride.
pub fn run_batch_uniform<U: UniformProtocol>(
    config: &SimConfig,
    adversary: &AdversarySpec,
    seeds: &[u64],
    factory: impl FnMut() -> U,
) -> Vec<RunReport> {
    BatchUniformStations::new(config, adversary, seeds, factory).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::fast::run_fast_exact;
    use crate::protocol::{PerStation, Protocol};
    use jle_adversary::{JamStrategyKind, Rate};

    /// Uniform fixed-probability protocol with state-update counters, so
    /// identity checks cover the `on_state` path, plus a working reset.
    #[derive(Debug, Clone)]
    struct Fixed {
        p: f64,
        nulls: u64,
        collisions: u64,
    }

    impl Fixed {
        fn new(p: f64) -> Self {
            Fixed { p, nulls: 0, collisions: 0 }
        }
    }

    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.p
        }
        fn on_state(&mut self, _: u64, state: ChannelState) {
            match state {
                ChannelState::Null => self.nulls += 1,
                ChannelState::Collision => self.collisions += 1,
                ChannelState::Single => {}
            }
        }
        fn estimate(&self) -> Option<f64> {
            Some((self.nulls as f64) - (self.collisions as f64))
        }
    }

    fn jammer() -> AdversarySpec {
        AdversarySpec::new(Rate::from_f64(0.4), 16, JamStrategyKind::Random { prob: 0.6 })
    }

    fn seeds(k: usize) -> Vec<u64> {
        (0..k as u64).map(|t| crate::streams::mix64(t ^ 0xBA7C_4EED)).collect()
    }

    fn assert_reports_match_fast(
        config: &SimConfig,
        adv: &AdversarySpec,
        seeds: &[u64],
        reports: &[RunReport],
        factory: impl Fn(u64) -> Box<dyn Protocol>,
    ) {
        assert_eq!(reports.len(), seeds.len());
        for (trial, (&seed, got)) in seeds.iter().zip(reports.iter()).enumerate() {
            let want = run_fast_exact(&config.clone().with_seed(seed), adv, &factory);
            assert_eq!(got, &want, "trial {trial} (seed {seed:#x}) diverged from fast-exact");
        }
    }

    #[test]
    fn uniform_path_matches_fast_exact_across_cd_models_and_probs() {
        for cd in [CdModel::Strong, CdModel::Weak, CdModel::NoCd] {
            for p in [0.0_f64, 0.18, 0.5, 1.0] {
                let config = SimConfig::new(7, cd)
                    .with_max_slots(200)
                    .with_stop(StopRule::FirstCleanSingle)
                    .with_trace(true);
                let adv = jammer();
                let seeds = seeds(9);
                let reports = run_batch_uniform(&config, &adv, &seeds, || Fixed::new(p));
                assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
                    Box::new(PerStation::new(Fixed::new(p)))
                });
            }
        }
    }

    #[test]
    fn uniform_path_matches_fast_exact_under_horizon_and_noise() {
        // Horizon runs continue past the election; the post-single tail
        // (zero or one running station) must stay in lockstep too.
        for cd in [CdModel::Strong, CdModel::Weak] {
            let config = SimConfig::new(4, cd)
                .with_max_slots(80)
                .with_stop(StopRule::Horizon)
                .with_noise(0.1)
                .with_trace(true);
            let adv = jammer();
            let seeds = seeds(6);
            let reports = run_batch_uniform(&config, &adv, &seeds, || Fixed::new(0.45));
            assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
                Box::new(PerStation::new(Fixed::new(0.45)))
            });
        }
    }

    #[test]
    fn uniform_path_single_station_weak_cd() {
        // n = 1 exercises the "transmitter is the only survivor" branch
        // with zero listeners on the clean single.
        let config =
            SimConfig::new(1, CdModel::Weak).with_max_slots(50).with_stop(StopRule::Horizon);
        let adv = AdversarySpec::passive();
        let seeds = seeds(3);
        let reports = run_batch_uniform(&config, &adv, &seeds, || Fixed::new(1.0));
        assert_reports_match_fast(&config, &adv, &seeds, &reports, |_| {
            Box::new(PerStation::new(Fixed::new(1.0)))
        });
    }

    #[test]
    fn empty_seed_slice_yields_no_reports() {
        let config = SimConfig::new(3, CdModel::Strong);
        let reports =
            run_batch_uniform(&config, &AdversarySpec::passive(), &[], || Fixed::new(0.5));
        assert!(reports.is_empty());
    }
}
