//! The composable simulation core: **one** slot loop for every engine.
//!
//! Historically the exact, cohort, and faulty engines each hand-rolled the
//! same slot loop (adversary commit → action sampling → noise → resolution
//! → bookkeeping → stop rules) with visible drift between the copies. The
//! core inverts that: the per-trial half of the loop lives once, in
//! [`Lane`], and everything that varies between engines lives behind two
//! small interfaces:
//!
//! * [`StationSet`] answers the per-slot station-side questions — who
//!   transmits, who listens, who is the lone transmitter, what feedback
//!   the stations receive, whether they have all finished or terminated,
//!   and which backend-specific report fields (`leaders`, …) to fill.
//!   The fast-exact, cohort, faulty, and multi-hop backends all
//!   implement it; [`SimCore`] drives one lane around any of them.
//! * [`crate::observer::SlotObserver`] is opt-in per-slot instrumentation
//!   (live throughput, telemetry, split-brain tracking) layered on the
//!   loop without touching it. Energy accounting and trace recording are
//!   part of the report contract and live in the lane itself.
//!
//! The batched backend ([`crate::batch`]) drives K lanes through the same
//! per-slot sequence, one lane per trial, so the draw order below holds
//! for every trial of every engine.
//!
//! # The RNG draw-order contract
//!
//! Bit-for-bit reproducibility (and the golden-seed suite locking it)
//! rests on a fixed per-slot draw order on exactly two `SmallRng` streams:
//!
//! 1. **adversary stream** (`seed ^ ADV_SEED_XOR`): the commit-first
//!    strategy's `decide` draws, if any;
//! 2. **station stream** (`seed`): the backend's action draws — per-station
//!    Bernoullis in index order (multi-hop `Shared`) or one binomial
//!    (cohort); the counter-stream backends (fast-exact, batch, multi-hop
//!    `Counter`) draw their stations from per-station streams instead and
//!    take nothing here;
//! 3. **station stream**: the noise Bernoulli, drawn only when
//!    `noise_prob > 0`;
//! 4. **station stream**: the backend's winner draw on the first clean
//!    `Single` (cohort draws `gen_range(0..n)`; per-station backends draw
//!    nothing).
//!
//! Budget updates, history pushes, observer calls, and feedback delivery
//! consume no randomness and may not be reordered around the draws above.

use crate::config::{SimConfig, StopRule};
use crate::observer::{SlotObserver, StateProbe};
use crate::report::{EnergyStats, RunReport};
use jle_adversary::{AdversarySpec, JamBudget, JamStrategy, Rate};
use jle_radio::{ChannelHistory, HistoryView, SlotTruth, Trace};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Seed-stream separator so station randomness and adversary randomness
/// are independent. This is *the* definition — both engines used to carry
/// a private copy that could silently drift.
pub const ADV_SEED_XOR: u64 = 0x9E37_79B9_7F4A_7C15;

/// Trace preallocation, bounded so absurd `max_slots` caps do not reserve
/// gigabytes up front.
fn trace_capacity(config: &SimConfig) -> usize {
    config.max_slots.min(1 << 20) as usize
}

/// What a station set did in one slot, aggregated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotActions {
    /// Number of transmitting stations.
    pub transmitters: u64,
    /// Number of listening stations (excludes sleepers and terminated
    /// stations on the per-station engines; `n − k` on the cohort engine).
    pub listeners: u64,
    /// Index of the sole transmitter when `transmitters == 1` and the
    /// backend tracks identities (per-station engines); `None` otherwise.
    pub lone_transmitter: Option<u64>,
}

impl SlotActions {
    /// Count one transmitter, keeping its identity while it is alone.
    #[inline]
    pub(crate) fn record_transmitter(&mut self, id: u64) {
        self.transmitters += 1;
        self.lone_transmitter = if self.transmitters == 1 { Some(id) } else { None };
    }

    /// Fold per-chunk aggregates in chunk order (deterministic): counts
    /// add up, and a lone transmitter survives only when the whole slot
    /// saw exactly one.
    pub(crate) fn fold(parts: &[SlotActions]) -> SlotActions {
        let mut total = SlotActions::default();
        for part in parts {
            total.transmitters += part.transmitters;
            total.listeners += part.listeners;
        }
        if total.transmitters == 1 {
            total.lone_transmitter = parts.iter().find_map(|p| p.lone_transmitter);
        }
        total
    }
}

/// Incremental "finished" bookkeeping for the backends that track
/// stations individually without rescanning them every slot (fast-exact
/// and the batch backend, one tally per trial).
///
/// It answers the two stop questions — [`Tally::finished`] is the
/// incremental form of "some station finished, and every non-terminal
/// station has"; [`Tally::all_terminated`] is "no station is left
/// running" — from three counters that [`Tally::settle`] keeps in step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tally {
    /// Non-terminal stations (awake or parked).
    active: u64,
    /// Non-terminal stations currently reporting `finished()`.
    finished_active: u64,
    /// All stations (terminal included) reporting `finished()`.
    finished_total: u64,
}

impl Tally {
    /// `n` running stations, none finished.
    pub(crate) fn new(n: u64) -> Self {
        Tally { active: n, finished_active: 0, finished_total: 0 }
    }

    /// Stations still running.
    #[inline]
    pub(crate) fn active(&self) -> u64 {
        self.active
    }

    /// The stop-before-playing predicate.
    #[inline]
    pub(crate) fn finished(&self) -> bool {
        self.finished_total > 0 && self.finished_active == self.active
    }

    /// The [`StopRule::AllTerminated`] question.
    #[inline]
    pub(crate) fn all_terminated(&self) -> bool {
        self.active == 0
    }

    /// Record `count` running stations whose `finished()` moved from
    /// `was` (as last recorded) to `now`, and which left the running set
    /// if `terminal`. A terminated station keeps counting toward
    /// `finished_total` with its flag frozen at `now`.
    #[inline]
    pub(crate) fn settle(&mut self, count: u64, was: bool, now: bool, terminal: bool) {
        if now != was {
            if now {
                self.finished_total += count;
                self.finished_active += count;
            } else {
                self.finished_total -= count;
                self.finished_active -= count;
            }
        }
        if terminal {
            self.active -= count;
            if now {
                self.finished_active -= count;
            }
        }
    }
}

/// The station side of the simulation: everything that differs between
/// the fast-exact, cohort, faulty, and multi-hop engines.
///
/// [`SimCore::run`] calls these hooks in a fixed per-slot order — see the
/// module docs for the draw-order contract each implementation must
/// respect. The stop rules, `timed_out`, `cap_hit`, energy, and trace are
/// the lane's business; a backend only answers [`StationSet::finished`]
/// and [`StationSet::all_terminated`]. Every backend honours the
/// configured [`StopRule`]; the cohort backend alone re-judges
/// `timed_out`/`cap_hit` in [`StationSet::finalize`]. To add another
/// backend, implement this trait; do **not** write another slot loop.
pub trait StationSet {
    /// Whether the protocol has finished without a resolution (checked at
    /// the top of every slot; a `true` ends the run before the slot is
    /// played).
    fn finished(&self) -> bool {
        false
    }

    /// Whether every station has terminated — the question behind
    /// [`StopRule::AllTerminated`], asked after each slot's feedback only
    /// when that rule is configured.
    fn all_terminated(&self) -> bool;

    /// Play the action phase of `slot`: draw station randomness (in
    /// station-index order on a shared stream) and report the aggregate.
    fn act(&mut self, slot: u64, config: &SimConfig, rng: &mut SmallRng) -> SlotActions;

    /// Identify the winner of the run-resolving first clean `Single`.
    /// Called at most once per run. The cohort backend draws the uniform
    /// winner here; per-station backends return the lone transmitter without
    /// touching the RNG.
    fn pick_winner(
        &mut self,
        actions: &SlotActions,
        config: &SimConfig,
        rng: &mut SmallRng,
    ) -> Option<u64>;

    /// Deliver end-of-slot observations. The backend applies its own CD
    /// filtering and decides which stations hear anything (the cohort
    /// backend skips the update on a run-ending clean `Single`).
    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig);

    /// Protocol-internal scalar for traces (LESK's estimate `u`), queried
    /// only when a trace or an observer wants it, after `act` and before
    /// `feedback`.
    fn estimate(&self) -> Option<f64> {
        None
    }

    /// Collect every station's [`StateProbe`] (post-feedback state) into
    /// `out`, in station-id order; stations whose protocol exposes no
    /// probe are skipped. Queried only when an attached observer asked
    /// via [`SlotObserver::wants_probes`] — the default no-op keeps
    /// probe-less backends free. Must not mutate state or draw
    /// randomness.
    fn collect_probes(&self, out: &mut Vec<StateProbe>) {
        let _ = out;
    }

    /// Fill in the backend-specific report fields (`leaders`, fault
    /// verdicts, the multi-hop block, …) after the loop ends. The lane
    /// has already settled every field it owns.
    fn finalize(&mut self, config: &SimConfig, report: &mut RunReport);
}

/// The jam-decision side of a slot: either the paper's commit-first
/// adversary, or the model-violating oracle used as a negative control.
pub(crate) enum Jammer {
    /// Decides before seeing the slot's actions (the paper's model).
    CommitFirst { strategy: Box<dyn JamStrategy>, budget: JamBudget, adv_rng: SmallRng },
    /// Decides *after* seeing the transmitter count — deliberately
    /// violates the model (see [`crate::run_cohort_against_oracle`]).
    Oracle { budget: JamBudget },
}

impl Jammer {
    /// The paper's adversary for the run seeded `seed`.
    pub(crate) fn commit_first(adversary: &AdversarySpec, seed: u64) -> Self {
        Jammer::CommitFirst {
            strategy: adversary.strategy(),
            budget: adversary.budget(),
            adv_rng: SmallRng::seed_from_u64(seed ^ ADV_SEED_XOR),
        }
    }

    /// The pre-action decision (commit-first strategies draw their
    /// randomness here; the oracle abstains).
    fn pre_decide(&mut self, history: &ChannelHistory) -> bool {
        match self {
            Jammer::CommitFirst { strategy, budget, adv_rng } => {
                strategy.decide(history, budget, adv_rng)
            }
            Jammer::Oracle { .. } => false,
        }
    }

    /// Clamp the request against the budget and advance the window. The
    /// oracle makes its (cheating) decision here, transmitter count in
    /// hand. Consumes no randomness.
    fn commit(&mut self, want: bool, transmitters: u64) -> bool {
        let (budget, request) = match self {
            Jammer::CommitFirst { budget, .. } => (budget, want),
            Jammer::Oracle { budget } => (budget, transmitters == 1),
        };
        let jam = request && budget.can_jam();
        budget.advance(jam);
        jam
    }

    /// The enforcer, for retention sizing and post-run accounting.
    fn budget(&self) -> &JamBudget {
        match self {
            Jammer::CommitFirst { budget, .. } | Jammer::Oracle { budget } => budget,
        }
    }
}

/// The per-trial half of the slot loop: everything one run owns that is
/// not station state — the jammer, the station-stream RNG (which also
/// feeds the noise draw), the channel history, the accumulating report
/// with its energy and trace, and the slot's action scratch.
///
/// Its methods are the per-slot sequence in draw order:
/// [`Lane::begin_slot`] (the adversary decides), the backend's action
/// phase (filling [`Lane::actions`] from [`Lane::rng`]), [`Lane::commit`]
/// (budget clamp, noise, truth, energy, trace, first clean `Single`), the
/// backend's feedback from [`Lane::truth`], then [`Lane::end_slot`]
/// (history, slot count, stop rule) and, after the loop,
/// [`Lane::finish`]. [`SimCore`] drives one lane; the batch backend
/// drives one per trial.
pub(crate) struct Lane {
    jammer: Jammer,
    /// The station stream: action draws (legacy backends), the noise
    /// draw, and the cohort winner draw.
    pub(crate) rng: SmallRng,
    history: ChannelHistory,
    report: RunReport,
    energy: EnergyStats,
    trace: Option<Trace>,
    /// The adversary's pre-action jam request for this slot.
    want: bool,
    /// This slot's aggregate actions, filled by the backend.
    pub(crate) actions: SlotActions,
    truth: SlotTruth,
}

impl Lane {
    /// A lane for the run seeded `seed`.
    pub(crate) fn new(config: &SimConfig, jammer: Jammer, seed: u64) -> Self {
        let retention = config.effective_retention(jammer.budget().t_window());
        Lane {
            jammer,
            rng: SmallRng::seed_from_u64(seed),
            history: ChannelHistory::new(retention),
            report: RunReport::default(),
            energy: EnergyStats::default(),
            trace: config.record_trace.then(|| Trace::with_capacity(trace_capacity(config))),
            want: false,
            actions: SlotActions::default(),
            truth: SlotTruth::IDLE,
        }
    }

    /// This slot's ground truth, as [`Lane::commit`] resolved it.
    #[inline]
    pub(crate) fn truth(&self) -> &SlotTruth {
        &self.truth
    }

    /// Whether this lane records a trace (and so wants the estimate).
    #[inline]
    pub(crate) fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Top of the slot: the commit-first adversary decides before any
    /// action draw, and the action scratch clears.
    #[inline]
    pub(crate) fn begin_slot(&mut self) {
        self.want = self.jammer.pre_decide(&self.history);
        self.actions = SlotActions::default();
    }

    /// After the action phase: budget clamp (the oracle decides here),
    /// the noise draw, ground truth, energy and trace accounting, and
    /// first-clean-`Single` resolution, whose winner `pick_winner` names
    /// (it may draw from the station stream).
    #[inline]
    pub(crate) fn commit(
        &mut self,
        config: &SimConfig,
        slot: u64,
        estimate: Option<f64>,
        pick_winner: impl FnOnce(&SlotActions, &mut SmallRng) -> Option<u64>,
    ) {
        let jam = self.jammer.commit(self.want, self.actions.transmitters);
        let noisy = config.noise_prob > 0.0 && self.rng.gen_bool(config.noise_prob);
        if noisy {
            self.report.noise_slots += 1;
        }
        self.truth = SlotTruth::new(self.actions.transmitters, jam || noisy);
        self.energy.transmissions += self.actions.transmitters;
        self.energy.listens += self.actions.listeners;
        if let Some(t) = self.trace.as_mut() {
            match estimate {
                Some(u) => t.push_with_estimate(&self.truth, u),
                None => t.push(&self.truth),
            }
        }
        if self.truth.is_clean_single() && self.report.resolved_at.is_none() {
            self.report.resolved_at = Some(slot);
            self.report.winner = pick_winner(&self.actions, &mut self.rng);
        }
    }

    /// End of the slot, after feedback: history push, slot count, and the
    /// configured [`StopRule`] (`all_terminated` is asked only under
    /// [`StopRule::AllTerminated`]). Returns whether the run stops.
    #[inline]
    pub(crate) fn end_slot(
        &mut self,
        config: &SimConfig,
        slot: u64,
        all_terminated: impl FnOnce() -> bool,
    ) -> bool {
        self.history.push(&self.truth);
        self.report.slots = slot + 1;
        match config.stop {
            StopRule::FirstCleanSingle => self.report.resolved_at.is_some(),
            StopRule::AllTerminated => {
                let done = all_terminated();
                self.report.all_terminated |= done;
                done
            }
            StopRule::Horizon => false,
        }
    }

    /// Post-loop report assembly: channel counts, budget spent, energy,
    /// trace, and the `timed_out`/`cap_hit` verdict (`finished` is the
    /// backend's answer at loop exit).
    pub(crate) fn finish(self, config: &SimConfig, finished: bool) -> RunReport {
        let mut report = self.report;
        report.counts = self.history.counts();
        report.adv_budget_spent = self.jammer.budget().spent_fraction();
        report.energy = self.energy;
        report.trace = self.trace;
        report.timed_out = match config.stop {
            StopRule::FirstCleanSingle => report.resolved_at.is_none() && !finished,
            StopRule::AllTerminated => !report.all_terminated,
            StopRule::Horizon => false,
        };
        report.cap_hit = report.timed_out && report.slots == config.max_slots;
        report
    }
}

/// The unified slot loop, configured and ready to drive any
/// [`StationSet`].
///
/// ```
/// use jle_adversary::AdversarySpec;
/// use jle_engine::{CohortStations, SimConfig, SimCore, UniformProtocol};
/// use jle_radio::{CdModel, ChannelState};
///
/// struct Fixed(f64);
/// impl UniformProtocol for Fixed {
///     fn tx_prob(&mut self, _: u64) -> f64 {
///         self.0
///     }
///     fn on_state(&mut self, _: u64, _: ChannelState) {}
/// }
///
/// let config = SimConfig::new(1, CdModel::Strong).with_max_slots(10);
/// let mut stations = CohortStations::new(Fixed(1.0));
/// let report = SimCore::new(&config, &AdversarySpec::passive()).run(&mut stations);
/// assert_eq!(report.resolved_at, Some(0));
/// ```
pub struct SimCore<'a> {
    config: &'a SimConfig,
    jammer: Jammer,
    observers: Vec<&'a mut dyn SlotObserver>,
}

impl<'a> SimCore<'a> {
    /// A core playing `config` against the paper's commit-first adversary.
    pub fn new(config: &'a SimConfig, adversary: &AdversarySpec) -> Self {
        SimCore {
            config,
            jammer: Jammer::commit_first(adversary, config.seed),
            observers: Vec::new(),
        }
    }

    /// A core playing against the model-violating oracle jammer, which
    /// sees the slot's transmitter count before deciding (negative
    /// control; see [`crate::run_cohort_against_oracle`]).
    pub fn oracle(config: &'a SimConfig, eps: Rate, t_window: u64) -> Self {
        SimCore {
            config,
            jammer: Jammer::Oracle { budget: JamBudget::new(eps, t_window) },
            observers: Vec::new(),
        }
    }

    /// Attach an external per-slot observer (may be called repeatedly;
    /// observers fire in attachment order after the lane's own energy
    /// and trace accounting).
    pub fn observe(mut self, observer: &'a mut dyn SlotObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Drive `stations` through the slot loop and produce the report.
    ///
    /// This runs one [`Lane`] (K = 1); every public `run_*`
    /// entry point except the batched one is a thin shim over it.
    pub fn run<S: StationSet>(self, stations: &mut S) -> RunReport {
        let SimCore { config, jammer, mut observers } = self;
        assert!(config.n >= 1, "need at least one station");
        let mut lane = Lane::new(config, jammer, config.seed);
        let wants_estimate = lane.traced() || observers.iter().any(|o| o.wants_estimate());
        let wants_probes = observers.iter().any(|o| o.wants_probes());
        let mut probes: Vec<StateProbe> = Vec::new();

        for slot in 0..config.max_slots {
            if stations.finished() {
                break;
            }
            // 1. Commit-first adversaries decide before any action draw.
            lane.begin_slot();
            // 2. Stations act (station-stream draws, index order).
            lane.actions = stations.act(slot, config, &mut lane.rng);
            // 3–5. Budget clamp, noise, truth, energy, trace, resolution;
            // then the external observers.
            let estimate = if wants_estimate { stations.estimate() } else { None };
            lane.commit(config, slot, estimate, |actions, rng| {
                stations.pick_winner(actions, config, rng)
            });
            for obs in observers.iter_mut() {
                obs.on_slot(slot, lane.truth(), &lane.actions, estimate);
            }

            // 6. Feedback. Probes sample the *post-feedback* state
            // (consuming no randomness), so a timeline shows the
            // transition each slot caused.
            stations.feedback(slot, lane.truth(), config);
            if wants_probes {
                probes.clear();
                stations.collect_probes(&mut probes);
                for obs in observers.iter_mut() {
                    if obs.wants_probes() {
                        obs.on_probes(slot, &probes);
                    }
                }
            }
            // 7. History, slot count, stop rule.
            if lane.end_slot(config, slot, || stations.all_terminated()) {
                break;
            }
        }

        let mut report = lane.finish(config, stations.finished());
        for obs in observers.iter_mut() {
            obs.finish(&mut report);
        }
        stations.finalize(config, &mut report);
        // Post-finalization pass: observers see the settled report (no
        // randomness, no mutation — telemetry classification lives here).
        for obs in observers.iter_mut() {
            obs.after_run(&report);
        }
        report
    }
}
