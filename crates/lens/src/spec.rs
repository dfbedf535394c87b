//! Replayable run specifications: parameter tree → deterministic run.
//!
//! A [`LensSpec`] is the lens's contract with the rest of the workspace:
//! it names *exactly one* deterministic simulation — engine backend,
//! protocol, adversary, plans — such that `spec + seed` re-derives a
//! recorded trial bit-for-bit. Two tree shapes parse:
//!
//! * `kind == "cohort_election"` / `kind == "exact_election"` — the
//!   exact trees `jle-sweepd` caches under content fingerprints, decoded
//!   through the same [`ElectionParams`] the server decodes, so any spec
//!   recovered from a result-store `spec.json` replays on the same engine
//!   path the server used. `exact_election` trees replay on the
//!   fast-exact path: the server computes them through the batched
//!   uniform backend (`run_batch_uniform`), which is bit-identical per
//!   trial to fast-exact, which is exactly why the server caches them
//!   under the fast-exact fingerprint. The batch backend hosts no
//!   observer, so the fast-exact stations are its replay path.
//! * `kind == "election_run"` — the lens's superset, the derived form of
//!   [`LensSpec`] itself: explicit engine selection
//!   (`cohort`/`exact`/`fast-exact`/`multihop`; `exact` is the
//!   shared-stream discipline, replayed on the multi-hop backend over the
//!   complete graph), stop rules, noise, fault/churn plans (fixed, or
//!   drawn per seed from a recipe), a supervisor watchdog, leader leases,
//!   topologies, and RNG disciplines.
//!
//! Parsing is strict in the same way the server's is: an unrecognized key,
//! engine or protocol anywhere in the tree is [`SpecError::Unsupported`],
//! never ignored — a replay that silently dropped a knob would
//! "reproduce" a different run than the one recorded.
//!
//! The `simulate` CLI builds its runs as [`LensSpec`]s too
//! ([`LensSpec::new`], [`LensSpec::validate`], [`LensSpec::run`]), so the
//! lens replays every `simulate` run but ARSS, which trees from outside
//! refuse ([`ProtoParams::portable`]). So do the experiments' election
//! units: a unit is a [`LensSpec`] plus a projection of its runs, stored
//! under [`LensSpec::to_params`] with trial `k` run at seed
//! `base_seed + k`, so its `spec.json` re-derives every stored trial
//! unless its protocol is a local-only shape. The spec, not its caller,
//! wires what a run needs beyond its stations: the per-seed plans, the
//! restart supervisors, and a lease run's shared [`LeaderLedger`] and
//! [`SplitBrainObserver`]; [`LensSpec::run_observed`] hands back what the
//! supervisors and leases logged ([`Run`]). A `cluster` run elects per
//! cluster: a topology descriptor with natural clusters (`dense-linear`,
//! `core-tail`) uses them, a `unit-disk` makes every node its own
//! cluster, and `complete` is one cluster.

use std::sync::{Arc, Mutex};

use jle_adversary::AdversarySpec;
use jle_engine::{
    ChurnPlan, CohortStations, FastExactStations, FastFaultyStations, FaultPlan, LeaderLedger,
    MeshProtocol, MultihopStations, Protocol, RngDiscipline, RunReport, SimConfig, SimCore,
    SlotObserver, SplitBrainObserver, StdMesh, StopRule,
};
use jle_protocols::{
    params::ZERO_STATIONS, with_uniform_proto, ClusterElection, ElectionKind, ElectionParams,
    LeaseConfig, LeaseProtocol, ProtoParams, ReElectionRecord, RestartRecord, Supervisor,
};
use jle_radio::{CdModel, Topology};
use serde::{Deserialize, Serialize, Value};

/// Why a parameter tree could not be turned into a replayable run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Well-formed but names something this lens cannot faithfully
    /// re-derive (unknown kind/engine/protocol, or an unrecognized key
    /// that may change behaviour).
    Unsupported(String),
    /// Malformed (missing or ill-typed required fields, impossible
    /// combinations like a fault plan on the cohort engine).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Unsupported(msg) => write!(f, "unsupported spec: {msg}"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<serde::Error> for SpecError {
    fn from(e: serde::Error) -> Self {
        if e.is_unknown() {
            SpecError::Unsupported(e.to_string())
        } else {
            SpecError::Invalid(e.to_string())
        }
    }
}

/// Which simulation backend re-derives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Uniform-cohort engine (`run_cohort` path — what `jle-sweepd`
    /// executes for `cohort_election` trees). Honours `first-clean-single`
    /// and `horizon` (continue past clean `Single`s); it tracks no
    /// termination, so `all-terminated` is refused.
    #[serde(rename = "cohort")]
    Cohort,
    /// The legacy shared-stream per-station discipline: every station
    /// drawn from the engine's one sequential stream in index order,
    /// replayed as [`MultihopStations`] on the complete graph under
    /// [`RngDiscipline::Shared`] (bit-identical to the retired
    /// single-hop engine, so its flight records replay unchanged).
    /// Takes no fault or churn plan.
    #[serde(rename = "exact")]
    Exact,
    /// Bitset fast path ([`FastExactStations`] / [`FastFaultyStations`]).
    #[serde(rename = "fast-exact")]
    FastExact,
    /// Topology-aware multi-hop engine ([`MultihopStations`]).
    #[serde(rename = "multihop")]
    Multihop,
}

impl EngineKind {
    /// Parse the spec-tree name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::from_json_value(&Value::Str(s.to_string())).ok()
    }

    /// The spec-tree name (inverse of [`EngineKind::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Cohort => "cohort",
            EngineKind::Exact => "exact",
            EngineKind::FastExact => "fast-exact",
            EngineKind::Multihop => "multihop",
        }
    }
}

/// The [`StopRule`] as a spec tree names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stop {
    /// [`StopRule::FirstCleanSingle`].
    #[default]
    #[serde(rename = "first-clean-single")]
    FirstCleanSingle,
    /// [`StopRule::AllTerminated`].
    #[serde(rename = "all-terminated")]
    AllTerminated,
    /// [`StopRule::Horizon`].
    #[serde(rename = "horizon")]
    Horizon,
}

impl From<Stop> for StopRule {
    fn from(stop: Stop) -> Self {
        match stop {
            Stop::FirstCleanSingle => StopRule::FirstCleanSingle,
            Stop::AllTerminated => StopRule::AllTerminated,
            Stop::Horizon => StopRule::Horizon,
        }
    }
}

/// The `kind` of the lens's own tree shape.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum RunKind {
    #[serde(rename = "election_run")]
    ElectionRun,
}

fn is_zero(x: &f64) -> bool {
    *x == 0.0
}

fn is_shared(d: &RngDiscipline) -> bool {
    *d == RngDiscipline::Shared
}

/// Salt of the fault plan a [`FaultRecipe`] draws for a run's seed.
pub const FAULT_SALT: u64 = 0xFA17;
/// Salt of the churn plan a [`ChurnRecipe`] draws for a run's seed.
pub const CHURN_SALT: u64 = 0xC4C4;
/// Watchdog of the [`Supervisor`] each lease's LESK election runs under.
pub const LEASE_WATCHDOG: u64 = 16_384;

/// The window a [`FaultRecipe`]'s crashes land in.
pub const CRASH_WINDOW: u64 = 2_048;
/// Every station's sensing-flip probability under a [`FaultRecipe`].
pub const SENSING_FLIPS: f64 = 0.02;

/// A fault plan drawn per run: [`FaultPlan::new`] at `seed ^ FAULT_SALT`,
/// then, over all `n` stations, crashes in the first [`CRASH_WINDOW`]
/// slots, staggered wake-ups and [`SENSING_FLIPS`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultRecipe {
    /// [`FaultPlan::with_random_crashes`]' crash probability.
    pub crash_prob: f64,
    /// [`FaultPlan::with_staggered_wakeups`]' largest wake-up slot.
    pub stagger: u64,
}

impl FaultRecipe {
    /// The plan for `n` stations drawn from `plan_seed`.
    fn plan(&self, n: u64, plan_seed: u64) -> FaultPlan {
        FaultPlan::new(plan_seed)
            .with_random_crashes(n, self.crash_prob, CRASH_WINDOW)
            .with_staggered_wakeups(n, self.stagger)
            .with_sensing_flips(n, SENSING_FLIPS)
    }
}

/// A churn plan drawn per run: [`ChurnPlan::new`] at `seed ^ CHURN_SALT`,
/// then one builder per field over all `n` stations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChurnRecipe {
    /// [`ChurnPlan::with_staggered_joins`]: late-join probability…
    pub join_prob: f64,
    /// …and the window joins land in.
    pub join_window: u64,
    /// [`ChurnPlan::with_random_leaves`]: leave probability…
    pub leave_prob: f64,
    /// …and the window leaves land in.
    pub leave_window: u64,
    /// [`ChurnPlan::with_rejoins`]' downtime; 0 makes departures
    /// permanent.
    pub rejoin_after: u64,
}

impl ChurnRecipe {
    /// The plan for `n` stations drawn from `plan_seed`.
    pub fn plan(&self, n: u64, plan_seed: u64) -> ChurnPlan {
        let plan = ChurnPlan::new(plan_seed)
            .with_staggered_joins(n, self.join_prob, self.join_window)
            .with_random_leaves(n, self.leave_prob, self.leave_window);
        if self.rejoin_after > 0 {
            plan.with_rejoins(self.rejoin_after)
        } else {
            plan
        }
    }
}

/// Leader leases over supervised LESK ([`LeaseProtocol::over_supervised_lesk`],
/// watchdog [`LEASE_WATCHDOG`]), every station on one [`LeaderLedger`]
/// whose belief TTL is the lease timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Lease {
    /// The leader's beacon period.
    pub beacon: u64,
    /// Consecutive failed beacons before the leader steps down.
    pub miss_tolerance: u32,
    /// The follower watchdog's initial window and the ledger's TTL.
    pub timeout: u64,
}

/// One run of a spec: its report, and what its supervisors and leases
/// logged on the way, in the order it happened.
#[derive(Debug)]
pub struct Run {
    /// The run's report.
    pub report: RunReport,
    /// Every supervisor restart (none without a `watchdog`).
    pub restarts: Vec<RestartRecord>,
    /// Every lease lost (none without a `lease`).
    pub lease_losses: Vec<ReElectionRecord>,
}

/// The shared logs a run's stations write into.
#[derive(Default)]
struct Logs {
    restarts: Arc<Mutex<Vec<RestartRecord>>>,
    lease_losses: Arc<Mutex<Vec<ReElectionRecord>>>,
}

fn drain<T>(log: &Mutex<Vec<T>>) -> Vec<T> {
    std::mem::take(&mut *log.lock().expect("run log"))
}

type StationFactory = Box<dyn Fn(u64) -> Box<dyn Protocol> + Send + Sync>;

/// One fully-specified deterministic run (see the module docs). Its
/// derived form is the `election_run` tree: the lens-only knobs are
/// omitted at their defaults (`stop` is always written).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LensSpec {
    /// Always `election_run`.
    kind: RunKind,
    /// Backend that re-derives the run.
    pub engine: EngineKind,
    /// Station count.
    pub n: u64,
    /// Collision-detection model.
    pub cd: CdModel,
    /// Adversary specification.
    pub adv: AdversarySpec,
    /// Slot cap.
    pub max_slots: u64,
    /// Stop rule.
    #[serde(default)]
    pub stop: Stop,
    /// Protocol.
    pub proto: ProtoParams,
    /// Environmental noise probability.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub noise: f64,
    /// Fault plan (fast-exact engine only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultPlan>,
    /// Churn plan, lowered onto the faulty backend via
    /// [`ChurnPlan::overlay`] (fast-exact engine only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub churn: Option<ChurnPlan>,
    /// A fault plan drawn per seed instead of `faults`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault_recipe: Option<FaultRecipe>,
    /// A churn plan drawn per seed instead of `churn`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub churn_recipe: Option<ChurnRecipe>,
    /// Every station runs under a [`Supervisor`] with this watchdog
    /// (fast-exact engine only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub watchdog: Option<u64>,
    /// Leader leases (fast-exact engine, strong CD, plain LESK only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub lease: Option<Lease>,
    /// Topology descriptor in CLI form (`complete`, `dense-linear:K,M`,
    /// `core-tail:C,T`, `unit-disk:N,R,SEED`; see [`Topology::parse`];
    /// multihop engine only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub topology: Option<String>,
    /// Multi-hop RNG discipline.
    #[serde(default, skip_serializing_if = "is_shared")]
    pub discipline: RngDiscipline,
}

impl LensSpec {
    /// A first-clean-single run with every lens-only knob at its default;
    /// set the public fields for the rest, then [`LensSpec::validate`].
    pub fn new(
        engine: EngineKind,
        proto: ProtoParams,
        n: u64,
        cd: CdModel,
        adv: AdversarySpec,
        max_slots: u64,
    ) -> Self {
        LensSpec {
            kind: RunKind::ElectionRun,
            engine,
            n,
            cd,
            adv,
            max_slots,
            stop: Stop::FirstCleanSingle,
            proto,
            noise: 0.0,
            faults: None,
            churn: None,
            fault_recipe: None,
            churn_recipe: None,
            watchdog: None,
            lease: None,
            topology: None,
            discipline: RngDiscipline::Shared,
        }
    }

    /// Parse a parameter tree (either supported `kind`; module docs).
    /// The local-only protocol shapes are unsupported here
    /// ([`ProtoParams::portable`]).
    pub fn from_params(params: &Value) -> Result<Self, SpecError> {
        if params.get("kind").and_then(Value::as_str) == Some("election_run") {
            let spec = Self::from_json_value(params)?;
            spec.proto.portable()?;
            spec.validate()?;
            return Ok(spec);
        }
        // The `jle-sweepd` cache trees, strictly, like the server.
        Ok(ElectionParams::decode(params)?.into())
    }

    /// Cross-field consistency (impossible engine/knob combinations).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.n == 0 {
            return Err(SpecError::Invalid(ZERO_STATIONS.into()));
        }
        if !(0.0..=1.0).contains(&self.noise) {
            return Err(SpecError::Invalid("election_run: `noise` must be in [0, 1]".into()));
        }
        self.proto.check().map_err(SpecError::Invalid)?;
        self.check_per_station_knobs()?;
        let has_plans = self.faults.is_some()
            || self.churn.is_some()
            || self.fault_recipe.is_some()
            || self.churn_recipe.is_some();
        match self.engine {
            EngineKind::Cohort => {
                if has_plans || self.topology.is_some() {
                    return Err(SpecError::Invalid(
                        "cohort engine takes no fault/churn plans or topology".into(),
                    ));
                }
                if self.stop == Stop::AllTerminated {
                    return Err(SpecError::Invalid(
                        "cohort engine tracks no termination: stop `all-terminated` needs a \
                         per-station engine"
                            .into(),
                    ));
                }
                if self.proto.per_station() {
                    return Err(SpecError::Invalid(format!(
                        "proto `{}` runs per station, not on the cohort engine",
                        self.proto.label()
                    )));
                }
            }
            EngineKind::Exact | EngineKind::FastExact => {
                if self.engine == EngineKind::Exact && has_plans {
                    return Err(SpecError::Invalid(
                        "exact engine takes no fault/churn plans: it replays the shared-stream \
                         discipline, which has no faulty backend (use engine=fast-exact)"
                            .into(),
                    ));
                }
                if self.topology.is_some() {
                    return Err(SpecError::Invalid(format!(
                        "{} engine takes no topology (use engine=multihop)",
                        self.engine.label()
                    )));
                }
            }
            EngineKind::Multihop => {
                if has_plans {
                    return Err(SpecError::Invalid(
                        "multihop engine takes no fault/churn plans".into(),
                    ));
                }
                self.topology()?;
            }
        }
        if matches!(self.proto, ProtoParams::Cluster { .. }) && self.engine != EngineKind::Multihop
        {
            return Err(SpecError::Invalid("proto `cluster` requires engine=multihop".into()));
        }
        Ok(())
    }

    /// The recipes', the watchdog's and the lease's own constraints.
    fn check_per_station_knobs(&self) -> Result<(), SpecError> {
        let invalid = |msg: &str| Err(SpecError::Invalid(format!("election_run: {msg}")));
        let unit = |p: f64| (0.0..=1.0).contains(&p);
        if self.faults.is_some() && self.fault_recipe.is_some()
            || self.churn.is_some() && self.churn_recipe.is_some()
        {
            return invalid("a fixed plan and a recipe of the same kind exclude each other");
        }
        if let Some(f) = self.fault_recipe {
            if !unit(f.crash_prob) {
                return invalid("`fault_recipe`: `crash_prob` must be in [0, 1]");
            }
        }
        if let Some(c) = self.churn_recipe {
            if !(unit(c.join_prob) && unit(c.leave_prob)) {
                return invalid("`churn_recipe` probabilities must be in [0, 1]");
            }
        }
        let supervised = self.watchdog.is_some() || self.lease.is_some();
        if supervised && self.engine != EngineKind::FastExact {
            return invalid("`watchdog` and `lease` run on engine=fast-exact only");
        }
        if self.watchdog == Some(0) {
            return invalid("`watchdog` must be at least 1");
        }
        if let Some(lease) = self.lease {
            if self.watchdog.is_some() {
                return invalid("a lease supervises its own LESK: drop `watchdog`");
            }
            if !matches!(self.proto, ProtoParams::Lesk { u0: None, divisor: None, .. }) {
                return invalid("a lease elects with the paper's LESK: proto `lesk` only");
            }
            if self.cd != CdModel::Strong {
                return invalid("a lease needs strong CD (beacon self-verification)");
            }
            if lease.beacon == 0 || lease.miss_tolerance == 0 || lease.timeout == 0 {
                return invalid("`lease` parameters must be positive");
            }
        }
        Ok(())
    }

    /// The multihop run's topology (`complete` when unset), checked
    /// against `n`, and its cluster assignment (module docs): the
    /// descriptor's natural clusters, else one cluster per node on a
    /// graph and one cluster on `complete`.
    fn topology(&self) -> Result<(Topology, Vec<u32>), SpecError> {
        let desc = self.topology.as_deref().unwrap_or("complete");
        let (topo, clusters) =
            Topology::parse(desc).map_err(|e| SpecError::Invalid(format!("topology: {e}")))?;
        topo.validate_for(self.n)
            .map_err(|e| SpecError::Invalid(format!("topology does not fit n={}: {e}", self.n)))?;
        let clusters = clusters.unwrap_or_else(|| match topo {
            Topology::Complete => vec![0; self.n as usize],
            Topology::Graph(_) => (0..self.n as u32).collect(),
        });
        Ok((topo, clusters))
    }

    /// The `cohort_election` this spec is, when it is one: the cohort
    /// engine with every lens-only knob at its default.
    pub fn election(&self) -> Option<ElectionParams> {
        let cohort_shape = self.engine == EngineKind::Cohort
            && self.stop == Stop::FirstCleanSingle
            && self.noise == 0.0;
        cohort_shape.then(|| {
            ElectionParams::cohort(self.proto, self.n, self.cd, self.adv.clone(), self.max_slots)
        })
    }

    /// Serialize back to a parameter tree. Cohort-engine specs with all
    /// lens-only knobs at their defaults round-trip to the exact
    /// `cohort_election` shape `jle-sweepd` fingerprints
    /// ([`LensSpec::election`]), so a spec recovered from the result store
    /// re-emits its own cache key.
    pub fn to_params(&self) -> Value {
        match self.election() {
            Some(election) => election.to_json_value(),
            None => self.to_json_value(),
        }
    }

    /// The same run re-targeted at a different backend (for `--diff`);
    /// re-validated, so e.g. moving a fault-plan run onto `multihop`
    /// fails loudly instead of replaying something else.
    pub fn with_engine(
        &self,
        engine: EngineKind,
        discipline: RngDiscipline,
    ) -> Result<Self, SpecError> {
        let mut spec = self.clone();
        spec.engine = engine;
        spec.discipline = discipline;
        if engine != EngineKind::Multihop {
            spec.topology = None;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The [`SimConfig`] for `seed` (the workspace convention is
    /// `seed = base_seed + trial_index`; the caller resolves that).
    pub fn config(&self, seed: u64) -> SimConfig {
        let mut config = SimConfig::new(self.n, self.cd)
            .with_seed(seed)
            .with_max_slots(self.max_slots)
            .with_stop(self.stop.into());
        if self.noise > 0.0 {
            config = config.with_noise(self.noise);
        }
        config
    }

    /// The churn plan the run at `seed` follows: the fixed plan, or the
    /// recipe drawn at `seed ^ CHURN_SALT`.
    pub fn churn_plan(&self, seed: u64) -> Option<ChurnPlan> {
        self.churn.clone().or_else(|| self.churn_recipe.map(|c| c.plan(self.n, seed ^ CHURN_SALT)))
    }

    /// The fault plan the run at `seed` follows, churn lowered onto it
    /// ([`ChurnPlan::overlay`]); `None` for a fault-free closed world.
    fn fault_plan(&self, seed: u64) -> Option<FaultPlan> {
        let faults = self
            .faults
            .clone()
            .or_else(|| self.fault_recipe.map(|f| f.plan(self.n, seed ^ FAULT_SALT)));
        match self.churn_plan(seed) {
            None => faults,
            Some(churn) => Some(churn.overlay(&faults.unwrap_or_else(FaultPlan::empty))),
        }
    }

    /// The single-channel per-station factory: the protocol's stations,
    /// each under a [`Supervisor`] when a watchdog is set, or leases over
    /// supervised LESK on `ledger`; restarts and lease losses go to `logs`.
    fn station_factory(&self, logs: &Logs, ledger: Option<&Arc<LeaderLedger>>) -> StationFactory {
        let proto = self.proto;
        if let (Some(lease), Some(ledger), ProtoParams::Lesk { eps, .. }) =
            (self.lease, ledger, proto)
        {
            let config = LeaseConfig::new(lease.beacon, lease.miss_tolerance, lease.timeout);
            let (ledger, log) = (Arc::clone(ledger), Arc::clone(&logs.lease_losses));
            return Box::new(move |i| {
                let log = Arc::clone(&log);
                let station = LeaseProtocol::over_supervised_lesk(
                    i,
                    eps,
                    LEASE_WATCHDOG,
                    config,
                    Arc::clone(&ledger),
                );
                Box::new(station.with_reelection_sink(Arc::new(move |r: &ReElectionRecord| {
                    log.lock().expect("run log").push(*r)
                })))
            });
        }
        let Some(watchdog) = self.watchdog else {
            return Box::new(proto.station_factory());
        };
        let log = Arc::clone(&logs.restarts);
        Box::new(move |i| {
            let log = Arc::clone(&log);
            let station = Supervisor::new(watchdog, Box::new(move || proto.station_factory()(i)));
            Box::new(station.with_restart_sink(Arc::new(move |r: &RestartRecord| {
                log.lock().expect("run log").push(*r)
            })))
        })
    }

    /// Run the spec for `seed`.
    ///
    /// This constructs the same station sets the workspace's `run_*`
    /// entry points construct — same factories, same plan lowering
    /// ([`ChurnPlan::overlay`] onto a [`FaultPlan`]), same disciplines.
    /// `exact` runs on the multi-hop backend over [`Topology::Complete`]
    /// with the `Shared` discipline.
    pub fn run(&self, seed: u64) -> Result<RunReport, SpecError> {
        Ok(self.run_observed(seed, &mut [])?.report)
    }

    /// [`LensSpec::run`] with `observers` attached, in order, after a
    /// lease run's [`SplitBrainObserver`] (which settles its stats before
    /// they see the report): the report and the per-slot stream are
    /// bit-identical to the unobserved run (observers are passive by the
    /// engine's golden-seed contract).
    pub fn run_observed(
        &self,
        seed: u64,
        observers: &mut [&mut dyn SlotObserver],
    ) -> Result<Run, SpecError> {
        let config = self.config(seed);
        let logs = Logs::default();
        let ledger = self.lease.map(|lease| LeaderLedger::new(lease.timeout));
        let mut split = ledger.as_ref().map(|ledger| SplitBrainObserver::new(Arc::clone(ledger)));
        let mut core = SimCore::new(&config, &self.adv);
        if let Some(split) = split.as_mut() {
            core = core.observe(split);
        }
        for obs in observers.iter_mut() {
            core = core.observe(&mut **obs);
        }
        let report = match self.engine {
            EngineKind::Cohort => {
                with_uniform_proto!(self.proto, make => core.run(&mut CohortStations::new(make())))
            }
            EngineKind::Exact => {
                let single = self.proto.station_factory();
                let factory =
                    |i: u64| -> Box<dyn MeshProtocol> { Box::new(StdMesh::new(single(i))) };
                let topology = Topology::Complete;
                core.run(&mut MultihopStations::new(&config, &topology, factory))
            }
            EngineKind::FastExact => {
                let factory = self.station_factory(&logs, ledger.as_ref());
                match self.fault_plan(seed) {
                    None => core.run(&mut FastExactStations::new(&config, factory)),
                    Some(plan) => core.run(&mut FastFaultyStations::new(&config, &plan, factory)),
                }
            }
            EngineKind::Multihop => {
                let (topo, assign) = self.topology()?;
                match self.proto {
                    ProtoParams::Cluster { eps, quiet } => {
                        let factory = |i: u64| -> Box<dyn MeshProtocol> {
                            let station = ClusterElection::for_assignment(i, &assign, eps);
                            Box::new(match quiet {
                                Some(slots) => station.with_quiet_target(slots),
                                None => station,
                            })
                        };
                        let mut stations = MultihopStations::new(&config, &topo, factory)
                            .with_discipline(self.discipline)
                            .with_clusters(&assign);
                        core.run(&mut stations)
                    }
                    proto => {
                        let single = proto.station_factory();
                        let factory =
                            |i: u64| -> Box<dyn MeshProtocol> { Box::new(StdMesh::new(single(i))) };
                        let mut stations = MultihopStations::new(&config, &topo, factory)
                            .with_discipline(self.discipline);
                        core.run(&mut stations)
                    }
                }
            }
        };
        Ok(Run { report, restarts: drain(&logs.restarts), lease_losses: drain(&logs.lease_losses) })
    }
}

impl From<ElectionParams> for LensSpec {
    /// The run an election tree names: `exact_election` on the fast-exact
    /// path (module docs).
    fn from(e: ElectionParams) -> Self {
        let engine = match e.kind {
            ElectionKind::Cohort => EngineKind::Cohort,
            ElectionKind::Exact => EngineKind::FastExact,
        };
        LensSpec::new(engine, e.proto, e.n, e.cd, e.adv, e.max_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn cohort_params() -> Value {
        json!({
            "kind": "cohort_election",
            "n": 32u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 100_000u64,
            "proto": {"proto": "lesk", "eps": 0.5f64},
        })
    }

    #[test]
    fn cohort_tree_parses_and_round_trips() {
        let spec = LensSpec::from_params(&cohort_params()).unwrap();
        assert_eq!(spec.engine, EngineKind::Cohort);
        assert_eq!(spec.n, 32);
        // Round-trip preserves the cache-compatible shape bit-for-bit
        // (canonicalized, since map order is not semantic).
        let back = jle_orchestrator::canonicalize(&spec.to_params());
        assert_eq!(back, jle_orchestrator::canonicalize(&cohort_params()));
    }

    #[test]
    fn unknown_keys_are_rejected_not_ignored() {
        let mut v = cohort_params();
        if let Value::Map(m) = &mut v {
            m.push(("warm_start".into(), Value::U64(1)));
        }
        assert!(matches!(LensSpec::from_params(&v), Err(SpecError::Unsupported(_))));
    }

    #[test]
    fn local_only_protocols_are_unsupported() {
        // The shapes only the experiments run are refused by every tree
        // kind on every engine, as before they were typed.
        for proto in [
            json!({"proto": "arss", "gamma": 0.25f64}),
            json!({"proto": "arss"}),
            json!({"proto": "lesk", "eps": 0.5f64, "u0": 6u64}),
            json!({"proto": "lesk", "eps": 0.5f64, "divisor": 2.0f64}),
        ] {
            for engine in ["cohort", "exact", "fast-exact", "multihop"] {
                let v = json!({
                    "kind": "election_run",
                    "engine": engine,
                    "n": 8u64,
                    "cd": CdModel::Strong.to_json_value(),
                    "adv": AdversarySpec::passive().to_json_value(),
                    "max_slots": 1000u64,
                    "proto": proto.clone(),
                });
                let got = LensSpec::from_params(&v);
                assert!(matches!(got, Err(SpecError::Unsupported(_))), "{engine} {proto:?}");
            }
            let mut v = cohort_params();
            if let Value::Map(m) = &mut v {
                m.retain(|(k, _)| k != "proto");
                m.push(("proto".into(), proto.clone()));
            }
            let got = LensSpec::from_params(&v);
            assert!(matches!(got, Err(SpecError::Unsupported(_))), "cohort tree {proto:?}");
        }
    }

    #[test]
    fn zero_stations_are_invalid_in_every_tree_kind() {
        let invalid = SpecError::Invalid(ZERO_STATIONS.to_string());
        for kind in ["cohort_election", "exact_election"] {
            let mut v = cohort_params();
            if let Value::Map(m) = &mut v {
                m.retain(|(k, _)| k != "kind" && k != "n");
                m.push(("kind".into(), json!(kind)));
                m.push(("n".into(), Value::U64(0)));
            }
            assert_eq!(LensSpec::from_params(&v).err(), Some(invalid.clone()), "{kind}");
        }
        for engine in ["cohort", "exact", "fast-exact", "multihop"] {
            let v = json!({
                "kind": "election_run",
                "engine": engine,
                "n": 0u64,
                "cd": CdModel::Strong.to_json_value(),
                "adv": AdversarySpec::passive().to_json_value(),
                "max_slots": 1000u64,
                "proto": {"proto": "lesu"},
            });
            assert_eq!(LensSpec::from_params(&v).err(), Some(invalid.clone()), "{engine}");
        }
    }

    #[test]
    fn a_payload_on_a_unit_jammer_is_refused() {
        let mut v = cohort_params();
        if let Value::Map(m) = &mut v {
            m.retain(|(k, _)| k != "adv");
            m.push((
                "adv".into(),
                json!({"eps": {"num": 2147483648u64}, "t_window": 8u64,
                    "kind": {"None": {"future_knob": 7u64}}}),
            ));
        }
        assert!(matches!(LensSpec::from_params(&v), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn run_tree_round_trips_through_to_params() {
        let v = json!({
            "kind": "election_run",
            "engine": "multihop",
            "n": 6u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 50_000u64,
            "stop": "all-terminated",
            "proto": {"proto": "cluster", "eps": 0.5f64},
            "topology": "dense-linear:3,2",
            "discipline": "counter",
        });
        let spec = LensSpec::from_params(&v).unwrap();
        let reparsed = LensSpec::from_params(&spec.to_params()).unwrap();
        assert_eq!(reparsed.engine, EngineKind::Multihop);
        assert_eq!(reparsed.discipline, RngDiscipline::Counter);
        assert_eq!(
            jle_orchestrator::canonicalize(&reparsed.to_params()),
            jle_orchestrator::canonicalize(&spec.to_params())
        );
    }

    #[test]
    fn impossible_combinations_fail_validation() {
        // Cluster protocol outside multihop.
        let v = json!({
            "kind": "election_run",
            "engine": "exact",
            "n": 8u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "cluster", "eps": 0.5f64},
        });
        assert!(LensSpec::from_params(&v).is_err());
        // Topology on the exact engine.
        let v = json!({
            "kind": "election_run",
            "engine": "exact",
            "n": 8u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "lesu"},
            "topology": "dense-linear:2,4",
        });
        assert!(LensSpec::from_params(&v).is_err());
        // A fault plan on the exact (shared-stream) engine.
        let v = json!({
            "kind": "election_run",
            "engine": "exact",
            "n": 8u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "lesu"},
            "faults": jle_engine::FaultPlan::new(3).to_json_value(),
        });
        match LensSpec::from_params(&v) {
            Err(SpecError::Invalid(msg)) => assert!(msg.contains("engine=fast-exact"), "{msg}"),
            other => panic!("a fault plan under exact must be refused, got {other:?}"),
        }
        // The cohort engine tracks no termination; `horizon` continues
        // past clean Singles and stays valid.
        let cohort = |stop: &str| {
            json!({
                "kind": "election_run",
                "engine": "cohort",
                "n": 8u64,
                "cd": CdModel::Strong.to_json_value(),
                "adv": AdversarySpec::passive().to_json_value(),
                "max_slots": 1000u64,
                "stop": stop,
                "proto": {"proto": "lesu"},
            })
        };
        assert!(matches!(
            LensSpec::from_params(&cohort("all-terminated")),
            Err(SpecError::Invalid(_))
        ));
        assert_eq!(LensSpec::from_params(&cohort("horizon")).unwrap().stop, Stop::Horizon);
        // A duty-cycled LESK that is never awake.
        let v = json!({
            "kind": "election_run",
            "engine": "fast-exact",
            "n": 8u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "duty-lesk", "eps": 0.5f64, "period": 0u64},
        });
        assert!(matches!(LensSpec::from_params(&v), Err(SpecError::Invalid(_))));
        // Topology that does not fit n.
        let v = json!({
            "kind": "election_run",
            "engine": "multihop",
            "n": 5u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::passive().to_json_value(),
            "max_slots": 1000u64,
            "proto": {"proto": "lesu"},
            "topology": "dense-linear:3,2",
        });
        assert!(LensSpec::from_params(&v).is_err());
    }

    fn fast_exact_lesk(n: u64, max_slots: u64) -> LensSpec {
        use jle_adversary::{JamStrategyKind, Rate};
        let adv = AdversarySpec::new(Rate::from_f64(0.5), 32, JamStrategyKind::Saturating);
        LensSpec::new(
            EngineKind::FastExact,
            ProtoParams::lesk(0.5),
            n,
            CdModel::Strong,
            adv,
            max_slots,
        )
    }

    #[test]
    fn out_of_range_protocol_parameters_are_invalid() {
        let mut run = fast_exact_lesk(8, 1000).to_json_value();
        if let Value::Map(m) = &mut run {
            m.retain(|(k, _)| k != "proto");
            m.push(("proto".into(), json!({"proto": "lesk", "eps": 2.0f64})));
        }
        let mut cohort = cohort_params();
        if let Value::Map(m) = &mut cohort {
            m.retain(|(k, _)| k != "proto");
            m.push(("proto".into(), json!({"proto": "lesk", "eps": -1.0f64})));
        }
        for tree in [run, cohort] {
            match LensSpec::from_params(&tree) {
                Err(SpecError::Invalid(msg)) => assert!(msg.contains("`eps`"), "{msg}"),
                other => panic!("an eps outside (0, 1) must be invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_recipe_draws_the_fixed_plan_of_its_salted_seed() {
        let churn = ChurnRecipe {
            join_prob: 0.4,
            join_window: 256,
            leave_prob: 0.4,
            leave_window: 512,
            rejoin_after: 128,
        };
        let faults = FaultRecipe { crash_prob: 0.2, stagger: 64 };
        let mut drawn = fast_exact_lesk(16, 20_000);
        drawn.churn_recipe = Some(churn);
        drawn.fault_recipe = Some(faults);
        let back = LensSpec::from_params(&drawn.to_params()).unwrap();
        assert_eq!((back.churn_recipe, back.fault_recipe), (Some(churn), Some(faults)));
        for seed in [3, 4] {
            let mut fixed = fast_exact_lesk(16, 20_000);
            fixed.churn = Some(churn.plan(16, seed ^ CHURN_SALT));
            fixed.faults = Some(faults.plan(16, seed ^ FAULT_SALT));
            assert_eq!(drawn.churn_plan(seed), fixed.churn);
            let (a, b) = (drawn.run(seed).unwrap(), fixed.run(seed).unwrap());
            assert_eq!((a.slots, a.winner, a.counts), (b.slots, b.winner, b.counts), "{seed}");
        }
    }

    #[test]
    fn supervised_and_leased_runs_log_beside_their_reports() {
        let mut supervised = fast_exact_lesk(24, 60_000);
        supervised.fault_recipe = Some(FaultRecipe { crash_prob: 0.3, stagger: 0 });
        supervised.watchdog = Some(64);
        let run = supervised.run_observed(9_000, &mut []).unwrap();
        assert!(!run.restarts.is_empty(), "a 64-slot watchdog fires");
        assert!(run.lease_losses.is_empty());
        assert!(!run.report.split_brain.tracked, "no ledger without a lease");

        let mut leased = fast_exact_lesk(16, 4_096);
        leased.stop = Stop::Horizon;
        leased.lease = Some(Lease { beacon: 8, miss_tolerance: 10, timeout: 512 });
        let run = leased.run_observed(7, &mut []).unwrap();
        assert!(run.report.split_brain.tracked, "the spec attaches the split-brain observer");
        assert_eq!(run.report.slots, 4_096, "a lease run goes to the horizon");
        assert!(run.restarts.is_empty());
    }

    #[test]
    fn supervisor_and_lease_knobs_are_validated() {
        const LEASE: Lease = Lease { beacon: 8, miss_tolerance: 10, timeout: 512 };
        const RECIPE: FaultRecipe = FaultRecipe { crash_prob: 0.1, stagger: 0 };
        type Break = fn(&mut LensSpec);
        let cases: [(&str, Break); 9] = [
            ("zero watchdog", |s| s.watchdog = Some(0)),
            ("watchdog off fast-exact", |s| {
                s.engine = EngineKind::Multihop;
                s.watchdog = Some(64);
            }),
            ("lease and watchdog", |s| {
                s.lease = Some(LEASE);
                s.watchdog = Some(64);
            }),
            ("lease over lesu", |s| {
                s.lease = Some(LEASE);
                s.proto = ProtoParams::Lesu;
            }),
            ("lease under weak CD", |s| {
                s.lease = Some(LEASE);
                s.cd = CdModel::Weak;
            }),
            ("zero beacon", |s| s.lease = Some(Lease { beacon: 0, ..LEASE })),
            ("plan and recipe", |s| {
                s.faults = Some(FaultPlan::new(1));
                s.fault_recipe = Some(RECIPE);
            }),
            ("recipe probability", |s| {
                s.fault_recipe = Some(FaultRecipe { crash_prob: 1.5, ..RECIPE })
            }),
            ("recipe on cohort", |s| {
                s.engine = EngineKind::Cohort;
                s.fault_recipe = Some(RECIPE);
            }),
        ];
        for (name, break_it) in cases {
            let mut spec = fast_exact_lesk(8, 1000);
            spec.validate().unwrap();
            break_it(&mut spec);
            assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))), "{name}");
        }
    }

    #[test]
    fn topology_parser_accepts_all_cli_forms() {
        assert!(matches!(Topology::parse("complete").unwrap().0, Topology::Complete));
        let (_, clusters) = Topology::parse("dense-linear:3,4").unwrap();
        assert_eq!(clusters.unwrap().len(), 12);
        let (_, clusters) = Topology::parse("core-tail:4,3").unwrap();
        assert_eq!(clusters.unwrap().len(), 7);
        assert!(Topology::parse("unit-disk:16,0.5,7").is_ok());
        assert!(Topology::parse("moebius:4").is_err());
    }

    #[test]
    fn to_params_bytes_are_pinned() {
        // Flight records embed these trees; the lines were recorded from
        // the hand-built trees of the parsers the derived types replaced.
        use jle_adversary::{JamStrategyKind, Rate};
        use jle_engine::StationFaults;
        let cohort = json!({
            "kind": "cohort_election",
            "n": 32u64,
            "cd": CdModel::Weak.to_json_value(),
            "adv": AdversarySpec::new(Rate::from_f64(0.25), 16, JamStrategyKind::Random { prob: 0.5 })
                .to_json_value(),
            "max_slots": 100_000u64,
            "proto": {"proto": "willard"},
        });
        let spec = LensSpec::from_params(&cohort).unwrap();
        assert_eq!(
            serde_json::to_string(&spec.to_params()).unwrap(),
            r#"{"kind":"cohort_election","n":32,"cd":"Weak","adv":{"eps":{"num":1073741824},"t_window":16,"kind":{"Random":{"prob":0.5}}},"max_slots":100000,"proto":{"proto":"willard"}}"#
        );
        let plan =
            FaultPlan::new(3).with_station(0, StationFaults::none().crash_with_recovery(40, 400));
        let churn = ChurnPlan::new(5).with_staggered_joins(8, 0.5, 200);
        let run = json!({
            "kind": "election_run",
            "engine": "fast-exact",
            "n": 8u64,
            "cd": CdModel::Strong.to_json_value(),
            "adv": AdversarySpec::new(Rate::from_f64(0.5), 64, JamStrategyKind::Saturating)
                .to_json_value(),
            "max_slots": 20_000u64,
            "stop": "all-terminated",
            "proto": {"proto": "lesk", "eps": 0.5f64},
            "noise": 0.125f64,
            "faults": plan.to_json_value(),
            "churn": churn.to_json_value(),
        });
        let mut spec = LensSpec::from_params(&run).unwrap();
        // Every optional key at once (no engine validates this mix; the
        // writer does not care).
        spec.topology = Some("dense-linear:2,4".into());
        spec.discipline = RngDiscipline::Counter;
        let line = r#"{"kind":"election_run","engine":"fast-exact","n":8,"cd":"Strong","adv":{"eps":{"num":2147483648},"t_window":64,"kind":"Saturating"},"max_slots":20000,"stop":"all-terminated","proto":{"proto":"lesk","eps":0.5},"noise":0.125,"faults":{"seed":3,"faults":{"0":{"wake_at":0,"crash_at":40,"recover_at":400,"deaf":null,"sensing_flip_prob":0}}},"churn":{"seed":5,"churn":{"2":{"join_at":104,"leave_at":null,"rejoin_at":null},"3":{"join_at":127,"leave_at":null,"rejoin_at":null},"5":{"join_at":180,"leave_at":null,"rejoin_at":null},"7":{"join_at":126,"leave_at":null,"rejoin_at":null}}},"topology":"dense-linear:2,4","discipline":"counter"}"#;
        assert_eq!(serde_json::to_string(&spec.to_params()).unwrap(), line);
        assert_eq!(serde_json::to_string(&spec).unwrap(), line, "direct writer");
    }
}
