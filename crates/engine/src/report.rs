//! Per-run results.

use jle_radio::history::StateCounts;
use jle_radio::Trace;
use serde::{Deserialize, Serialize};

/// How many channel slots a per-trial result represents — the unit behind
/// the orchestrator's "slots simulated per second" telemetry.
///
/// Projected results (a median, a boolean, a tuple of scalars) default to
/// `0`: throughput accounting is best-effort and only counts results that
/// actually carry a slot total, like [`RunReport`]. Tuples sum their
/// elements, so `(RunReport, extra)` still reports the run's slots.
pub trait SlotCost {
    /// Channel slots this result accounts for.
    fn simulated_slots(&self) -> u64 {
        0
    }
}

macro_rules! impl_slot_cost_zero {
    ($($t:ty),*) => {$(
        impl SlotCost for $t {}
    )*};
}
impl_slot_cost_zero!(bool, u32, u64, usize, i32, i64, f32, f64, String, &str, ());

impl<T: SlotCost> SlotCost for Option<T> {
    fn simulated_slots(&self) -> u64 {
        self.as_ref().map_or(0, SlotCost::simulated_slots)
    }
}

impl<T: SlotCost> SlotCost for Vec<T> {
    fn simulated_slots(&self) -> u64 {
        self.iter().map(SlotCost::simulated_slots).sum()
    }
}

macro_rules! impl_slot_cost_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: SlotCost),+> SlotCost for ($($name,)+) {
            fn simulated_slots(&self) -> u64 {
                0 $(+ self.$idx.simulated_slots())+
            }
        }
    )*};
}
impl_slot_cost_tuple! {
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
    (A:0, B:1, C:2, D:3, E:4)
}

impl SlotCost for RunReport {
    fn simulated_slots(&self) -> u64 {
        self.slots
    }
}

impl<R: SlotCost> SlotCost for crate::runner::TrialOutcome<R> {
    fn simulated_slots(&self) -> u64 {
        match self {
            crate::runner::TrialOutcome::Ok(r) => r.simulated_slots(),
            crate::runner::TrialOutcome::Panicked(_) => 0,
        }
    }
}

/// Energy accounting: total station-slot expenditures across the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyStats {
    /// Station-slots spent transmitting.
    pub transmissions: u64,
    /// Station-slots spent listening.
    pub listens: u64,
}

impl EnergyStats {
    /// Total station-slots of activity.
    pub fn total(&self) -> u64 {
        self.transmissions + self.listens
    }
}

/// Degradation taxonomy: how a run ended, beyond binary success/failure.
///
/// The paper's model only distinguishes "leader elected" from "not yet";
/// once stations can crash, oversleep, or mis-sense (see
/// [`crate::faults`]), failures split into qualitatively different modes
/// that experiments need to tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// A leader was validly determined (see [`RunReport::leader_elected`]).
    Elected,
    /// A leader was determined but is crashed at the end of the run — the
    /// network is once again leaderless.
    LeaderCrashed,
    /// More than one station holds `Leader`: a validity violation.
    MultiLeader,
    /// Leadership beliefs were tracked (see [`crate::leadership`]) and ≥2
    /// stations still believe they lead at the end of the run: an
    /// *unresolved* split brain. Transient splits that converged back to
    /// one believer classify as [`Outcome::Elected`]; their extent is in
    /// [`RunReport::split_brain`].
    SplitBrain,
    /// The run consumed its entire `max_slots` budget without satisfying
    /// its stop rule.
    DeadlineExceeded,
    /// The run ended (stop rule or protocol finished) without any leader.
    NoLeader,
}

impl Outcome {
    /// All outcomes, in taxonomy order (for table columns).
    pub const ALL: [Outcome; 6] = [
        Outcome::Elected,
        Outcome::LeaderCrashed,
        Outcome::MultiLeader,
        Outcome::SplitBrain,
        Outcome::DeadlineExceeded,
        Outcome::NoLeader,
    ];

    /// Short column label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Elected => "elected",
            Outcome::LeaderCrashed => "leader-crashed",
            Outcome::MultiLeader => "multi-leader",
            Outcome::SplitBrain => "split-brain",
            Outcome::DeadlineExceeded => "deadline",
            Outcome::NoLeader => "no-leader",
        }
    }
}

/// Split-brain accounting, deposited by
/// [`SplitBrainObserver`](crate::leadership::SplitBrainObserver). All
/// zeros (with `tracked == false`) for runs without leadership tracking,
/// so the field is invisible to the closed-world taxonomy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SplitBrainStats {
    /// Whether a leadership ledger was attached to the run at all. Only
    /// tracked runs can classify as [`Outcome::SplitBrain`].
    #[serde(default)]
    pub tracked: bool,
    /// Number of maximal slot windows with ≥2 concurrent believers.
    #[serde(default)]
    pub windows: u64,
    /// Total slots spent with ≥2 concurrent believers.
    #[serde(default)]
    pub split_slots: u64,
    /// Longest single split window, in slots (open windows count to the
    /// end of the run) — the time-to-resolution bound.
    #[serde(default)]
    pub longest_split: u64,
    /// Peak number of concurrent believers.
    #[serde(default)]
    pub max_believers: u64,
    /// Stations still believing they lead when the run ended (sorted).
    #[serde(default)]
    pub believers: Vec<u64>,
    /// Re-elections triggered over the run (lease losses).
    #[serde(default)]
    pub reelections: u64,
}

impl SplitBrainStats {
    /// Whether the run ended split (≥2 live believers).
    pub fn split_at_end(&self) -> bool {
        self.believers.len() >= 2
    }

    /// Whether the run ended converged on exactly one believer.
    pub fn converged(&self) -> bool {
        self.tracked && self.believers.len() == 1
    }
}

/// Per-cluster election outcome of a multi-hop run (see
/// [`crate::multihop`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Cluster index (from the run's cluster assignment).
    pub cluster: u32,
    /// Number of stations assigned to the cluster.
    pub size: u64,
    /// First slot at which every member of the cluster knew its cluster
    /// leader, if that happened.
    pub resolved_at: Option<u64>,
    /// The station leading the cluster at the end of the run.
    pub leader: Option<u64>,
}

/// Topology-aware accounting for multi-hop runs, deposited by
/// [`crate::multihop::MultihopStations::finalize`]. Absent (`None` on
/// [`RunReport::multihop`]) for single-channel runs — including
/// complete-topology multi-hop runs without a cluster assignment, which
/// are bit-identical to the single-channel engine and must serialize
/// identically.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MultihopReport {
    /// Canonical topology descriptor (`Topology::descriptor`).
    pub topology: String,
    /// Connected interference components in the topology.
    pub components: u32,
    /// Per-cluster resolution outcomes (empty when no cluster assignment
    /// was provided).
    pub clusters: Vec<ClusterOutcome>,
    /// First slot from which *every* station reported the same network
    /// leader through the end of the run.
    pub converged_at: Option<u64>,
    /// The network-wide leader every station agreed on, if converged.
    pub network_leader: Option<u64>,
    /// Node-slot events where a station's local channel read `Collision`
    /// although its own cluster contributed at most one transmitter and
    /// the slot was unjammed — collisions manufactured by *foreign*
    /// clusters, the multi-hop analogue of jamming.
    pub cross_cluster_interference: u64,
}

impl MultihopReport {
    /// Whether every cluster resolved a leader.
    pub fn all_clusters_resolved(&self) -> bool {
        !self.clusters.is_empty() && self.clusters.iter().all(|c| c.resolved_at.is_some())
    }

    /// The slowest cluster's resolution slot, if all resolved.
    pub fn last_cluster_resolution(&self) -> Option<u64> {
        self.clusters.iter().map(|c| c.resolved_at).collect::<Option<Vec<_>>>()?.into_iter().max()
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Slots consumed (= index after the last played slot).
    pub slots: u64,
    /// Slot index of the first unjammed `Single`, if one occurred.
    pub resolved_at: Option<u64>,
    /// Index of the station that transmitted the first clean `Single`.
    pub winner: Option<u64>,
    /// Stations that terminated with `Leader` status (exact engine only;
    /// correctness demands this has length ≤ 1, and exactly 1 on success
    /// under `StopRule::AllTerminated`).
    pub leaders: Vec<u64>,
    /// Whether every station terminated (meaningful for
    /// `StopRule::AllTerminated`).
    pub all_terminated: bool,
    /// Whether the run ended without satisfying its stop rule (under
    /// `FirstCleanSingle`: no clean `Single`; under `AllTerminated`: not
    /// everyone terminated).
    pub timed_out: bool,
    /// Whether the run consumed its entire `max_slots` budget without the
    /// stop rule firing. Distinct from `timed_out`: a run whose protocol
    /// `finished()` early is a timeout but not a cap hit, and cap-hit is
    /// the condition that maps to [`Outcome::DeadlineExceeded`].
    #[serde(default)]
    pub cap_hit: bool,
    /// Whether the elected leader is crashed at the end of the run (set
    /// by [`crate::FaultPlan::judge_leader_crash`]).
    #[serde(default)]
    pub leader_crashed: bool,
    /// Split-brain accounting for leadership-tracked (open-world) runs;
    /// all-default otherwise.
    #[serde(default)]
    pub split_brain: SplitBrainStats,
    /// Topology-aware accounting for multi-hop runs; `None` for
    /// single-channel runs (and skipped from serialization so existing
    /// fixtures and cached results are unaffected).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub multihop: Option<MultihopReport>,
    /// Channel statistics over the whole run (`counts.jammed` includes
    /// noise-corrupted slots — they are indistinguishable on the air).
    pub counts: StateCounts,
    /// Slots corrupted by environmental noise (see
    /// `SimConfig::noise_prob`); subset of `counts.jammed`.
    pub noise_slots: u64,
    /// Energy accounting.
    pub energy: EnergyStats,
    /// Fraction of the adversary's jamming allowance actually spent over
    /// the run (`total jams / ⌊(1−ε)·max(slots, T)⌋`). Telemetry-only:
    /// excluded from serialization so cached results and golden fixtures
    /// are unaffected; consumed by `jle_telemetry` gauges.
    #[serde(skip)]
    pub adv_budget_spent: f64,
    /// Full trace if requested.
    #[serde(skip)]
    pub trace: Option<Trace>,
}

impl RunReport {
    /// Whether a leader was successfully determined.
    ///
    /// * Under `FirstCleanSingle`: the first clean Single identifies the
    ///   leader (strong-CD semantics / selection resolution).
    /// * Under `AllTerminated`: exactly one station holds `Leader`.
    pub fn leader_elected(&self) -> bool {
        if self.timed_out {
            return false;
        }
        if self.all_terminated || !self.leaders.is_empty() {
            return self.leaders.len() == 1;
        }
        self.resolved_at.is_some()
    }

    /// Classify the run into the degradation taxonomy.
    ///
    /// Precedence: a validity violation (`MultiLeader`) dominates, then
    /// liveness-after-election failure (`LeaderCrashed`), then success,
    /// then the budget-exhaustion/no-result split.
    ///
    /// Leadership-tracked (open-world) runs are judged by the ledger
    /// instead: the terminal-status fields never settle in a run that is
    /// designed to keep going, so the set of live believers at the end is
    /// the verdict — split, converged, or leaderless.
    pub fn outcome(&self) -> Outcome {
        if self.leaders.len() > 1 {
            return Outcome::MultiLeader;
        }
        if self.split_brain.tracked {
            return match self.split_brain.believers.len() {
                0 if self.leader_crashed => Outcome::LeaderCrashed,
                0 => Outcome::NoLeader,
                1 => Outcome::Elected,
                _ => Outcome::SplitBrain,
            };
        }
        if self.leader_crashed {
            return Outcome::LeaderCrashed;
        }
        if self.leader_elected() {
            return Outcome::Elected;
        }
        if self.cap_hit {
            return Outcome::DeadlineExceeded;
        }
        Outcome::NoLeader
    }

    /// Fraction of slots the adversary jammed.
    pub fn jam_fraction(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.counts.jammed as f64 / self.slots as f64
        }
    }

    /// Mean transmissions per station (energy normalized by `n`).
    pub fn tx_per_station(&self, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.energy.transmissions as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_elected_rules() {
        let mut r = RunReport::default();
        assert!(!r.leader_elected());
        r.resolved_at = Some(10);
        assert!(r.leader_elected());
        r.timed_out = true;
        assert!(!r.leader_elected());
        r.timed_out = false;
        r.all_terminated = true;
        assert!(!r.leader_elected(), "all terminated but no leader");
        r.leaders = vec![3];
        assert!(r.leader_elected());
        r.leaders = vec![3, 5];
        assert!(!r.leader_elected(), "two leaders is a correctness failure");
    }

    #[test]
    fn fractions() {
        let mut r = RunReport { slots: 100, ..Default::default() };
        r.counts.jammed = 25;
        assert!((r.jam_fraction() - 0.25).abs() < 1e-12);
        r.energy.transmissions = 50;
        assert!((r.tx_per_station(10) - 5.0).abs() < 1e-12);
        assert_eq!(RunReport::default().jam_fraction(), 0.0);
        assert_eq!(r.tx_per_station(0), 0.0);
    }

    #[test]
    fn energy_total() {
        let e = EnergyStats { transmissions: 3, listens: 7 };
        assert_eq!(e.total(), 10);
    }

    #[test]
    fn outcome_taxonomy_precedence() {
        let mut r = RunReport::default();
        assert_eq!(r.outcome(), Outcome::NoLeader);
        r.cap_hit = true;
        r.timed_out = true;
        assert_eq!(r.outcome(), Outcome::DeadlineExceeded);
        r.timed_out = false;
        r.cap_hit = false;
        r.resolved_at = Some(10);
        assert_eq!(r.outcome(), Outcome::Elected);
        r.leader_crashed = true;
        assert_eq!(r.outcome(), Outcome::LeaderCrashed, "a dead leader is not a success");
        r.leaders = vec![1, 2];
        assert_eq!(r.outcome(), Outcome::MultiLeader, "validity violation dominates");
    }

    #[test]
    fn cap_hit_never_counts_as_elected() {
        // The satellite regression: a run that exhausted max_slots must
        // never be aggregated as a successful election, whatever partial
        // progress it recorded.
        let mut r = RunReport { slots: 1000, timed_out: true, cap_hit: true, ..Default::default() };
        assert!(!r.leader_elected());
        assert_eq!(r.outcome(), Outcome::DeadlineExceeded);
        // Even a recorded resolution slot does not rescue a timed-out run
        // (AllTerminated runs can resolve yet fail to terminate).
        r.resolved_at = Some(500);
        assert!(!r.leader_elected());
        assert_ne!(r.outcome(), Outcome::Elected);
    }

    #[test]
    fn outcome_labels_cover_all() {
        let labels: Vec<&str> = Outcome::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels.contains(&"deadline"));
        assert!(labels.contains(&"split-brain"));
    }

    #[test]
    fn tracked_runs_are_judged_by_the_ledger() {
        // An open-world (Horizon) run: no terminal statuses, a resolution
        // slot from some election along the way.
        let mut r = RunReport { resolved_at: Some(10), ..Default::default() };
        r.split_brain.tracked = true;
        assert_eq!(r.outcome(), Outcome::NoLeader, "nobody believes: leaderless");
        r.split_brain.believers = vec![4];
        assert_eq!(r.outcome(), Outcome::Elected);
        assert!(r.split_brain.converged());
        r.split_brain.believers = vec![4, 9];
        assert_eq!(r.outcome(), Outcome::SplitBrain);
        assert!(r.split_brain.split_at_end());
        // The original winner having churned out does not matter once the
        // cohort converged on a (possibly different) believer.
        r.split_brain.believers = vec![9];
        r.leader_crashed = true;
        assert_eq!(r.outcome(), Outcome::Elected);
        r.split_brain.believers = vec![];
        assert_eq!(r.outcome(), Outcome::LeaderCrashed);
        // A terminal-status validity violation still dominates.
        r.leaders = vec![1, 2];
        assert_eq!(r.outcome(), Outcome::MultiLeader);
    }
}
