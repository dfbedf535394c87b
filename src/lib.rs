//! # jamming-leader-election
//!
//! A from-scratch Rust reproduction of *Electing a Leader in Wireless
//! Networks Quickly Despite Jamming* (Marek Klonowski, Dominik Pająk,
//! SPAA 2015).
//!
//! The workspace implements the paper's protocols — **LESK** (leader
//! election in strong-CD with known ε), the **Estimation** primitive,
//! **LESU** (unknown ε), and the **Notification** transformation yielding
//! **LEWK/LEWU** for weak-CD — together with every substrate they need:
//! a slotted single-hop radio channel simulator, an adaptive
//! `(T, 1−ε)`-bounded jamming adversary framework with exact budget
//! enforcement, baseline protocols, a Monte-Carlo experiment harness, and
//! an analysis toolkit.
//!
//! This facade crate simply re-exports the workspace members under stable
//! paths; see `DESIGN.md` for the full architecture and `EXPERIMENTS.md`
//! for the reproduction results.
//!
//! ## Quickstart
//!
//! ```
//! use jamming_leader_election::prelude::*;
//!
//! // 64 stations, strong collision detection, a saturating
//! // (T = 32, 1 - eps = 1/2)-bounded jammer, LESK with known eps = 1/2.
//! let eps = Rate::from_f64(0.5);
//! let config = SimConfig::new(64, CdModel::Strong)
//!     .with_seed(7)
//!     .with_max_slots(100_000);
//! let adversary = AdversarySpec::new(eps, 32, JamStrategyKind::Saturating);
//! let report = run_cohort(&config, &adversary, || LeskProtocol::new(0.5));
//! assert!(report.leader_elected());
//! println!("leader elected after {} slots", report.slots);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use jle_adversary as adversary;
pub use jle_analysis as analysis;
pub use jle_engine as engine;
pub use jle_protocols as protocols;
pub use jle_radio as radio;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use jle_adversary::{AdversarySpec, JamBudget, JamStrategy, JamStrategyKind, Rate};
    pub use jle_analysis::{linear_fit, log2_fit, Series, Summary, Table};
    pub use jle_engine::{
        run_cohort, run_cohort_with, run_fast_exact, run_fast_exact_churn, run_fast_exact_faulty,
        ChurnPlan, FaultPlan, FaultyStation, LeaderLedger, Outcome, PerStation, Protocol,
        RunReport, SimConfig, SplitBrainObserver, SplitBrainStats, StationChurn, StationFaults,
        StopRule, TrialOutcome,
    };
    pub use jle_protocols::{
        lewk, lewu, ArssMacProtocol, BackoffProtocol, EstimationProtocol, LeaseConfig,
        LeaseLossCause, LeaseProtocol, LeskProtocol, LesuProtocol, Notification, SlotTaxonomy,
        Supervisor, SupervisorMetrics, WillardProtocol,
    };
    pub use jle_radio::{CdModel, ChannelState, Observation, SlotTruth};
}
