//! # jle-protocols — the paper's protocols and their baselines
//!
//! The core crate of the reproduction of *Electing a Leader in Wireless
//! Networks Quickly Despite Jamming* (Klonowski & Pająk, SPAA 2015):
//!
//! | paper artifact | module |
//! |---|---|
//! | `Broadcast(u)` (Functions 1 & 3) | [`broadcast`] |
//! | LESK(ε) — Algorithm 1, Theorem 2.6 | [`lesk`] |
//! | `Estimation(L)` — Function 2, Lemma 2.8 | [`estimation`] |
//! | LESU — Algorithm 2, Theorem 2.9 | [`lesu`] |
//! | `Notification` / LEWK / LEWU — Function 4, Lemma 3.1, Thms 3.2–3.3 | [`notification`] |
//! | slot taxonomy IS/IC/CS/CC/E/R — Section 2.2, Lemmas 2.2–2.5 | [`classify`] |
//! | Lemma 2.1 bounds & runtime shapes | [`math`] |
//! | comparison protocols (§1.3) | [`baselines`] |
//! | multi-hop cluster elections (LESK per cluster + merge) | [`cluster`] |
//! | one election as a typed parameter tree | [`params`] |
//!
//! All selection-resolution protocols implement
//! [`jle_engine::UniformProtocol`] and run on both the cohort and the
//! exact engine; the role-splitting `Notification` wrapper implements the
//! per-station [`jle_engine::Protocol`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod broadcast;
pub mod classify;
pub mod cluster;
pub mod estimation;
pub mod extensions;
pub mod lesk;
pub mod lesu;
pub mod math;
pub mod notification;
pub mod params;

pub use baselines::{ArssMacProtocol, BackoffProtocol, WillardProtocol};
pub use classify::SlotTaxonomy;
pub use cluster::{ClusterElection, ClusterMessage};
pub use estimation::EstimationProtocol;
pub use extensions::{
    run_fair_use, run_k_selection, targeted_tdma_jammer, DutyCycledLesk, FairUseReport,
    KSelectionReport, LeaseConfig, LeaseLossCause, LeaseProtocol, ReElectionRecord, ReElectionSink,
    RestartCause, RestartFactory, RestartRecord, RestartSink, SizeApproxProtocol, Supervisor,
    SupervisorMetrics, BACKOFF_CAP_DOUBLINGS,
};
pub use lesk::LeskProtocol;
pub use lesu::LesuProtocol;
pub use notification::{lewk, lewu, Notification};
pub use params::{ElectionKind, ElectionParams, ProtoParams};
