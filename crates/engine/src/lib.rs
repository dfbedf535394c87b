//! # jle-engine — discrete-slot simulation engine
//!
//! Drives protocols from `jle-protocols` against adversaries from
//! `jle-adversary` over the channel model of `jle-radio`, one slot at a
//! time, with the paper's information flow: the adversary commits its jam
//! decision *before* station actions are drawn, stations receive
//! observations filtered by the collision-detection model, and jammed
//! slots are indistinguishable from collisions.
//!
//! ## Architecture: one slot sequence, many station sets
//!
//! The per-slot sequence (adversary commit → actions → budget clamp and
//! noise → ground truth, energy, trace → first clean `Single` → feedback →
//! history and stop rule) is written exactly once, in the core's
//! per-trial lane (see `DESIGN.md` §10). [`SimCore`] drives one lane;
//! the batch backend drives one lane per trial. What varies between
//! simulators is *who the stations are*, captured by the [`StationSet`]
//! trait (and, for the batch backend, its own lockstep slot loop):
//!
//! * [`FastExactStations`] / [`run_fast_exact`] — the per-station
//!   backend, O(awake) per slot; required for role-split protocols
//!   (`Notification`). Sleeping and withdrawn stations leave the loop
//!   until their [`Protocol::wake_hint`] slot, and every draw comes from
//!   a counter-based per-station stream ([`StationRng`]), so the action
//!   phase is order-independent and can be sharded across threads —
//!   million-station exact sweeps (see `DESIGN.md` §12).
//! * [`CohortStations`] / [`run_cohort`] — for the paper's *uniform*
//!   protocol class; tracks one shared state and samples transmitter
//!   counts binomially, O(1) per slot (n-independent), enabling sweeps to
//!   millions of stations.
//! * [`BatchUniformStations`] / [`run_batch_uniform`] — K trials of the
//!   same uniform-protocol experiment in lockstep: one shared protocol
//!   state per trial, per-trial bitplanes (one `u64` word covers 64
//!   trials per station), and one pass per slot over all live trials.
//!   Per trial **bit-identical** to [`FastExactStations`] over
//!   [`PerStation`], so batch results share the fast backend's cache
//!   entries; resolved trials retire early without perturbing the others
//!   (draws are coordinate-pure). Uniform-only and observer-free:
//!   [`FastExactStations`] is the one general per-station counter-stream
//!   backend, and it hosts observers (see `DESIGN.md` §17).
//! * [`FastFaultyStations`] / [`run_fast_exact_faulty`] — the
//!   per-station backend with the [`faults`] subsystem layered on:
//!   station crashes, staggered wakeups, deafness, and sensing errors,
//!   with failures classified by the [`Outcome`] degradation taxonomy.
//!   [`run_fast_exact_churn`] lowers open-world churn onto it.
//! * [`MultihopStations`] / [`run_multihop`] — per-*neighborhood* slot
//!   resolution over an interference [`Topology`](jle_radio::Topology)
//!   (complete / unit-disk / explicit), with message delivery on clean
//!   local `Single`s, per-component rayon sharding, and cluster-election
//!   tracking ([`MultihopReport`]). On `Topology::Complete` its `Counter`
//!   discipline is bit-identical to [`FastExactStations`] — single-hop is
//!   just the complete-graph special case (see `DESIGN.md` §15). Its
//!   `Shared` discipline draws every station from the engine's one
//!   sequential stream in index order; on `Complete` that is the
//!   shared-stream reference the `exact_*` golden fixtures pin.
//!
//! Optional instrumentation (live throughput, telemetry, split-brain
//! tracking) attaches as composable [`SlotObserver`] layers rather than
//! being inlined in the loop; energy and trace accounting are part of
//! the report contract and live in the lane. Every run builds its
//! stations and buffers fresh.
//!
//! Plus [`catch_trial`], which isolates a panicking trial: the
//! orchestrator's scheduler drives the trials themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod churn;
pub mod cohort;
pub mod config;
pub mod core;
#[cfg(test)]
mod exact;
pub mod fast;
pub mod faults;
pub mod leadership;
pub mod multihop;
pub mod observer;
pub mod protocol;
pub mod report;
pub mod runner;
pub mod streams;
pub mod telemetry;

pub use crate::core::{SimCore, SlotActions, StationSet, ADV_SEED_XOR};
pub use batch::{run_batch_uniform, BatchUniformStations};
pub use churn::{run_fast_exact_churn, ChurnPlan, StationChurn};
pub use cohort::{
    run_cohort, run_cohort_against_oracle, run_cohort_with, sample_transmitters, CohortStations,
};
pub use config::{SimConfig, StopRule};
pub use fast::{run_fast_exact, run_fast_exact_faulty, FastExactStations, FastFaultyStations};
pub use faults::{FaultPlan, FaultyStation, StationFaults};
pub use leadership::{LeaderLedger, SplitBrainObserver, SplitInterval};
pub use multihop::{
    run_multihop, run_multihop_std, MeshMessage, MeshProtocol, MeshStatus, MultihopStations,
    RngDiscipline, StdMesh,
};
pub use observer::{SlotObserver, StateProbe, ThroughputObserver};
pub use protocol::{Action, PerStation, Protocol, Status, UniformProtocol};
pub use report::{
    ClusterOutcome, EnergyStats, MultihopReport, Outcome, RunReport, SlotCost, SplitBrainStats,
};
pub use runner::{catch_trial, worker_threads, TrialOutcome};
pub use streams::{mix64, slot_material, station_key, StationRng};
pub use telemetry::{EngineMetrics, TelemetryObserver};
