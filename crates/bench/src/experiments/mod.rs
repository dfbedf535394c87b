//! The reproduction experiments, one module per paper claim.
//!
//! See `DESIGN.md` §5 for the full index. Every experiment is a pure
//! function `run(ctx: &ExpContext) -> ExperimentResult`; `ctx.quick`
//! trims sweeps and trial counts for smoke tests, and all Monte-Carlo
//! work is submitted through `ctx` so it is cached, resumable, and
//! reported by the orchestrator (`DESIGN.md` §9). An election unit is a
//! `jle_lens::LensSpec` plus a projection of its reports
//! ([`ExpContext::spec_trials`]). The full reproduction is recorded in
//! `EXPERIMENTS.md`.

pub mod e01_runtime_vs_n;
pub mod e02_runtime_vs_eps;
pub mod e03_runtime_vs_t;
pub mod e04_lesu_vs_n;
pub mod e05_lesu_vs_t;
pub mod e06_weak_cd;
pub mod e07_baselines;
pub mod e08_lower_bound;
pub mod e09_whp;
pub mod e10_trajectory;
pub mod e11_taxonomy;
pub mod e12_estimation;
pub mod e13_energy;
pub mod e14_adversaries;
pub mod e15_engines;
pub mod e16_k_selection;
pub mod e17_size_approx;
pub mod e18_oracle;
pub mod e19_fair_use;
pub mod e20_increment;
pub mod e21_no_cd;
pub mod e22_noise;
pub mod e23_duty_cycle;
pub mod e24_faults;
pub mod e25_churn;
pub mod e26_topology;

use crate::common::{ExpContext, ExperimentResult};

/// All experiment ids, in order.
pub const ALL_IDS: [&str; 26] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23", "e24", "e25", "e26",
];

/// Run one experiment by id. Returns `None` for an unknown id.
pub fn run_by_id(id: &str, ctx: &ExpContext) -> Option<ExperimentResult> {
    Some(match id {
        "e1" => e01_runtime_vs_n::run(ctx),
        "e2" => e02_runtime_vs_eps::run(ctx),
        "e3" => e03_runtime_vs_t::run(ctx),
        "e4" => e04_lesu_vs_n::run(ctx),
        "e5" => e05_lesu_vs_t::run(ctx),
        "e6" => e06_weak_cd::run(ctx),
        "e7" => e07_baselines::run(ctx),
        "e8" => e08_lower_bound::run(ctx),
        "e9" => e09_whp::run(ctx),
        "e10" => e10_trajectory::run(ctx),
        "e11" => e11_taxonomy::run(ctx),
        "e12" => e12_estimation::run(ctx),
        "e13" => e13_energy::run(ctx),
        "e14" => e14_adversaries::run(ctx),
        "e15" => e15_engines::run(ctx),
        "e16" => e16_k_selection::run(ctx),
        "e17" => e17_size_approx::run(ctx),
        "e18" => e18_oracle::run(ctx),
        "e19" => e19_fair_use::run(ctx),
        "e20" => e20_increment::run(ctx),
        "e21" => e21_no_cd::run(ctx),
        "e22" => e22_noise::run(ctx),
        "e23" => e23_duty_cycle::run(ctx),
        "e24" => e24_faults::run(ctx),
        "e25" => e25_churn::run(ctx),
        "e26" => e26_topology::run(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_id_is_none() {
        let ctx = crate::common::ExpContext::ephemeral(true);
        assert!(super::run_by_id("e99", &ctx).is_none());
    }
}
