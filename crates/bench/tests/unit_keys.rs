//! The cache keys of the typed experiment units.
//!
//! Each experiment names a unit once, as a value that is both its cache
//! key and what its stations run. The cohort-election units'
//! ([`ElectionParams`]) canonical JSON and fingerprints were recorded
//! from the hand-built `json!` trees the experiments submitted before the
//! units were typed, one unit per experiment: a typed unit must address
//! the same store entries, or every warm store would recompute. The spec
//! units' ([`LensSpec`], one per experiment kind they replaced, E13's
//! `energy` included) were recorded when they became specs, E24's and
//! E25's (one per unit shape: bare and supervised under a fault recipe, a
//! churned lease, a churned election) when their per-seed plans,
//! watchdog and lease became spec fields.

use jle_adversary::{AdversarySpec, JamStrategyKind, Rate};
use jle_bench::common::saturating;
use jle_bench::experiments::e06_weak_cd::weak_spec;
use jle_engine::{RunReport, TrialOutcome};
use jle_lens::{ChurnRecipe, EngineKind, FaultRecipe, Lease, LensSpec, Stop};
use jle_orchestrator::{canonical_json, Fingerprint, WorkSpec, DEFAULT_CODE_SALT};
use jle_protocols::{math, ArssMacProtocol, ElectionParams, ProtoParams, SlotTaxonomy};
use jle_radio::CdModel;
use serde::{Serialize, Value};
use std::any::type_name;

fn assert_pinned(
    exp: &str,
    point: &str,
    params: Value,
    seed: u64,
    ty: &str,
    canon: &str,
    hex: &str,
) {
    let spec = WorkSpec::new(exp, point, params, seed);
    assert_eq!(canonical_json(&spec.to_value()), canon, "{exp}/{point}");
    assert_eq!(Fingerprint::of(&spec, DEFAULT_CODE_SALT, ty).hex(), hex, "{exp}/{point}");
}

#[test]
fn typed_units_keep_their_cache_keys() {
    let unit = ElectionParams::cohort;
    let log2n = 1024f64.log2();
    let burst =
        |t| AdversarySpec::new(Rate::from_f64(0.5), t, JamStrategyKind::Burst { on: t, off: t });
    let periodic_front =
        AdversarySpec::new(Rate::from_f64(0.5), 64, JamStrategyKind::PeriodicFront);
    let targeted = AdversarySpec::new(
        Rate::from_f64(0.1),
        8,
        JamStrategyKind::SweepTargeted { n: 256, band: 3.0 },
    );
    let pinned: [(ElectionParams, &str, &str, u64, &str, &str); 15] = [
        (
            unit(ProtoParams::lesk(0.5), 16, CdModel::Strong, AdversarySpec::passive(), 10_000_000),
            "e1",
            "clean/n=16",
            1004,
            r#"{"base_seed":1004,"experiment":"e1","params":{"adv":{"eps":{"num":2147483648},"kind":"None","t_window":1},"cd":"Strong","kind":"cohort_election","max_slots":10000000,"n":16,"proto":{"eps":0.5,"proto":"lesk"}},"point":"clean/n=16"}"#,
            "4c92cd87a0fb4091e12462b6de3515b6d12886bf2e97fe20856e32cf96fe3a98",
        ),
        (
            unit(ProtoParams::lesk(0.2), 1024, CdModel::Strong, saturating(0.2, 32), 50_000_000),
            "e2",
            "cold/eps=0.2",
            9000,
            r#"{"base_seed":9000,"experiment":"e2","params":{"adv":{"eps":{"num":858993459},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":50000000,"n":1024,"proto":{"eps":0.2,"proto":"lesk"}},"point":"cold/eps=0.2"}"#,
            "979fcf0c53545df4815fe1a511b4ee96bf83c4fa963cbe23c0614fb7f00d312c",
        ),
        (
            unit(
                ProtoParams::Lesk { eps: 0.2, u0: Some(log2n), divisor: None },
                1024,
                CdModel::Strong,
                saturating(0.2, 32),
                50_000_000,
            ),
            "e2",
            "warm/eps=0.2",
            19000,
            r#"{"base_seed":19000,"experiment":"e2","params":{"adv":{"eps":{"num":858993459},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":50000000,"n":1024,"proto":{"eps":0.2,"proto":"lesk","u0":10}},"point":"warm/eps=0.2"}"#,
            "9aba56b2d7e0cc620e4946f9b946d8fd0b5a89274c48a34ef9eccef1f32c7ed6",
        ),
        (
            unit(ProtoParams::lesk(0.5), 1024, CdModel::Strong, burst(16), 200_000_000),
            "e3",
            "burst/T=16",
            31000,
            r#"{"base_seed":31000,"experiment":"e3","params":{"adv":{"eps":{"num":2147483648},"kind":{"Burst":{"off":16,"on":16}},"t_window":16},"cd":"Strong","kind":"cohort_election","max_slots":200000000,"n":1024,"proto":{"eps":0.5,"proto":"lesk"}},"point":"burst/T=16"}"#,
            "7b0bc240251387d9178979e344a2390cb4fbf333de854cae8b83d4caa381e607",
        ),
        (
            unit(ProtoParams::lesk(0.5), 128, CdModel::Strong, saturating(0.5, 16), 500_000_000),
            "e4",
            "lesk/eps=0.5/n=128",
            41007,
            r#"{"base_seed":41007,"experiment":"e4","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":16},"cd":"Strong","kind":"cohort_election","max_slots":500000000,"n":128,"proto":{"eps":0.5,"proto":"lesk"}},"point":"lesk/eps=0.5/n=128"}"#,
            "895cd40bac29811526869425965e6548273fe99566fb7e7252565931169c8245",
        ),
        (
            unit(ProtoParams::Lesu, 256, CdModel::Strong, burst(1024), 2_000_000_000),
            "e5",
            "burst/T=1024",
            50000,
            r#"{"base_seed":50000,"experiment":"e5","params":{"adv":{"eps":{"num":2147483648},"kind":{"Burst":{"off":1024,"on":1024}},"t_window":1024},"cd":"Strong","kind":"cohort_election","max_slots":2000000000,"n":256,"proto":{"proto":"lesu"}},"point":"burst/T=1024"}"#,
            "ff9bcdf410487db4cf0c6912bcb83622004d3a303fea83cfc81f37338f7b857f",
        ),
        (
            unit(ProtoParams::Lesu, 8, CdModel::Strong, saturating(0.4, 16), 100_000_000),
            "e6",
            "lesu/n=8",
            63000,
            r#"{"base_seed":63000,"experiment":"e6","params":{"adv":{"eps":{"num":1717986918},"kind":"Saturating","t_window":16},"cd":"Strong","kind":"cohort_election","max_slots":100000000,"n":8,"proto":{"proto":"lesu"}},"point":"lesu/n=8"}"#,
            "095a2f098a4e1e89f129dfb98f81a1b173bbfcb015b6b966421ee2c298193081",
        ),
        (
            unit(
                ProtoParams::Arss { gamma: ArssMacProtocol::recommended_gamma(64, 1) },
                64,
                CdModel::Strong,
                AdversarySpec::passive(),
                3_000_000,
            ),
            "e7",
            "arss/none/n=64",
            70001,
            r#"{"base_seed":70001,"experiment":"e7","params":{"adv":{"eps":{"num":2147483648},"kind":"None","t_window":1},"cd":"Strong","kind":"cohort_election","max_slots":3000000,"n":64,"proto":{"gamma":0.27894294565112987,"proto":"arss"}},"point":"arss/none/n=64"}"#,
            "e00f9f7c3e77e7305a4863a33babb7f6053da9e0a489de436bfeb95d834c93b2",
        ),
        (
            unit(ProtoParams::Willard, 1024, CdModel::Strong, saturating(0.3, 32), 3_000_000),
            "e7",
            "willard/saturating/n=1024",
            71013,
            r#"{"base_seed":71013,"experiment":"e7","params":{"adv":{"eps":{"num":1288490189},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":3000000,"n":1024,"proto":{"proto":"willard"}},"point":"willard/saturating/n=1024"}"#,
            "e2cbfce26318177cf889623b37a0f1cf1ed4475cafbb8687867af753fd07c39e",
        ),
        (
            unit(ProtoParams::lesk(0.5), 256, CdModel::Strong, periodic_front, 100_000_000),
            "e8",
            "sweep-n/n=256",
            80000,
            r#"{"base_seed":80000,"experiment":"e8","params":{"adv":{"eps":{"num":2147483648},"kind":"PeriodicFront","t_window":64},"cd":"Strong","kind":"cohort_election","max_slots":100000000,"n":256,"proto":{"eps":0.5,"proto":"lesk"}},"point":"sweep-n/n=256"}"#,
            "49de148ee316949685a71e8f93cd6acc2af094126c8ffe39adea707ed6517ce9",
        ),
        (
            unit(
                ProtoParams::Lesk { eps: 0.5, u0: Some(0.0), divisor: Some(2.0) },
                1024,
                CdModel::Strong,
                saturating(0.5, 32),
                2_000_000,
            ),
            "e20",
            "saturating/cold start/d=2",
            201000,
            r#"{"base_seed":201000,"experiment":"e20","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":2000000,"n":1024,"proto":{"divisor":2,"eps":0.5,"proto":"lesk","u0":0}},"point":"saturating/cold start/d=2"}"#,
            "d22c312c7a52936347847d1389a19be24d94b71fdc610beb1d5d8ecee4ccc158",
        ),
        (
            unit(
                ProtoParams::Lesk { eps: 0.5, u0: Some(log2n), divisor: Some(2.0) },
                1024,
                CdModel::Strong,
                saturating(0.5, 32),
                2_000_000,
            ),
            "e20",
            "saturating/warm start/d=2",
            201001,
            r#"{"base_seed":201001,"experiment":"e20","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":2000000,"n":1024,"proto":{"divisor":2,"eps":0.5,"proto":"lesk","u0":10}},"point":"saturating/warm start/d=2"}"#,
            "050258b2f0587f7ce938c4d7c471437ef65bea8dc94b1ded3e58b98400c90413",
        ),
        (
            unit(ProtoParams::lesk(0.1), 1024, CdModel::Weak, saturating(0.1, 8), 200_000),
            "e21",
            "cold/weak-CD",
            211000,
            r#"{"base_seed":211000,"experiment":"e21","params":{"adv":{"eps":{"num":429496730},"kind":"Saturating","t_window":8},"cd":"Weak","kind":"cohort_election","max_slots":200000,"n":1024,"proto":{"eps":0.1,"proto":"lesk"}},"point":"cold/weak-CD"}"#,
            "37813b65c8cf5ac708be9cda0fd18aa74e7cbb0115f7aa1c24b5c3a6b7496328",
        ),
        (
            unit(
                ProtoParams::Lesk { eps: 0.1, u0: Some(log2n + 30.0), divisor: None },
                1024,
                CdModel::NoCd,
                AdversarySpec::passive(),
                200_000,
            ),
            "e21",
            "recovery-clean/no-CD",
            212000,
            r#"{"base_seed":212000,"experiment":"e21","params":{"adv":{"eps":{"num":2147483648},"kind":"None","t_window":1},"cd":"NoCd","kind":"cohort_election","max_slots":200000,"n":1024,"proto":{"eps":0.1,"proto":"lesk","u0":40}},"point":"recovery-clean/no-CD"}"#,
            "792d584edf32d6915eaf16fabbbc3e6efcfa6a6660524dd8de66e9a5d45ce100",
        ),
        (
            unit(ProtoParams::Backoff, 256, CdModel::NoCd, targeted, 200_000),
            "e21",
            "backoff-targeted/n=256",
            215000,
            r#"{"base_seed":215000,"experiment":"e21","params":{"adv":{"eps":{"num":429496730},"kind":{"SweepTargeted":{"band":3,"n":256}},"t_window":8},"cd":"NoCd","kind":"cohort_election","max_slots":200000,"n":256,"proto":{"proto":"backoff"}},"point":"backoff-targeted/n=256"}"#,
            "44a05c5bed329b0ea4472cbde64b4ec382a191d4e5f53393a3f47df0aaf9314e",
        ),
    ];
    let run_report = std::any::type_name::<RunReport>();
    for (unit, exp, point, seed, canon, hex) in pinned {
        assert_pinned(exp, point, unit.to_json_value(), seed, run_report, canon, hex);
    }
}

#[test]
fn spec_units_keep_their_cache_keys() {
    let cohort = |proto, n, adv, max_slots| {
        LensSpec::new(EngineKind::Cohort, proto, n, CdModel::Strong, adv, max_slots)
    };
    let fast_exact = |proto, n, adv, max_slots| {
        LensSpec::new(EngineKind::FastExact, proto, n, CdModel::Strong, adv, max_slots)
    };
    let budget = (2.0 * math::lesk_runtime_shape(64, 0.5, 32)).ceil() as u64;
    let mut noisy = cohort(ProtoParams::lesk(0.5), 1024, saturating(0.5, 32), 5_000_000);
    noisy.noise = 0.4;
    let mut cluster = LensSpec::new(
        EngineKind::Multihop,
        ProtoParams::Cluster { eps: 0.4, quiet: Some(1024) },
        48,
        CdModel::Weak,
        saturating(0.4, 32),
        400_000,
    );
    cluster.stop = Stop::AllTerminated;
    cluster.topology = Some("dense-linear:8,6".into());
    let arss = ProtoParams::Arss { gamma: ArssMacProtocol::recommended_gamma(256, 32) };
    let warm = ProtoParams::Lesk { eps: 0.3, u0: Some(10.0), divisor: None };
    let warm_adv = AdversarySpec::new(Rate::from_f64(0.3), 64, JamStrategyKind::Saturating);
    let faulty = |crash_prob, stagger, watchdog| {
        let mut spec = fast_exact(ProtoParams::lesk(0.5), 24, saturating(0.5, 32), 200_000);
        spec.fault_recipe = Some(FaultRecipe { crash_prob, stagger });
        spec.watchdog = watchdog;
        spec
    };
    let churned = |prob, rejoin_after| {
        let mut spec = fast_exact(ProtoParams::lesk(0.5), 24, saturating(0.5, 32), 65_536);
        spec.churn_recipe = Some(ChurnRecipe {
            join_prob: prob,
            join_window: 8_192,
            leave_prob: prob,
            leave_window: 16_384,
            rejoin_after,
        });
        spec
    };
    let mut leased = churned(0.5, 0);
    leased.stop = Stop::Horizon;
    leased.lease = Some(Lease { beacon: 8, miss_tolerance: 10, timeout: 512 });
    let pinned: [(LensSpec, &str, &str, u64, &str, &str, &str); 16] = [
        (
            weak_spec(ProtoParams::Lewk { eps: 0.5 }, 8, &AdversarySpec::passive(), 30_000_000),
            "e6",
            "lewk/no jam/n=8",
            60_000,
            type_name::<(u64, bool, u64)>(),
            r#"{"base_seed":60000,"experiment":"e6","params":{"adv":{"eps":{"num":2147483648},"kind":"None","t_window":1},"cd":"Weak","engine":"fast-exact","kind":"election_run","max_slots":30000000,"n":8,"proto":{"eps":0.5,"proto":"lewk"},"stop":"all-terminated"},"point":"lewk/no jam/n=8"}"#,
            "273556b1369f03657d7c27c63650d11b9b9e62c40c952fa549df350b31aac960",
        ),
        (
            cohort(ProtoParams::lesk(0.5), 64, saturating(0.5, 32), budget),
            "e9",
            "n=64/K=2",
            90_000,
            type_name::<u64>(),
            r#"{"base_seed":90000,"experiment":"e9","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":96,"n":64,"proto":{"eps":0.5,"proto":"lesk"}},"point":"n=64/K=2"}"#,
            "e2a67dca88ed5b5499ff6dba2974bb3aeff460252263c1580820627ac5ba852b",
        ),
        (
            cohort(ProtoParams::lesk(0.5), 256, AdversarySpec::passive(), 10_000_000),
            "e10",
            "none/n=256",
            100_256,
            type_name::<(f64, f64, f64)>(),
            r#"{"base_seed":100256,"experiment":"e10","params":{"adv":{"eps":{"num":2147483648},"kind":"None","t_window":1},"cd":"Strong","kind":"cohort_election","max_slots":10000000,"n":256,"proto":{"eps":0.5,"proto":"lesk"}},"point":"none/n=256"}"#,
            "2579aa58028ce501b9fd32c5e860973adafca0246bb104851851bd0d1442b8c0",
        ),
        (
            cohort(ProtoParams::lesk(0.5), 1024, saturating(0.5, 32), 10_000_000),
            "e11",
            "eps=0.5",
            110_500,
            type_name::<(SlotTaxonomy, u64)>(),
            r#"{"base_seed":110500,"experiment":"e11","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":10000000,"n":1024,"proto":{"eps":0.5,"proto":"lesk"}},"point":"eps=0.5"}"#,
            "b3a5548e159ff475fc5552f4c1e5981cccf8d8809ca017aeb94498c4deaa9941",
        ),
        (
            cohort(arss, 256, saturating(0.5, 32), 5_000_000),
            "e13",
            "arss/saturating eps=0.5 T=32/n=256",
            132_000,
            type_name::<(f64, f64, f64)>(),
            r#"{"base_seed":132000,"experiment":"e13","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":5000000,"n":256,"proto":{"gamma":0.125,"proto":"arss"}},"point":"arss/saturating eps=0.5 T=32/n=256"}"#,
            "06820f63bef001f1f483e0eeab41e44d3b8df2c7871b71a16e2be4f7924184f2",
        ),
        (
            cohort(warm, 1024, warm_adv, 100_000_000),
            "e14",
            "warm/saturating",
            141_041,
            type_name::<(f64, f64)>(),
            r#"{"base_seed":141041,"experiment":"e14","params":{"adv":{"eps":{"num":1288490189},"kind":"Saturating","t_window":64},"cd":"Strong","kind":"cohort_election","max_slots":100000000,"n":1024,"proto":{"eps":0.3,"proto":"lesk","u0":10}},"point":"warm/saturating"}"#,
            "63116a05e823ee02e4ecab321327a11b38f82b8370d99391e83518bd10ce2c45",
        ),
        (
            cohort(ProtoParams::lesk(0.5), 16, saturating(0.5, 16), 10_000_000),
            "e15",
            "cohort/n=16",
            150_001,
            type_name::<f64>(),
            r#"{"base_seed":150001,"experiment":"e15","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":16},"cd":"Strong","kind":"cohort_election","max_slots":10000000,"n":16,"proto":{"eps":0.5,"proto":"lesk"}},"point":"cohort/n=16"}"#,
            "0c87782e026ebe3f48e2445d664964023bdbdff73c77fb5b3813ab1e27c41779",
        ),
        (
            fast_exact(ProtoParams::lesk(0.5), 16, saturating(0.5, 16), 10_000_000),
            "e15",
            "exact/n=16",
            150_001,
            type_name::<f64>(),
            r#"{"base_seed":150001,"experiment":"e15","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":16},"cd":"Strong","engine":"fast-exact","kind":"election_run","max_slots":10000000,"n":16,"proto":{"eps":0.5,"proto":"lesk"},"stop":"first-clean-single"},"point":"exact/n=16"}"#,
            "16942c6c31d97ca2b05f27e546c79a1584e60fcef5198de92879827148234dfd",
        ),
        (
            cohort(ProtoParams::lesk(0.2), 256, saturating(0.2, 32), 200_000),
            "e18",
            "fair/eps=0.2",
            180_022,
            type_name::<(bool, f64)>(),
            r#"{"base_seed":180022,"experiment":"e18","params":{"adv":{"eps":{"num":858993459},"kind":"Saturating","t_window":32},"cd":"Strong","kind":"cohort_election","max_slots":200000,"n":256,"proto":{"eps":0.2,"proto":"lesk"}},"point":"fair/eps=0.2"}"#,
            "206cc603a3e841da836510df19b3bc998cc15b6381b4aeb05d5ffb0224348d4f",
        ),
        (
            noisy,
            "e22",
            "q=0.4",
            220_021,
            type_name::<(f64, bool, f64)>(),
            r#"{"base_seed":220021,"experiment":"e22","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","engine":"cohort","kind":"election_run","max_slots":5000000,"n":1024,"noise":0.4,"proto":{"eps":0.5,"proto":"lesk"},"stop":"first-clean-single"},"point":"q=0.4"}"#,
            "7e29c098303ba1059901c2b863541fcbbfdbe8305ab405f5ea9ab9e5fa59b92d",
        ),
        (
            fast_exact(
                ProtoParams::DutyLesk { eps: 0.5, period: 4 },
                64,
                saturating(0.5, 16),
                5_000_000,
            ),
            "e23",
            "saturating/period=4",
            230_022,
            type_name::<(f64, f64, f64, bool)>(),
            r#"{"base_seed":230022,"experiment":"e23","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":16},"cd":"Strong","engine":"fast-exact","kind":"election_run","max_slots":5000000,"n":64,"proto":{"eps":0.5,"period":4,"proto":"duty-lesk"},"stop":"first-clean-single"},"point":"saturating/period=4"}"#,
            "3c80d20b16005e73fc921d0cd614f234e4a325e980506bbe6f945a8d4fbde4eb",
        ),
        (
            cluster,
            "e26",
            "dense-linear/Weak/sat eps=0.4",
            261_212,
            type_name::<TrialOutcome<RunReport>>(),
            r#"{"base_seed":261212,"experiment":"e26","params":{"adv":{"eps":{"num":1717986918},"kind":"Saturating","t_window":32},"cd":"Weak","engine":"multihop","kind":"election_run","max_slots":400000,"n":48,"proto":{"eps":0.4,"proto":"cluster","quiet":1024},"stop":"all-terminated","topology":"dense-linear:8,6"},"point":"dense-linear/Weak/sat eps=0.4"}"#,
            "cb496289db093ca8ae685748efa2dd4a4e07e7e9cda93a14bbd11995232ea962",
        ),
        (
            faulty(0.2, 0, None),
            "e24",
            "crash=0.2/bare",
            240_202,
            type_name::<TrialOutcome<(RunReport, u64)>>(),
            r#"{"base_seed":240202,"experiment":"e24","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","engine":"fast-exact","fault_recipe":{"crash_prob":0.2,"stagger":0},"kind":"election_run","max_slots":200000,"n":24,"proto":{"eps":0.5,"proto":"lesk"},"stop":"first-clean-single"},"point":"crash=0.2/bare"}"#,
            "3c68f474e5df859d360ccfa3a2d84b855b8b695ba8099e117c7e7094eb63219d",
        ),
        (
            faulty(0.0, 2_048, Some(16_384)),
            "e24",
            "stagger=2048/sup",
            241_202,
            type_name::<TrialOutcome<(RunReport, u64)>>(),
            r#"{"base_seed":241202,"experiment":"e24","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","engine":"fast-exact","fault_recipe":{"crash_prob":0,"stagger":2048},"kind":"election_run","max_slots":200000,"n":24,"proto":{"eps":0.5,"proto":"lesk"},"stop":"first-clean-single","watchdog":16384},"point":"stagger=2048/sup"}"#,
            "e472686337075dd44ee62c815acdef160e1a58bb9f8acdd4b19da06cf6d076a7",
        ),
        (
            leased,
            "e25",
            "lease/eps=0.5/exodus/churn=0.5",
            250_404,
            type_name::<TrialOutcome<RunReport>>(),
            r#"{"base_seed":250404,"experiment":"e25","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","churn_recipe":{"join_prob":0.5,"join_window":8192,"leave_prob":0.5,"leave_window":16384,"rejoin_after":0},"engine":"fast-exact","kind":"election_run","lease":{"beacon":8,"miss_tolerance":10,"timeout":512},"max_slots":65536,"n":24,"proto":{"eps":0.5,"proto":"lesk"},"stop":"horizon"},"point":"lease/eps=0.5/exodus/churn=0.5"}"#,
            "7f69f2116034979ee8819b2ab7218142aab145c74b95e828abc1c4d403a7c1ff",
        ),
        (
            churned(0.25, 8_192),
            "e25",
            "estimate/churn=0.25",
            251_101,
            type_name::<TrialOutcome<Option<f64>>>(),
            r#"{"base_seed":251101,"experiment":"e25","params":{"adv":{"eps":{"num":2147483648},"kind":"Saturating","t_window":32},"cd":"Strong","churn_recipe":{"join_prob":0.25,"join_window":8192,"leave_prob":0.25,"leave_window":16384,"rejoin_after":8192},"engine":"fast-exact","kind":"election_run","max_slots":65536,"n":24,"proto":{"eps":0.5,"proto":"lesk"},"stop":"first-clean-single"},"point":"estimate/churn=0.25"}"#,
            "4045bd53654ce1be80beb6f640257582850876fafa88b91917003444a80b5232",
        ),
    ];
    for (spec, exp, point, seed, ty, canon, hex) in pinned {
        spec.validate().unwrap_or_else(|e| panic!("{exp}/{point}: {e}"));
        assert_pinned(exp, point, spec.to_params(), seed, ty, canon, hex);
    }
}
