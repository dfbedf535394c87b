//! Counter-based per-station random streams for the fast exact backend.
//!
//! A shared-stream backend (multi-hop `Shared`) draws every station's
//! randomness from **one** sequential `SmallRng`, in station-index order —
//! correct, but it welds
//! the draw order to the iteration order: skip a sleeping station and
//! every later draw shifts. [`StationRng`] removes that coupling by
//! deriving each draw as a pure function of its *coordinates*:
//!
//! ```text
//!     draw = mix(slot_state(run_key(seed, station), slot) + f(draw_index))
//! ```
//!
//! where `mix` is the SplitMix64 finalizer (the same one `rand`'s
//! `seed_from_u64` and the fault-plan generators use). Station `i`'s
//! draws in slot `t` are therefore identical no matter which other
//! stations act, in what order, or on which thread — the property the
//! active-set slot loop and its sharded action phase are built on (see
//! DESIGN.md §12).
//!
//! # The fast-backend draw contract
//!
//! * Every `(seed, station, slot, draw_index)` tuple yields one fixed
//!   64-bit value; the `draw_index` advances once per `next_u64`
//!   (`next_u32` and `gen_bool` consume exactly one).
//! * Streams for different stations, different slots, and different run
//!   seeds are mutually independent by construction (three rounds of
//!   SplitMix64 finalization between the key material and the output).
//! * The values are **intentionally unrelated** to the shared
//!   sequential stream: `FastExactStations` is locked by its *own*
//!   golden fixtures, and cross-backend agreement is statistical, not
//!   bit-level.

use rand::RngCore;

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden-ratio increment SplitMix64 walks its state by.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain tags keeping the station/slot key material disjoint from every
/// other derived stream in the workspace (adversary stream, fault-plan
/// generators).
const STATION_TAG: u64 = 0x5741_4B45_5354_4154; // "WAKESTAT"
const SLOT_TAG: u64 = 0x534C_4F54_5354_524D; // "SLOTSTRM"

/// Per-run, per-station stream key. Compute once per station and reuse
/// across slots ([`FastExactStations`](crate::fast::FastExactStations)
/// caches one per station).
#[inline]
pub fn station_key(run_seed: u64, station: u64) -> u64 {
    mix64(run_seed ^ mix64(station.wrapping_mul(GOLDEN) ^ STATION_TAG))
}

/// Premixed slot key material: `mix64(slot·GOLDEN ^ SLOT_TAG)`, the part
/// of [`StationRng::for_slot`] that depends only on the slot. The batch
/// backend computes it once per slot and reuses it across every
/// `(station, trial)` stream of that slot via `draw_mask`.
#[inline]
pub fn slot_material(slot: u64) -> u64 {
    mix64(slot.wrapping_mul(GOLDEN) ^ SLOT_TAG)
}

/// `2^53`: the vendored `gen_bool` compares the top 53 bits of a draw,
/// scaled into `[0, 1)`, against its probability.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The exact integer threshold of `gen_bool(p)` for `0 < p < 1`:
/// `t = ceil(p·2^53)`, so that a draw `x` makes `gen_bool(p)` true
/// exactly when `x >> 11 < t`.
///
/// Why it is exact: `gen_bool` tests `(x >> 11) as f64 · 2^-53 < p`.
/// `y = x >> 11` is below `2^53`, so `y as f64` is exact, and scaling by
/// a power of two is exact for every `p` in `(0, 1)`, subnormals
/// included; so the test is the real inequality `y < p·2^53`. For an
/// integer `y` that is `y < ceil(p·2^53)`, and the ceiling (at most
/// `2^53`) converts to `u64` without rounding.
///
/// `NaN`, `p ≤ 0` and `p ≥ 1` are outside the contract: the batch
/// backend resolves them on its word paths without a draw.
#[inline]
pub(crate) fn gen_bool_threshold(p: f64) -> u64 {
    debug_assert!(p > 0.0 && p < 1.0, "gen_bool_threshold needs 0 < p < 1, got {p}");
    (p * TWO_POW_53).ceil() as u64
}

/// One word of first-draw Bernoulli trials: bit `b` of the result is
/// set when bit `b` of `mask` is set and the first draw of the stream
/// `(keys[b], slot_mat)` falls below `thresholds[b]` (a
/// [`gen_bool_threshold`]). For each such bit this is
/// `StationRng::with_slot_material(keys[b], slot_mat).gen_bool(p_b)`,
/// as an integer compare with no float work and no branch on the
/// outcome. The batch backend calls it once per station
/// and trial word, with `keys` and `thresholds` sliced at the word.
///
/// # Panics
/// Panics if `mask` has a bit set past the end of `keys` or
/// `thresholds`.
#[inline]
pub(crate) fn draw_mask(mask: u64, keys: &[u64], thresholds: &[u64], slot_mat: u64) -> u64 {
    let mut hits = 0u64;
    let mut rest = mask;
    while rest != 0 {
        let b = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        // The first draw of the stream: counter 0 adds nothing to the
        // slot state (see `StationRng::next_u64`).
        let x = mix64(mix64(keys[b] ^ slot_mat));
        hits |= u64::from(x >> 11 < thresholds[b]) << b;
    }
    hits
}

/// A counter-based generator over one station's draws in one slot.
///
/// Implements [`RngCore`], so it slots into
/// [`Protocol::act`](crate::Protocol::act) unchanged: the fast backend
/// hands each station a fresh `StationRng` per slot instead of the shared
/// sequential engine stream.
#[derive(Debug, Clone)]
pub struct StationRng {
    state: u64,
    ctr: u64,
}

impl StationRng {
    /// The stream for `(key, slot)` where `key` came from
    /// [`station_key`]. `draw_index` starts at 0.
    #[inline]
    pub fn for_slot(key: u64, slot: u64) -> Self {
        StationRng { state: mix64(key ^ mix64(slot.wrapping_mul(GOLDEN) ^ SLOT_TAG)), ctr: 0 }
    }

    /// Like [`StationRng::for_slot`], with the slot's key material
    /// already mixed ([`slot_material`]): one slot's material serves
    /// every `(station, trial)` stream of a batch, so it is mixed once per
    /// slot. [`draw_mask`] is specified against this stream, and a test
    /// holds it equal to [`StationRng::for_slot`].
    #[cfg(test)]
    pub(crate) fn with_slot_material(key: u64, slot_mat: u64) -> Self {
        StationRng { state: mix64(key ^ slot_mat), ctr: 0 }
    }

    /// Convenience: derive the key and position in one call.
    #[inline]
    pub fn new(run_seed: u64, station: u64, slot: u64) -> Self {
        Self::for_slot(station_key(run_seed, station), slot)
    }

    /// How many 64-bit draws have been consumed.
    #[inline]
    pub fn draws(&self) -> u64 {
        self.ctr
    }
}

impl RngCore for StationRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let v = mix64(self.state.wrapping_add(self.ctr.wrapping_mul(GOLDEN)));
        self.ctr += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn pure_function_of_coordinates() {
        let a: Vec<u64> = (0..8).map(|i| StationRng::new(7, 3, 5).nth(i)).collect();
        let b: Vec<u64> = {
            let mut r = StationRng::new(7, 3, 5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "draw k is independent of how the stream was advanced");
    }

    impl StationRng {
        fn nth(&mut self, k: u64) -> u64 {
            for _ in 0..k {
                self.next_u64();
            }
            self.next_u64()
        }
    }

    #[test]
    fn coordinates_decorrelate() {
        let base: Vec<u64> = {
            let mut r = StationRng::new(1, 2, 3);
            (0..4).map(|_| r.next_u64()).collect()
        };
        for (seed, station, slot) in [(2, 2, 3), (1, 3, 3), (1, 2, 4)] {
            let mut r = StationRng::new(seed, station, slot);
            let other: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
            assert_ne!(base, other, "({seed},{station},{slot}) must differ from (1,2,3)");
        }
    }

    #[test]
    fn gen_bool_consumes_one_draw_and_tracks_rate() {
        let mut hits = 0u32;
        for station in 0..10_000u64 {
            let mut r = StationRng::new(99, station, 0);
            if r.gen_bool(0.25) {
                hits += 1;
            }
            assert_eq!(r.draws(), 1);
        }
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn uniform_across_slots_for_one_station() {
        // One station's first draw across many slots behaves uniformly.
        let key = station_key(5, 17);
        let mean: f64 = (0..10_000u64)
            .map(|slot| {
                let mut r = StationRng::for_slot(key, slot);
                (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            })
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut r = StationRng::new(4, 4, 4);
        let dynr: &mut dyn RngCore = &mut r;
        let hits = (0..1000).filter(|_| dynr.gen_bool(0.5)).count();
        assert!((400..600).contains(&hits), "hits {hits}");
    }

    #[test]
    fn draw_mask_matches_64_independent_station_rngs() {
        // The word kernel must be a pure re-bracketing of the scalar
        // path: bit `b` is `gen_bool(p_b)` on an independent
        // `StationRng::new` stream for trial `b`, and unmasked bits stay
        // clear.
        let seeds: Vec<u64> = (0..64u64).map(|k| mix64(k ^ 0xDEAD_BEEF)).collect();
        let ps: Vec<f64> = (0..64u64).map(|k| (k as f64 + 0.5) / 64.0).collect();
        let thresholds: Vec<u64> = ps.iter().map(|&p| gen_bool_threshold(p)).collect();
        for (station, slot) in [(0u64, 0u64), (3, 17), (11, 2), (7, 1_000_003)] {
            let keys: Vec<u64> = seeds.iter().map(|&s| station_key(s, station)).collect();
            for mask in [u64::MAX, 0, 0x8000_0000_0000_0001, mix64(station ^ slot)] {
                let got = draw_mask(mask, &keys, &thresholds, slot_material(slot));
                for (b, (&seed, &p)) in seeds.iter().zip(&ps).enumerate() {
                    let want =
                        mask >> b & 1 == 1 && StationRng::new(seed, station, slot).gen_bool(p);
                    assert_eq!(
                        got >> b & 1 == 1,
                        want,
                        "trial {b} at (station {station}, slot {slot})"
                    );
                }
            }
        }
    }

    /// The vendored `gen_bool(p)` on a fixed draw `x`.
    fn gen_bool_on(x: u64, p: f64) -> bool {
        struct Fixed(u64);
        impl RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                unreachable!("gen_bool reads one u64")
            }
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        Fixed(x).gen_bool(p)
    }

    /// Draws whose top 53 bits sit on and around the threshold of `p`,
    /// plus both ends of the range.
    fn probe_draws(p: f64) -> Vec<u64> {
        let t = (p * TWO_POW_53).ceil() as u64;
        let mut ys = vec![0u64, 1, (1 << 53) - 1];
        ys.extend(
            [t.saturating_sub(2), t.saturating_sub(1), t, t + 1]
                .iter()
                .map(|&y| y.min((1 << 53) - 1)),
        );
        // Every low-bit pattern shares its top bits' verdict.
        ys.iter().flat_map(|&y| [y << 11, (y << 11) | 0x7FF]).collect()
    }

    #[test]
    fn gen_bool_threshold_agrees_with_gen_bool_at_the_edges() {
        let ulp = 1.0 / TWO_POW_53; // 2^-53
        let mut ps = vec![
            f64::from_bits(1), // the smallest subnormal
            ulp,
            0.5,
            1.0 - ulp,
            f64::from_bits(1.0f64.to_bits() - 1), // the largest f64 below 1
        ];
        for k in [1u64, 2, 3, 7, 1 << 20, (1 << 52) + 1, (1 << 53) - 3, (1 << 53) - 1] {
            let p = k as f64 * ulp;
            ps.extend([p, f64::from_bits(p.to_bits() + 1), f64::from_bits(p.to_bits() - 1)]);
        }
        for p in ps.into_iter().filter(|&p| p > 0.0 && p < 1.0) {
            let t = gen_bool_threshold(p);
            for x in probe_draws(p) {
                assert_eq!(
                    x >> 11 < t,
                    gen_bool_on(x, p),
                    "p = {p:e} ({:#x}), x = {x:#x}",
                    p.to_bits()
                );
            }
        }
    }

    #[test]
    fn gen_bool_threshold_agrees_with_gen_bool_on_random_pairs() {
        let mut r = StationRng::new(0x7E57, 0, 0);
        for _ in 0..200_000 {
            let x = r.next_u64();
            // Probabilities spread over every binade down to 2^-64, and
            // exact multiples of 2^-53 that sit on a draw's grid.
            let u = r.next_u64();
            let p = match u % 3 {
                0 => (r.next_u64() >> 11) as f64 / TWO_POW_53,
                1 => (r.next_u64() >> 11) as f64 / TWO_POW_53 / (1u64 << (u >> 58)) as f64,
                _ => ((x >> 11) + (u >> 62)) as f64 / TWO_POW_53,
            };
            if p > 0.0 && p < 1.0 {
                assert_eq!(
                    x >> 11 < gen_bool_threshold(p),
                    gen_bool_on(x, p),
                    "p = {p:e}, x = {x:#x}"
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn gen_bool_threshold_rejects_word_path_probabilities() {
        // NaN, p <= 0 and p = 1 never draw: they take the word paths.
        for p in [f64::NAN, 0.0, -0.0, -0.25, 1.0, 2.0] {
            let caught = std::panic::catch_unwind(|| gen_bool_threshold(p));
            assert!(caught.is_err(), "p = {p} must trip the precondition");
        }
    }

    #[test]
    fn with_slot_material_equals_for_slot() {
        for (seed, station, slot) in [(1u64, 2u64, 3u64), (9, 0, 0), (42, 63, 1_000_000)] {
            let key = station_key(seed, station);
            let mut a = StationRng::for_slot(key, slot);
            let mut b = StationRng::with_slot_material(key, slot_material(slot));
            for _ in 0..4 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        // Spot-check injectivity over a structured sample set.
        let mut seen: Vec<u64> = (0..10_000u64).map(mix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
    }
}
