//! Pane-ring sliding-window differential suite.
//!
//! Pins the three contracts of `WindowedRhhh`:
//!
//! * **Rotation-boundary invariants** — however the stream is chunked,
//!   pane boundaries land at exactly the packet indices the rotation
//!   period dictates: completed-pane counts, active fill, covered range
//!   and lifetime totals all reconcile, and the merged window's packet
//!   count is exactly the covered range's width.
//! * **Batch/scalar differential equivalence across pane boundaries** —
//!   a batch straddling pane boundaries is bit-identical to feeding the
//!   boundary-aligned sub-batches (the split is exact, both counter
//!   layouts, unit and weighted feeds), and the batch feed matches the
//!   scalar feed structurally (same boundaries) and statistically (same
//!   selection law, same planted-HHH recall).
//! * **Query-coverage sandwich** — on random, Zipf-tailed and
//!   phase-change streams, every windowed estimate stays within the
//!   *summed per-pane* Space Saving + sampling bounds of an exact oracle
//!   computed over precisely the covered packet range, and the in-window
//!   planted attack is always reported while out-of-window traffic ages
//!   out.

use hhh_core::{RhhhConfig, WindowedRhhh};
use hhh_counters::{CompactSpaceSaving, FrequencyEstimator, SpaceSaving};
use hhh_hierarchy::{pack2, Lattice};
use hhh_traces::{TraceConfig, TraceGenerator};

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Uniform random keys plus the planted /16 → victim attack (30%).
fn random_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            if i % 10 < 3 {
                pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), 0x0808_0808)
            } else {
                pack2(rng.next() as u32, rng.next() as u32)
            }
        })
        .collect()
}

/// Zipf-tailed realistic keys (chicago16 generator) with the attack on top.
fn zipf_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut gen = TraceGenerator::new(&TraceConfig::chicago16());
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            if i % 10 < 3 {
                pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), 0x0808_0808)
            } else {
                gen.generate().key2()
            }
        })
        .collect()
}

/// Phase-change stream: clean for the first 60%, then the attack bursts at
/// 75% intensity — the regime where panes see wildly different mixes.
fn phase_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Lcg(seed);
    let cut = n * 6 / 10;
    (0..n)
        .map(|i| {
            if i >= cut && i % 4 != 0 {
                pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), 0x0808_0808)
            } else {
                pack2(rng.next() as u32, rng.next() as u32)
            }
        })
        .collect()
}

/// ψ ≈ 1.96·25/4e-4 ≈ 122.5k for the 2D lattice at `v_scale = 1` — every
/// window below is at least 160k, so its answers are past ψ.
fn test_config(v_scale: u64, seed: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.005,
        epsilon_s: 0.02,
        delta_s: 0.05,
        v_scale,
        updates_per_packet: 1,
        seed,
    }
}

// ---------------------------------------------------------------------------
// Rotation-boundary invariants
// ---------------------------------------------------------------------------

/// Feeds `n` packets through an arbitrary mix of scalar and batch calls and
/// checks that every piece of pane bookkeeping reconciles with the packet
/// arithmetic — pane packet counts sum to the total fed.
fn check_rotation_invariants<E: FrequencyEstimator<u64>>(
    window: u64,
    panes: usize,
    chunks: &[usize],
) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut w = WindowedRhhh::<u64, E>::new(lat, test_config(1, 3), window, panes);
    let pane_len = window.div_ceil(panes as u64);
    assert_eq!(w.pane_len(), pane_len);
    let mut rng = Lcg(11);
    let mut fed = 0u64;
    for (i, &chunk) in chunks.iter().enumerate() {
        if i % 2 == 0 {
            let keys: Vec<u64> = (0..chunk).map(|_| rng.next()).collect();
            w.update_batch(&keys);
        } else {
            for _ in 0..chunk {
                w.update(rng.next());
            }
        }
        fed += chunk as u64;

        assert_eq!(w.total_packets(), fed, "lifetime total drifted");
        assert_eq!(w.panes_completed(), fed / pane_len, "rotation count");
        assert_eq!(w.current_fill(), fed % pane_len, "active fill");
        let retained = (fed / pane_len).min(panes as u64);
        assert_eq!(
            w.covered_packets(),
            retained * pane_len,
            "covered = retained panes × pane length"
        );
        let (start, end) = w.covered_range();
        assert_eq!(end, fed - w.current_fill(), "window ends at last boundary");
        assert_eq!(end - start, w.covered_packets(), "range width = covered");
        // The merged answer's own packet ledger equals the covered range:
        // pane packet counts sum to the total the window claims.
        if let Some(merged) = w.merged_window() {
            assert_eq!(merged.packets(), w.covered_packets());
            assert_eq!(merged.total_weight(), w.covered_packets());
        } else {
            assert_eq!(w.covered_packets(), 0);
        }
    }
}

#[test]
fn rotation_invariants_hold_for_any_chunking() {
    // Chunk sizes straddle pane boundaries in every way: sub-pane, exact
    // pane, multi-pane, and a long tail of odd sizes.
    let chunkings: &[&[usize]] = &[
        &[200_000],
        &[40_000; 6],
        &[39_999, 40_001, 1, 79_999, 40_000],
        &[7_777; 31],
        &[1, 39_999, 120_000, 3, 79_997],
    ];
    for chunks in chunkings {
        check_rotation_invariants::<SpaceSaving<u64>>(160_000, 4, chunks);
    }
    check_rotation_invariants::<CompactSpaceSaving<u64>>(160_000, 4, &[7_777; 31]);
    check_rotation_invariants::<SpaceSaving<u64>>(160_000, 1, &[39_999, 40_001, 80_000]);
    check_rotation_invariants::<SpaceSaving<u64>>(160_001, 8, &[20_001; 10]);
}

// ---------------------------------------------------------------------------
// Batch/scalar differential equivalence across pane boundaries
// ---------------------------------------------------------------------------

/// Two windowed instances are bit-identical: same pane bookkeeping and
/// identical outputs from both query paths.
fn assert_bit_identical<E: FrequencyEstimator<u64>>(
    a: &WindowedRhhh<u64, E>,
    b: &WindowedRhhh<u64, E>,
) {
    assert_eq!(a.panes_completed(), b.panes_completed());
    assert_eq!(a.current_fill(), b.current_fill());
    let weight = |w: &WindowedRhhh<u64, E>| w.merged_window().map(|m| m.total_weight());
    assert_eq!(weight(a), weight(b), "covered weight diverged");
    let (oa, ob) = (a.query_fresh(0.05), b.query_fresh(0.05));
    match (oa, ob) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.len(), y.len(), "windowed outputs diverged");
            for (p, q) in x.iter().zip(&y) {
                assert_eq!(p.prefix, q.prefix);
                assert_eq!(p.freq_upper, q.freq_upper);
                assert_eq!(p.freq_lower, q.freq_lower);
            }
        }
        _ => panic!("one side has a window, the other does not"),
    }
    let (ca, cb) = (a.current_view().output(0.05), b.current_view().output(0.05));
    assert_eq!(ca.len(), cb.len(), "active panes diverged");
    for (p, q) in ca.iter().zip(&cb) {
        assert_eq!(p.prefix, q.prefix);
        assert_eq!(p.freq_upper, q.freq_upper);
    }
}

/// A batch straddling pane boundaries must be *bit-identical* to feeding
/// the boundary-aligned sub-batches separately: the internal split is
/// exact, so both sides hand the same sub-slices to the same panes and the
/// RNG streams walk in lockstep. `weighted` runs the volume feed, whose
/// panes still turn over by packet count.
fn check_straddling_batch_splits_exactly<E: FrequencyEstimator<u64>>(v_scale: u64, weighted: bool) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let (window, panes) = (160_000u64, 4usize);
    let pane_len = window / panes as u64; // 40k
    let mut rng = Lcg(22);
    let packets: Vec<(u64, u64)> = zipf_stream(330_000, 21)
        .into_iter()
        .map(|k| (k, 64 + rng.next() % 1_437))
        .collect();
    let keys: Vec<u64> = packets.iter().map(|&(k, _)| k).collect();
    let feed = |w: &mut WindowedRhhh<u64, E>, range: std::ops::Range<usize>| {
        if weighted {
            w.update_batch_weighted(&packets[range]);
        } else {
            w.update_batch(&keys[range]);
        }
    };
    // ε_s loose enough that the 160k window passes ψ even at V = 10H
    // (ψ = 1.96·250/0.06² ≈ 136k).
    let config = RhhhConfig {
        epsilon_s: 0.06,
        ..test_config(v_scale, 0x5EED)
    };

    let mut straddling = WindowedRhhh::<u64, E>::new(lat.clone(), config, window, panes);
    // Chunks chosen to straddle: 90k crosses two boundaries at once; the
    // rest land mid-pane.
    for start in (0..keys.len()).step_by(90_000) {
        feed(&mut straddling, start..keys.len().min(start + 90_000));
    }

    let mut aligned = WindowedRhhh::<u64, E>::new(lat, config, window, panes);
    // The same chunks pre-split by hand at each pane boundary, so no call
    // ever crosses one: the straddling side's internal split must hand the
    // panes exactly these sub-slices, making the two runs bit-identical.
    for start in (0..keys.len()).step_by(90_000) {
        let end = keys.len().min(start + 90_000);
        let mut i = start;
        while i < end {
            let fill = (aligned.total_packets() % pane_len) as usize;
            let take = (pane_len as usize - fill).min(end - i);
            feed(&mut aligned, i..i + take);
            i += take;
        }
    }

    assert!(straddling.panes_completed() >= 8, "stream spans many panes");
    assert_bit_identical(&straddling, &aligned);
    // The covered weight is the fed weight over exactly the covered range.
    let (start, end) = straddling.covered_range();
    let fed: u64 = packets[start as usize..end as usize]
        .iter()
        .map(|&(_, w)| if weighted { w } else { 1 })
        .sum();
    let merged = straddling.merged_window().expect("window complete");
    assert_eq!(merged.total_weight(), fed);
}

#[test]
fn straddling_batches_split_exactly_stream_summary() {
    check_straddling_batch_splitting_both_scales::<SpaceSaving<u64>>();
}

#[test]
fn straddling_batches_split_exactly_compact() {
    check_straddling_batch_splitting_both_scales::<CompactSpaceSaving<u64>>();
}

/// Both scales on the unit feed; the weighted feed shares the pane split,
/// so one scale pins it.
fn check_straddling_batch_splitting_both_scales<E: FrequencyEstimator<u64>>() {
    for (v_scale, weighted) in [(1, false), (10, false), (10, true)] {
        check_straddling_batch_splits_exactly::<E>(v_scale, weighted);
    }
}

/// The batch and scalar feeds realize the same per-packet selection law,
/// so across pane boundaries they must agree structurally (identical pane
/// boundaries) and statistically (update rate ≈ H/V per pane, and the
/// same planted attack recalled from the same covered window).
fn check_batch_scalar_equivalence<E: FrequencyEstimator<u64>>(keys: &[u64]) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let (window, panes) = (160_000u64, 4usize);
    let config = test_config(1, 0xFACE);

    let mut scalar = WindowedRhhh::<u64, E>::new(lat.clone(), config, window, panes);
    for &k in keys {
        scalar.update(k);
    }
    let mut batch = WindowedRhhh::<u64, E>::new(lat.clone(), config, window, panes);
    for chunk in keys.chunks(8_192) {
        batch.update_batch(chunk);
    }

    assert_eq!(scalar.panes_completed(), batch.panes_completed());
    assert_eq!(scalar.current_fill(), batch.current_fill());
    assert_eq!(scalar.covered_range(), batch.covered_range());

    let (ms, mb) = (
        scalar.merged_window().expect("window complete"),
        batch.merged_window().expect("window complete"),
    );
    // V = H: both paths deliver exactly one update per covered packet.
    assert_eq!(ms.total_updates(), ms.packets());
    assert_eq!(mb.total_updates(), mb.packets());

    let planted = |out: &[hhh_core::HeavyHitter<u64>]| {
        out.iter()
            .map(|h| h.prefix.display(&lat))
            .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32"))
    };
    assert!(
        planted(&ms.output(0.1)),
        "scalar windowed feed lost the attack"
    );
    assert!(
        planted(&mb.output(0.1)),
        "batch windowed feed lost the attack"
    );
}

#[test]
fn batch_and_scalar_windowed_feeds_agree() {
    for keys in [
        random_stream(250_000, 5),
        zipf_stream(250_000, 6),
        phase_stream(400_000, 7),
    ] {
        check_batch_scalar_equivalence::<SpaceSaving<u64>>(&keys);
        check_batch_scalar_equivalence::<CompactSpaceSaving<u64>>(&keys);
    }
}

// ---------------------------------------------------------------------------
// Query-coverage sandwich vs an exact oracle over the covered range
// ---------------------------------------------------------------------------

/// Every windowed estimate must sit within the summed per-pane bounds of
/// the exact frequency over precisely the covered packet range: counter
/// errors add across panes to `ε·W_cov` and the G panes' independent
/// sampling slacks add in quadrature to `√G ×` the merged slack.
fn check_query_coverage_sandwich<E: FrequencyEstimator<u64>>(keys: &[u64], expect: bool) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let (window, panes) = (160_000u64, 4usize);
    let config = test_config(1, 0xB0B);
    let mut w = WindowedRhhh::<u64, E>::new(lat.clone(), config, window, panes);
    for chunk in keys.chunks(16_384) {
        w.update_batch(chunk);
    }
    let (start, end) = w.covered_range();
    assert_eq!(end - start, window, "stream long enough for full coverage");
    let mut oracle = hhh_core::ExactHhh::new(lat.clone());
    for &k in &keys[start as usize..end as usize] {
        oracle.insert(k);
    }

    let merged = w.merged_window().expect("window complete");
    let covered = merged.packets() as f64;
    // Summed per-pane bounds: Σᵢ ε·Nᵢ = ε·W_cov, and Σᵢ slackᵢ =
    // G·2Z√(V·W/G) = √G · slack(W) (slack ∝ √N, panes are equal-sized).
    let eps_total = config.epsilon_a + config.epsilon_s;
    let allow = eps_total * covered + (panes as f64).sqrt() * merged.slack();

    let out = merged.output(0.1);
    if expect {
        assert!(!out.is_empty(), "windowed query found nothing");
    }
    for h in &out {
        let truth = oracle.frequency(&h.prefix) as f64;
        assert!(
            h.freq_upper + allow >= truth,
            "{}: upper {} below oracle {truth} minus summed bound {allow}",
            h.prefix.display(&lat),
            h.freq_upper
        );
        assert!(
            h.freq_lower <= truth + allow,
            "{}: lower {} above oracle {truth} plus summed bound {allow}",
            h.prefix.display(&lat),
            h.freq_lower
        );
        assert!(
            (h.freq_upper - truth).abs() <= allow,
            "{}: estimate {} strays {} from oracle {truth}, beyond {allow}",
            h.prefix.display(&lat),
            h.freq_upper,
            (h.freq_upper - truth).abs()
        );
    }

    let has_attack = out
        .iter()
        .map(|h| h.prefix.display(&lat))
        .any(|s| s.contains("10.20.0.0/16"));
    assert_eq!(
        has_attack, expect,
        "attack visibility must match its presence in the covered window"
    );
}

#[test]
fn windowed_estimates_within_summed_per_pane_bounds() {
    // The attack rides the whole stream (random/zipf) or only its recent
    // 40% (phase) — in all three the covered window contains it.
    for keys in [
        random_stream(250_000, 31),
        zipf_stream(250_000, 32),
        phase_stream(400_000, 33),
    ] {
        check_query_coverage_sandwich::<SpaceSaving<u64>>(&keys, true);
        check_query_coverage_sandwich::<CompactSpaceSaving<u64>>(&keys, true);
    }
    // Inverted phase: the attack rode only the *old* traffic; the covered
    // window is clean and the answer must not resurrect it.
    let mut inverted = phase_stream(400_000, 34);
    inverted.reverse();
    check_query_coverage_sandwich::<SpaceSaving<u64>>(&inverted, false);
    check_query_coverage_sandwich::<CompactSpaceSaving<u64>>(&inverted, false);
}
