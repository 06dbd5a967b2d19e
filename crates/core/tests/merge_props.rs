//! Shard-combine differential suite.
//!
//! A K-shard pipeline partitions the stream by key hash, runs one RHHH
//! instance per shard through the geometric-skip batch path, and combines
//! the frozen shards into one read-only view (`Rhhh::combine`) at harvest.
//! These tests pin the combine contract at the RHHH level:
//!
//! * the view's per-node summaries keep the Space Saving sandwich with the
//!   error of the K per-shard summaries *summed* (the bound the merge
//!   analysis promises — shard and combine costs no accuracy class, only a
//!   constant),
//! * the view's `Output(θ)` finds the same planted hierarchical heavy
//!   hitter a single instance over the whole stream finds — on random,
//!   Zipf-tailed and phase-change streams, for both Space Saving layouts,
//! * `Rhhh::try_combine` combines exactly the frozen parts that share a
//!   lattice and configuration (seeds may differ), and sums their totals.

use std::collections::HashMap;

use hhh_core::{FrozenRhhh, HhhAlgorithm, MergeError, NodeEstimates, Rhhh, RhhhConfig};
use hhh_counters::{merge_entries_many, CompactSpaceSaving, FrequencyEstimator, SpaceSaving};
use hhh_hierarchy::{pack2, shard_of, Lattice};
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

/// Zipf-tailed realistic keys (chicago16 generator) with the attack planted
/// on top — the flow-size law the paper's traces follow.
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

/// Phase-change stream: the attack is entirely absent for the first 60% of
/// the stream, then bursts at 75% intensity — the regime where shards see
/// wildly different local mixes over time.
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

/// Partitions `keys` by key hash into `shards` instances (distinct seeds)
/// and drives each through the batch path.
fn shard<E: FrequencyEstimator<u64>>(
    lat: &Lattice<u64>,
    config: RhhhConfig,
    keys: &[u64],
    shards: usize,
) -> Vec<Rhhh<u64, E>> {
    let mut parts: Vec<Rhhh<u64, E>> = (0..shards)
        .map(|i| {
            Rhhh::new(
                lat.clone(),
                RhhhConfig {
                    seed: config.seed ^ (0xD00D + i as u64 * 0x9E37),
                    ..config
                },
            )
        })
        .collect();
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for &k in keys {
        buckets[shard_of(k, shards)].push(k);
    }
    for (part, bucket) in parts.iter_mut().zip(&buckets) {
        for chunk in bucket.chunks(8_192) {
            part.update_batch(chunk);
        }
    }
    parts
}

/// [`shard`], then one view over every shard.
fn shard_and_merge<E: FrequencyEstimator<u64>>(
    lat: &Lattice<u64>,
    config: RhhhConfig,
    keys: &[u64],
    shards: usize,
) -> FrozenRhhh<u64> {
    let parts = shard::<E>(lat, config, keys, shards);
    combine(&parts)
}

/// Freezes every part and combines the frozen parts.
fn combine<E: FrequencyEstimator<u64>>(parts: &[Rhhh<u64, E>]) -> FrozenRhhh<u64> {
    let frozen: Vec<FrozenRhhh<u64>> = parts.iter().map(Rhhh::freeze).collect();
    Rhhh::<u64, E>::combine(&frozen.iter().collect::<Vec<_>>())
}

/// The merged per-node summaries keep the counter-level sandwich with the
/// per-shard errors summed: `lower ≤ upper`, per-candidate error within the
/// summed deterministic bounds (`Σᵢ deliveredᵢ/cap ≤ delivered/cap`, plus
/// one flooring unit per shard), and guaranteed mass reconciling with the
/// accumulated delivered updates.
fn check_merged_node_sandwich<E: FrequencyEstimator<u64>>(keys: &[u64], shards: usize) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let config = test_config(1, 0xA11CE);
    let merged = shard_and_merge::<E>(&lat, config, keys, shards);
    assert_eq!(
        merged.packets(),
        keys.len() as u64,
        "packet totals must sum"
    );
    assert_eq!(
        merged.total_weight(),
        keys.len() as u64,
        "weight totals must sum"
    );
    let cap = hhh_counters::counters_for(config.epsilon_a, config.epsilon_s) as u64;
    for node in lat.node_ids() {
        let delivered = merged.node(node).updates();
        let allow = delivered / cap + shards as u64;
        let mut guaranteed = 0u64;
        for c in merged.node_candidates(node) {
            assert!(c.lower <= c.upper, "sandwich inverted at {node:?}");
            assert!(
                c.upper - c.lower <= allow,
                "merged error {} beyond summed per-shard bounds {allow} at {node:?}",
                c.upper - c.lower
            );
            guaranteed += c.lower;
        }
        assert!(
            guaranteed <= delivered,
            "guaranteed {guaranteed} > delivered {delivered} at {node:?}"
        );
    }
}

#[test]
fn merged_node_summaries_keep_sandwich_stream_summary() {
    for (name, keys) in [
        ("random", random_stream(240_000, 7)),
        ("zipf", zipf_stream(240_000, 8)),
        ("phase", phase_stream(240_000, 9)),
    ] {
        for shards in [2usize, 4] {
            check_merged_node_sandwich::<SpaceSaving<u64>>(&keys, shards);
            let _ = name;
        }
    }
}

#[test]
fn merged_node_summaries_keep_sandwich_compact() {
    for keys in [
        random_stream(240_000, 17),
        zipf_stream(240_000, 18),
        phase_stream(240_000, 19),
    ] {
        for shards in [2usize, 4] {
            check_merged_node_sandwich::<CompactSpaceSaving<u64>>(&keys, shards);
        }
    }
}

/// End-to-end recall differential: the K-shard merged pipeline reports the
/// planted attack prefix whenever the single-instance run does — on all
/// three stream shapes, both layouts, both operating points.
fn check_merged_recall<E: FrequencyEstimator<u64>>(keys: &[u64], shards: usize, v_scale: u64) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let config = test_config(v_scale, 0xBEE);
    let planted = |out: &[hhh_core::HeavyHitter<u64>]| {
        out.iter()
            .map(|h| h.prefix.display(&lat))
            .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32"))
    };

    let mut single = Rhhh::<u64, E>::new(lat.clone(), config);
    for chunk in keys.chunks(8_192) {
        single.update_batch(chunk);
    }
    assert!(planted(&single.output(0.1)), "single instance lost attack");

    let merged = shard_and_merge::<E>(&lat, config, keys, shards);
    assert!(
        planted(&merged.output(0.1)),
        "{shards}-shard merged run lost the attack the single run found"
    );
}

#[test]
fn merged_output_matches_single_instance_recall() {
    for keys in [
        random_stream(400_000, 21),
        zipf_stream(400_000, 22),
        phase_stream(400_000, 23),
    ] {
        for shards in [2usize, 4] {
            check_merged_recall::<SpaceSaving<u64>>(&keys, shards, 1);
            check_merged_recall::<CompactSpaceSaving<u64>>(&keys, shards, 1);
        }
        // 10-RHHH: higher sampling variance, same recall requirement.
        check_merged_recall::<SpaceSaving<u64>>(&keys, 4, 10);
        check_merged_recall::<CompactSpaceSaving<u64>>(&keys, 4, 10);
    }
}

/// Merging must also commute with *what* gets counted: a merged run and a
/// single run see different RNG draw schedules, but the total recorded
/// update mass per node must agree within binomial noise (5σ), because both
/// realise the same per-packet selection law.
#[test]
fn merged_update_totals_match_selection_law() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let keys = random_stream(300_000, 33);
    let config = test_config(10, 0xFEED);
    let merged = shard_and_merge::<SpaceSaving<u64>>(&lat, config, &keys, 4);
    let n = keys.len() as f64;
    let p = 0.1f64;
    let sigma = (n * p * (1.0 - p)).sqrt();
    let dev = (merged.total_updates() as f64 - n * p).abs();
    assert!(
        dev < 5.0 * sigma,
        "merged updates {} deviate {dev:.0} > 5σ from binomial mean",
        merged.total_updates()
    );
}

#[test]
fn rhhh_merge_rejects_incompatible_configs() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let a = Rhhh::<u64>::new(lat.clone(), test_config(1, 1));
    let mismatch = |other: &Rhhh<u64>| {
        matches!(
            Rhhh::<u64>::try_combine(&[&a.freeze(), &other.freeze()]),
            Err(MergeError::ConfigMismatch(_))
        )
    };
    // Different v_scale.
    let b = Rhhh::<u64>::new(lat.clone(), test_config(10, 2));
    assert!(mismatch(&b));
    // Different lattice (coarser 16-bit granularity → different masks).
    let c = Rhhh::<u64>::new(
        Lattice::new(
            "other",
            vec![
                hhh_hierarchy::FieldSpec::new(32, 16),
                hhh_hierarchy::FieldSpec::new(32, 16),
            ],
        ),
        test_config(1, 3),
    );
    assert!(mismatch(&c));
    // Different seed alone is fine — shards must use distinct seeds.
    let d = Rhhh::<u64>::new(lat, test_config(1, 99));
    assert!(Rhhh::<u64>::try_combine(&[&a.freeze(), &d.freeze()]).is_ok());
}

/// The K-way view against a test-side pairwise fold of the same shards:
/// at every node, the fold combines the running result (padded with its
/// own merged min-count) with the next shard through the same engine.
/// Every per-key upper bound of the view is no looser than the fold's —
/// the K-way combine pads one-sided keys with per-shard minima instead of
/// the fold's growing intermediate merged minima — and the view still
/// finds the attack.
#[test]
fn rhhh_merge_many_no_looser_than_pairwise_fold() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let keys = zipf_stream(200_000, 55);
    for shards in [2usize, 4, 8] {
        let parts = shard::<CompactSpaceSaving<u64>>(&lat, test_config(1, 0xF01D), &keys, shards);
        let kway = combine(&parts);
        assert_eq!(kway.packets(), keys.len() as u64, "{shards} shards");
        let frozen: Vec<FrozenRhhh<u64>> = parts.iter().map(Rhhh::freeze).collect();
        for node in lat.node_ids() {
            let first = frozen[0].node(node).clone();
            let cap = first.capacity();
            let acc = frozen[1..].iter().fold(first, |acc, side| {
                merge_entries_many(&[&acc, side.node(node)], cap)
            });
            let min = acc.unmonitored_upper();
            let fold: HashMap<u64, u64> =
                acc.candidates().iter().map(|c| (c.key, c.upper)).collect();
            let fold_upper = |key: &u64| fold.get(key).copied().unwrap_or(min);
            for c in kway.node(node).candidates() {
                assert!(
                    c.upper <= fold_upper(&c.key),
                    "{shards} shards, {node:?}: K-way upper {} looser than fold's {} for {:?}",
                    c.upper,
                    fold_upper(&c.key),
                    c.key
                );
            }
            assert!(
                kway.node(node).unmonitored_upper() <= min,
                "{node:?} min-count"
            );
        }
        let rendered: Vec<String> = kway
            .output(0.1)
            .iter()
            .map(|h| h.prefix.display(&lat))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32")),
            "{shards} shards: K-way view lost the attack in {rendered:?}"
        );
    }
}

/// `try_combine` validates every part against the first: one bad
/// shard anywhere in the list fails the whole view; compatible parts
/// combine with their packet, weight and update totals summed.
#[test]
fn rhhh_merge_many_rejects_any_incompatible_input() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut a = Rhhh::<u64>::new(lat.clone(), test_config(1, 1));
    a.update_batch(&random_stream(10_000, 3));
    let mut good = Rhhh::<u64>::new(lat.clone(), test_config(1, 2));
    good.update_weighted(pack2(0x0A00_0001, 0x0808_0808), 1_500);
    let bad = Rhhh::<u64>::new(lat, test_config(10, 3)); // wrong v_scale
    let (fa, fgood, fbad) = (a.freeze(), good.freeze(), bad.freeze());
    for parts in [[&fa, &fgood, &fbad], [&fa, &fbad, &fgood]] {
        assert!(matches!(
            Rhhh::<u64>::try_combine(&parts),
            Err(MergeError::ConfigMismatch(_))
        ));
    }
    let view = Rhhh::<u64>::try_combine(&[&fa, &fgood]).expect("same lattice and config");
    assert_eq!(view.packets(), a.packets() + good.packets());
    assert_eq!(view.total_weight(), a.total_weight() + good.total_weight());
    assert_eq!(
        view.total_updates(),
        a.total_updates() + good.total_updates()
    );
}
