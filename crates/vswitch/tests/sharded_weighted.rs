//! Weight-conservation properties of the `ShardedMonitor` volume feed:
//! however a weighted stream is split across shards, buffered, batched and
//! merged back, the harvested view's packet and weight totals must
//! equal the input's exactly — weight is neither created nor lost by
//! hash-routing, channel hand-off, the per-shard weighted batch path or
//! the K-way merge.

use hhh_core::RhhhConfig;
use hhh_counters::{CompactSpaceSaving, FrequencyEstimator, SpaceSaving};
use hhh_hierarchy::Lattice;
use hhh_vswitch::ShardedMonitor;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

fn config(seed: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_s: 0.05,
        epsilon_a: 0.01,
        delta_s: 0.05,
        seed,
        ..RhhhConfig::default()
    }
}

fn run_weighted<E: FrequencyEstimator<u64>>(
    packets: &[(u64, u64)],
    shards: usize,
    batch: usize,
    seed: u64,
) -> (u64, u64) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut mon =
        ShardedMonitor::<u64, E>::spawn(lat, config(seed), shards, batch).expect("spawn workers");
    mon.update_batch_weighted(packets);
    let expect_weight: u64 = packets.iter().map(|&(_, w)| w).sum();
    assert_eq!(mon.weight(), expect_weight, "feed-side weight ledger");
    assert_eq!(mon.packets(), packets.len() as u64, "feed-side packets");
    let merged = mon.harvest().expect("healthy pipeline");
    (merged.packets(), merged.total_weight())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Total weight and packet count survive shard → batch → merge intact
    /// for arbitrary weighted streams, shard counts, batch grains and
    /// seeds, on both Space Saving layouts.
    #[test]
    fn weight_conserved_across_shards(
        packets in vec((0u64..10_000, 1u64..2_000), 1..800),
        shards in 1usize..5,
        batch in select(vec![1usize, 7, 64, 1_024]),
        seed in any::<u64>(),
    ) {
        let n = packets.len() as u64;
        let volume: u64 = packets.iter().map(|&(_, w)| w).sum();
        let (p, w) = run_weighted::<SpaceSaving<u64>>(&packets, shards, batch, seed);
        prop_assert_eq!(p, n, "stream-summary: packets lost");
        prop_assert_eq!(w, volume, "stream-summary: weight lost");
        let (p, w) = run_weighted::<CompactSpaceSaving<u64>>(&packets, shards, batch, seed);
        prop_assert_eq!(p, n, "compact: packets lost");
        prop_assert_eq!(w, volume, "compact: weight lost");
    }

    /// Zero-weight packets are legal on the feed (the counter treats them
    /// as no-ops) and still count as packets without adding weight.
    #[test]
    fn zero_weight_packets_count_packets_only(
        n in 1usize..200,
        shards in 1usize..4,
        seed in any::<u64>(),
    ) {
        let packets: Vec<(u64, u64)> = (0..n as u64).map(|k| (k, 0)).collect();
        let (p, w) = run_weighted::<SpaceSaving<u64>>(&packets, shards, 32, seed);
        prop_assert_eq!(p, n as u64);
        prop_assert_eq!(w, 0);
    }
}
