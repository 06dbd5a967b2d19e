//! Cross-crate combine integration: the K-shard pipeline's combined view
//! measured against exact ground truth with the evaluation metrics.

use hhh_core::{ExactHhh, FrozenRhhh, Rhhh, RhhhConfig};
use hhh_counters::{CompactSpaceSaving, FrequencyEstimator, SpaceSaving};
use hhh_eval::coverage_error_ratio;
use hhh_hierarchy::{pack2, Lattice};
use hhh_traces::{TraceConfig, TraceGenerator};
use hhh_vswitch::shard_of;

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

const CONFIG: RhhhConfig = RhhhConfig {
    epsilon_a: 0.005,
    epsilon_s: 0.02,
    delta_s: 0.05,
    v_scale: 1,
    updates_per_packet: 1,
    seed: 0x5EED,
};

fn shard_and_merge<E: FrequencyEstimator<u64>>(
    lat: &Lattice<u64>,
    keys: &[u64],
    shards: usize,
) -> FrozenRhhh<u64> {
    let mut parts: Vec<Rhhh<u64, E>> = (0..shards)
        .map(|i| {
            Rhhh::new(
                lat.clone(),
                RhhhConfig {
                    seed: 0xF00D ^ (i as u64).wrapping_mul(0x9E37_79B9),
                    ..CONFIG
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
    let frozen: Vec<_> = parts.iter().map(Rhhh::freeze).collect();
    Rhhh::<u64, E>::combine(&frozen.iter().collect::<Vec<_>>())
}

/// The acceptance differential: against exact ground truth, the K-shard
/// merged pipeline's coverage (recall) matches the single-instance run on
/// random, Zipf and phase-change streams, for both Space Saving layouts.
#[test]
fn merged_recall_matches_single_instance_against_exact() {
    let theta = 0.1;
    let lat = Lattice::ipv4_src_dst_bytes();
    for (name, keys) in [
        ("random", random_stream(250_000, 61)),
        ("zipf", zipf_stream(250_000, 62)),
        ("phase", phase_stream(250_000, 63)),
    ] {
        let mut exact = ExactHhh::new(lat.clone());
        for &k in &keys {
            exact.insert(k);
        }

        let mut single = Rhhh::<u64, SpaceSaving<u64>>::new(lat.clone(), CONFIG);
        for chunk in keys.chunks(8_192) {
            single.update_batch(chunk);
        }
        let single_cov = coverage_error_ratio(&single.output(theta), &exact, theta);

        for shards in [2usize, 4] {
            let merged_list = shard_and_merge::<SpaceSaving<u64>>(&lat, &keys, shards);
            let merged_compact = shard_and_merge::<CompactSpaceSaving<u64>>(&lat, &keys, shards);
            for (layout, out) in [
                ("stream-summary", merged_list.output(theta)),
                ("compact", merged_compact.output(theta)),
            ] {
                let cov = coverage_error_ratio(&out, &exact, theta);
                assert!(
                    cov <= single_cov + 1e-9,
                    "{name}/{layout}/{shards} shards: merged coverage error {cov:.3} \
                     worse than single-instance {single_cov:.3}"
                );
            }
        }
    }
}
