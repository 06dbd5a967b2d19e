//! Batch-vs-scalar equivalence suite.
//!
//! The batch path consumes RNG draws on a different schedule than the
//! scalar path (one geometric gap draw per *selected* packet instead of one
//! bounded draw per packet), so the two are equal in distribution, not
//! bit-for-bit. These tests pin down that equivalence:
//!
//! * a chi-squared two-sample test over per-node update counts (the
//!   balls-and-bins statistic the Section 6 analysis rests on) across
//!   several fixed seeds,
//! * binomial bounds on the selected fraction,
//! * deterministic checks that batch flushes respect the Space Saving
//!   `count − error ≤ X ≤ count` sandwich, exactly (no-eviction regime) and
//!   as an inequality (eviction-heavy regime),
//! * bit-identity of the block pipeline against [`Oracle`], a test-side
//!   rebuild of the pre-block batch walk from public API.
//!
//! Everything is seeded; there is no flakiness to re-roll.

use hhh_core::sampling::{FastRng, GeometricSkip};
use hhh_core::{HhhAlgorithm, NodeEstimates, Rhhh, RhhhConfig};
use hhh_counters::{counters_for, FrequencyEstimator};
use hhh_hierarchy::{pack2, Lattice, NodeId};

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

fn stream(n: usize, seed: u64) -> Vec<u64> {
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

/// Two-sample chi-squared statistic over per-bin counts; under the null
/// (same multinomial law) it is ~χ²(bins − 1).
fn chi_squared_two_sample(a: &[u64], b: &[u64]) -> f64 {
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    assert!(na > 0 && nb > 0);
    let k1 = (nb as f64 / na as f64).sqrt();
    let k2 = (na as f64 / nb as f64).sqrt();
    a.iter()
        .zip(b)
        .filter(|(&x, &y)| x + y > 0)
        .map(|(&x, &y)| {
            let d = k1 * x as f64 - k2 * y as f64;
            d * d / (x + y) as f64
        })
        .sum()
}

fn node_counts<K: hhh_hierarchy::KeyBits>(algo: &Rhhh<K>) -> Vec<u64> {
    (0..algo.h() as u16)
        .map(|i| algo.node_updates(NodeId(i)))
        .collect()
}

/// Chi-squared over node selection counts, scalar vs batch, three seeds,
/// both operating points (V = H and V = 10H). df = 24; the 99.9th
/// percentile of χ²(24) is 52.6.
#[test]
fn node_selection_counts_statistically_indistinguishable() {
    const CHI2_DF24_P999: f64 = 52.62;
    for seed in [11u64, 12, 13] {
        for v_scale in [1u64, 10] {
            let config = RhhhConfig {
                v_scale,
                seed,
                ..RhhhConfig::default()
            };
            let lat = Lattice::ipv4_src_dst_bytes();
            let keys = stream(300_000, seed);
            let mut scalar = Rhhh::<u64>::new(lat.clone(), config);
            for &k in &keys {
                scalar.update(k);
            }
            let mut batch = Rhhh::<u64>::new(lat, config);
            for chunk in keys.chunks(8_192) {
                batch.update_batch(chunk);
            }
            let (sc, bc) = (node_counts(&scalar), node_counts(&batch));
            let chi2 = chi_squared_two_sample(&sc, &bc);
            assert!(
                chi2 < CHI2_DF24_P999,
                "seed {seed}, v_scale {v_scale}: chi2 = {chi2:.2} \
                 (scalar {sc:?} vs batch {bc:?})"
            );
        }
    }
}

/// The batch path's selected fraction is Binomial(n, H/V) like the scalar
/// path's; both totals stay within 5σ of the mean for every seed.
#[test]
fn selected_fraction_matches_binomial_law() {
    let n = 300_000u64;
    let p = 0.1f64;
    let sigma = (n as f64 * p * (1.0 - p)).sqrt();
    for seed in [21u64, 22, 23] {
        let config = RhhhConfig {
            v_scale: 10,
            seed,
            ..RhhhConfig::default()
        };
        let lat = Lattice::ipv4_src_dst_bytes();
        let keys = stream(n as usize, seed);
        let mut batch = Rhhh::<u64>::new(lat.clone(), config);
        batch.update_batch(&keys);
        let mut scalar = Rhhh::<u64>::new(lat, config);
        for &k in &keys {
            scalar.update(k);
        }
        for (label, algo) in [("batch", &batch), ("scalar", &scalar)] {
            let dev = (algo.total_updates() as f64 - n as f64 * p).abs();
            assert!(
                dev < 5.0 * sigma,
                "seed {seed} {label}: {} updates, dev {dev:.0} > 5σ = {:.0}",
                algo.total_updates(),
                5.0 * sigma
            );
        }
    }
}

/// No-eviction regime: with a tiny key universe every node instance has
/// spare capacity, so Space Saving is exact — the batch flush must satisfy
/// `lower == upper` per candidate and reconcile per-node totals exactly.
#[test]
fn batch_flush_is_exact_below_capacity() {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut algo = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
    let mut rng = Lcg(77);
    let keys: Vec<u64> = (0..200_000)
        .map(|_| {
            pack2(
                rng.next() as u32 & 0x0000_0007,
                rng.next() as u32 & 0x0000_0003,
            )
        })
        .collect();
    for chunk in keys.chunks(4_096) {
        algo.update_batch(chunk);
    }
    for node in 0..algo.h() as u16 {
        let node = NodeId(node);
        let mut total = 0u64;
        for c in algo.node_candidates(node) {
            assert_eq!(c.lower, c.upper, "no eviction may introduce error");
            total += c.upper;
        }
        assert_eq!(
            total,
            algo.node_updates(node),
            "per-node counts must reconcile exactly at {node:?}"
        );
    }
}

/// Eviction-heavy regime: candidates keep the Space Saving sandwich
/// `count − error ≤ X ≤ count` (observable as lower ≤ upper with
/// error ≤ per-node error bound) and guaranteed mass never exceeds the
/// node's delivered updates.
#[test]
fn batch_flush_respects_space_saving_sandwich_under_eviction() {
    let lat = Lattice::ipv4_src_dst_bytes();
    // ε_a = 0.2 → 6 counters per instance: constant evictions.
    let mut algo = Rhhh::<u64>::new(
        lat,
        RhhhConfig {
            epsilon_a: 0.2,
            ..RhhhConfig::ten_rhhh()
        },
    );
    let keys = stream(300_000, 5);
    for chunk in keys.chunks(4_096) {
        algo.update_batch(chunk);
    }
    for node in 0..algo.h() as u16 {
        let node = NodeId(node);
        let delivered = algo.node_updates(node);
        let cands = algo.node_candidates(node);
        let mut guaranteed = 0u64;
        for c in &cands {
            assert!(c.lower <= c.upper, "sandwich inverted at {node:?}");
            let error = c.upper - c.lower;
            assert!(
                error <= delivered,
                "error {error} exceeds delivered {delivered} at {node:?}"
            );
            guaranteed += c.lower;
        }
        assert!(
            guaranteed <= delivered,
            "guaranteed mass {guaranteed} > delivered {delivered} at {node:?}"
        );
    }
}

/// Weighted batch path: same totals as the scalar weighted path and a
/// volume estimate for the planted heavy flow within the configured error.
#[test]
fn weighted_batch_matches_scalar_weighted_totals() {
    for seed in [31u64, 32, 33] {
        let lat = Lattice::ipv4_src_bytes();
        let config = RhhhConfig {
            epsilon_s: 0.05,
            delta_s: 0.05,
            seed,
            ..RhhhConfig::default()
        };
        let heavy = u32::from_be_bytes([7, 7, 7, 7]);
        let mut rng = Lcg(seed);
        let packets: Vec<(u32, u64)> = (0..200_000usize)
            .map(|i| {
                if i % 10 == 0 {
                    (heavy, 1400)
                } else {
                    (rng.next() as u32, 64)
                }
            })
            .collect();
        let mut batch = Rhhh::<u32>::new(lat.clone(), config);
        for chunk in packets.chunks(2_048) {
            batch.update_batch_weighted(chunk);
        }
        let mut scalar = Rhhh::<u32>::new(lat, config);
        for &(k, w) in &packets {
            scalar.update_weighted(k, w);
        }
        assert_eq!(batch.total_weight(), scalar.total_weight());
        assert_eq!(batch.packets(), scalar.packets());

        let truth = 200_000u64 / 10 * 1400;
        for (label, algo) in [("batch", &batch), ("scalar", &scalar)] {
            let out = algo.output(0.3);
            let bottom = algo.lattice().bottom();
            let entry = out
                .iter()
                .find(|h| h.prefix.key == heavy && h.prefix.node == bottom)
                .unwrap_or_else(|| panic!("{label} seed {seed}: heavy flow lost"));
            assert!(
                (entry.freq_upper - truth as f64).abs() < 0.2 * truth as f64,
                "{label} seed {seed}: {} vs {truth}",
                entry.freq_upper
            );
        }
    }
}

/// The two paths report the same HHH set on a planted-attack stream — the
/// end-to-end answer users actually consume.
#[test]
fn batch_and_scalar_agree_on_the_hhh_set() {
    for seed in [41u64, 42, 43] {
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_s: 0.02,
            epsilon_a: 0.005,
            delta_s: 0.05,
            v_scale: 10,
            updates_per_packet: 1,
            seed,
        };
        let keys = stream(400_000, seed);
        let mut scalar = Rhhh::<u64>::new(lat.clone(), config);
        for &k in &keys {
            scalar.update(k);
        }
        let mut batch = Rhhh::<u64>::new(lat.clone(), config);
        for chunk in keys.chunks(8_192) {
            batch.update_batch(chunk);
        }
        let planted = |algo: &Rhhh<u64>| {
            algo.output(0.1)
                .iter()
                .map(|h| h.prefix.display(&lat))
                .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32"))
        };
        assert!(planted(&scalar), "seed {seed}: scalar lost the attack");
        assert!(planted(&batch), "seed {seed}: batch lost the attack");
    }
}

/// `flush_group` (what the batch flush calls — adaptive ordering with
/// bulk min-level eviction on the flat arena) vs per-key processing of the
/// same groups in the same (deterministically chosen, exposed) order: the
/// deferred-eviction path must leave the same count multiset, update total
/// and min-count — only the tie-break among equal minima (hence which key
/// owns a slot) may differ.
#[test]
fn flush_group_evicting_matches_default_flush() {
    use hhh_counters::CompactSpaceSaving;
    let mut rng = Lcg(0x5CA1E);
    for cap in [1usize, 5, 24, 120] {
        for (universe, group_len) in [(8u64, 64usize), (200, 96), (10_000, 512)] {
            let mut bulk: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
            let mut default: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
            for _ in 0..30 {
                let mut group: Vec<u64> = (0..group_len).map(|_| rng.next() % universe).collect();
                let mut group2 = group.clone();
                bulk.flush_group(&mut group, &mut <[u64]>::sort_unstable);
                // Mirror the adaptive order decision: sorted runs go
                // through the default flush (sort, then increment_batch),
                // arrival order through plain per-key increment_batch.
                if bulk.last_flush_sorted() {
                    group2.sort_unstable();
                }
                default.increment_batch(&group2);
            }
            let label = format!("cap {cap}, universe {universe}, group {group_len}");
            assert_eq!(bulk.updates(), default.updates(), "{label}: updates");
            assert_eq!(bulk.min_count(), default.min_count(), "{label}: min");
            let multiset = |c: &CompactSpaceSaving<u64>| -> Vec<u64> {
                let mut v: Vec<u64> = c.candidates().iter().map(|e| e.upper).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(
                multiset(&bulk),
                multiset(&default),
                "{label}: count multisets diverged"
            );
            bulk.debug_validate();
            default.debug_validate();
        }
    }
}

/// The bit-identity oracle: the pre-block batch walk, rebuilt from
/// public API only. It draws per selection with node and gap derived per
/// refill, scatters *raw* keys per node, and masks each group in a
/// separate pass at flush time. It owns its own RNG, sampler and per-node
/// estimators, seeded and sized as `Rhhh::new` does, so the production
/// pipeline must leave every estimator in exactly the oracle's state.
struct Oracle<E> {
    masks: Vec<u64>,
    instances: Vec<E>,
    rng: FastRng,
    skip: GeometricSkip,
    h: u64,
    v: u64,
    r: u64,
    packets: u64,
    weight: u64,
}

/// Refill size of the oracle's walk (the pipeline's draw block).
const DRAW_BLOCK: usize = 256;

/// Exact Lemire bounded draw from one pre-generated uniform, with a fresh
/// serial draw on the rare rejection.
fn node_from(x: u64, h: u64, rng: &mut FastRng) -> u16 {
    let m = u128::from(x) * u128::from(h);
    let low = m as u64;
    if low < h && low < h.wrapping_neg() % h {
        return rng.bounded(h) as u16;
    }
    (m >> 64) as u16
}

impl<E: FrequencyEstimator<u64>> Oracle<E> {
    fn new(lat: &Lattice<u64>, config: RhhhConfig) -> Self {
        let h = lat.num_nodes() as u64;
        let v = config.v_scale * h;
        let counters = counters_for(config.epsilon_a, config.epsilon_s);
        Self {
            masks: lat.node_ids().map(|n| lat.mask(n)).collect(),
            instances: (0..h).map(|_| E::with_capacity(counters)).collect(),
            rng: FastRng::new(config.seed),
            skip: GeometricSkip::new(h, v),
            h,
            v,
            r: u64::from(config.updates_per_packet),
            packets: 0,
            weight: 0,
        }
    }

    /// Walks `draws` Bernoulli(H/V) trials and calls `sink(draw, node)`
    /// once per selected trial, in order.
    fn walk(&mut self, draws: u64, mut sink: impl FnMut(u64, u16)) {
        let (h, rng, skip) = (self.h, &mut self.rng, &self.skip);
        if draws == 0 {
            return;
        }
        if skip.selects_all() {
            let mut raw = [0u64; DRAW_BLOCK];
            let mut cur = 0u64;
            while cur < draws {
                let take = ((draws - cur) as usize).min(DRAW_BLOCK);
                rng.fill_block(&mut raw[..take]);
                for &x in &raw[..take] {
                    sink(cur, node_from(x, h, rng));
                    cur += 1;
                }
            }
            return;
        }
        let inv_p = (self.v / h).max(1);
        let mut gaps = [0u64; DRAW_BLOCK];
        let mut nodes = [0u16; DRAW_BLOCK];
        let (mut len, mut i, mut cur) = (0usize, 0usize, 0u64);
        loop {
            if i == len {
                len = (((draws - cur) / inv_p + 8) as usize).min(DRAW_BLOCK);
                rng.fill_block(&mut gaps[..len]);
                if h < (1 << 11) {
                    // Node from bits 0..11 (11-bit Lemire, serial re-draw on
                    // rejection), gap from bits 11..64.
                    let threshold = (1u64 << 11) % h;
                    for j in 0..len {
                        let x = gaps[j];
                        let m = (x & 0x7FF) * h;
                        nodes[j] = if (m & 0x7FF) < threshold {
                            rng.bounded(h) as u16
                        } else {
                            (m >> 11) as u16
                        };
                        gaps[j] = skip.gap_from_bits(x >> 11);
                    }
                } else {
                    skip.gaps_from_block(&mut gaps[..len]);
                    let mut raw = [0u64; DRAW_BLOCK];
                    rng.fill_block(&mut raw[..len]);
                    for j in 0..len {
                        nodes[j] = node_from(raw[j], h, rng);
                    }
                }
                i = 0;
            }
            cur += gaps[i];
            if cur >= draws {
                return;
            }
            sink(cur, nodes[i]);
            cur += 1;
            i += 1;
        }
    }

    /// Raw entries scattered per node by the walk over `n` packets.
    fn scatter<T: Copy>(&mut self, entries: &[T]) -> Vec<Vec<T>> {
        let r = self.r;
        let mut groups = vec![Vec::new(); self.h as usize];
        self.walk(entries.len() as u64 * r, |i, node| {
            groups[node as usize].push(entries[(i / r) as usize]);
        });
        groups
    }

    fn feed(&mut self, batch: Batch<'_>) {
        match batch {
            Batch::Unit(keys) => {
                self.packets += keys.len() as u64;
                self.weight += keys.len() as u64;
                for (node, mut group) in self.scatter(keys).into_iter().enumerate() {
                    if group.is_empty() {
                        continue;
                    }
                    for key in &mut group {
                        *key &= self.masks[node];
                    }
                    self.instances[node].flush_group(&mut group, &mut <[u64]>::sort_unstable);
                }
            }
            Batch::Weighted(packets) => {
                self.packets += packets.len() as u64;
                self.weight += packets.iter().map(|&(_, w)| w).sum::<u64>();
                for (node, mut group) in self.scatter(packets).into_iter().enumerate() {
                    for entry in &mut group {
                        entry.0 &= self.masks[node];
                    }
                    group.sort_unstable();
                    let mut i = 0;
                    while i < group.len() {
                        let (key, mut w) = group[i];
                        let mut j = i + 1;
                        while j < group.len() && group[j].0 == key {
                            w += group[j].1;
                            j += 1;
                        }
                        self.instances[node].add(key, w);
                        i = j;
                    }
                }
            }
        }
    }

    /// Identical RNG schedules must leave *identical* state: packets,
    /// weight, and every node's update total and full candidate vector
    /// (order included) — strictly stronger than comparing `output(θ)`.
    fn assert_matches(&self, label: &str, algo: &Rhhh<u64, E>) {
        assert_eq!(algo.packets(), self.packets, "{label}: packets");
        assert_eq!(algo.total_weight(), self.weight, "{label}: weight");
        for (node, instance) in self.instances.iter().enumerate() {
            let node = NodeId(node as u16);
            assert_eq!(
                algo.node_updates(node),
                instance.updates(),
                "{label}: update totals diverged at {node:?}"
            );
            assert_eq!(
                algo.node_candidates(node),
                instance.candidates(),
                "{label}: counter state diverged at {node:?}"
            );
        }
    }
}

/// One batch of a feed: unit keys or weighted `(key, weight)` packets.
#[derive(Clone, Copy)]
enum Batch<'a> {
    Unit(&'a [u64]),
    Weighted(&'a [(u64, u64)]),
}

/// Feeds `batches` through the production pipeline and the oracle with
/// counter `E`, then pins the two states bit-identical.
fn pin_against_oracle<E: FrequencyEstimator<u64>>(
    label: &str,
    config: RhhhConfig,
    batches: &[Batch<'_>],
) {
    let lat = Lattice::ipv4_src_dst_bytes();
    let mut algo = Rhhh::<u64, E>::new(lat.clone(), config);
    let mut oracle = Oracle::<E>::new(&lat, config);
    for &batch in batches {
        match batch {
            Batch::Unit(keys) => algo.update_batch(keys),
            Batch::Weighted(packets) => algo.update_batch_weighted(packets),
        }
        oracle.feed(batch);
    }
    oracle.assert_matches(label, &algo);
}

/// Runs [`pin_against_oracle`] for every counter whose flush hook the
/// pipeline can reach: the default (stream summary, CHK) and the
/// override (compact). Each sorts through the pipeline's radix
/// sorter on one side and `sort_unstable` on the other, so this also pins
/// the "any ascending sorter leaves identical state" hook contract.
fn pin_all_counters(label: &str, config: RhhhConfig, batches: &[Batch<'_>]) {
    use hhh_counters::{CompactSpaceSaving, CuckooHeavyKeeper, SpaceSaving};
    pin_against_oracle::<SpaceSaving<u64>>(&format!("{label}, list"), config, batches);
    pin_against_oracle::<CompactSpaceSaving<u64>>(&format!("{label}, compact"), config, batches);
    pin_against_oracle::<CuckooHeavyKeeper<u64>>(&format!("{label}, chk"), config, batches);
}

/// The chunkings each pin runs: the given fixed sizes, plus one ragged
/// schedule that varies from batch to batch — empty, single-packet,
/// draw-block-boundary and multi-block batches.
fn chunkings<T>(data: &[T], fixed: [usize; 3]) -> Vec<(String, Vec<&[T]>)> {
    const RAGGED: [usize; 8] = [1, 0, 255, 256, 257, 4_099, 17, 12_345];
    let mut out: Vec<(String, Vec<&[T]>)> = fixed
        .iter()
        .map(|&c| (format!("chunk {c}"), data.chunks(c).collect()))
        .collect();
    let (mut ragged, mut rest) = (Vec::new(), data);
    for &len in RAGGED.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(len.min(rest.len()));
        ragged.push(head);
        rest = tail;
    }
    out.push(("ragged".to_string(), ragged));
    out
}

/// The block pipeline must be *bit-identical* to the oracle given the same
/// seed and chunking — not merely equal in distribution. Pinned across
/// V ∈ {H, 10H} × r ∈ {1, 4} × four counters × fixed (whole-slice,
/// power-of-two, ragged prime) and varying chunkings.
#[test]
fn block_path_bit_identical_to_reference() {
    let keys = stream(150_000, 99);
    for v_scale in [1u64, 10] {
        for updates_per_packet in [1u32, 4] {
            for (chunking, chunks) in chunkings(&keys, [150_000, 8_192, 7_001]) {
                let config = RhhhConfig {
                    epsilon_s: 0.01,
                    epsilon_a: 0.005,
                    delta_s: 0.05,
                    v_scale,
                    updates_per_packet,
                    seed: 0xB10C,
                };
                let batches: Vec<Batch<'_>> = chunks.into_iter().map(Batch::Unit).collect();
                let label = format!("v_scale {v_scale}, r {updates_per_packet}, {chunking}");
                pin_all_counters(&label, config, &batches);
            }
        }
    }
}

/// Weighted feeds go through the same pipeline (gap draws over packet
/// indices, weights carried alongside); the weighted lane must also be
/// bit-identical to the oracle. The weighted flush never reaches the flush
/// hook (it sorts, then `add`s one run at a time), and the walk over
/// `r` draws per packet is shared with the unit lane, so the counter and
/// `r` axes stay on the unit pin; this one runs both Space Saving layouts
/// at r = 1 over the same chunkings.
#[test]
fn block_weighted_path_bit_identical_to_reference() {
    use hhh_counters::{CompactSpaceSaving, SpaceSaving};
    let mut rng = Lcg(0x00B1_0CED);
    let packets: Vec<(u64, u64)> = (0..150_000usize)
        .map(|i| {
            let key = if i % 10 < 3 {
                pack2(0x0A14_0000 | (rng.next() as u32 & 0xFFFF), 0x0808_0808)
            } else {
                pack2(rng.next() as u32, rng.next() as u32)
            };
            (key, 64 + (rng.next() % 1400))
        })
        .collect();
    for v_scale in [1u64, 10] {
        for (chunking, chunks) in chunkings(&packets, [150_000, 2_048, 7_001]) {
            let config = RhhhConfig {
                epsilon_s: 0.01,
                epsilon_a: 0.005,
                delta_s: 0.05,
                v_scale,
                updates_per_packet: 1,
                seed: 0x17E5,
            };
            let batches: Vec<Batch<'_>> = chunks.into_iter().map(Batch::Weighted).collect();
            let label = format!("weighted, v_scale {v_scale}, {chunking}");
            pin_against_oracle::<SpaceSaving<u64>>(&format!("{label}, list"), config, &batches);
            pin_against_oracle::<CompactSpaceSaving<u64>>(
                &format!("{label}, compact"),
                config,
                &batches,
            );
        }
    }
}

/// Swapping the per-node counter for the flat-arena layout changes neither
/// the selection schedule (same RNG, same draws) nor the count multisets
/// (both layouts evict true minima), so a compact-backed run must deliver
/// the same per-node update totals as a stream-summary-backed run — and
/// still find the planted attack through the batch path.
#[test]
fn compact_counter_batch_path_matches_stream_summary() {
    use hhh_counters::CompactSpaceSaving;
    for seed in [51u64, 52] {
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_s: 0.02,
            epsilon_a: 0.005,
            delta_s: 0.05,
            v_scale: 10,
            updates_per_packet: 1,
            seed,
        };
        let keys = stream(400_000, seed);
        let mut list = Rhhh::<u64>::new(lat.clone(), config);
        let mut flat = Rhhh::<u64, CompactSpaceSaving<u64>>::new(lat.clone(), config);
        for chunk in keys.chunks(8_192) {
            list.update_batch(chunk);
            flat.update_batch(chunk);
        }
        assert_eq!(
            list.total_updates(),
            flat.total_updates(),
            "seed {seed}: RNG schedules diverged"
        );
        for node in 0..25u16 {
            assert_eq!(
                list.node_updates(NodeId(node)),
                flat.node_updates(NodeId(node)),
                "seed {seed}: node {node} update totals diverged"
            );
        }
        let planted = flat
            .output(0.1)
            .iter()
            .map(|h| h.prefix.display(&lat))
            .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32"));
        assert!(planted, "seed {seed}: compact batch lost the attack");
    }
}
