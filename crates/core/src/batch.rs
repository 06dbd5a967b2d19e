//! Batch update path: geometric skip sampling + block-staged per-node
//! grouping.
//!
//! # Why a batch path exists
//!
//! The scalar [`Rhhh::update`] is already O(1) worst case, but its constant
//! is dominated by per-packet overheads that a slice-at-a-time API can
//! amortize away:
//!
//! 1. **The discarded draws.** With `V = v_scale·H`, only an `H/V` fraction
//!    of packets touch a counter, yet every packet pays a wyrand step, a
//!    Lemire bounded reduction and a branch. The batch path instead draws
//!    the *gap* to the next selected packet directly from its geometric
//!    distribution ([`GeometricSkip`]) and strides over the ignored run in
//!    O(1) — for 10-RHHH that is one RNG draw per ~10 packets instead of
//!    one per packet. The gap and node draws are themselves produced in
//!    dependency-free blocks ([`FastRng::fill_block`]) so they pipeline
//!    instead of serializing on the RNG state, and one raw draw feeds both
//!    the gap (bits 11..64) and the node choice (bits 0..11).
//! 2. **Scattered counter access.** Selected updates land on a uniformly
//!    random lattice node, so consecutive scalar updates ping-pong between
//!    `H` independent Space Saving instances (each with its own hash index
//!    and stream-summary arena — ~25 working sets for the 2D byte lattice).
//!    The batch path scatters selected keys straight into one reusable
//!    buffer per node and flushes node by node, so one instance's index
//!    and buckets stay cache-hot while it drains its group.
//! 3. **Repeated work per duplicate key.** After masking, coarse nodes
//!    collapse many packets onto few distinct keys (at the root node,
//!    *all* of them onto one). Each group is sorted so equal masked keys
//!    become runs, which [`FrequencyEstimator::increment_batch`] merges
//!    into one weighted update per distinct key — one index lookup and one
//!    bucket walk where the scalar path pays one per packet.
//!
//! # One pipeline over unit and weighted lanes, split at the flush
//!
//! Every batch entry point — [`Rhhh::update_batch`],
//! [`Rhhh::update_batch_wire`], [`Rhhh::update_batch_weighted`] and
//! [`Rhhh::update_batch_wire_weighted`] — runs the same staged pipeline
//! over *refill blocks* (up to [`DRAW_BLOCK`] selection trials at a time).
//! The pipeline is generic over its [`Lane`] element: a bare key `K` for
//! unit feeds, a `(K, weight)` pair for weighted feeds. Only the per-node
//! flush differs between the two.
//!
//! The pipeline is cut in two after the scatter. The first three stages
//! are one [`Sampler`] call: it owns the RNG, the gap sampler, the masks
//! and the lane scratch, and returns the call's per-node groups of masked
//! samples. The flush stage belongs to the counters: [`Rhhh`] embeds a
//! sampler and flushes its groups at once, while the shard fleet of
//! `hhh_vswitch` samples in its ingress and ships the groups to workers
//! that only flush ([`Rhhh::absorb`]). Flushing each call's groups in call
//! order is what the whole pipeline does, so both deployments leave the
//! counters in the same state.
//!
//! * **Draw** — one [`FastRng::fill_block`] refill produces the block's
//!   raw uniforms; the node choices are derived from their low bits in one
//!   dependency-free integer loop, the geometric gaps from their high bits
//!   in one float loop (the block evaluation of the `fast_ln` polynomial),
//!   and the selection walk reduces gaps to selected packet indices.
//!   Splitting the integer and float work into separate loops lets each
//!   pipeline saturate instead of interleaving. The gap transform draws
//!   nothing, so hoisting the node loop — including its rare Lemire
//!   rejection re-draws, which stay in trial order — leaves the RNG
//!   stream consumed in trial order.
//! * **Mask + hash** — the masked gather: `LANE_BLOCK`-wide lanes of
//!   `entry[idx] & mask[node]` written into one dense staging buffer, so
//!   no group is re-walked to mask it. The u64 lane ANDs have no
//!   cross-lane dependencies. Key hashing stays inside the counter flush
//!   (the tagged table probes with the shared [`hhh_counters::mix`] hash),
//!   which streams from the dense staged groups.
//! * **Scatter** — the staged entries are distributed into the per-node
//!   groups. The pushes are the only randomly-targeted writes left in the
//!   front end.
//! * **Flush** — each non-empty group goes to its counter instance. A unit
//!   group goes through the estimator's one hook,
//!   [`FrequencyEstimator::flush_group`], with the byte-digit radix sorter
//!   of [`crate::radix`]. A weighted group is sorted by masked key and each
//!   run becomes one [`FrequencyEstimator::add`].
//!
//! The bit-identity oracle is test code: `crates/core/tests/batch_props.rs`
//! re-implements the pre-block walk (per-selection dispatch, raw keys
//! scattered first and masked per group at flush time) from public API
//! only, and pins this pipeline bit-identical to it for every counter,
//! `V ∈ {H, 10H}`, `r ∈ {1, 4}`, unit and weighted feeds, and fixed and
//! ragged chunkings.
//!
//! # Draw-schedule caveat
//!
//! The scalar path consumes one `[0, V)` draw per packet; the batch path
//! consumes one `(0, 1]` draw per *selected* packet plus one `[0, H)` draw
//! for the node choice. Per packet both realise "select with probability
//! `H/V`, then pick a node uniformly", so every distributional statement in
//! the paper's analysis (Theorems 6.3–6.18 never look at the joint identity
//! of the underlying uniforms, only at the per-packet selection law) holds
//! verbatim for the batch path. But the same seed walks a different sample
//! path, so a batch run and a scalar run agree *statistically* — same
//! convergence bound ψ, same error guarantees — not bit-for-bit. The
//! `batch_props` suite checks this equivalence with a chi-squared test over
//! per-node update counts. The pipeline and the test-side oracle, by
//! contrast, consume the *same* draws in the same order and are
//! bit-identical.
//!
//! Within one node's group the flush handles keys in sorted rather than
//! arrival order — a tie-break Space Saving's guarantees never observe
//! (the sandwich `count − error ≤ X ≤ count` and the heavy-hitter property
//! hold for any processing order of the same multiset). Repeated runs with
//! the same seed are bit-identical.

use hhh_counters::FrequencyEstimator;
use hhh_hierarchy::{KeyBits, Lattice, NodeId};

use crate::radix::radix_sort_keys;
use crate::rhhh::{Rhhh, RhhhConfig};
use crate::sampling::{FastRng, GeometricSkip};

/// One lane type's reusable [`Sampler`] buffers, so steady-state calls
/// allocate nothing: selection scatters straight into one buffer per
/// lattice node, and the buffers keep their capacity.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Lanes<T> {
    /// Selected masked entries per node, in arrival order (lazily sized
    /// to `H`).
    groups: Vec<Vec<T>>,
    /// Dense staging for one block's masked gather.
    staged: Vec<T>,
}

impl<T> Default for Lanes<T> {
    fn default() -> Self {
        Self {
            groups: Vec::new(),
            staged: Vec::new(),
        }
    }
}

/// A lane element of the batch pipeline: a unit key `K`, or a weighted
/// `(K, u64)` pair. The two differ only in how they are masked, which
/// scratch buffers they use, and how a node's group is flushed.
pub trait Lane<K: KeyBits>: Copy {
    /// The entry's key.
    fn key(self) -> K;

    /// The entry's weight (1 for a unit key).
    fn weight(self) -> u64;

    /// The entry with its key masked to one lattice node.
    fn masked(self, mask: K) -> Self;

    /// This lane type's buffers, out of a sampler's unit and weighted ones.
    #[doc(hidden)]
    fn lanes<'a>(unit: &'a mut Lanes<K>, weighted: &'a mut Lanes<(K, u64)>) -> &'a mut Lanes<Self>;

    /// Hands one node's non-empty group to its counter instance.
    #[doc(hidden)]
    fn flush<E: FrequencyEstimator<K>>(instance: &mut E, group: &mut [Self], radix: &mut Vec<K>);
}

impl<K: KeyBits> Lane<K> for K {
    #[inline(always)]
    fn key(self) -> K {
        self
    }

    #[inline(always)]
    fn weight(self) -> u64 {
        1
    }

    #[inline(always)]
    fn masked(self, mask: K) -> Self {
        self.and(mask)
    }

    fn lanes<'a>(unit: &'a mut Lanes<K>, _: &'a mut Lanes<(K, u64)>) -> &'a mut Lanes<K> {
        unit
    }

    /// The estimator's one flush hook, sorting with the byte-digit radix
    /// sorter. It skips the byte positions a node's mask zeroed and yields
    /// `sort_unstable`'s ascending order, so the state is bit-identical to
    /// a comparison-sorted flush. The estimator still owns the ordering
    /// decision (the flat arena may skip the sort on hit-heavy nodes) and
    /// the license to batch evictions; see the `flush_group` contract.
    #[inline]
    fn flush<E: FrequencyEstimator<K>>(instance: &mut E, group: &mut [K], radix: &mut Vec<K>) {
        instance.flush_group(group, &mut |g| radix_sort_keys(g, radix));
    }
}

impl<K: KeyBits> Lane<K> for (K, u64) {
    #[inline(always)]
    fn key(self) -> K {
        self.0
    }

    #[inline(always)]
    fn weight(self) -> u64 {
        self.1
    }

    #[inline(always)]
    fn masked(self, mask: K) -> Self {
        (self.0.and(mask), self.1)
    }

    fn lanes<'a>(_: &'a mut Lanes<K>, weighted: &'a mut Lanes<(K, u64)>) -> &'a mut Lanes<Self> {
        weighted
    }

    /// Sorts by masked key and merges each run into one `add`.
    #[inline]
    fn flush<E: FrequencyEstimator<K>>(instance: &mut E, group: &mut [Self], _: &mut Vec<K>) {
        group.sort_unstable();
        for run in group.chunk_by(|a, b| a.0 == b.0) {
            instance.add(run[0].0, run.iter().map(|&(_, w)| w).sum());
        }
    }
}

/// Draws consumed per refill of the selection walk's scratch blocks — the
/// granularity at which the staged pipeline operates.
const DRAW_BLOCK: usize = 256;

/// Lane width of the masked-key gather: the gather runs in fixed blocks of
/// this many keys so the bitwise-AND lanes unroll with no per-element
/// bounds or capacity checks.
const LANE_BLOCK: usize = 16;

/// Exact Lemire bounded draw from one pre-generated uniform; the rejection
/// branch (probability `h / 2^64`) falls back to a fresh serial draw, so
/// the result is unbiased.
#[inline(always)]
fn node_from(x: u64, h: u64, rng: &mut FastRng) -> u16 {
    let m = u128::from(x) * u128::from(h);
    let low = m as u64;
    if low < h {
        let threshold = h.wrapping_neg() % h;
        if low < threshold {
            return rng.bounded(h) as u16;
        }
    }
    (m >> 64) as u16
}

/// Walks `draws` Bernoulli(`H/V`) trials with the geometric gap sampler
/// and invokes `on_block(selected_draw_indices, nodes)` once per refill
/// block with that block's selected trials, in order.
///
/// This is the Draw stage of the block pipeline: one RNG block refill,
/// one integer loop deriving the node choices (the only consumer of
/// further serial draws, via the rare Lemire rejection), one float loop
/// converting gaps, and the selection walk that accumulates gaps into
/// draw indices. It consumes the RNG stream in the same order as a
/// per-trial walk would — same refill sizes, same rejection draws in the
/// same trial order — which the `batch_props` oracle pins.
#[inline]
fn for_each_selected_blocks<S>(
    skip: &GeometricSkip,
    rng: &mut FastRng,
    h: u64,
    v: u64,
    draws: u64,
    mut on_block: S,
) where
    S: FnMut(&[u64], &[u16]),
{
    if draws == 0 {
        return;
    }
    let mut raw = [0u64; DRAW_BLOCK];
    let mut nodes = [0u16; DRAW_BLOCK];
    let mut idx = [0u64; DRAW_BLOCK];

    if skip.selects_all() {
        // V = H: every trial is selected; only node choices are needed.
        let mut cur = 0u64;
        while cur < draws {
            let take = ((draws - cur) as usize).min(DRAW_BLOCK);
            rng.fill_block(&mut raw[..take]);
            for j in 0..take {
                nodes[j] = node_from(raw[j], h, rng);
                idx[j] = cur + j as u64;
            }
            on_block(&idx[..take], &nodes[..take]);
            cur += take as u64;
        }
        return;
    }

    let inv_p = (v / h).max(1); // expected draws per selection ≈ V/H
    let mut cur = 0u64;
    loop {
        // Size the refill to the expected remaining selections (plus
        // slack) so a tail refill doesn't draw a full block for a handful
        // of survivors.
        let expect = (draws - cur) / inv_p + 8;
        let len = (expect as usize).min(DRAW_BLOCK);
        rng.fill_block(&mut raw[..len]);
        if h < (1 << 11) {
            // One raw draw yields both the trial's node (bits 0..11,
            // exact 11-bit Lemire whose rare rejection — probability
            // (2^11 mod h)/2^11 — falls back to a fresh serial draw) and
            // its gap (bits 11..64). Node derivation runs first: the gap
            // transform overwrites the raw draws in place and consumes no
            // RNG, so the rejection draws keep their trial order.
            let threshold = (1u64 << 11) % h;
            for j in 0..len {
                let m = (raw[j] & 0x7FF) * h;
                nodes[j] = if (m & 0x7FF) < threshold {
                    rng.bounded(h) as u16
                } else {
                    (m >> 11) as u16
                };
            }
            skip.gaps_from_block(&mut raw[..len]);
        } else {
            // Very deep hierarchies: separate node draws, taken *after*
            // the gap block like the reference path.
            skip.gaps_from_block(&mut raw[..len]);
            let mut node_raw = [0u64; DRAW_BLOCK];
            rng.fill_block(&mut node_raw[..len]);
            for j in 0..len {
                nodes[j] = node_from(node_raw[j], h, rng);
            }
        }
        // The walk: every consumed trial is one selection until the draw
        // budget runs out mid-block (leftover trials are discarded, as in
        // the reference).
        let mut m = 0usize;
        let mut done = false;
        for &gap in &raw[..len] {
            cur += gap;
            if cur >= draws {
                done = true;
                break;
            }
            idx[m] = cur;
            m += 1;
            cur += 1;
        }
        if m > 0 {
            on_block(&idx[..m], &nodes[..m]);
        }
        if done {
            return;
        }
    }
}

/// The Mask+hash stage: gathers `entry_at(idx/r)` masked to `masks[node]`
/// for one block into the dense staging buffer, [`LANE_BLOCK`] lanes at a
/// time. The lane loops index fixed-size chunks, so they compile to
/// straight-line loads and ANDs with no capacity or bounds checks.
#[inline]
fn gather_masked<K: KeyBits, T: Lane<K>>(
    r: u64,
    idx: &[u64],
    nodes: &[u16],
    masks: &[K],
    out: &mut Vec<T>,
    entry_at: impl Fn(usize) -> T,
) {
    let m = idx.len();
    out.clear();
    out.reserve(m);
    let lanes = m - m % LANE_BLOCK;
    for (ic, nc) in idx[..lanes]
        .chunks_exact(LANE_BLOCK)
        .zip(nodes[..lanes].chunks_exact(LANE_BLOCK))
    {
        for l in 0..LANE_BLOCK {
            let packet = if r == 1 { ic[l] } else { ic[l] / r } as usize;
            out.push(entry_at(packet).masked(masks[nc[l] as usize]));
        }
    }
    for j in lanes..m {
        let packet = if r == 1 { idx[j] } else { idx[j] / r } as usize;
        out.push(entry_at(packet).masked(masks[nodes[j] as usize]));
    }
}

/// The draw/mask/scatter half of the batch pipeline: it turns a slice of
/// packets into per-node groups of masked samples, and owns everything
/// that takes (the RNG, the geometric gap sampler, the node masks and the
/// lane scratch) but no counter. [`Rhhh`] embeds one and flushes its
/// groups straight into its instances. A shard fleet's ingress holds one
/// on its own, routes the groups' entries to the workers, and the workers
/// run only the flush half, [`Rhhh::absorb`].
#[derive(Debug, Clone)]
pub struct Sampler<K> {
    /// Node masks in node order.
    pub(crate) masks: Vec<K>,
    pub(crate) h: u64,
    pub(crate) v: u64,
    /// Independent draws per packet (`r`).
    r: u64,
    pub(crate) rng: FastRng,
    /// Precomputed `H/V` selection constants: the geometric gap sampler
    /// caches `1/ln(1 - H/V)` so per-call work never recomputes it.
    skip: GeometricSkip,
    unit: Lanes<K>,
    weighted: Lanes<(K, u64)>,
}

impl<K: KeyBits> Sampler<K> {
    /// A sampler for `lattice` drawing `V = v_scale·H` and `r` from
    /// `config`, seeded with `config.seed`: the draws an [`Rhhh`] built
    /// from the same pair makes.
    #[must_use]
    pub fn new(lattice: &Lattice<K>, config: &RhhhConfig) -> Self {
        let h = lattice.num_nodes() as u64;
        let v = config.v_scale * h;
        Self {
            masks: lattice.node_ids().map(|n| lattice.mask(n)).collect(),
            h,
            v,
            r: u64::from(config.updates_per_packet),
            rng: FastRng::new(config.seed),
            skip: GeometricSkip::new(h, v),
            unit: Lanes::default(),
            weighted: Lanes::default(),
        }
    }

    /// Restarts the draw stream from `seed`, as a fresh instance built
    /// with that seed would draw.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = FastRng::new(seed);
    }

    /// One sampler call over an indexable lane of `packets` entries: the
    /// Draw, Mask+hash and Scatter stages of the module docs. Returns the
    /// `H` per-node groups of masked selected entries (index = node), in
    /// arrival order; they stay valid until the next call.
    pub fn sample<T: Lane<K>>(
        &mut self,
        packets: usize,
        entry_at: impl Fn(usize) -> T,
    ) -> &mut [Vec<T>] {
        let r = self.r;
        let draws = packets as u64 * r;
        let h = self.h as usize;
        let Lanes { groups, staged } = T::lanes(&mut self.unit, &mut self.weighted);
        if groups.len() < h {
            groups.resize_with(h, Vec::new);
        }
        for buf in &mut groups[..h] {
            buf.clear();
        }
        let masks = &self.masks;
        for_each_selected_blocks(
            &self.skip,
            &mut self.rng,
            self.h,
            self.v,
            draws,
            |idx, nodes| {
                gather_masked(r, idx, nodes, masks, staged, &entry_at);
                for (&node, &entry) in nodes.iter().zip(staged.iter()) {
                    groups[node as usize].push(entry);
                }
            },
        );
        &mut groups[..h]
    }
}

impl<K: KeyBits, E: FrequencyEstimator<K>> Rhhh<K, E> {
    /// Algorithm 1 `Update` over a whole packet slice — statistically
    /// identical to calling [`Rhhh::update`] per element (see the
    /// [module docs](self) for the exact sense of "identical"), at a
    /// fraction of the cost when `V > H`.
    ///
    /// Runs the staged block pipeline of the module docs: block-generated
    /// draws, a lane-wise masked gather (masking fused into the gather, so
    /// no group is re-walked to mask it), per-node scatter, and a sorted
    /// flush — ordered by the constant-byte-skipping radix sort of
    /// [`crate::radix`] — that merges duplicate masked keys into one
    /// weighted [`FrequencyEstimator`] update each.
    pub fn update_batch(&mut self, keys: &[K]) {
        self.pipeline(keys.len(), keys.len() as u64, |packet| keys[packet]);
    }

    /// Zero-copy wire entry point: [`Rhhh::update_batch`] over a *virtual*
    /// key lane. `key_at(i)` returns the key of packet `i` — typically a
    /// fixed-offset big-endian load straight out of a raw frame buffer —
    /// so no key slice is ever materialized.
    ///
    /// **Bit-identity argument.** The RNG consumption schedule of the
    /// block pipeline depends only on the packet *count* (`draws` blocks
    /// of geometric gaps), never on key values, and the masked gather
    /// applies `key_at` at exactly the positions the struct-fed path
    /// indexes its slice. Feeding `n` frames here is therefore
    /// bit-identical to extracting the same `n` keys first and calling
    /// [`Rhhh::update_batch`] — the property suite pins this over raw
    /// frames, both counter layouts, V ∈ {H, 10H} and chunkings.
    ///
    /// With `V = 10H` only ~`n·H/V` packets are selected at all, so the
    /// wire path touches only ~a tenth of the frame bytes — ingest
    /// bandwidth inherits the paper's sampling discount.
    pub fn update_batch_wire<F>(&mut self, packets: usize, key_at: F)
    where
        F: Fn(usize) -> K,
    {
        self.pipeline(packets, packets as u64, key_at);
    }

    /// Weighted batch update: the batch counterpart of
    /// [`Rhhh::update_weighted`]. Each element is one packet carrying
    /// `weight` units (e.g. bytes); selection stays per *packet*, and a
    /// selected packet records its full weight at the chosen node. Runs
    /// the same staged block pipeline as [`Rhhh::update_batch`].
    pub fn update_batch_weighted(&mut self, packets: &[(K, u64)]) {
        self.pipeline(
            packets.len(),
            packets.iter().map(|&(_, w)| w).sum(),
            |packet| packets[packet],
        );
    }

    /// Volume-weighted wire entry point: like [`Rhhh::update_batch_wire`]
    /// but each packet carries its on-wire byte length from the dense
    /// `wire_len` side lane (which frame blocks maintain at emission, so
    /// weighting costs no parsing). Bit-identical to zipping the same
    /// keys and lengths into pairs and calling
    /// [`Rhhh::update_batch_weighted`] — same argument as the unit path:
    /// the RNG schedule depends only on the packet count.
    pub fn update_batch_wire_weighted<F>(&mut self, wire_len: &[u32], key_at: F)
    where
        F: Fn(usize) -> K,
    {
        self.pipeline(
            wire_len.len(),
            wire_len.iter().map(|&w| u64::from(w)).sum(),
            |packet| (key_at(packet), u64::from(wire_len[packet])),
        );
    }

    /// The flush half of the pipeline on its own: hands one node's group
    /// of masked samples, as one [`Sampler::sample`] call grouped them, to
    /// that node's counter instance. Flushing each call's groups
    /// separately, in call order, leaves the instances exactly as
    /// [`Rhhh::update_batch`] over the same calls would. The packet and
    /// weight totals are not touched; see [`Rhhh::note_totals`].
    pub fn absorb<T: Lane<K>>(&mut self, node: NodeId, group: &mut [T]) {
        if !group.is_empty() {
            T::flush(&mut self.instances[node.index()], group, &mut self.radix);
        }
    }

    /// The one body behind every batch entry point: one call of the
    /// embedded [`Sampler`], then the flush of its groups. `added_weight`
    /// must be the sum of all entry weights (selection is per packet, but
    /// the total-weight accounting covers unselected packets too).
    fn pipeline<T: Lane<K>>(
        &mut self,
        packets: usize,
        added_weight: u64,
        entry_at: impl Fn(usize) -> T,
    ) {
        self.packets += packets as u64;
        self.weight += added_weight;
        let groups = self.sampler.sample(packets, entry_at);

        // Flush node by node, so one instance's state stays cache-hot
        // while it drains its group.
        for (instance, group) in self.instances.iter_mut().zip(groups) {
            if group.is_empty() {
                continue;
            }
            T::flush(instance, group, &mut self.radix);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{HhhAlgorithm, Rhhh, RhhhConfig};
    use hhh_hierarchy::{pack2, Lattice};

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

    #[test]
    fn batch_update_rate_is_h_over_v() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut algo = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
        let keys = stream(200_000, 7);
        for chunk in keys.chunks(4_096) {
            algo.update_batch(chunk);
        }
        assert_eq!(algo.packets(), 200_000);
        assert_eq!(algo.total_weight(), 200_000);
        let rate = algo.total_updates() as f64 / 200_000.0;
        assert!((rate - 0.1).abs() < 0.01, "update rate {rate}");
    }

    #[test]
    fn batch_v_equals_h_updates_every_packet() {
        let lat = Lattice::ipv4_src_bytes();
        let mut algo = Rhhh::<u32>::new(lat, RhhhConfig::default());
        let keys: Vec<u32> = stream(50_000, 2).iter().map(|&k| k as u32).collect();
        algo.update_batch(&keys);
        assert_eq!(algo.total_updates(), 50_000, "V = H never skips");
    }

    #[test]
    fn batch_finds_planted_hhh() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut algo = Rhhh::<u64>::new(
            lat,
            RhhhConfig {
                epsilon_s: 0.02,
                epsilon_a: 0.005,
                delta_s: 0.05,
                ..RhhhConfig::default()
            },
        );
        let keys = stream(400_000, 4);
        for chunk in keys.chunks(1_024) {
            algo.update_batch(chunk);
        }
        assert!(algo.converged());
        let lat = algo.lattice().clone();
        let rendered: Vec<String> = algo
            .output(0.1)
            .iter()
            .map(|h| h.prefix.display(&lat))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32")),
            "missing planted HHH in {rendered:?}"
        );
    }

    #[test]
    fn batch_deterministic_given_seed_and_chunking() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let keys = stream(100_000, 9);
        let mut a = Rhhh::<u64>::new(lat.clone(), RhhhConfig::ten_rhhh());
        let mut b = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
        a.update_batch(&keys);
        b.update_batch(&keys);
        assert_eq!(a.total_updates(), b.total_updates());
        let (oa, ob) = (a.output(0.05), b.output(0.05));
        assert_eq!(oa.len(), ob.len());
        for (x, y) in oa.iter().zip(&ob) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.freq_upper, y.freq_upper);
        }
    }

    #[test]
    fn batch_multi_update_draws_r_per_packet() {
        let lat = Lattice::ipv4_src_bytes();
        let mut algo = Rhhh::<u32>::new(
            lat,
            RhhhConfig {
                updates_per_packet: 4,
                v_scale: 10,
                ..RhhhConfig::default()
            },
        );
        let keys: Vec<u32> = stream(200_000, 5).iter().map(|&k| k as u32).collect();
        algo.update_batch(&keys);
        // r = 4 draws per packet at selection rate 1/10 → ~0.4 updates/pkt.
        let rate = algo.total_updates() as f64 / 200_000.0;
        assert!((rate - 0.4).abs() < 0.02, "rate {rate}");
        assert_eq!(algo.packets(), 200_000);
    }

    #[test]
    fn batch_weighted_records_volume() {
        let lat = Lattice::ipv4_src_bytes();
        let mut algo = Rhhh::<u32>::new(
            lat,
            RhhhConfig {
                epsilon_s: 0.05,
                delta_s: 0.05,
                ..RhhhConfig::default()
            },
        );
        let n = 200_000usize;
        let heavy = u32::from_be_bytes([7, 7, 7, 7]);
        let mut rng = Lcg(31);
        let mut volume = 0u64;
        let packets: Vec<(u32, u64)> = (0..n)
            .map(|i| {
                let p = if i % 10 == 0 {
                    (heavy, 1400)
                } else {
                    (rng.next() as u32, 64)
                };
                volume += p.1;
                p
            })
            .collect();
        for chunk in packets.chunks(2_048) {
            algo.update_batch_weighted(chunk);
        }
        assert_eq!(algo.total_weight(), volume);
        assert_eq!(algo.packets(), n as u64);
        let out = algo.output(0.3);
        let lat_bottom = algo.lattice().bottom();
        let entry = out
            .iter()
            .find(|h| h.prefix.key == heavy && h.prefix.node == lat_bottom)
            .expect("volume-heavy flow reported");
        let truth = (n as u64 / 10 * 1400) as f64;
        assert!(
            (entry.freq_upper - truth).abs() < 0.2 * truth,
            "estimate {} vs volume {truth}",
            entry.freq_upper
        );
    }

    #[test]
    fn empty_and_tiny_batches_are_safe() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut algo = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
        algo.update_batch(&[]);
        algo.update_batch_weighted(&[]);
        assert_eq!(algo.packets(), 0);
        for i in 0..1_000u64 {
            algo.update_batch(&[i]); // single-element batches
        }
        assert_eq!(algo.packets(), 1_000);
    }

    #[test]
    fn batch_and_scalar_interleave() {
        // Mixing the two paths on one instance keeps counts coherent.
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut algo = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
        let keys = stream(60_000, 11);
        for (i, chunk) in keys.chunks(10_000).enumerate() {
            if i % 2 == 0 {
                algo.update_batch(chunk);
            } else {
                for &k in chunk {
                    algo.update(k);
                }
            }
        }
        assert_eq!(algo.packets(), 60_000);
        let rate = algo.total_updates() as f64 / 60_000.0;
        assert!((rate - 0.1).abs() < 0.015, "rate {rate}");
    }
}
