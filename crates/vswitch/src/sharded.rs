//! Shard-parallel RHHH, the paper's §5.2 integration: sample at ingress,
//! route the samples by key hash to worker threads that only flush, and
//! combine on query — one fleet for flat, windowed and distributed
//! deployments.
//!
//! Section 5.2: "HHH measurement can be performed in a separate virtual
//! machine … When RHHH operates with V > H, we only forward the sampled
//! packets and thus reduce overheads." The fleet works that way at any
//! shard count K:
//!
//! 1. **Sample.** The ingress thread holds one [`Sampler`], the
//!    draw/mask/scatter half of the batch pipeline, seeded with
//!    `config.seed`. Every feed call (split at pane boundaries) is one
//!    sampler call; its output is the call's per-node groups of masked
//!    samples, only the `H/V` selected fraction of the packets.
//! 2. **Route.** Each sampled entry goes to shard
//!    [`shard_of`]`(masked key)`, so every masked key lands wholly in one
//!    shard, and each shard holds a key-partitioned slice of every node's
//!    summary. A shard's outbox keeps the node groups of every call
//!    apart, in call order.
//! 3. **Flush.** Once an outbox holds `batch` samples the ingress hands
//!    every shard its outbox, in lockstep, over the shard's ring
//!    ([`crate::handoff`]). Each send is **stamped** with the packets and
//!    weight fed into the current pane so far. A worker flushes each
//!    call's node groups with [`Rhhh::absorb`] into the active pane of its
//!    [`PaneRing`] and takes the stamp as that pane's `N` and `W`.
//!
//! At K = 1 this is exactly [`Rhhh::update_batch`] over the same calls:
//! the same draws, the same groups, the same flush order. Figure 8's
//! single measurement VM is this fleet at K = 1.
//!
//! **Windows.** The flat fleet ([`ShardedMonitor::spawn`]) never rotates.
//! The windowed fleet ([`ShardedMonitor::spawn_windowed`]) rotates every
//! `⌈W/G⌉` *global* packets: the ingress hands off every outbox, sends a
//! rotation marker down each ring, and reseeds its sampler exactly as
//! [`PaneRing::rotate`] seeds a fresh pane. So at K = 1 the fleet's panes
//! are a [`hhh_core::WindowedRhhh`]'s panes.
//!
//! **One combine.** [`ShardedMonitor::query`],
//! [`ShardedMonitor::query_coverage`] and [`ShardedMonitor::harvest`]
//! merge the same way: every shard's slices of the panes all shards have
//! reached (the retained completed panes, or the active pane before the
//! first rotation) go into one K·G-way combine in shard order. A pane's
//! `N` and `W` are the smallest stamp among its slices, the totals every
//! slice has absorbed, and they are summed over panes, never over shards.
//! Per-slice counter errors add, which is the Mitzenmacher–Steinke–Thaler
//! Space Saving merge: `Σᵢ nᵢ/m = n/m`, the same ε_a class as one
//! instance. Every slice is frozen, and every answer is the read-only
//! [`FrozenRhhh`] that [`Rhhh::try_combine`] builds from the slices: the
//! latest snapshots' for live queries, the joined rings' for the harvest.
//!
//! **The query plane never joins or blocks the workers.** Each worker
//! publishes an epoch-stamped snapshot of its frozen slices through an
//! atomically swappable pointer (`arc-swap`): every `publish_every`
//! batches for the flat fleet, at every pane rotation for the windowed
//! one, on [`ShardedMonitor::publish_now`] markers, and once at exit.
//! Publishing copies no live state — the flat fleet freezes its active
//! pane ([`Rhhh::freeze`]), the windowed fleet shares the `Arc`s of the
//! panes its ring froze at rotation — so the harvest is the same whether
//! or when queries ran. A live `query(θ)` combines the latest snapshots'
//! slices and caches the view keyed by the epoch vector, so repeated
//! queries between publications cost one `Output(θ)` scan.
//! [`ShardedMonitor::is_fresh`] tells when every shard has published
//! after the last marker.

use std::sync::Arc;
use std::thread::JoinHandle;

use arc_swap::ArcSwap;
use hhh_core::{
    pane_seed, FrozenRhhh, HeavyHitter, Lane, MergeError, PaneRing, Rhhh, RhhhConfig, Sampler,
};
use hhh_counters::{FrequencyEstimator, SpaceSaving};
use hhh_hierarchy::{KeyBits, Lattice, NodeId};

use crate::datapath::DataplaneMonitor;
use crate::handoff::{
    conduit, join_shards, ring_slots, spawn_named, HandoffStats, ShardTx, SpawnError, SpawnOptions,
};

/// The canonical key-hash routing, re-exported so fleet users (and
/// replays of the fleet) need not reach into `hhh-hierarchy` for it.
pub use hhh_hierarchy::shard_of;

/// Packets the per-packet feed ([`ShardedMonitor::update`]) buffers into
/// one sampler call.
const PACKET_CALL: usize = 4_096;

/// One worker's published view of its sub-stream, swapped atomically into
/// the monitor-visible slot so readers never block the worker.
///
/// `epoch` increments with every publication (the initial empty snapshot
/// is epoch 0), so the query cache can detect staleness by comparing
/// epoch vectors. A query made after this snapshot reflects every batch
/// the worker flushed before publishing it, and is stale by at most one
/// publication interval.
#[derive(Debug)]
struct ShardSnapshot<K: KeyBits> {
    /// Publication sequence number (0 = the pre-feed empty snapshot).
    epoch: u64,
    /// [`ShardMsg::Publish`] markers the worker had consumed when it
    /// published this snapshot.
    markers: u64,
    /// Global index of the first pane in `panes`.
    first_pane: u64,
    /// The worker's frozen slices of the panes its answer covers, oldest
    /// first: the retained completed panes, or the active pane before the
    /// first rotation. Each slice's `N` and `W` are the last stamp it
    /// absorbed.
    panes: Vec<Arc<FrozenRhhh<K>>>,
}

/// Where a shard's sampled entries wait for the next hand-off: the node
/// groups of every sampler call, in call order, over both lanes.
#[derive(Debug)]
struct Outbox<K> {
    keys: Vec<K>,
    pairs: Vec<(K, u64)>,
    /// One run per non-empty node group: its node, its lane, and the end
    /// of its entries in that lane's store.
    runs: Vec<Run>,
}

impl<K> Default for Outbox<K> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            pairs: Vec::new(),
            runs: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Run {
    node: u16,
    weighted: bool,
    end: u32,
}

/// A lane the fleet routes: names its entry store in an [`Outbox`].
trait Routed<K: KeyBits>: Lane<K> {
    const WEIGHTED: bool;
    fn store(out: &mut Outbox<K>) -> &mut Vec<Self>;
}

impl<K: KeyBits> Routed<K> for K {
    const WEIGHTED: bool = false;
    fn store(out: &mut Outbox<K>) -> &mut Vec<K> {
        &mut out.keys
    }
}

impl<K: KeyBits> Routed<K> for (K, u64) {
    const WEIGHTED: bool = true;
    fn store(out: &mut Outbox<K>) -> &mut Vec<(K, u64)> {
        &mut out.pairs
    }
}

impl<K: KeyBits> Outbox<K> {
    fn len(&self) -> usize {
        self.keys.len() + self.pairs.len()
    }

    /// Closes `node`'s group of the current call: records a run if
    /// entries of `T`'s lane arrived since that lane's last run.
    fn close_run<T: Routed<K>>(&mut self, node: usize) {
        let end = T::store(self).len() as u32;
        let start = self
            .runs
            .iter()
            .rev()
            .find(|r| r.weighted == T::WEIGHTED)
            .map_or(0, |r| r.end);
        if end > start {
            self.runs.push(Run {
                node: node as u16,
                weighted: T::WEIGHTED,
                end,
            });
        }
    }

    /// Flushes every run into `pane`, in call order.
    fn flush_into<E: FrequencyEstimator<K>>(mut self, pane: &mut Rhhh<K, E>) {
        let (mut keys, mut pairs) = (0, 0);
        for run in &self.runs {
            let (node, end) = (NodeId(run.node), run.end as usize);
            if run.weighted {
                pane.absorb(node, &mut self.pairs[pairs..end]);
                pairs = end;
            } else {
                pane.absorb(node, &mut self.keys[keys..end]);
                keys = end;
            }
        }
    }
}

/// The ingress totals of the current pane.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    packets: u64,
    weight: u64,
}

/// One hand-off unit on a shard's ring, drained in arrival order. The
/// markers ride the same FIFO ring, so each takes effect after every
/// batch sent before it.
#[derive(Debug)]
enum ShardMsg<K> {
    /// Sampled node groups, stamped with the pane's totals at the send.
    Samples(Outbox<K>, Stamp),
    /// Global pane boundary: complete the active pane, then publish.
    Rotate,
    /// Publication marker: the worker publishes a fresh snapshot now.
    Publish,
    /// Failure-injection poison: the worker panics on receipt. Only ever
    /// sent by [`ShardedMonitor::inject_shard_failure`] (chaos tests).
    Poison,
}

/// The frozen slices a ring's answer covers, oldest first, and the global
/// index of the first: the retained completed panes, whose `Arc`s the ring
/// froze at rotation, or before the first rotation the active pane, frozen
/// here. Live queries and [`ShardedMonitor::harvest`] share this coverage
/// rule, so they agree on semantics.
fn covered<K: KeyBits, E: FrequencyEstimator<K>>(
    ring: &PaneRing<K, E>,
) -> (u64, Vec<Arc<FrozenRhhh<K>>>) {
    let rotations = ring.rotations();
    if rotations == 0 {
        (0, vec![Arc::new(ring.active().freeze())])
    } else {
        let first = rotations - ring.completed_len() as u64;
        (first, ring.completed().cloned().collect())
    }
}

/// Stores a fresh epoch-stamped snapshot of the slices the ring's answer
/// covers, recording the markers consumed so far.
fn publish<K: KeyBits, E: FrequencyEstimator<K>>(
    slot: &ArcSwap<ShardSnapshot<K>>,
    epoch: &mut u64,
    markers: u64,
    ring: &PaneRing<K, E>,
) {
    *epoch += 1;
    let (first_pane, panes) = covered(ring);
    slot.store(Arc::new(ShardSnapshot {
        epoch: *epoch,
        markers,
        first_pane,
        panes,
    }));
}

/// One shard's frozen slices, oldest first, with the global index of the
/// first.
type Slices<'a, K> = (u64, &'a [Arc<FrozenRhhh<K>>]);

/// The panes every shard has reached, `lo..hi`, and their summed totals:
/// each pane's `N` and `W` are the smallest stamp among its slices (what
/// every slice has absorbed), summed over panes, never over shards.
fn shared_panes<K: KeyBits>(shards: &[Slices<'_, K>]) -> (std::ops::Range<u64>, u64, u64) {
    let lo = shards.iter().map(|(first, _)| *first).max().unwrap_or(0);
    let hi = shards
        .iter()
        .map(|(first, panes)| first + panes.len() as u64)
        .min()
        .unwrap_or(0);
    let (mut packets, mut weight) = (0, 0);
    for pane in lo..hi {
        let slices = || shards.iter().map(|(first, p)| &p[(pane - first) as usize]);
        packets += slices().map(|s| s.packets()).min().unwrap_or(0);
        weight += slices().map(|s| s.total_weight()).min().unwrap_or(0);
    }
    (lo..hi, packets, weight)
}

/// The one combine behind every answer — live queries over the latest
/// snapshots and the harvest over the joined rings: every shard's frozen
/// slices of the panes all shards have reached, in shard order, in one
/// [`Rhhh::try_combine`] by `E`'s combine rule, with the totals of
/// [`shared_panes`]. No live summary is built.
fn view<K: KeyBits, E: FrequencyEstimator<K>>(
    shards: &[Slices<'_, K>],
) -> Result<FrozenRhhh<K>, MergeError> {
    let (span, packets, weight) = shared_panes(shards);
    if span.is_empty() {
        // The shards share no pane yet: an empty answer.
        let any = &shards[0].1[0];
        return Ok(Rhhh::<K, E>::new(any.lattice().clone(), *any.config()).freeze());
    }
    let slices: Vec<&FrozenRhhh<K>> = shards
        .iter()
        .flat_map(|(first, panes)| {
            panes[(span.start - first) as usize..(span.end - first) as usize]
                .iter()
                .map(|p| &**p)
        })
        .collect();
    let mut view = Rhhh::<K, E>::try_combine(&slices)?;
    view.note_totals(packets, weight);
    Ok(view)
}

/// [`view`] of the latest snapshots, whose slices one fleet built from one
/// configuration.
fn snapshot_view<K: KeyBits, E: FrequencyEstimator<K>>(
    snaps: &[Arc<ShardSnapshot<K>>],
) -> FrozenRhhh<K> {
    let shards: Vec<Slices<'_, K>> = snaps
        .iter()
        .map(|snap| (snap.first_pane, &snap.panes[..]))
        .collect();
    view::<K, E>(&shards).expect("one fleet's slices share one configuration")
}

/// How a fleet's worker rings turn over and publish.
#[derive(Debug, Clone, Copy)]
struct Cadence {
    /// Global packets per pane; `u64::MAX` never rotates (the flat fleet).
    pane_len: u64,
    /// Completed panes each ring retains.
    keep: usize,
    /// Batches between automatic publications; `u64::MAX` publishes only
    /// at rotations and markers (the windowed fleet).
    publish_every: u64,
}

/// Shard-parallel RHHH monitor: an ingress sampler plus `K` worker
/// threads, each owning one [`PaneRing`] that flushes the samples routed
/// to it, combined into one read-only view at query and harvest time.
///
/// Create with [`ShardedMonitor::spawn`] (or [`ShardedMonitor::spawn_with`]
/// for the publication interval) for the whole-stream answer, or with
/// [`ShardedMonitor::spawn_windowed`] for the sliding-window answer over
/// the last `W` packets. Feed packets via [`ShardedMonitor::update_batch`],
/// [`ShardedMonitor::update_batch_weighted`] or one at a time with
/// [`ShardedMonitor::update`] (or as a [`DataplaneMonitor`]), query the
/// live snapshot plane with [`ShardedMonitor::query`] at any time, then
/// [`ShardedMonitor::harvest`] to join the workers and obtain the final
/// read-only view.
///
/// Generic over the per-node counter like [`Rhhh`] itself.
#[derive(Debug)]
pub struct ShardedMonitor<K: KeyBits = u64, E: FrequencyEstimator<K> = SpaceSaving<K>> {
    senders: Vec<ShardTx<ShardMsg<K>>>,
    handles: Vec<JoinHandle<PaneRing<K, E>>>,
    snapshots: Vec<Arc<ArcSwap<ShardSnapshot<K>>>>,
    stats: Vec<HandoffStats>,
    sampler: Sampler<K>,
    outs: Vec<Outbox<K>>,
    /// Packets of the per-packet feed not yet sampled.
    pending: Vec<K>,
    batch: usize,
    packets: u64,
    /// Total recorded weight (equals `packets` when only the unit feed is
    /// used).
    weight: u64,
    /// Global rotation period `⌈W/G⌉` in packets; `u64::MAX` (never) for
    /// the flat fleet.
    pane_len: u64,
    /// The current pane's ingress totals, the stamp of the next send.
    pane: Stamp,
    /// Whether the current pane took packets since the last send.
    unsent: bool,
    rotations: u64,
    /// [`ShardMsg::Publish`] markers sent so far.
    markers: u64,
    seed: u64,
    /// Live-query view cache keyed by the snapshot epoch vector; stays
    /// valid until any shard publishes again.
    query_cache: Option<(Vec<u64>, FrozenRhhh<K>)>,
    label: String,
}

impl<K: KeyBits, E: FrequencyEstimator<K>> ShardedMonitor<K, E> {
    /// Spawns `shards` worker threads behind an ingress sampler seeded
    /// with `config.seed`, handing each shard its sampled entries once
    /// some shard has `batch` samples waiting. Uses the default
    /// [`SpawnOptions`] (snapshot every 8 batches).
    ///
    /// # Errors
    ///
    /// [`SpawnError`] when the OS refuses to start a worker thread.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `batch` is zero.
    pub fn spawn(
        lattice: Lattice<K>,
        config: RhhhConfig,
        shards: usize,
        batch: usize,
    ) -> Result<Self, SpawnError> {
        Self::spawn_with(lattice, config, shards, batch, SpawnOptions::default())
    }

    /// [`ShardedMonitor::spawn`] with an explicit publication interval.
    /// Worker threads are named `shard-{i}`.
    ///
    /// # Errors
    ///
    /// [`SpawnError`] when the OS refuses to start a worker thread.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `batch` is zero.
    pub fn spawn_with(
        lattice: Lattice<K>,
        config: RhhhConfig,
        shards: usize,
        batch: usize,
        opts: SpawnOptions,
    ) -> Result<Self, SpawnError> {
        let cadence = Cadence {
            pane_len: u64::MAX,
            keep: 1,
            publish_every: opts.publish_every.max(1),
        };
        Self::launch(lattice, config, shards, batch, cadence, "Sharded")
    }

    /// The sliding-window fleet: `shards` pane-ring workers covering the
    /// last `window` packets with `panes` globally aligned panes of
    /// `⌈window/panes⌉` packets. Workers publish at every pane rotation
    /// (stale by at most one pane) and on [`ShardedMonitor::publish_now`]
    /// markers, never per batch. Worker threads are named `shard-{i}`.
    ///
    /// # Errors
    ///
    /// [`SpawnError`] when the OS refuses to start a worker thread.
    ///
    /// # Panics
    ///
    /// Panics when `shards`, `batch`, `window` or `panes` is zero, or when
    /// `window < panes`.
    pub fn spawn_windowed(
        lattice: Lattice<K>,
        config: RhhhConfig,
        shards: usize,
        batch: usize,
        window: u64,
        panes: usize,
    ) -> Result<Self, SpawnError> {
        assert!(window > 0, "window must be positive");
        assert!(panes > 0, "need at least one pane");
        assert!(
            window >= panes as u64,
            "window must hold at least one packet per pane"
        );
        let cadence = Cadence {
            pane_len: window.div_ceil(panes as u64),
            keep: panes,
            publish_every: u64::MAX,
        };
        Self::launch(lattice, config, shards, batch, cadence, "WindowedSharded")
    }

    /// Spawns the workers, each owning a ring that turns over at
    /// `cadence`, and labels the monitor `{kind}{shards}-{RHHH name}`.
    fn launch(
        lattice: Lattice<K>,
        config: RhhhConfig,
        shards: usize,
        batch: usize,
        cadence: Cadence,
        kind: &str,
    ) -> Result<Self, SpawnError> {
        assert!(shards > 0, "need at least one shard");
        assert!(batch > 0, "batch size must be positive");
        let label = if config.v_scale == 1 {
            format!("{kind}{shards}-RHHH")
        } else {
            format!("{kind}{shards}-{}-RHHH", config.v_scale)
        };
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut snapshots = Vec::with_capacity(shards);
        for shard in 0..shards {
            let ring = PaneRing::<K, E>::new(lattice.clone(), config, cadence.keep);
            let slot = Arc::new(ArcSwap::from_pointee(ShardSnapshot {
                epoch: 0,
                markers: 0,
                first_pane: 0,
                panes: covered(&ring).1,
            }));
            snapshots.push(Arc::clone(&slot));
            let (tx, rx) = conduit::<ShardMsg<K>>(ring_slots(
                batch,
                config.v_scale,
                config.updates_per_packet,
            ));
            let handle = spawn_named(format!("shard-{shard}"), move || {
                let mut ring = ring;
                let (mut batches, mut epoch, mut markers) = (0u64, 0u64, 0u64);
                while let Some(msg) = rx.recv() {
                    // Batches publish every `publish_every`; markers
                    // always publish.
                    match msg {
                        ShardMsg::Samples(out, stamp) => {
                            let pane = ring.active_mut();
                            out.flush_into(pane);
                            pane.note_totals(stamp.packets, stamp.weight);
                        }
                        ShardMsg::Rotate => {
                            ring.rotate();
                            publish(&slot, &mut epoch, markers, &ring);
                            continue;
                        }
                        ShardMsg::Publish => {
                            markers += 1;
                            publish(&slot, &mut epoch, markers, &ring);
                            continue;
                        }
                        ShardMsg::Poison => panic!("injected shard failure"),
                    }
                    batches += 1;
                    if batches.is_multiple_of(cadence.publish_every) {
                        publish(&slot, &mut epoch, markers, &ring);
                    }
                }
                // Final publication so late readers see the full
                // sub-stream even without harvesting.
                publish(&slot, &mut epoch, markers, &ring);
                ring
            })?;
            senders.push(tx.bind(handle.thread().clone()));
            handles.push(handle);
        }
        Ok(Self {
            senders,
            handles,
            snapshots,
            stats: vec![HandoffStats::default(); shards],
            sampler: Sampler::new(&lattice, &config),
            outs: (0..shards).map(|_| Outbox::default()).collect(),
            pending: Vec::with_capacity(PACKET_CALL),
            batch,
            packets: 0,
            weight: 0,
            pane_len: cadence.pane_len,
            pane: Stamp::default(),
            unsent: false,
            rotations: 0,
            markers: 0,
            seed: config.seed,
            query_cache: None,
            label,
        })
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Packets fed so far (across all shards).
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.packets + self.pending.len() as u64
    }

    /// Total recorded weight so far (equals [`ShardedMonitor::packets`]
    /// when only the unit feed is used).
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.weight + self.pending.len() as u64
    }

    /// The global rotation period `⌈W/G⌉` in packets (`u64::MAX` for the
    /// flat fleet, which never rotates).
    #[must_use]
    pub fn pane_len(&self) -> u64 {
        self.pane_len
    }

    /// Global panes completed so far (always 0 for the flat fleet).
    #[must_use]
    pub fn panes_completed(&self) -> u64 {
        self.rotations
    }

    /// Per-shard hand-off counters (sends, ring occupancy, backpressure
    /// and park events, drops) — the diagnostics `sharded_throughput`
    /// prints.
    #[must_use]
    pub fn handoff_stats(&self) -> &[HandoffStats] {
        &self.stats
    }

    /// The latest published snapshot epoch per shard (0 until a shard
    /// first publishes). Strictly increases with each publication.
    #[must_use]
    pub fn snapshot_epochs(&self) -> Vec<u64> {
        self.snapshots.iter().map(|s| s.load_full().epoch).collect()
    }

    /// Feeds one packet. Packets are buffered and sampled as one call
    /// every 4096 packets (or at a pane boundary, or when another feed,
    /// [`ShardedMonitor::flush`] or a marker comes first).
    #[inline]
    pub fn update(&mut self, key2: K) {
        self.pending.push(key2);
        if self.pending.len() == PACKET_CALL
            || self.pane.packets + self.pending.len() as u64 == self.pane_len
        {
            self.sample_pending();
        }
    }

    /// Feeds a slice of packets: one sampler call per pane the slice
    /// touches.
    pub fn update_batch(&mut self, keys: &[K]) {
        self.sample_pending();
        self.feed(keys);
    }

    /// Feeds a slice of packets each carrying `weight` units (e.g. bytes)
    /// — the volume feed. Selection stays per packet, and pane boundaries
    /// still count packets, not weight.
    pub fn update_batch_weighted(&mut self, packets: &[(K, u64)]) {
        self.sample_pending();
        self.feed(packets);
    }

    /// Samples the per-packet feed's buffer as one call.
    fn sample_pending(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        self.feed(&pending);
        self.pending = pending;
        self.pending.clear();
    }

    /// Splits a slice at each pane boundary it straddles and routes each
    /// piece as one sampler call.
    fn feed<T: Routed<K>>(&mut self, items: &[T]) {
        let mut rest = items;
        while !rest.is_empty() {
            let room = (rest.len() as u64).min(self.pane_len - self.pane.packets);
            let (piece, later) = rest.split_at(room as usize);
            self.route(piece);
            rest = later;
        }
    }

    /// One sampler call over `piece`: routes every sampled entry to its
    /// shard's outbox by masked key, hands the outboxes off once one holds
    /// `batch` samples, and rotates at the pane boundary.
    fn route<T: Routed<K>>(&mut self, piece: &[T]) {
        let n = piece.len() as u64;
        let weight: u64 = piece.iter().map(|&e| e.weight()).sum();
        self.packets += n;
        self.weight += weight;
        self.pane.packets += n;
        self.pane.weight += weight;
        self.unsent = true;
        let shards = self.outs.len();
        let groups = self.sampler.sample(piece.len(), |i| piece[i]);
        for (node, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            if let [out] = &mut self.outs[..] {
                T::store(out).extend_from_slice(group);
            } else {
                for &entry in group.iter() {
                    let shard = shard_of(entry.key().low_u64(), shards);
                    T::store(&mut self.outs[shard]).push(entry);
                }
            }
            for out in &mut self.outs {
                out.close_run::<T>(node);
            }
        }
        if self.outs.iter().any(|out| out.len() >= self.batch) {
            self.send_all();
        }
        if self.pane.packets == self.pane_len {
            self.broadcast(|| ShardMsg::Rotate);
            self.sampler.reseed(pane_seed(self.seed, self.rotations));
            self.rotations += 1;
            self.pane = Stamp::default();
        }
    }

    /// Hands every shard its outbox, stamped with the current pane's
    /// totals: all shards in lockstep, so every slice of a pane reaches
    /// the same stamps.
    fn send_all(&mut self) {
        for ((tx, stats), out) in self.senders.iter().zip(&mut self.stats).zip(&mut self.outs) {
            // A send only fails when the worker died (panicked). The feed
            // stays alive — samples for the dead shard are lost and
            // counted in its `HandoffStats::dropped` — and harvest
            // reports the failure as a `MergeError::ShardFailed` instead
            // of poisoning the ingress.
            let _ = tx.send(ShardMsg::Samples(std::mem::take(out), self.pane), stats);
        }
        self.unsent = false;
    }

    /// Flushes, then sends one marker to every shard behind it.
    fn broadcast(&mut self, marker: fn() -> ShardMsg<K>) {
        self.flush();
        for (tx, stats) in self.senders.iter().zip(&mut self.stats) {
            let _ = tx.send(marker(), stats);
        }
    }

    /// Samples the per-packet feed's buffer and hands every shard its
    /// outbox and the current stamp. Called by
    /// [`ShardedMonitor::harvest`]; useful on its own before a progress
    /// report.
    pub fn flush(&mut self) {
        self.sample_pending();
        if self.unsent {
            self.send_all();
        }
    }

    /// Flushes and asks every worker to publish a fresh snapshot (without
    /// rotating). The marker rides the FIFO hand-off behind the flushed
    /// batches, so once every shard has consumed it
    /// ([`ShardedMonitor::is_fresh`]), [`ShardedMonitor::query`] reflects
    /// **every** packet fed before this call that its coverage rule
    /// admits — the deterministic freshness hook the property suite pins.
    /// An epoch advance alone does not show that: the flat fleet's
    /// publications every `publish_every` batches and the windowed
    /// fleet's rotation publications advance the epoch too.
    pub fn publish_now(&mut self) {
        self.markers += 1;
        self.broadcast(|| ShardMsg::Publish);
    }

    /// Whether every shard's latest snapshot was published after the last
    /// [`ShardedMonitor::publish_now`] marker reached it: a query then
    /// covers everything fed before that call. Never true for a shard
    /// whose worker died before the marker.
    #[must_use]
    pub fn is_fresh(&self) -> bool {
        self.snapshots
            .iter()
            .all(|s| s.load_full().markers >= self.markers)
    }

    /// The latest snapshots and their epochs. Holding the `Arc`s keeps
    /// the published slices alive for a borrowed [`view`], so nothing is
    /// cloned.
    fn latest_snapshots(&self) -> (Vec<u64>, Vec<Arc<ShardSnapshot<K>>>) {
        self.snapshots
            .iter()
            .map(|s| {
                let snap = s.load_full();
                (snap.epoch, snap)
            })
            .unzip()
    }

    /// Ensures the query cache holds the view of the latest snapshots.
    fn refresh_query_cache(&mut self) -> &FrozenRhhh<K> {
        let (epochs, snaps) = self.latest_snapshots();
        if self
            .query_cache
            .as_ref()
            .is_none_or(|(cached, _)| *cached != epochs)
        {
            self.query_cache = Some((epochs, snapshot_view::<K, E>(&snaps)));
        }
        &self.query_cache.as_ref().expect("cache refreshed above").1
    }

    /// Live `Output(θ)` over the latest published snapshots — never
    /// joins, blocks, or slows the workers. The merged view is cached
    /// keyed by the snapshot epoch vector, so repeated queries between
    /// publications cost one output scan (the cross-thread analogue of
    /// [`hhh_core::WindowedRhhh::query`]'s cache). Staleness is bounded by
    /// one publication interval per shard (one pane for the windowed
    /// fleet) plus whatever waits in the ingress; call
    /// [`ShardedMonitor::publish_now`] first for an up-to-the-call answer.
    pub fn query(&mut self, theta: f64) -> Vec<HeavyHitter<K>> {
        self.refresh_query_cache().output(theta)
    }

    /// [`ShardedMonitor::query`] without the epoch cache: re-combines the
    /// latest snapshots on every call. The differential baseline the
    /// bench races the cached path against.
    #[must_use]
    pub fn query_fresh(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        snapshot_view::<K, E>(&self.latest_snapshots().1).output(theta)
    }

    /// Packets covered by the current snapshot view — how much of the fed
    /// stream a live query reflects right now.
    pub fn query_coverage(&mut self) -> u64 {
        self.refresh_query_cache().packets()
    }

    /// Failure-injection hook for chaos tests: kills the given shard's
    /// worker thread (it panics on the poison message). Subsequent feeds
    /// keep running — samples routed to the dead shard are dropped — and
    /// [`ShardedMonitor::harvest`] reports the death as
    /// [`MergeError::ShardFailed`]. Live queries keep answering from the
    /// dead shard's last published snapshot.
    #[doc(hidden)]
    pub fn inject_shard_failure(&mut self, shard: usize) {
        let _ = self.senders[shard].send(ShardMsg::Poison, &mut self.stats[shard]);
    }

    /// Flushes, joins every worker and combines their slices into one
    /// read-only view, as a live query would. The flat fleet's totals
    /// cover the whole stream. The windowed fleet's cover exactly the
    /// retained completed panes (at least `W` once `G` global panes have
    /// completed); before its first rotation the active panes answer
    /// instead — a partial answer over everything fed so far.
    ///
    /// # Errors
    ///
    /// [`MergeError::ShardFailed`] when any worker thread died (panicked)
    /// mid-feed: its slice of the summary is gone, so a merged answer
    /// would silently under-count. The error names the first dead shard.
    pub fn harvest(mut self) -> Result<FrozenRhhh<K>, MergeError> {
        self.flush();
        self.senders.clear(); // closes every hand-off; workers drain & exit
        let rings = join_shards(std::mem::take(&mut self.handles))?;
        let owned: Vec<(u64, Vec<Arc<FrozenRhhh<K>>>)> = rings.iter().map(covered).collect();
        let shards: Vec<Slices<'_, K>> = owned
            .iter()
            .map(|(first, panes)| (*first, &panes[..]))
            .collect();
        view::<K, E>(&shards)
    }
}

impl<E: FrequencyEstimator<u64>> DataplaneMonitor for ShardedMonitor<u64, E> {
    #[inline]
    fn on_packet(&mut self, key2: u64) {
        self.update(key2);
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_counters::CompactSpaceSaving;
    use hhh_hierarchy::pack2;
    use std::time::{Duration, Instant};

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

    fn attack_stream(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = Lcg(seed);
        (0..n)
            .map(|i| {
                if i % 10 < 3 {
                    pack2(
                        0x0A14_0000 | (rng.next() as u32 & 0xFFFF),
                        u32::from_be_bytes([8, 8, 8, 8]),
                    )
                } else {
                    pack2(rng.next() as u32, rng.next() as u32)
                }
            })
            .collect()
    }

    fn config() -> RhhhConfig {
        RhhhConfig {
            epsilon_s: 0.02,
            epsilon_a: 0.005,
            delta_s: 0.05,
            ..RhhhConfig::default()
        }
    }

    /// Spins (bounded) until `done` holds — for waiting out in-flight
    /// publication markers without joining workers.
    fn wait_until(mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "snapshots never advanced");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sharded_monitor_finds_planted_hhh() {
        for shards in [1usize, 2, 4] {
            let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
            let mut mon =
                ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat.clone(), config(), shards, 256)
                    .expect("spawn workers");
            let n = 400_000u64;
            for &k in &attack_stream(n, 4) {
                mon.update(k);
            }
            assert_eq!(mon.packets(), n);
            let merged = mon.harvest().expect("healthy pipeline");
            assert_eq!(merged.packets(), n, "merged N covers the whole stream");
            assert_eq!(merged.total_weight(), n);
            let rendered: Vec<String> = merged
                .output(0.1)
                .iter()
                .map(|h| h.prefix.display(&lat))
                .collect();
            assert!(
                rendered
                    .iter()
                    .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32")),
                "{shards} shards: missing planted HHH in {rendered:?}"
            );
        }
    }

    #[test]
    fn sharded_monitor_works_with_compact_counter() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon =
            ShardedMonitor::<u64, CompactSpaceSaving<u64>>::spawn(lat.clone(), config(), 3, 512)
                .expect("spawn workers");
        let n = 300_000u64;
        for &k in &attack_stream(n, 7) {
            mon.on_packet(k);
        }
        assert_eq!(mon.label(), "Sharded3-RHHH");
        let out = mon.harvest().expect("healthy pipeline").output(0.1);
        assert!(out
            .iter()
            .map(|h| h.prefix.display(&lat))
            .any(|s| s.contains("10.20.0.0/16")));
    }

    #[test]
    fn live_query_answers_without_harvesting() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        // Auto-publication off: the explicit marker below is the only
        // publisher, so "epoch advanced" means "marker processed" and the
        // coverage assertion is deterministic.
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_with(
            lat.clone(),
            config(),
            2,
            256,
            SpawnOptions {
                publish_every: u64::MAX,
            },
        )
        .expect("spawn workers");
        let n = 200_000u64;
        for &k in &attack_stream(n, 23) {
            mon.update(k);
        }
        mon.publish_now();
        wait_until(|| mon.is_fresh());
        // The publish markers rode the FIFO hand-off behind every flushed
        // batch, so the snapshot merge covers the entire feed so far.
        assert_eq!(mon.query_coverage(), n);
        let rendered: Vec<String> = mon
            .query(0.1)
            .iter()
            .map(|h| h.prefix.display(&lat))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32")),
            "live query must see the planted HHH: {rendered:?}"
        );
        // Workers are still alive and harvestable after any number of
        // live queries, with the same totals.
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(merged.packets(), n);
    }

    #[test]
    fn auto_publication_reaches_full_coverage() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_with(
            lat,
            config(),
            2,
            128,
            SpawnOptions { publish_every: 1 },
        )
        .expect("spawn workers");
        let n = 20_000u64;
        for &k in &attack_stream(n, 43) {
            mon.update(k);
        }
        // Publishing after every batch, the final flushed batch's
        // snapshot covers the whole feed — no marker needed.
        mon.flush();
        wait_until(|| mon.query_coverage() == n);
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(merged.packets(), n);
    }

    #[test]
    fn query_cache_reuses_merge_until_epochs_move() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_with(
            lat,
            config(),
            2,
            128,
            SpawnOptions {
                publish_every: u64::MAX,
            },
        )
        .expect("spawn workers");
        for &k in &attack_stream(50_000, 29) {
            mon.update(k);
        }
        mon.publish_now();
        wait_until(|| mon.is_fresh());
        let c1 = mon.query_coverage();
        let epochs = mon.snapshot_epochs();
        let c2 = mon.query_coverage();
        assert_eq!(c1, c2, "same epochs, same cached merge");
        assert_eq!(
            mon.snapshot_epochs(),
            epochs,
            "querying must not advance epochs"
        );
    }

    #[test]
    fn shard_routing_is_key_stable_and_balanced() {
        // The same key always lands on the same shard, and random traffic
        // spreads evenly (within 10%).
        let shards = 4;
        let mut rng = Lcg(9);
        let mut counts = vec![0u64; shards];
        for _ in 0..100_000 {
            let k = rng.next();
            let s = shard_of(k, shards);
            assert_eq!(s, shard_of(k, shards));
            counts[s] += 1;
        }
        let expect = 100_000 / shards as u64;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < expect / 10,
                "shard {s}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn weighted_feed_conserves_weight_and_finds_volume_hitter() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat.clone(), config(), 3, 512)
            .expect("spawn workers");
        let heavy = pack2(
            u32::from_be_bytes([7, 7, 7, 7]),
            u32::from_be_bytes([8, 8, 8, 8]),
        );
        let mut rng = Lcg(13);
        let n = 200_000u64;
        let mut volume = 0u64;
        let packets: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let p = if i % 10 == 0 {
                    (heavy, 1400)
                } else {
                    (pack2(rng.next() as u32, rng.next() as u32), 64)
                };
                volume += p.1;
                p
            })
            .collect();
        for chunk in packets.chunks(4_096) {
            mon.update_batch_weighted(chunk);
        }
        assert_eq!(mon.packets(), n);
        assert_eq!(mon.weight(), volume);
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(merged.packets(), n);
        assert_eq!(
            merged.total_weight(),
            volume,
            "sharding + merge must conserve total weight"
        );
        let out = merged.output(0.3);
        assert!(
            out.iter()
                .any(|h| h.prefix.display(&lat).contains("7.7.7.7/32")),
            "volume-heavy flow lost by the weighted sharded path"
        );
    }

    #[test]
    fn unit_and_weighted_feeds_interleave() {
        // Mixing both feeds on one monitor keeps the ledgers coherent:
        // packets count both kinds, weight counts units + weights.
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, config(), 2, 64)
            .expect("spawn workers");
        for i in 0..1_000u64 {
            if i % 2 == 0 {
                mon.update(i);
            } else {
                mon.update_batch_weighted(&[(i, 10)]);
            }
        }
        assert_eq!(mon.packets(), 1_000);
        assert_eq!(mon.weight(), 500 + 500 * 10);
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(merged.packets(), 1_000);
        assert_eq!(merged.total_weight(), 500 + 500 * 10);
    }

    #[test]
    fn harvest_flushes_partial_buffers() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, config(), 2, 4_096)
            .expect("spawn workers");
        // Fewer packets than one batch: everything rides the final flush.
        for i in 0..100u64 {
            mon.update(i);
        }
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(merged.packets(), 100);
    }

    #[test]
    fn ten_rhhh_sharded_update_rate_is_h_over_v() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon =
            ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, RhhhConfig::ten_rhhh(), 4, 1_024)
                .expect("spawn workers");
        let n = 200_000u64;
        for &k in &attack_stream(n, 11) {
            mon.update(k);
        }
        let merged = mon.harvest().expect("healthy pipeline");
        let rate = merged.total_updates() as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "update rate {rate}");
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let _ = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, RhhhConfig::default(), 0, 64);
    }

    #[test]
    fn windowed_sharded_pane_accounting_is_global() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_windowed(
            lat,
            config(),
            3,
            256,
            40_000,
            4,
        )
        .expect("spawn workers");
        assert_eq!(mon.pane_len(), 10_000);
        for &k in &attack_stream(35_000, 21) {
            mon.update(k);
        }
        assert_eq!(mon.packets(), 35_000);
        assert_eq!(mon.panes_completed(), 3);
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(
            merged.packets(),
            30_000,
            "windowed harvest covers exactly the completed global panes"
        );
    }

    #[test]
    fn live_view_answers_as_the_harvested_merge() {
        // Once every shard has answered the marker, the snapshots cover
        // what the harvest will, so the query plane's view and the
        // harvest's view combine the same slices and must give the same
        // answer, entry for entry. (Coverage alone does not show that: a
        // window's snapshots one rotation behind cover as many packets.)
        for shards in 1usize..=4 {
            for (window, covered) in [(None, 50_000), (Some((40_000, 4)), 40_000)] {
                let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
                let mut mon = match window {
                    None => {
                        ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, config(), shards, 256)
                    }
                    Some((w, g)) => ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_windowed(
                        lat,
                        config(),
                        shards,
                        256,
                        w,
                        g,
                    ),
                }
                .expect("spawn workers");
                for chunk in attack_stream(50_000, 31).chunks(1_000) {
                    mon.update_batch(chunk);
                }
                mon.publish_now();
                wait_until(|| mon.is_fresh());
                assert_eq!(mon.query_coverage(), covered, "K={shards} {window:?}");
                let live = mon.query(0.1);
                assert_eq!(live, mon.query_fresh(0.1));
                let merged = mon.harvest().expect("healthy pipeline");
                assert_eq!(merged.packets(), covered, "K={shards} {window:?}");
                assert_eq!(live, merged.output(0.1), "K={shards} {window:?}");
            }
        }
    }

    #[test]
    fn windowed_live_query_matches_window_semantics() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_windowed(
            lat,
            config(),
            2,
            256,
            40_000,
            4,
        )
        .expect("spawn workers");
        // 2.5 panes: live coverage reflects completed panes only, stale
        // by at most the active partial pane.
        for &k in &attack_stream(25_000, 27) {
            mon.update(k);
        }
        assert_eq!(mon.panes_completed(), 2);
        mon.publish_now();
        wait_until(|| mon.is_fresh());
        assert_eq!(
            mon.query_coverage(),
            20_000,
            "live windowed coverage = completed panes"
        );
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(merged.packets(), 20_000);
    }

    #[test]
    fn windowed_sharded_finds_recent_attack_and_ages_out_old_one() {
        for shards in [1usize, 4] {
            let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
            let mut mon = ShardedMonitor::<u64, CompactSpaceSaving<u64>>::spawn_windowed(
                lat.clone(),
                config(),
                shards,
                512,
                120_000,
                4,
            )
            .expect("spawn workers");
            // Old traffic: planted attack. Recent window: clean random.
            for &k in &attack_stream(120_000, 31) {
                mon.update(k);
            }
            let mut rng = Lcg(32);
            for _ in 0..150_000 {
                mon.update(pack2(rng.next() as u32, rng.next() as u32));
            }
            let out = mon.harvest().expect("healthy pipeline").output(0.1);
            assert!(
                !out.iter()
                    .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
                "{shards} shards: attack older than the window must age out"
            );

            // Symmetric check: an attack inside the window is found.
            let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_windowed(
                lat.clone(),
                config(),
                shards,
                512,
                120_000,
                4,
            )
            .expect("spawn workers");
            for _ in 0..150_000 {
                mon.update(pack2(rng.next() as u32, rng.next() as u32));
            }
            for &k in &attack_stream(120_000, 33) {
                mon.update(k);
            }
            let out = mon.harvest().expect("healthy pipeline").output(0.1);
            assert!(
                out.iter()
                    .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
                "{shards} shards: attack inside the window must be reported"
            );
        }
    }

    #[test]
    fn windowed_sharded_before_first_rotation_answers_partially() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn_windowed(
            lat,
            config(),
            2,
            256,
            1_000_000,
            4,
        )
        .expect("spawn workers");
        for &k in &attack_stream(10_000, 41) {
            mon.update(k);
        }
        assert_eq!(mon.panes_completed(), 0);
        // Live query before any rotation serves the active panes, like
        // the harvest below.
        mon.publish_now();
        wait_until(|| mon.is_fresh());
        assert_eq!(mon.query_coverage(), 10_000);
        let merged = mon.harvest().expect("healthy pipeline");
        assert_eq!(
            merged.packets(),
            10_000,
            "pre-rotation harvest merges the active panes"
        );
    }

    #[test]
    fn dead_shard_surfaces_as_merge_error() {
        let lat = hhh_hierarchy::Lattice::ipv4_src_dst_bytes();
        let mut mon = ShardedMonitor::<u64, SpaceSaving<u64>>::spawn(lat, config(), 2, 64)
            .expect("spawn workers");
        for i in 0..1_000u64 {
            mon.update(i);
        }
        mon.inject_shard_failure(1);
        // The feed keeps running after the death: sends to the dead shard
        // are dropped, never panicking (or wedging) the ingress thread.
        for i in 0..5_000u64 {
            mon.update(i.wrapping_mul(0x9E37_79B9));
        }
        match mon.harvest() {
            Err(hhh_core::MergeError::ShardFailed(msg)) => {
                assert!(msg.contains("shard 1"), "error names the shard: {msg}");
                assert!(msg.contains("injected"), "error carries the payload: {msg}");
            }
            Ok(_) => panic!("harvest must not silently merge a partial answer"),
            Err(e) => panic!("wrong error kind: {e}"),
        }
    }
}
