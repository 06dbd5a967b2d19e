//! Shard-parallel RHHH: RSS-style hash partitioning across worker threads,
//! lock-free batch hand-off, merge-on-harvest, and a non-blocking
//! snapshot query plane — one fleet for flat and sliding-window
//! deployments.
//!
//! Modern NICs spread flows across receive queues by hashing the packet
//! header (RSS), and each queue is polled by its own core. The inline
//! monitors in [`crate::monitor`] assume one measurement instance sees the
//! whole stream; this module drops that assumption: every worker thread
//! runs its *own* RHHH instance over its own sub-stream through the
//! geometric-skip batch path, shares nothing while packets flow, and the
//! harvest combines the per-shard summaries with [`Rhhh::merge_many`].
//!
//! Partitioning is by **key hash**, so a flow (and every prefix of it, per
//! shard) lands wholly in one shard. Accuracy-wise the merge analysis
//! applies: per-node counter errors add across shards (`Σᵢ nᵢ/m = n/m` —
//! the same ε_a class as one instance), and the shards' independent
//! sampling errors add in variance, which is exactly what the merged
//! instance's `slack()` over the summed `N` charges. Convergence needs the
//! *total* stream length to pass ψ, which the merged packet count reflects.
//!
//! **Every worker owns a [`PaneRing`].** The flat fleet
//! ([`ShardedMonitor::spawn`]) is a ring that is never rotated: snapshots
//! and the harvest use the active panes. The windowed fleet
//! ([`ShardedMonitor::spawn_windowed`]) rotates every `⌈W/G⌉` *global*
//! packets: the ingress thread flushes every partial buffer and broadcasts
//! a rotation marker down each shard's ordered hand-off, so each shard's
//! pane `i` summarizes exactly its sub-stream of global pane `i`, and the
//! harvest answers the window with one K·G-way combine over all retained
//! panes. Shard merge and pane merge are the same K-way combine — per-part
//! bounds add — so the end-to-end bound is the same summed per-pane bound a
//! single-threaded [`hhh_core::WindowedRhhh`] earns.
//!
//! The hand-off carries whole batches (one `Vec` per `batch` packets), not
//! packets, so the per-packet cost on the ingress thread is a hash, a
//! buffer push and an amortized hand-off — and the workers spend their
//! time in `update_batch`, not on synchronization. The hand-off is a
//! fixed-capacity lock-free SPSC ring per shard ([`crate::handoff`]): the
//! uncontended crossing is two atomic read-modify-writes, with
//! spin-then-park backpressure when a worker falls behind (a fixed
//! number of in-flight batches bounds the backlog).
//!
//! **The query plane never joins or blocks the workers.** Each worker
//! publishes an epoch-stamped [`ShardSnapshot`] — a clone of its current
//! answer — through an atomically swappable pointer (`arc-swap`): every
//! `publish_every` batches for the flat fleet, at every pane rotation for
//! the windowed one, on [`ShardedMonitor::publish_now`] markers, and once
//! at exit. A live `query(θ)` loads the latest snapshot from every shard
//! and K-way-merges them via [`Rhhh::merge_many`], caching the merged
//! instance keyed by the epoch vector (the cross-thread generalization of
//! the pane-ring query cache in [`hhh_core::WindowedRhhh`]): repeated
//! queries between publications cost one `Output(θ)` scan, not a re-merge.
//! Snapshots are clones, so publication never perturbs the worker's state
//! and the harvest stays bit-identical whether or when queries ran.

use std::sync::Arc;
use std::thread::JoinHandle;

use arc_swap::ArcSwap;
use hhh_core::{HeavyHitter, HhhAlgorithm, MergeError, PaneRing, Rhhh, RhhhConfig};
use hhh_counters::{FrequencyEstimator, SpaceSaving};
use hhh_hierarchy::{KeyBits, Lattice};

use crate::datapath::DataplaneMonitor;
use crate::handoff::{
    conduit, join_shards, spawn_named, HandoffStats, ShardTx, SpawnError, SpawnOptions,
    QUEUE_BATCHES,
};

/// The canonical key-hash routing and the per-shard seed derivation,
/// re-exported so pipeline users (and replays of the fleet) need not
/// reach into `hhh-hierarchy` for them.
pub use hhh_hierarchy::{shard_of, shard_seed};

/// [`shard_of`] over any lattice key (hashes the low 64 bits; for the
/// packed IPv4 keys this is the whole key).
#[inline]
fn shard_of_key<K: KeyBits>(key: K, shards: usize) -> usize {
    shard_of(key.low_u64(), shards)
}

/// One worker's published view of its sub-stream, swapped atomically into
/// the monitor-visible slot so readers never block the worker.
///
/// `epoch` increments with every publication (the initial empty snapshot
/// is epoch 0), so the query cache can detect staleness by comparing
/// epoch vectors. `batches` counts the hand-off units folded into
/// `summary` — a query made after this snapshot reflects every batch the
/// worker acknowledged before publishing it, and is stale by at most one
/// publication interval.
#[derive(Debug)]
pub struct ShardSnapshot<K: KeyBits, E: FrequencyEstimator<K>> {
    /// Publication sequence number (0 = the pre-feed empty snapshot).
    pub epoch: u64,
    /// Batches folded into `summary` at publication time.
    pub batches: u64,
    /// The worker's current answer: the merged completed panes, or the
    /// active pane before any rotation (always, in the flat fleet) —
    /// the same coverage rule [`ShardedMonitor::harvest`] applies.
    pub summary: Rhhh<K, E>,
}

/// One hand-off unit on a shard's ring, drained in arrival order. Unit and
/// weighted batches may interleave; the markers ride the same FIFO ring,
/// so each takes effect after every batch sent before it.
#[derive(Debug)]
enum ShardMsg<K> {
    /// A batch of unit-weight keys (the packet-count feed).
    Unit(Vec<K>),
    /// A batch of `(key, weight)` pairs (the volume feed).
    Weighted(Vec<(K, u64)>),
    /// Global pane boundary: complete the active pane, then publish.
    Rotate,
    /// Publication marker: the worker publishes a fresh snapshot now.
    Publish,
    /// Failure-injection poison: the worker panics on receipt. Only ever
    /// sent by [`ShardedMonitor::inject_shard_failure`] (chaos tests).
    Poison,
}

/// Stores a fresh epoch-stamped snapshot of the ring's current answer:
/// the merged completed panes, or the active pane before the first
/// rotation — the coverage rule [`ShardedMonitor::harvest`] applies, so
/// live queries and the harvest agree on semantics.
fn publish<K: KeyBits, E: FrequencyEstimator<K> + Clone>(
    slot: &ArcSwap<ShardSnapshot<K, E>>,
    epoch: &mut u64,
    batches: u64,
    ring: &PaneRing<K, E>,
) {
    *epoch += 1;
    let summary = ring
        .merged_window()
        .unwrap_or_else(|| ring.active().clone());
    slot.store(Arc::new(ShardSnapshot {
        epoch: *epoch,
        batches,
        summary,
    }));
}

/// K-way-merges one summary clone per snapshot (the read side of the
/// query plane; never touches the workers).
fn merge_snapshots<K: KeyBits, E: FrequencyEstimator<K> + Clone>(
    snaps: &[Arc<ShardSnapshot<K, E>>],
) -> Rhhh<K, E> {
    let mut merged = snaps[0].summary.clone();
    merged.merge_many(snaps[1..].iter().map(|s| s.summary.clone()).collect());
    merged
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

/// Shard-parallel RHHH monitor: `N` worker threads, each owning one
/// [`PaneRing`] fed through the batch path, combined by merge at harvest.
///
/// Create with [`ShardedMonitor::spawn`] (or [`ShardedMonitor::spawn_with`]
/// for the publication interval) for the whole-stream answer, or with
/// [`ShardedMonitor::spawn_windowed`] for the sliding-window answer over
/// the last `W` packets. Feed packets via [`ShardedMonitor::update`],
/// [`ShardedMonitor::update_batch`] or their weighted twins (or as a
/// [`DataplaneMonitor`]), query the live snapshot plane with
/// [`ShardedMonitor::query`] at any time, then [`ShardedMonitor::harvest`]
/// to join the workers and obtain the merged, queryable instance.
///
/// Generic over the per-node counter like [`Rhhh`] itself; the flat-arena
/// layout ([`crate::monitor::CompactBatchingMonitor`]'s counter) pairs well
/// with the batch flush the workers run.
#[derive(Debug)]
pub struct ShardedMonitor<K: KeyBits = u64, E: FrequencyEstimator<K> = SpaceSaving<K>> {
    senders: Vec<ShardTx<ShardMsg<K>>>,
    handles: Vec<JoinHandle<PaneRing<K, E>>>,
    snapshots: Vec<Arc<ArcSwap<ShardSnapshot<K, E>>>>,
    stats: Vec<HandoffStats>,
    bufs: Vec<Vec<K>>,
    /// Per-shard `(key, weight)` buffers of the volume feed; allocated
    /// lazily on the first weighted packet so packet-count pipelines pay
    /// nothing for the second path.
    wbufs: Vec<Vec<(K, u64)>>,
    batch: usize,
    packets: u64,
    /// Total recorded weight (equals `packets` when only the unit feed is
    /// used).
    weight: u64,
    per_shard: Vec<u64>,
    /// Global rotation period `⌈W/G⌉` in packets; `u64::MAX` (never) for
    /// the flat fleet.
    pane_len: u64,
    /// Packets fed since the last rotation.
    pane_fill: u64,
    rotations: u64,
    /// Live-query merge cache keyed by the snapshot epoch vector; stays
    /// valid until any shard publishes again.
    query_cache: Option<(Vec<u64>, Rhhh<K, E>)>,
    label: String,
}

impl<K: KeyBits, E: FrequencyEstimator<K> + Clone + Sync> ShardedMonitor<K, E> {
    /// Spawns `shards` worker threads over copies of `lattice`/`config`
    /// (worker `i` runs under [`shard_seed`]`(config.seed, i)`), buffering
    /// `batch` packets per shard before handing a batch over. Uses the
    /// default [`SpawnOptions`] (snapshot every 8 batches).
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
            let seed = shard_seed(config.seed, shard);
            let ring =
                PaneRing::<K, E>::new(lattice.clone(), RhhhConfig { seed, ..config }, cadence.keep);
            let slot = Arc::new(ArcSwap::from_pointee(ShardSnapshot {
                epoch: 0,
                batches: 0,
                summary: ring.active().clone(),
            }));
            snapshots.push(Arc::clone(&slot));
            let (tx, rx) = conduit::<ShardMsg<K>>(QUEUE_BATCHES);
            let handle = spawn_named(format!("shard-{shard}"), move || {
                let mut ring = ring;
                let mut batches = 0u64;
                let mut epoch = 0u64;
                while let Some(msg) = rx.recv() {
                    // Batches publish every `publish_every`; markers
                    // always publish.
                    match msg {
                        ShardMsg::Unit(keys) => ring.active_mut().update_batch(&keys),
                        ShardMsg::Weighted(packets) => {
                            ring.active_mut().update_batch_weighted(&packets);
                        }
                        ShardMsg::Rotate => {
                            ring.rotate();
                            publish(&slot, &mut epoch, batches, &ring);
                            continue;
                        }
                        ShardMsg::Publish => {
                            publish(&slot, &mut epoch, batches, &ring);
                            continue;
                        }
                        ShardMsg::Poison => panic!("injected shard failure"),
                    }
                    batches += 1;
                    if batches.is_multiple_of(cadence.publish_every) {
                        publish(&slot, &mut epoch, batches, &ring);
                    }
                }
                // Final publication so late readers see the full
                // sub-stream even without harvesting.
                publish(&slot, &mut epoch, batches, &ring);
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
            bufs: (0..shards).map(|_| Vec::with_capacity(batch)).collect(),
            wbufs: (0..shards).map(|_| Vec::new()).collect(),
            batch,
            packets: 0,
            weight: 0,
            per_shard: vec![0; shards],
            pane_len: cadence.pane_len,
            pane_fill: 0,
            rotations: 0,
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
        self.packets
    }

    /// Packets routed to each shard so far — the hash-balance diagnostic.
    #[must_use]
    pub fn shard_packets(&self) -> &[u64] {
        &self.per_shard
    }

    /// Total recorded weight so far (equals [`ShardedMonitor::packets`]
    /// when only the unit feed is used).
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.weight
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

    /// Routes one packet to its shard, handing off a full batch when the
    /// shard's buffer fills, and rotates at a global pane boundary.
    #[inline]
    pub fn update(&mut self, key2: K) {
        self.route(key2);
        self.advance(1);
    }

    /// Routes one packet carrying `weight` units (e.g. bytes) to its
    /// shard — the volume-measurement twin of [`ShardedMonitor::update`].
    /// The shard is still chosen by key hash, so a flow's whole volume
    /// lands in one shard and the per-shard weighted batch path
    /// ([`Rhhh::update_batch_weighted`]) records it; the harvest-time
    /// merge then conserves total weight exactly (pinned by the
    /// `sharded_weighted` property suite). Pane boundaries still count
    /// packets, not weight.
    #[inline]
    pub fn update_weighted(&mut self, key2: K, weight: u64) {
        self.route_weighted(key2, weight);
        self.advance(1);
    }

    /// Feeds a slice of packets — the burst entry point. The slice is
    /// split once at each pane boundary it straddles, so the per-packet
    /// route loop carries no pane check.
    pub fn update_batch(&mut self, keys: &[K]) {
        self.feed(keys, Self::route);
    }

    /// Feeds a slice of weighted packets — the bulk entry point of the
    /// volume feed, split at pane boundaries like
    /// [`ShardedMonitor::update_batch`].
    pub fn update_batch_weighted(&mut self, packets: &[(K, u64)]) {
        self.feed(packets, |mon, (key, weight)| {
            mon.route_weighted(key, weight)
        });
    }

    /// Routes a slice pane by pane: splits it once at each pane boundary
    /// it straddles and advances the pane count once per piece.
    #[inline]
    fn feed<T: Copy>(&mut self, items: &[T], mut route: impl FnMut(&mut Self, T)) {
        let mut rest = items;
        while !rest.is_empty() {
            let room = (rest.len() as u64).min(self.pane_len - self.pane_fill);
            let (pane, later) = rest.split_at(room as usize);
            for &item in pane {
                route(self, item);
            }
            self.advance(pane.len() as u64);
            rest = later;
        }
    }

    /// Buffers one unit packet for its shard; hands off a full batch.
    #[inline]
    fn route(&mut self, key2: K) {
        self.packets += 1;
        self.weight += 1;
        let shard = shard_of_key(key2, self.senders.len());
        self.per_shard[shard] += 1;
        let buf = &mut self.bufs[shard];
        buf.push(key2);
        if buf.len() >= self.batch {
            let full = std::mem::replace(buf, Vec::with_capacity(self.batch));
            // A send only fails when the worker died (panicked). The feed
            // stays alive — packets for the dead shard are lost and
            // counted in its `HandoffStats::dropped` — and harvest
            // reports the failure as a `MergeError::ShardFailed` instead
            // of poisoning the ingress.
            let _ = self.senders[shard].send(ShardMsg::Unit(full), &mut self.stats[shard]);
        }
    }

    /// Buffers one weighted packet for its shard; hands off a full batch.
    #[inline]
    fn route_weighted(&mut self, key2: K, weight: u64) {
        self.packets += 1;
        self.weight += weight;
        let shard = shard_of_key(key2, self.senders.len());
        self.per_shard[shard] += 1;
        let buf = &mut self.wbufs[shard];
        if buf.capacity() == 0 {
            buf.reserve(self.batch);
        }
        buf.push((key2, weight));
        if buf.len() >= self.batch {
            let full = std::mem::replace(buf, Vec::with_capacity(self.batch));
            let _ = self.senders[shard].send(ShardMsg::Weighted(full), &mut self.stats[shard]);
        }
    }

    /// Accounts `n` routed packets to the current pane; at the boundary,
    /// flushes every partial buffer (so the boundary packet reaches its
    /// worker first) and broadcasts the rotation marker.
    #[inline]
    fn advance(&mut self, n: u64) {
        self.pane_fill += n;
        if self.pane_fill == self.pane_len {
            self.broadcast(|| ShardMsg::Rotate);
            self.rotations += 1;
            self.pane_fill = 0;
        }
    }

    /// Flushes every partial buffer, then sends one marker to every
    /// shard behind it.
    fn broadcast(&mut self, marker: fn() -> ShardMsg<K>) {
        self.flush();
        for (tx, stats) in self.senders.iter().zip(&mut self.stats) {
            let _ = tx.send(marker(), stats);
        }
    }

    /// Sends every partially filled buffer (both feeds) to its worker.
    /// Called by [`ShardedMonitor::harvest`]; useful on its own before a
    /// progress report.
    pub fn flush(&mut self) {
        for (shard, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                let part = std::mem::take(buf);
                let _ = self.senders[shard].send(ShardMsg::Unit(part), &mut self.stats[shard]);
            }
        }
        for (shard, buf) in self.wbufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                let part = std::mem::take(buf);
                let _ = self.senders[shard].send(ShardMsg::Weighted(part), &mut self.stats[shard]);
            }
        }
    }

    /// Flushes all partial buffers and asks every worker to publish a
    /// fresh snapshot (without rotating). The marker rides the FIFO
    /// hand-off behind the flushed batches, so once each shard's epoch
    /// advances past its value at call time, [`ShardedMonitor::query`]
    /// reflects **every** packet fed before this call that its coverage
    /// rule admits — the deterministic freshness hook the property suite
    /// pins.
    pub fn publish_now(&mut self) {
        self.broadcast(|| ShardMsg::Publish);
    }

    /// Ensures the query cache holds the merge of the latest snapshots.
    fn refresh_query_cache(&mut self) -> &Rhhh<K, E> {
        let snaps: Vec<Arc<ShardSnapshot<K, E>>> =
            self.snapshots.iter().map(|s| s.load_full()).collect();
        let epochs: Vec<u64> = snaps.iter().map(|s| s.epoch).collect();
        if self
            .query_cache
            .as_ref()
            .is_none_or(|(cached, _)| *cached != epochs)
        {
            self.query_cache = Some((epochs, merge_snapshots(&snaps)));
        }
        &self.query_cache.as_ref().expect("cache refreshed above").1
    }

    /// Live `Output(θ)` over the latest published snapshots — never
    /// joins, blocks, or slows the workers. The K-way merge is cached
    /// keyed by the snapshot epoch vector, so repeated queries between
    /// publications cost one output scan (the cross-thread analogue of
    /// [`hhh_core::WindowedRhhh::query`]'s cache). Staleness is bounded
    /// by one publication interval per shard (one pane for the windowed
    /// fleet) plus whatever sits in the monitor's partial buffers; call
    /// [`ShardedMonitor::publish_now`] first for an up-to-the-call answer.
    pub fn query(&mut self, theta: f64) -> Vec<HeavyHitter<K>> {
        self.refresh_query_cache().output(theta)
    }

    /// [`ShardedMonitor::query`] without the epoch cache: re-merges the
    /// latest snapshots on every call. The differential baseline the
    /// bench races the cached path against.
    #[must_use]
    pub fn query_fresh(&self, theta: f64) -> Vec<HeavyHitter<K>> {
        let snaps: Vec<Arc<ShardSnapshot<K, E>>> =
            self.snapshots.iter().map(|s| s.load_full()).collect();
        merge_snapshots(&snaps).output(theta)
    }

    /// Packets covered by the current snapshot merge — how much of the
    /// fed stream a live query reflects right now.
    pub fn query_coverage(&mut self) -> u64 {
        self.refresh_query_cache().packets()
    }

    /// Failure-injection hook for chaos tests: kills the given shard's
    /// worker thread (it panics on the poison message). Subsequent feeds
    /// keep running — packets routed to the dead shard are dropped — and
    /// [`ShardedMonitor::harvest`] reports the death as
    /// [`MergeError::ShardFailed`]. Live queries keep answering from the
    /// dead shard's last published snapshot.
    #[doc(hidden)]
    pub fn inject_shard_failure(&mut self, shard: usize) {
        let _ = self.senders[shard].send(ShardMsg::Poison, &mut self.stats[shard]);
    }

    /// Flushes, joins every worker and merges the per-shard answers into
    /// one queryable instance in a single [`Rhhh::merge_many`] pass. The
    /// flat fleet merges the K active panes: the totals cover the whole
    /// stream. The windowed fleet merges all shards' retained completed
    /// panes (K·G ways): the totals cover exactly the window (at least `W`
    /// once `G` global panes have completed). Before its first rotation
    /// there are no completed panes anywhere, and the K active panes merge
    /// instead — a partial answer over everything fed so far.
    ///
    /// # Errors
    ///
    /// [`MergeError::ShardFailed`] when any worker thread died (panicked)
    /// mid-feed: its sub-stream's summary is gone, so a merged answer
    /// would silently under-count. The error names the first dead shard.
    pub fn harvest(mut self) -> Result<Rhhh<K, E>, MergeError> {
        self.flush();
        self.senders.clear(); // closes every hand-off; workers drain & exit
        let rings = join_shards(std::mem::take(&mut self.handles))?;
        let mut panes = Vec::with_capacity(rings.len());
        for ring in rings {
            let (active, completed) = ring.into_parts();
            if self.rotations == 0 {
                panes.push(active);
            } else {
                panes.extend(completed);
            }
        }
        let mut merged = panes.remove(0);
        merged.merge_many(panes);
        Ok(merged)
    }

    /// Convenience: harvest and immediately run `Output(θ)`.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedMonitor::harvest`]'s `ShardFailed`.
    pub fn finish_and_query(self, theta: f64) -> Result<Vec<HeavyHitter<K>>, MergeError> {
        Ok(self.harvest()?.output(theta))
    }
}

impl<E: FrequencyEstimator<u64> + Clone + Sync> DataplaneMonitor for ShardedMonitor<u64, E> {
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
            let total: u64 = mon.shard_packets().iter().sum();
            assert_eq!(total, n, "per-shard routing must account every packet");
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
        let out = mon.finish_and_query(0.1).expect("healthy pipeline");
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
        let before = mon.snapshot_epochs();
        mon.publish_now();
        wait_until(|| {
            mon.snapshot_epochs()
                .iter()
                .zip(&before)
                .all(|(now, then)| now > then)
        });
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
        let before = mon.snapshot_epochs();
        mon.publish_now();
        wait_until(|| {
            mon.snapshot_epochs()
                .iter()
                .zip(&before)
                .all(|(now, then)| now > then)
        });
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
                mon.update_weighted(i, 10);
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
        wait_until(|| {
            // Two rotations + the explicit marker: every shard past 2.
            mon.snapshot_epochs().iter().all(|&e| e > 2)
        });
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
            let out = mon.finish_and_query(0.1).expect("healthy pipeline");
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
            let out = mon.finish_and_query(0.1).expect("healthy pipeline");
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
        let before = mon.snapshot_epochs();
        mon.publish_now();
        wait_until(|| {
            mon.snapshot_epochs()
                .iter()
                .zip(&before)
                .all(|(now, then)| now > then)
        });
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
