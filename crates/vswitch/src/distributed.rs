//! The distributed integration: sampling in the switch, counting in one or
//! more "virtual machines".
//!
//! Section 5.2 of the paper: "HHH measurement can be performed in a
//! separate virtual machine. In that case, OVS forwards the relevant
//! traffic to the virtual machine. When RHHH operates with V > H, we only
//! forward the sampled packets and thus reduce overheads."
//!
//! The switch-side frontend makes the `r` draws in `[0, V)` per packet that
//! [`Rhhh::update`] would make (from the same seed, so one VM replays the
//! inline instance draw for draw), masks each selecting draw's key, and
//! forwards only those `(node, masked key)` samples — so a larger `V`
//! proportionally unloads both the switch and the link, which is the
//! monotone throughput-vs-V trend of Figure 8. Each VM is a measurement
//! thread that applies its samples with [`Rhhh::raw_update`].
//!
//! Samples route to `shard_of(masked key, vms)`, so every key's samples land
//! on one VM and each VM holds a key-partitioned slice of every node's
//! summary. [`DistributedRhhh::finish`] K-way-merges the slices with
//! [`Rhhh::merge_many`] (per-VM error bounds add, the merge analysis of
//! Mitzenmacher–Steinke–Thaler) and sets the merged `N` to the switch-side
//! packet count. Figure 8's single VM is `vms = 1`.
//!
//! The virtual link is the shard fleet's transport ([`crate::handoff`]): one
//! SPSC ring per VM carrying batches of a few thousand samples, so the
//! per-packet path only pushes into a plain buffer. A full ring
//! backpressures the switch (a lossless link: switch throughput is the
//! end-to-end sustainable rate, which is what Figure 8 reports). A VM that
//! dies never wedges the switch: samples routed to it are counted in
//! [`DistributedStats::dropped`], and `finish` reports the death as
//! [`MergeError::ShardFailed`] instead of a merged under-count.

use std::thread::JoinHandle;

use hhh_core::sampling::FastRng;
use hhh_core::{HeavyHitter, MergeError, Rhhh, RhhhConfig};
use hhh_hierarchy::{Lattice, NodeId};

use crate::datapath::DataplaneMonitor;
use crate::handoff::{
    conduit, join_shards, spawn_named, HandoffStats, ShardTx, SpawnError, QUEUE_BATCHES,
};
use crate::sharded::shard_of;

/// Samples per hand-off batch (the CLI's shard batch grain).
const SAMPLE_BATCH: usize = 4_096;

/// One forwarded sample: the selected lattice node and the masked key.
type Sample = (u16, u64);

/// Statistics of a distributed run.
///
/// In the stats [`DistributedRhhh::finish`] returns, every switch-side
/// draw is accounted for exactly once:
/// `packets · r == forwarded + dropped + unsampled` (pinned by the
/// `distributed_props` property suite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributedStats {
    /// Packets the switch processed.
    pub packets: u64,
    /// Samples handed to a live measurement VM.
    pub forwarded: u64,
    /// Samples routed to a VM that had died.
    pub dropped: u64,
    /// Draws that selected no node (the `1 − H/V` fraction that never
    /// leaves the switch).
    pub unsampled: u64,
}

/// Switch-side frontend plus `vms` measurement threads.
///
/// Create with [`DistributedRhhh::spawn`], feed packets via `update` (or
/// use it as a [`DataplaneMonitor`]), then call [`DistributedRhhh::finish`]
/// to join the VMs and query the merged result.
#[derive(Debug)]
pub struct DistributedRhhh {
    senders: Vec<ShardTx<Vec<Sample>>>,
    handles: Vec<JoinHandle<Rhhh<u64>>>,
    bufs: Vec<Vec<Sample>>,
    link: HandoffStats,
    masks: Vec<u64>,
    rng: FastRng,
    v: u64,
    h: u64,
    r: u32,
    stats: DistributedStats,
}

impl DistributedRhhh {
    /// Spawns `vms` measurement threads (`vm-0` …), each with its own
    /// ring and an [`Rhhh`] backend built from `config`.
    ///
    /// # Errors
    ///
    /// [`SpawnError`] when the OS refuses a thread.
    ///
    /// # Panics
    ///
    /// Panics when `vms` is zero or `config` is invalid for [`Rhhh::new`].
    pub fn spawn(
        lattice: Lattice<u64>,
        config: RhhhConfig,
        vms: usize,
    ) -> Result<Self, SpawnError> {
        assert!(vms > 0, "need at least one measurement VM");
        let masks = lattice.node_ids().map(|n| lattice.mask(n)).collect();
        let h = lattice.num_nodes() as u64;
        let mut senders = Vec::with_capacity(vms);
        let mut handles = Vec::with_capacity(vms);
        for vm in 0..vms {
            let mut backend = Rhhh::<u64>::new(lattice.clone(), config);
            let (tx, rx) = conduit::<Vec<Sample>>(QUEUE_BATCHES);
            let handle = spawn_named(format!("vm-{vm}"), move || {
                while let Some(batch) = rx.recv() {
                    for (node, key) in batch {
                        backend.raw_update(NodeId(node), key);
                    }
                }
                backend
            })?;
            senders.push(tx.bind(handle.thread().clone()));
            handles.push(handle);
        }
        Ok(Self {
            senders,
            handles,
            bufs: (0..vms).map(|_| Vec::with_capacity(SAMPLE_BATCH)).collect(),
            link: HandoffStats::default(),
            masks,
            rng: FastRng::new(config.seed),
            v: config.v_scale * h,
            h,
            r: config.updates_per_packet,
            stats: DistributedStats::default(),
        })
    }

    /// Number of measurement VMs.
    #[must_use]
    pub fn vms(&self) -> usize {
        self.bufs.len()
    }

    /// Switch-side per-packet work: `r` O(1) draws; each selecting draw
    /// masks the key and buffers the sample for its key's VM.
    #[inline]
    pub fn update(&mut self, key2: u64) {
        self.stats.packets += 1;
        for _ in 0..self.r {
            let d = self.rng.bounded(self.v);
            if d < self.h {
                let masked = key2 & self.masks[d as usize];
                let vm = shard_of(masked, self.bufs.len());
                self.bufs[vm].push((d as u16, masked));
                if self.bufs[vm].len() == SAMPLE_BATCH {
                    self.send(vm);
                }
            } else {
                self.stats.unsampled += 1;
            }
        }
    }

    /// Hands VM `vm`'s buffered samples over its ring.
    fn send(&mut self, vm: usize) {
        let batch = std::mem::replace(&mut self.bufs[vm], Vec::with_capacity(SAMPLE_BATCH));
        let n = batch.len() as u64;
        if self.senders[vm].send(batch, &mut self.link) {
            self.stats.forwarded += n;
        } else {
            self.stats.dropped += n;
        }
    }

    /// Hands every partial batch to its VM.
    fn flush(&mut self) {
        for vm in 0..self.bufs.len() {
            if !self.bufs[vm].is_empty() {
                self.send(vm);
            }
        }
    }

    /// The run statistics so far. Samples still buffered for a VM are not
    /// yet counted as forwarded or dropped; the ledger closes at
    /// [`DistributedRhhh::finish`].
    #[must_use]
    pub fn stats(&self) -> DistributedStats {
        self.stats
    }

    /// Flushes, joins every VM and merges their summaries into one
    /// queryable instance whose `N` is the switch-side packet count.
    ///
    /// # Errors
    ///
    /// [`MergeError::ShardFailed`] when a VM thread died: its slice of the
    /// summary is gone, so a merged answer would silently under-count. The
    /// error names the first dead VM by index.
    pub fn finish(mut self) -> Result<(Rhhh<u64>, DistributedStats), MergeError> {
        self.flush();
        self.senders.clear(); // closes every ring; the VMs drain & exit
        let mut backends = join_shards(std::mem::take(&mut self.handles))?;
        let mut merged = backends.remove(0);
        merged.merge_many(backends);
        merged.note_packets(self.stats.packets);
        Ok((merged, self.stats))
    }

    /// Convenience: finish and immediately run `Output(θ)`.
    ///
    /// # Errors
    ///
    /// Propagates [`DistributedRhhh::finish`]'s `ShardFailed`.
    pub fn finish_and_query(
        self,
        theta: f64,
    ) -> Result<(Vec<HeavyHitter<u64>>, DistributedStats), MergeError> {
        let (backend, stats) = self.finish()?;
        Ok((backend.output(theta), stats))
    }
}

impl DataplaneMonitor for DistributedRhhh {
    #[inline]
    fn on_packet(&mut self, key2: u64) {
        self.update(key2);
    }

    fn label(&self) -> String {
        let base = if self.v == self.h {
            "RHHH".to_string()
        } else {
            format!("{}-RHHH", self.v / self.h)
        };
        match self.vms() {
            1 => format!("Distributed-{base}"),
            vms => format!("Distributed-{base}(x{vms} VMs)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhh_core::HhhAlgorithm;
    use hhh_hierarchy::pack2;

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

    fn planted_config() -> RhhhConfig {
        RhhhConfig {
            epsilon_s: 0.02,
            epsilon_a: 0.005,
            delta_s: 0.05,
            ..RhhhConfig::default()
        }
    }

    /// 30% of the stream from 10.20.0.0/16 to 8.8.8.8, the rest uniform.
    fn planted_key(i: u64, rng: &mut Lcg) -> u64 {
        if i % 10 < 3 {
            pack2(
                0x0A14_0000 | (rng.next() as u32 & 0xFFFF),
                u32::from_be_bytes([8, 8, 8, 8]),
            )
        } else {
            pack2(rng.next() as u32, rng.next() as u32)
        }
    }

    fn assert_finds_planted(dist: DistributedRhhh, seed: u64) {
        let lat = Lattice::ipv4_src_dst_bytes();
        let vms = dist.vms();
        let mut dist = dist;
        let mut rng = Lcg(seed);
        let n = 400_000u64;
        for i in 0..n {
            dist.update(planted_key(i, &mut rng));
        }
        let (backend, stats) = dist.finish().expect("VMs alive");
        assert_eq!(stats.packets, n);
        assert_eq!(stats.dropped, 0, "live VMs never drop");
        assert_eq!(stats.forwarded + stats.unsampled, n);
        assert_eq!(backend.packets(), n, "merged backend carries global N");
        let rendered: Vec<String> = backend
            .output(0.1)
            .iter()
            .map(|h| h.prefix.display(&lat))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|s| s.contains("10.20.0.0/16") && s.contains("8.8.8.8/32")),
            "{vms} VMs: missing planted HHH in {rendered:?}"
        );
    }

    fn assert_forwards_h_over_v(vms: usize, seed: u64) {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut dist = DistributedRhhh::spawn(lat, RhhhConfig::ten_rhhh(), vms).unwrap();
        let mut rng = Lcg(seed);
        let n = 200_000u64;
        for _ in 0..n {
            dist.update(rng.next());
        }
        let (backend, stats) = dist.finish().expect("VMs alive");
        let rate = stats.forwarded as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "forward rate {rate}");
        assert_eq!(stats.packets, stats.forwarded + stats.unsampled);
        assert_eq!(backend.total_updates(), stats.forwarded);
    }

    #[test]
    fn forwards_h_over_v_fraction() {
        assert_forwards_h_over_v(1, 1);
    }

    #[test]
    fn multi_vm_ten_rhhh_forwards_h_over_v() {
        assert_forwards_h_over_v(3, 77);
    }

    #[test]
    fn finds_planted_hhh_like_inline() {
        let lat = Lattice::ipv4_src_dst_bytes();
        assert_finds_planted(DistributedRhhh::spawn(lat, planted_config(), 1).unwrap(), 4);
    }

    #[test]
    fn multi_vm_fanout_finds_planted_hhh_and_accounts_packets() {
        for vms in [2usize, 4] {
            let lat = Lattice::ipv4_src_dst_bytes();
            let dist = DistributedRhhh::spawn(lat, planted_config(), vms).unwrap();
            assert_eq!(dist.vms(), vms);
            assert_finds_planted(dist, 40 + vms as u64);
        }
    }

    #[test]
    fn backend_n_matches_switch_packets() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut dist = DistributedRhhh::spawn(lat, RhhhConfig::default(), 1).unwrap();
        for i in 0..10_000u64 {
            dist.update(i);
        }
        let (backend, _) = dist.finish().unwrap();
        assert_eq!(backend.packets(), 10_000);
    }

    #[test]
    fn dead_vm_drops_samples_and_surfaces_as_merge_error() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let mut dist = DistributedRhhh::spawn(lat, RhhhConfig::default(), 2).unwrap();
        // A sample naming a node outside the lattice panics VM 1 on receipt.
        assert!(dist.senders[1].send(vec![(u16::MAX, 0)], &mut dist.link));
        let n = 400_000u64;
        for i in 0..n {
            dist.update(i.wrapping_mul(0x9E37_79B9));
        }
        dist.flush();
        // VM 1 pops nothing after the poison, so once its ring fills every
        // further sample for it is dropped instead of wedging the switch.
        let stats = dist.stats();
        assert!(stats.dropped > 0, "samples for the dead VM: {stats:?}");
        assert_eq!(stats.forwarded + stats.dropped + stats.unsampled, n);
        match dist.finish() {
            Err(MergeError::ShardFailed(msg)) => {
                assert!(msg.contains("shard 1"), "error names the VM: {msg}");
            }
            Ok(_) => panic!("finish must not merge a partial answer"),
            Err(e) => panic!("wrong error kind: {e}"),
        }
    }
}
