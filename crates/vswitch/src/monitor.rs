//! Monitor adapters: plug any HHH algorithm into the datapath hook.

use hhh_core::{HhhAlgorithm, Rhhh};
use hhh_counters::SpaceSaving;

use crate::datapath::DataplaneMonitor;

/// The unmodified-switch baseline: measurement disabled. Figure 6's
/// "OVS" bar.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoOpMonitor;

impl DataplaneMonitor for NoOpMonitor {
    #[inline]
    fn on_packet(&mut self, _key2: u64) {}

    fn label(&self) -> String {
        "NoOp".into()
    }
}

/// Wraps any [`HhhAlgorithm`] over the packed 2D key as a dataplane
/// monitor — RHHH, 10-RHHH, MST and Partial Ancestry all ride this adapter
/// in the Figure 6 comparison.
#[derive(Debug)]
pub struct AlgoMonitor<A> {
    algo: A,
}

impl<A: HhhAlgorithm<u64>> AlgoMonitor<A> {
    /// Wraps an algorithm instance.
    pub fn new(algo: A) -> Self {
        Self { algo }
    }

    /// The wrapped algorithm (for `Output(θ)` after the run).
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Unwraps the algorithm.
    pub fn into_algorithm(self) -> A {
        self.algo
    }
}

impl<A: HhhAlgorithm<u64>> DataplaneMonitor for AlgoMonitor<A> {
    #[inline]
    fn on_packet(&mut self, key2: u64) {
        self.algo.insert(key2);
    }

    fn label(&self) -> String {
        self.algo.name()
    }
}

/// Dataplane monitor driving an algorithm through its slice-at-a-time path
/// ([`HhhAlgorithm::insert_batch`], which RHHH overrides with the
/// geometric-skip `update_batch`): keys are buffered and flushed once the
/// batch fills — mirroring how DPDK-style datapaths already hand packets
/// to the processing stage in rx bursts, so the measurement hook batches
/// at the same grain as the switch itself.
///
/// Call [`BatchingMonitor::flush`] (or tear down via
/// [`BatchingMonitor::into_algorithm`], which flushes) before querying:
/// buffered keys are not yet visible to the algorithm.
#[derive(Debug)]
pub struct BatchingMonitor<A: HhhAlgorithm<u64> = Rhhh<u64, SpaceSaving<u64>>> {
    algo: A,
    buf: Vec<u64>,
    batch: usize,
}

impl<A: HhhAlgorithm<u64>> BatchingMonitor<A> {
    /// Wraps `algo`, flushing every `batch` packets (a DPDK-like rx-burst
    /// grain such as 256 works well).
    ///
    /// # Panics
    ///
    /// Panics when `batch` is zero.
    pub fn new(algo: A, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Self {
            algo,
            buf: Vec::with_capacity(batch),
            batch,
        }
    }

    /// Delivers all buffered keys to the algorithm.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.algo.insert_batch(&self.buf);
            self.buf.clear();
        }
    }

    /// Flushes and unwraps the algorithm for querying.
    pub fn into_algorithm(mut self) -> A {
        self.flush();
        self.algo
    }

    /// Keys currently buffered (not yet visible to the algorithm).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

impl<A: HhhAlgorithm<u64>> DataplaneMonitor for BatchingMonitor<A> {
    #[inline]
    fn on_packet(&mut self, key2: u64) {
        self.buf.push(key2);
        if self.buf.len() >= self.batch {
            self.algo.insert_batch(&self.buf);
            self.buf.clear();
        }
    }

    fn label(&self) -> String {
        format!("{}(batch)", self.algo.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::Datapath;
    use crate::packet::build_udp_frame;
    use hhh_core::{CounterKind, Rhhh, RhhhConfig};
    use hhh_hierarchy::Lattice;

    #[test]
    fn rhhh_monitor_counts_datapath_traffic() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let algo = Rhhh::<u64>::new(lat, RhhhConfig::default());
        let mut dp = Datapath::new(AlgoMonitor::new(algo));

        let frame = build_udp_frame(
            u32::from_be_bytes([10, 20, 1, 1]),
            u32::from_be_bytes([8, 8, 8, 8]),
            1000,
            80,
            22,
        );
        for _ in 0..5_000 {
            dp.process_frame(&frame).expect("valid");
        }
        let algo = dp.into_monitor().into_algorithm();
        assert_eq!(algo.packets(), 5_000);
        // A single flow carries 100% of traffic: it must be an HHH.
        let out = algo.query(0.5);
        assert!(!out.is_empty());
    }

    #[test]
    fn batching_monitor_matches_packet_counts_and_finds_hhh() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let algo = Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh());
        let mut dp = Datapath::new(BatchingMonitor::new(algo, 256));
        let frame = build_udp_frame(
            u32::from_be_bytes([10, 20, 1, 1]),
            u32::from_be_bytes([8, 8, 8, 8]),
            1000,
            80,
            22,
        );
        for _ in 0..5_000 {
            dp.process_frame(&frame).expect("valid");
        }
        // 5000 = 19 full 256-batches + 136 pending.
        let monitor = dp.monitor();
        assert_eq!(monitor.pending(), 5_000 % 256);
        let algo = dp.into_monitor().into_algorithm();
        assert_eq!(algo.packets(), 5_000, "into_algorithm flushes the tail");
        assert!(!algo.query(0.5).is_empty());
    }

    #[test]
    fn explicit_flush_drains_buffer() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let algo = Rhhh::<u64>::new(lat, RhhhConfig::default());
        let mut m = BatchingMonitor::new(algo, 1024);
        for i in 0..10u64 {
            m.on_packet(i);
        }
        assert_eq!(m.pending(), 10);
        m.flush();
        assert_eq!(m.pending(), 0);
        let algo = m.into_algorithm();
        assert_eq!(algo.packets(), 10);
    }

    #[test]
    fn dyn_batching_monitor_selects_counter_at_runtime() {
        let lat = Lattice::ipv4_src_dst_bytes();
        for kind in CounterKind::roster() {
            let mut dp = Datapath::new(BatchingMonitor::new(
                kind.build_rhhh(lat.clone(), RhhhConfig::default()),
                64,
            ));
            let frame = build_udp_frame(
                u32::from_be_bytes([10, 20, 1, 1]),
                u32::from_be_bytes([8, 8, 8, 8]),
                1000,
                80,
                22,
            );
            for _ in 0..3_000 {
                dp.process_frame(&frame).expect("valid");
            }
            let algo = dp.into_monitor().into_algorithm();
            assert_eq!(algo.packets(), 3_000, "{}", kind.label());
            assert!(!algo.query(0.5).is_empty(), "{}", kind.label());
        }
    }

    #[test]
    fn labels_propagate_algorithm_names() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let m = AlgoMonitor::new(Rhhh::<u64>::new(lat.clone(), RhhhConfig::default()));
        assert_eq!(m.label(), "RHHH");
        let m10 = AlgoMonitor::new(Rhhh::<u64>::new(lat, RhhhConfig::ten_rhhh()));
        assert_eq!(m10.label(), "10-RHHH");
        assert_eq!(NoOpMonitor.label(), "NoOp");
    }
}
