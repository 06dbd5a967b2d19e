//! A simulated Open-vSwitch-like software dataplane.
//!
//! Section 5 of the RHHH paper integrates the algorithm into the DPDK build
//! of Open vSwitch and measures dataplane throughput (Figures 6–8). The
//! physical testbed (two Xeon servers, 10 GbE NICs, MoonGen) is hardware we
//! substitute per DESIGN.md: this crate reproduces the *architecture* that
//! determines the result — a fast per-packet pipeline whose measurement hook
//! cost is what separates the algorithms:
//!
//! ```text
//!   frame bytes ──► parse (Ethernet/IPv4/UDP views)
//!               ──► measurement hook (DataplaneMonitor)
//!               ──► microflow cache (exact-match, like OVS's EMC)
//!               ──► megaflow table (per-mask hash tables, tuple-space search)
//!               ──► action (output port / drop)
//! ```
//!
//! * [`packet`] — zero-copy packet views in the smoltcp style: checked
//!   constructors over `&[u8]`, accessor methods, and builders for the
//!   64-byte UDP test frames the paper's generator produces.
//! * [`flow_table`] — the two OVS lookup tiers: an exact-match
//!   [`flow_table::MicroflowCache`] backed by a hash map, and a
//!   [`flow_table::MegaflowTable`] that searches one hash table per
//!   distinct wildcard mask (OVS's tuple-space design).
//! * [`datapath`] — the pipeline plus [`datapath::DataplaneMonitor`], the
//!   measurement hook; [`monitor`] adapts any [`hhh_core::HhhAlgorithm`]
//!   into a monitor (inline dataplane integration, Figure 6/7).
//! * [`handoff`] — the shard fleet's transport: one SPSC ring per worker
//!   with spin-then-park backpressure, named spawning, and the join that
//!   turns a dead worker into `MergeError::ShardFailed`.
//! * [`sharded`] — the paper's second integration (§5.2, Figure 8) and
//!   RSS-style shard parallelism in one fleet: the ingress samples every
//!   packet (`r` draws, `H/V` selected), routes the masked samples by key
//!   hash to worker threads that only flush, each into its own pane ring
//!   (never rotated for the whole-stream answer, rotated at global pane
//!   boundaries for the sliding window); queries and the harvest combine
//!   the per-shard slices into one read-only view. Figure 8's measurement VM is this fleet with one shard.
//! * [`wire`] — the zero-copy wire ingest plane: resolves raw
//!   [`hhh_traces::FrameBlock`]s into virtual key lanes and feeds
//!   `Rhhh::update_batch_wire` without materializing packet structs,
//!   bit-identical to the struct-fed pipeline.

pub mod datapath;
pub mod flow_table;
pub mod handoff;
pub mod monitor;
pub mod packet;
pub mod sharded;
pub mod wire;

pub use datapath::{Datapath, DatapathStats, DataplaneMonitor};
pub use flow_table::{Action, FlowKey, MegaflowTable, MicroflowCache};
pub use handoff::{HandoffStats, SpawnError, SpawnOptions};
pub use monitor::{AlgoMonitor, BatchingMonitor, NoOpMonitor};
pub use packet::{build_udp_frame, EthernetFrame, Ipv4View, ParseError, UdpView};
pub use sharded::{shard_of, ShardedMonitor};
pub use wire::WireBlockView;

/// Paper §5.2's distributed deployment (Figure 8): the switch samples and
/// forwards only the sampled packets to measurement VMs. That deployment is
/// the [`sharded`] fleet — one shard per VM — and these tests pin it through
/// the fleet's public API.
#[cfg(test)]
mod distributed {
    mod tests {
        use crate::ShardedMonitor;
        use hhh_core::{MergeError, RhhhConfig};
        use hhh_counters::SpaceSaving;
        use hhh_hierarchy::{pack2, Lattice};

        /// Samples handed to a VM per send, as Figure 8 runs the fleet.
        const BATCH: usize = 4_096;

        type Fleet = ShardedMonitor<u64, SpaceSaving<u64>>;

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

        fn assert_finds_planted(vms: usize, seed: u64) {
            let lat = Lattice::ipv4_src_dst_bytes();
            let mut fleet = Fleet::spawn(lat.clone(), planted_config(), vms, BATCH).unwrap();
            assert_eq!(fleet.shards(), vms);
            let mut rng = Lcg(seed);
            let n = 400_000u64;
            for i in 0..n {
                fleet.update(planted_key(i, &mut rng));
            }
            fleet.flush();
            assert_eq!(fleet.packets(), n);
            assert!(
                fleet.handoff_stats().iter().all(|s| s.dropped == 0),
                "live VMs never drop"
            );
            let backend = fleet.harvest().expect("VMs alive");
            assert_eq!(backend.packets(), n, "merged backend carries global N");
            assert_eq!(backend.total_weight(), n);
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
            let mut fleet = Fleet::spawn(lat, RhhhConfig::ten_rhhh(), vms, BATCH).unwrap();
            let mut rng = Lcg(seed);
            let n = 200_000u64;
            for _ in 0..n {
                fleet.update(rng.next());
            }
            let backend = fleet.harvest().expect("VMs alive");
            let rate = backend.total_updates() as f64 / n as f64;
            assert!((rate - 0.1).abs() < 0.01, "forward rate {rate}");
            assert_eq!(backend.packets(), n);
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
            assert_finds_planted(1, 4);
        }

        #[test]
        fn multi_vm_fanout_finds_planted_hhh_and_accounts_packets() {
            for vms in [2usize, 4] {
                assert_finds_planted(vms, 40 + vms as u64);
            }
        }

        #[test]
        fn backend_n_matches_switch_packets() {
            let lat = Lattice::ipv4_src_dst_bytes();
            let mut fleet = Fleet::spawn(lat, RhhhConfig::default(), 1, BATCH).unwrap();
            for i in 0..10_000u64 {
                fleet.update(i);
            }
            let backend = fleet.harvest().unwrap();
            assert_eq!(backend.packets(), 10_000);
        }

        #[test]
        fn dead_vm_drops_samples_and_surfaces_as_merge_error() {
            let lat = Lattice::ipv4_src_dst_bytes();
            let mut fleet = Fleet::spawn(lat, RhhhConfig::default(), 2, BATCH).unwrap();
            fleet.inject_shard_failure(1);
            let n = 400_000u64;
            for i in 0..n {
                fleet.update(i.wrapping_mul(0x9E37_79B9));
            }
            fleet.flush();
            // VM 1 pops nothing after the poison, so every further send to
            // it is dropped instead of wedging the switch.
            let stats = fleet.handoff_stats();
            assert!(stats[1].dropped > 0, "samples for the dead VM: {stats:?}");
            assert_eq!(stats[0].dropped, 0, "the live VM keeps receiving");
            assert_eq!(fleet.packets(), n, "the switch still counts every packet");
            match fleet.harvest() {
                Err(MergeError::ShardFailed(msg)) => {
                    assert!(msg.contains("shard 1"), "error names the VM: {msg}");
                }
                Ok(_) => panic!("harvest must not merge a partial answer"),
                Err(e) => panic!("wrong error kind: {e}"),
            }
        }
    }
}
