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
//! * [`distributed`] — the paper's second integration (Figure 8): the
//!   switch only *samples* (`r` draws of `d < H` per packet) and forwards
//!   the sampled `(node, masked key)` pairs, batched over the fleet's ring
//!   hand-off, to one or more measurement threads standing in for the
//!   monitoring VMs; several VMs split the samples by key hash and merge
//!   at finish.
//! * [`handoff`] — the transport both worker fleets share: one SPSC ring
//!   per worker with spin-then-park backpressure, named spawning, and the
//!   join that turns a dead worker into `MergeError::ShardFailed`.
//! * [`sharded`] — RSS-style shard parallelism: packets hash-partition
//!   across worker threads, each running the geometric-skip batch path on
//!   its own pane ring (never rotated for the whole-stream answer, rotated
//!   at global pane boundaries for the sliding window); queries merge the
//!   per-shard summaries.
//! * [`wire`] — the zero-copy wire ingest plane: resolves raw
//!   [`hhh_traces::FrameBlock`]s into virtual key lanes and feeds
//!   `Rhhh::update_batch_wire` without materializing packet structs,
//!   bit-identical to the struct-fed pipeline.

pub mod datapath;
pub mod distributed;
pub mod flow_table;
pub mod handoff;
pub mod monitor;
pub mod packet;
pub mod sharded;
pub mod wire;

pub use datapath::{Datapath, DatapathStats, DataplaneMonitor};
pub use distributed::{DistributedRhhh, DistributedStats};
pub use flow_table::{Action, FlowKey, MegaflowTable, MicroflowCache};
pub use handoff::{HandoffStats, SpawnError, SpawnOptions};
pub use monitor::{
    AlgoMonitor, BatchingMonitor, CompactBatchingMonitor, DynBatchingMonitor, NoOpMonitor,
};
pub use packet::{build_udp_frame, EthernetFrame, Ipv4View, ParseError, UdpView};
pub use sharded::{shard_of, shard_seed, ShardSnapshot, ShardedMonitor};
pub use wire::WireBlockView;
