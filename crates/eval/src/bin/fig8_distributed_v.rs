//! Figure 8 — Distributed-implementation throughput vs V.
//!
//! Paper: the switch forwards only sampled packets to a measurement VM;
//! throughput again improves with V (fewer samples cross the link), and
//! sits slightly below the dataplane integration while freeing the switch
//! from counter maintenance. Here the switch is a one-shard
//! `ShardedMonitor` behind the datapath: its ingress samples, its worker
//! thread is the VM, and the link is the fleet's SPSC ring carrying
//! 4096-sample batches with blocking backpressure, so the number is the
//! end-to-end sustainable rate. The forwarded fraction is the harvest's
//! sampled updates per packet.

use std::time::Instant;

use hhh_core::RhhhConfig;
use hhh_eval::{Args, Report};
use hhh_hierarchy::Lattice;
use hhh_stats::Summary;
use hhh_traces::{Packet, TraceConfig, TraceGenerator};
use hhh_vswitch::{Datapath, ShardedMonitor};

fn main() {
    let args = Args::parse(4_000_000, 3);
    let mut report = Report::new(
        "fig8_distributed_v",
        &["v", "v_scale", "mpps", "ci95_half", "forwarded_fraction"],
    );
    report.comment(&format!(
        "fig8: 2D bytes (H=25), chicago16, eps=delta=0.001, 1 VM, batch=4096 samples, packets={}, runs={}",
        args.packets, args.runs
    ));

    let packets: Vec<Packet> =
        TraceGenerator::new(&TraceConfig::chicago16()).take_packets(args.packets as usize);
    let lattice = Lattice::ipv4_src_dst_bytes();

    // Warm-up pass: touch every packet once outside the timed region.
    let warm: u64 = packets
        .iter()
        .map(|p| u64::from(p.src) ^ u64::from(p.dst))
        .sum();
    std::hint::black_box(warm);

    for v_scale in 1..=10u64 {
        let mut summary = Summary::new();
        let mut forwarded_fraction = 0.0;
        for run in 0..args.runs {
            let fleet = ShardedMonitor::<u64>::spawn(
                lattice.clone(),
                RhhhConfig {
                    epsilon_a: 0.001,
                    epsilon_s: 0.001,
                    delta_s: 0.0005,
                    v_scale,
                    updates_per_packet: 1,
                    seed: 0xF168 + u64::from(run),
                },
                1,
                4_096,
            )
            .expect("spawn measurement VM");
            let mut dp = Datapath::new(fleet);
            let start = Instant::now();
            for p in &packets {
                dp.process_packet(p);
            }
            let elapsed = start.elapsed().as_secs_f64();
            let merged = dp.into_monitor().harvest().expect("measurement VM alive");
            summary.add(packets.len() as f64 / elapsed / 1e6);
            forwarded_fraction = merged.total_updates() as f64 / merged.packets() as f64;
        }
        let ci = summary.confidence_interval(0.95);
        report.row(&[
            (v_scale * 25).to_string(),
            v_scale.to_string(),
            format!("{:.3}", summary.mean()),
            format!("{:.3}", ci.half_width()),
            format!("{:.4}", forwarded_fraction),
        ]);
    }
}
