//! Datapath integration: raw frames through the switch with measurement
//! attached, inline vs sample-and-forward fleet equivalence,
//! malformed-input robustness.

use hhh_core::{HhhAlgorithm, Rhhh, RhhhConfig};
use hhh_hierarchy::Lattice;
use hhh_traces::{AttackConfig, TraceConfig, TraceGenerator};
use hhh_vswitch::{build_udp_frame, Action, AlgoMonitor, Datapath, NoOpMonitor, ShardedMonitor};

fn attack_trace() -> TraceConfig {
    TraceConfig::chicago16().with_attack(AttackConfig {
        subnet: u32::from_be_bytes([10, 20, 0, 0]),
        subnet_bits: 16,
        victim: u32::from_be_bytes([8, 8, 8, 8]),
        fraction: 0.25,
    })
}

fn loose_config(seed: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.01,
        epsilon_s: 0.03,
        delta_s: 0.01,
        v_scale: 1,
        updates_per_packet: 1,
        seed,
    }
}

#[test]
fn inline_monitor_detects_attack_through_frames() {
    let lattice = Lattice::ipv4_src_dst_bytes();
    let algo = Rhhh::<u64>::new(lattice.clone(), loose_config(1));
    let mut dp = Datapath::new(AlgoMonitor::new(algo));
    let mut gen = TraceGenerator::new(&attack_trace());
    let n = 200_000;
    for _ in 0..n {
        let p = gen.generate();
        let frame = build_udp_frame(p.src, p.dst, p.src_port, p.dst_port, 22);
        assert_eq!(dp.process_frame(&frame), Ok(Action::Output(1)));
    }
    assert_eq!(dp.stats().forwarded, n);
    assert_eq!(dp.stats().malformed, 0);

    let algo = dp.into_monitor().into_algorithm();
    assert_eq!(algo.packets(), n);
    let found = algo
        .query(0.1)
        .iter()
        .any(|h| h.prefix.display(&lattice).contains("10.20.0.0/16"));
    assert!(found, "attack subnet must surface through the frame path");
}

#[test]
fn distributed_agrees_with_inline_on_attack() {
    let lattice = Lattice::ipv4_src_dst_bytes();

    let mut inline = Rhhh::<u64>::new(lattice.clone(), loose_config(2));
    let mut fleet = ShardedMonitor::<u64>::spawn(lattice.clone(), loose_config(2), 1, 4_096)
        .expect("spawn measurement shard");

    let mut gen = TraceGenerator::new(&attack_trace());
    let keys: Vec<u64> = (0..250_000).map(|_| gen.generate().key2()).collect();
    for chunk in keys.chunks(4_096) {
        inline.update_batch(chunk);
        fleet.update_batch(chunk);
    }
    fleet.flush();
    assert_eq!(fleet.handoff_stats()[0].dropped, 0);
    let fleet_out = fleet.harvest().expect("shard alive").output(0.1);

    let inline_found: Vec<String> = inline
        .output(0.1)
        .iter()
        .map(|h| h.prefix.display(&lattice))
        .filter(|s| s.contains("10.20.0.0/16"))
        .collect();
    let fleet_found: Vec<String> = fleet_out
        .iter()
        .map(|h| h.prefix.display(&lattice))
        .filter(|s| s.contains("10.20.0.0/16"))
        .collect();
    assert!(!inline_found.is_empty(), "inline missed the attack");
    assert!(!fleet_found.is_empty(), "fleet missed the attack");
    // One shard on the inline seed replays inline `update_batch` draw for
    // draw and flush for flush.
    assert_eq!(fleet_out, inline.output(0.1));
}

#[test]
fn malformed_frames_do_not_poison_measurement() {
    let lattice = Lattice::ipv4_src_dst_bytes();
    let algo = Rhhh::<u64>::new(lattice, loose_config(3));
    let mut dp = Datapath::new(AlgoMonitor::new(algo));
    let mut gen = TraceGenerator::new(&TraceConfig::sanjose13());
    let mut good = 0u64;
    for i in 0..50_000u64 {
        if i % 10 == 0 {
            // Inject garbage: truncated frames, wrong ethertype, bad IHL.
            let junk = match i % 3 {
                0 => vec![0u8; (i % 13) as usize],
                1 => {
                    let mut f = build_udp_frame(1, 2, 3, 4, 22);
                    f[12] = 0x86;
                    f[13] = 0xDD;
                    f
                }
                _ => {
                    let mut f = build_udp_frame(1, 2, 3, 4, 22);
                    f[14] = 0x43; // IHL < 5
                    f
                }
            };
            assert!(dp.process_frame(&junk).is_err());
        } else {
            let p = gen.generate();
            let frame = build_udp_frame(p.src, p.dst, p.src_port, p.dst_port, 22);
            dp.process_frame(&frame).expect("valid frame");
            good += 1;
        }
    }
    let stats = dp.stats();
    assert_eq!(stats.malformed, 50_000 - good);
    // The monitor saw exactly the valid packets.
    assert_eq!(dp.monitor().algorithm().packets(), good);
}

#[test]
fn noop_switch_forwards_at_line_rate_semantics() {
    let mut dp = Datapath::new(NoOpMonitor);
    let mut gen = TraceGenerator::new(&TraceConfig::chicago15());
    for _ in 0..100_000 {
        dp.process_packet(&gen.generate());
    }
    let stats = dp.stats();
    assert_eq!(stats.received, 100_000);
    assert_eq!(stats.forwarded, 100_000);
    assert!(
        dp.microflow_hits() > 30_000,
        "EMC must be effective on flows"
    );
}
