//! Shared helpers for the Criterion benchmark suite.
//!
//! The benches mirror the paper's performance experiments:
//!
//! * `update_speed` — Figure 5: per-packet update cost of every algorithm
//!   on each hierarchy.
//! * `vswitch_throughput` — Figures 6/7: dataplane pipeline throughput per
//!   monitor and per V.
//! * `counter_ablation` — the DESIGN.md ablation: the two Space Saving
//!   layouts vs the other counter algorithms.
//! * `output_latency` — `Output(θ)` query cost (off the per-packet path,
//!   but relevant for monitoring cadence).

use hhh_traces::{Packet, TraceConfig, TraceGenerator};

/// Pre-materialized benchmark workload (generation stays outside the timed
/// region, matching the paper's methodology of replaying trace files).
pub struct Workload {
    /// 1D keys (source address).
    pub keys1: Vec<u32>,
    /// 2D packed keys (source × destination).
    pub keys2: Vec<u64>,
    /// Full packet records for the vswitch pipeline.
    pub packets: Vec<Packet>,
}

impl Workload {
    /// Generates `n` packets of the chicago16 preset.
    #[must_use]
    pub fn chicago16(n: usize) -> Self {
        let packets = TraceGenerator::new(&TraceConfig::chicago16()).take_packets(n);
        Self {
            keys1: packets.iter().map(Packet::key1).collect(),
            keys2: packets.iter().map(Packet::key2).collect(),
            packets,
        }
    }
}

/// Shared steady-state pre-warm: streams `packets` *fresh* packets from
/// `gen` to `sink` in `chunk`-sized key slices, reusing one buffer.
///
/// Benchmarks that measure the full/evicting steady state (the regime a
/// long-running monitor lives in) warm their instances with the *next*
/// packets of the same generator that produced the measured workload — a
/// non-repeating trace, so the warmed state carries the trace's true
/// key-churn statistics (replaying the workload K× would over-represent
/// its tail keys as recurring flows). `key_of` selects the key dimension
/// (`Packet::key1` for 1D, `Packet::key2` for 2D), so the `update_speed`
/// and `counter_ablation` warm-ups share this one implementation.
///
/// Generic over the packet source: any infinite `Iterator<Item = Packet>`
/// works — `TraceGenerator` and `ScenarioGenerator` alike.
pub fn warm_stream<K>(
    gen: &mut impl Iterator<Item = Packet>,
    packets: usize,
    chunk: usize,
    key_of: impl Fn(&Packet) -> K,
    mut sink: impl FnMut(&[K]),
) {
    assert!(chunk > 0, "warm-up chunk must be positive");
    let mut buf: Vec<K> = Vec::with_capacity(chunk);
    let mut warmed = 0usize;
    while warmed < packets {
        buf.clear();
        let take = chunk.min(packets - warmed);
        for _ in 0..take {
            buf.push(key_of(&gen.next().expect("packet generators are infinite")));
        }
        sink(&buf);
        warmed += take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_materializes_consistently() {
        let w = Workload::chicago16(1_000);
        assert_eq!(w.keys1.len(), 1_000);
        assert_eq!(w.keys2.len(), 1_000);
        assert_eq!(w.packets.len(), 1_000);
        assert_eq!(w.keys1[0], w.packets[0].src);
        assert_eq!(w.keys2[0] >> 32, u64::from(w.packets[0].src));
    }

    #[test]
    fn warm_stream_delivers_exactly_n_fresh_keys() {
        let mut gen = TraceGenerator::new(&TraceConfig::chicago16());
        let mut total = 0usize;
        let mut chunks = 0usize;
        warm_stream(&mut gen, 1_000, 256, Packet::key2, |chunk| {
            assert!(chunk.len() <= 256);
            total += chunk.len();
            chunks += 1;
        });
        assert_eq!(total, 1_000);
        assert_eq!(chunks, 4, "3 full chunks + the 232-key tail");
        // The generator advanced past the warm packets: the next draw
        // continues the trace rather than restarting it.
        let continued = gen.generate();
        let mut fresh = TraceGenerator::new(&TraceConfig::chicago16());
        let first = fresh.generate();
        assert!(
            continued.key2() != first.key2() || continued.wire_len != first.wire_len,
            "warm-up must consume the generator"
        );
    }
}
