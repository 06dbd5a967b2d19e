//! `pcap-wire`: raw bytes to an answer on one thread. A seeded ddos-ramp
//! scenario is written once as a pcap file; each round reads it back with
//! `PcapReader::read_block`, resolves every block with `WireBlockView::new`
//! (the validated plane, since pcap blocks are never trusted) and feeds
//! 10-RHHH through `ingest`, asking `Output(θ)` at fixed offsets. At
//! `V = 10H` the sketch is cheap, so the pcap and wire layers do most of
//! the work. No other workload touches them.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use hhh_core::{ExactHhh, HeavyHitter, HhhAlgorithm, Rhhh, RhhhConfig};
use hhh_hierarchy::Lattice;
use hhh_traces::{
    write_pcap, FrameBlock, PcapReader, ScenarioConfig, ScenarioGenerator, ScenarioKind,
};
use hhh_vswitch::WireBlockView;

use crate::{median, oracle, percentile, span, sys, Round, Workload};

/// Frames per `read_block` call.
const BLOCK: usize = 4096;
/// Warm-up blocks (2,048,000 packets): the first timed query then sits at
/// a slack of about a quarter of `θ·N`.
const WARM_BLOCKS: usize = 500;
/// Timed queries per round, one every `BLOCKS_PER_QUERY` blocks.
const QUERIES: usize = 16;
const BLOCKS_PER_QUERY: usize = 25;
const THETA: f64 = 0.25;

pub struct PcapWire {
    path: PathBuf,
    scenario: ScenarioConfig,
    config: RhhhConfig,
}

impl PcapWire {
    const PACKETS: usize = (WARM_BLOCKS + QUERIES * BLOCKS_PER_QUERY) * BLOCK;

    pub fn prepare(seed: u64) -> Result<Self, String> {
        let scenario = ScenarioConfig::new(ScenarioKind::DdosRamp).with_seed(seed);
        // The pcap goes next to the benchmark's executable, in the build
        // directory, so it stays out of the source tree.
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let path = exe.with_file_name(format!("pcap-wire-{}.pcap", std::process::id()));
        let packets = ScenarioGenerator::new(&scenario).take_packets(Self::PACKETS);
        let workload = Self {
            path,
            scenario,
            config: RhhhConfig::ten_rhhh(),
        };
        write_pcap(&workload.path, &packets)
            .map_err(|e| format!("writing {}: {e}", workload.path.display()))?;
        Ok(workload)
    }
}

impl Drop for PcapWire {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl Workload for PcapWire {
    const THREADS: usize = 1;

    fn round(&mut self, traced: bool, sample_rss: bool) -> Round {
        let mut r = Round::default();
        let rss_base = sample_rss.then(sys::rss_mib);
        let mut block = FrameBlock::with_capacity(BLOCK);
        let read = |reader: &mut PcapReader, block: &mut FrameBlock| {
            reader
                .read_block(block, BLOCK)
                .expect("the benchmark's own pcap reads back")
        };

        let setup = Instant::now();
        let mut reader = PcapReader::open(&self.path).expect("the benchmark's own pcap opens");
        let mut algo = Rhhh::<u64>::new(Lattice::ipv4_src_dst_bytes(), self.config);
        for _ in 0..WARM_BLOCKS {
            read(&mut reader, &mut block);
            WireBlockView::new(&block).ingest(&mut algo);
        }
        r.setup_s = setup.elapsed().as_secs_f64();
        r.note_rss(rss_base);

        let (mut read_s, mut classify_s, mut sketch_s) = (0.0, 0.0, 0.0);
        let (mut accepted, mut skipped) = (0u64, 0u64);
        let mut cpu = sys::process_cpu_s();
        let region = Instant::now();
        for _ in 0..QUERIES {
            // One feed step per block.
            for _ in 0..BLOCKS_PER_QUERY {
                let feed = Instant::now();
                r.packets += span(traced, &mut read_s, || read(&mut reader, &mut block)) as u64;
                let view = span(traced, &mut classify_s, || WireBlockView::new(&block));
                span(traced, &mut sketch_s, || view.ingest(&mut algo));
                r.feed_s.push(feed.elapsed().as_secs_f64());
                accepted += view.len() as u64;
                skipped += view.skipped_non_ipv4() + view.skipped_truncated();
            }
            let ask = Instant::now();
            let answer = algo.output(THETA);
            let latency_us = ask.elapsed().as_secs_f64() * 1e6;
            let ratio = algo.slack() / (THETA * algo.total_weight() as f64);
            r.record_query(latency_us, answer.len(), ratio);
            r.note_rss(rss_base);
            r.note_cpu(&mut cpu);
            r.final_answer = answer;
        }
        r.wall_s = region.elapsed().as_secs_f64();
        // The pcap holds exactly the fed packets.
        r.attempted += 1;
        if read(&mut reader, &mut block) != 0 || algo.packets() != Self::PACKETS as u64 {
            r.failed += 1;
        }
        r.final_slack = algo.slack();

        if traced {
            let per_pkt = |s: f64| s * 1e9 / r.packets as f64;
            let queries_s: f64 = r.query_us.iter().sum::<f64>() / 1e6;
            let sizes: Vec<f64> = r.answer_sizes.iter().map(|&n| n as f64).collect();
            let layers = [
                ("pcap.read_ns_per_pkt", per_pkt(read_s)),
                ("pcap.skipped", skipped as f64),
                ("wire.classify_ns_per_pkt", per_pkt(classify_s)),
                ("wire.accept_ratio", accepted as f64 / r.packets as f64),
                ("sketch.ns_per_pkt", per_pkt(sketch_s)),
                (
                    "sketch.updates_per_pkt",
                    algo.total_updates() as f64 / algo.packets() as f64,
                ),
                ("output.us", median(&r.query_us)),
                ("output.hhh", percentile(&sizes, 0.5)),
                ("output.slack_ratio", r.max_slack_ratio),
            ];
            r.set_layers(&layers, read_s + classify_s + sketch_s + queries_s, true);
        }
        r
    }

    fn check(&self, answer: &[HeavyHitter<u64>], slack: f64) -> Vec<String> {
        let mut exact = ExactHhh::new(Lattice::ipv4_src_dst_bytes());
        for p in ScenarioGenerator::new(&self.scenario).take(Self::PACKETS) {
            exact.insert(p.key2());
        }
        oracle::check(&exact, answer, THETA, self.config.epsilon_a, slack)
    }
}
