//! `window-v1`: plain RHHH (`V = H`) in a `WindowedRhhh` pane ring, fed
//! pre-extracted multi-tenant keys through `update_batch` on one thread.
//! Every packet updates a node, so the estimator flush of the batch
//! pipeline dominates ingest. Each pane gets one query right after its
//! rotation (which pays the K-way merge) and three mid-pane queries (which
//! read the cached merge): a quarter of the queries merge, so the p50
//! reads a cached `Output(θ)`, the p90 a post-rotation merge, and neither
//! percentile falls on the boundary between the two. This workload skips
//! pcap, wire and shards, and is the only one that exercises the window.

use std::time::Instant;

use hhh_core::{ExactHhh, HeavyHitter, HhhAlgorithm, RhhhConfig, WindowedRhhh};
use hhh_hierarchy::Lattice;
use hhh_traces::{ScenarioConfig, ScenarioGenerator, ScenarioKind};

use crate::{median, oracle, percentile, span, sys, Round, SlackProbe, Workload};

const PANES: usize = 4;
/// Pane length `⌈W/G⌉`; the window is `PANES` of them (2,097,152 packets),
/// which keeps every query at a slack of about a fifth of `θ·W`.
const PANE: usize = 1 << 19;
const WINDOW: usize = PANE * PANES;
/// Keys per `update_batch` call.
const CHUNK: usize = 4096;
/// Timed panes per round, each with `QUERIES_PER_PANE` evenly spaced
/// queries; the last of them lands right after the pane's rotation.
const TIMED_PANES: usize = 8;
const QUERIES_PER_PANE: usize = 4;
const THETA: f64 = 0.1;

pub struct WindowV1 {
    keys: Vec<u64>,
    config: RhhhConfig,
    probe: SlackProbe,
    /// Packet range `[start, end)` the final answer covers.
    covered: (u64, u64),
}

impl WindowV1 {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let scenario = ScenarioConfig::new(ScenarioKind::MultiTenant).with_seed(seed);
        let keys = ScenarioGenerator::new(&scenario)
            .take(WINDOW + TIMED_PANES * PANE)
            .map(|p| p.key2())
            .collect();
        let config = RhhhConfig::default();
        Ok(Self {
            keys,
            config,
            probe: SlackProbe::new(config),
            covered: (0, 0),
        })
    }
}

impl Workload for WindowV1 {
    const THREADS: usize = 1;

    fn round(&mut self, traced: bool, sample_rss: bool) -> Round {
        let mut r = Round::default();
        let rss_base = sample_rss.then(sys::rss_mib);

        let setup = Instant::now();
        let mut win = WindowedRhhh::<u64>::new(
            Lattice::ipv4_src_dst_bytes(),
            self.config,
            WINDOW as u64,
            PANES,
        );
        for chunk in self.keys[..WINDOW].chunks(CHUNK) {
            win.update_batch(chunk);
        }
        r.setup_s = setup.elapsed().as_secs_f64();
        r.note_rss(rss_base);

        let rotations = win.panes_completed();
        let mut sketch_s = 0.0;
        let (mut merged_us, mut cached_us) = (Vec::new(), Vec::new());
        let step = PANE / QUERIES_PER_PANE;
        let mut cpu = sys::process_cpu_s();
        let region = Instant::now();
        for (i, keys) in self.keys[WINDOW..].chunks(step).enumerate() {
            // One feed step per `update_batch` call.
            for chunk in keys.chunks(CHUNK) {
                let feed = Instant::now();
                span(traced, &mut sketch_s, || win.update_batch(chunk));
                r.feed_s.push(feed.elapsed().as_secs_f64());
            }
            r.packets += keys.len() as u64;
            let ask = Instant::now();
            let answer = win
                .query(THETA)
                .expect("the ring holds completed panes after the warm-up");
            let latency_us = ask.elapsed().as_secs_f64() * 1e6;
            let covered = win.covered_packets();
            let ratio = self.probe.slack(covered) / (THETA * covered as f64);
            r.record_query(latency_us, answer.len(), ratio);
            r.note_rss(rss_base);
            r.note_cpu(&mut cpu);
            if (i + 1) % QUERIES_PER_PANE == 0 {
                merged_us.push(latency_us);
            } else {
                cached_us.push(latency_us);
            }
            r.final_answer = answer;
        }
        r.wall_s = region.elapsed().as_secs_f64();
        self.covered = win.covered_range();
        r.final_slack = self.probe.slack(win.covered_packets());

        if traced {
            let merged = win
                .merged_window()
                .expect("the ring holds completed panes after the warm-up");
            let queries_s: f64 = r.query_us.iter().sum::<f64>() / 1e6;
            let sizes: Vec<f64> = r.answer_sizes.iter().map(|&n| n as f64).collect();
            let layers = [
                ("sketch.ns_per_pkt", sketch_s * 1e9 / r.packets as f64),
                (
                    "sketch.updates_per_pkt",
                    merged.total_updates() as f64 / merged.packets() as f64,
                ),
                (
                    "window.rotations",
                    (win.panes_completed() - rotations) as f64,
                ),
                ("window.merge_us", median(&merged_us) - median(&cached_us)),
                ("window.cached_query_us", median(&cached_us)),
                ("output.us", median(&cached_us)),
                ("output.hhh", percentile(&sizes, 0.5)),
                ("output.slack_ratio", r.max_slack_ratio),
            ];
            r.set_layers(&layers, sketch_s + queries_s, true);
        }
        r
    }

    fn check(&self, answer: &[HeavyHitter<u64>], slack: f64) -> Vec<String> {
        let (start, end) = self.covered;
        let mut exact = ExactHhh::new(Lattice::ipv4_src_dst_bytes());
        for &key in &self.keys[start as usize..end as usize] {
            exact.insert(key);
        }
        oracle::check(&exact, answer, THETA, self.config.epsilon_a, slack)
    }
}
