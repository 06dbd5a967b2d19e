//! `shard-bytes`: two threads, this ingest thread and the worker of a
//! one-shard `ShardedMonitor` on the ring hand-off, with 10-RHHH fed a
//! byte-weighted diurnal-drift stream through `update_batch_weighted`.
//! Every timed query asks for a fresh answer: `publish_now`, wait until
//! `query_coverage()` equals `packets()`, then `query(θ)`. This is the
//! only workload that exercises routing, the hand-off, snapshot
//! publication and merge, and the weighted copy of the batch pipeline.

use std::thread;
use std::time::{Duration, Instant};

use hhh_core::{HeavyHitter, RhhhConfig};
use hhh_hierarchy::Lattice;
use hhh_traces::{ScenarioConfig, ScenarioGenerator, ScenarioKind};
use hhh_vswitch::ShardedMonitor;

use crate::oracle::{self, WeightedTruth};
use crate::{median, percentile, span, sys, Round, SlackProbe, Workload};

/// Packets per hand-off batch.
const BATCH: usize = 4096;
/// Packets per `update_batch_weighted` call.
const CHUNK: usize = 4096;
const WARM: usize = 1 << 20;
/// Timed queries per round, one every `PER_QUERY` packets.
const QUERIES: usize = 16;
const PER_QUERY: usize = 1 << 19;
const THETA: f64 = 0.02;
/// A fresh-answer wait that has not reached full coverage by then fails.
const WAIT_LIMIT: Duration = Duration::from_secs(5);
const POLL: Duration = Duration::from_micros(20);

/// One fresh-answer ask.
struct Fresh {
    answer: Vec<HeavyHitter<u64>>,
    /// `publish_now` until `query_coverage()` reached `packets()`.
    wait_s: f64,
    /// The `query(θ)` call on the covered snapshot merge.
    query_s: f64,
    /// The last coverage poll (which merged the fresh snapshot) minus an
    /// immediate cached re-poll; measured on traced rounds only.
    merge_s: f64,
}

/// Asks for an answer covering every packet fed so far; `None` when the
/// wait times out.
fn fresh_answer(mon: &mut ShardedMonitor<u64>, traced: bool) -> Option<Fresh> {
    let ask = Instant::now();
    mon.publish_now();
    let last_poll_s = loop {
        let poll = Instant::now();
        if mon.query_coverage() == mon.packets() {
            break poll.elapsed().as_secs_f64();
        }
        if ask.elapsed() > WAIT_LIMIT {
            return None;
        }
        thread::sleep(POLL);
    };
    let wait_s = ask.elapsed().as_secs_f64();
    let mut merge_s = 0.0;
    if traced {
        let repoll = Instant::now();
        mon.query_coverage();
        merge_s = last_poll_s - repoll.elapsed().as_secs_f64();
    }
    let query = Instant::now();
    let answer = mon.query(THETA);
    Some(Fresh {
        answer,
        wait_s,
        query_s: query.elapsed().as_secs_f64(),
        merge_s,
    })
}

pub struct ShardBytes {
    /// `(key, wire length)` per packet.
    packets: Vec<(u64, u64)>,
    config: RhhhConfig,
    probe: SlackProbe,
}

impl ShardBytes {
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let scenario = ScenarioConfig::new(ScenarioKind::DiurnalDrift).with_seed(seed);
        let packets = ScenarioGenerator::new(&scenario)
            .take(WARM + QUERIES * PER_QUERY)
            .map(|p| (p.key2(), u64::from(p.wire_len)))
            .collect();
        let config = RhhhConfig::ten_rhhh();
        Ok(Self {
            packets,
            config,
            probe: SlackProbe::new(config),
        })
    }
}

impl Workload for ShardBytes {
    const THREADS: usize = 2;

    fn round(&mut self, traced: bool, sample_rss: bool) -> Round {
        let mut r = Round::default();
        let rss_base = sample_rss.then(sys::rss_mib);

        let setup = Instant::now();
        let mut mon =
            ShardedMonitor::<u64>::spawn(Lattice::ipv4_src_dst_bytes(), self.config, 1, BATCH)
                .expect("the OS starts one worker thread");
        for chunk in self.packets[..WARM].chunks(CHUNK) {
            mon.update_batch_weighted(chunk);
        }
        // The warm-up is fed once the worker has covered it.
        r.attempted += 1;
        if fresh_answer(&mut mon, false).is_none() {
            r.failed += 1;
        }
        r.setup_s = setup.elapsed().as_secs_f64();
        r.note_rss(rss_base);

        let worker = sys::find_thread("shard-0");
        let worker_cpu = || worker.map_or(0.0, sys::thread_cpu_s);
        let stats = mon.handoff_stats()[0];
        let (mut cpu, wcpu) = (sys::process_cpu_s(), worker_cpu());
        let mut route_s = 0.0;
        let (mut waits_us, mut merges_us, mut outputs_us) = (Vec::new(), Vec::new(), Vec::new());
        let region = Instant::now();
        // One feed step per query interval: the sends and the wait until the
        // worker has covered them.
        for packets in self.packets[WARM..].chunks(PER_QUERY) {
            let feed = Instant::now();
            for chunk in packets.chunks(CHUNK) {
                span(traced, &mut route_s, || mon.update_batch_weighted(chunk));
            }
            r.packets += packets.len() as u64;
            let Some(fresh) = fresh_answer(&mut mon, traced) else {
                r.attempted += 1;
                r.failed += 1;
                continue;
            };
            r.feed_s.push(feed.elapsed().as_secs_f64() - fresh.query_s);
            let weight = mon.weight();
            let ratio = self.probe.slack(weight) / (THETA * weight as f64);
            r.record_query(
                (fresh.wait_s + fresh.query_s) * 1e6,
                fresh.answer.len(),
                ratio,
            );
            r.note_rss(rss_base);
            r.note_cpu(&mut cpu);
            waits_us.push(fresh.wait_s * 1e6);
            merges_us.push(fresh.merge_s * 1e6);
            outputs_us.push(fresh.query_s * 1e6);
            r.final_answer = fresh.answer;
        }
        r.wall_s = region.elapsed().as_secs_f64();
        let worker_s = worker_cpu() - wcpu;
        let sent = mon.handoff_stats()[0];
        let (sends, dropped) = (sent.sends - stats.sends, sent.dropped - stats.dropped);
        r.attempted += sends;
        r.failed += dropped;

        // The harvested instance must give the answer the last fresh query
        // gave: both cover every packet.
        let harvest = Instant::now();
        let merged = mon.harvest();
        let harvest_ms = harvest.elapsed().as_secs_f64() * 1e3;
        r.attempted += 1;
        let mut updates_per_pkt = 0.0;
        match merged {
            Ok(m) if m.output(THETA) == r.final_answer => {
                r.final_slack = m.slack();
                updates_per_pkt = m.total_updates() as f64 / m.total_weight() as f64;
            }
            _ => r.failed += 1,
        }

        if traced {
            let queries_s: f64 = r.query_us.iter().sum::<f64>() / 1e6;
            let sizes: Vec<f64> = r.answer_sizes.iter().map(|&n| n as f64).collect();
            let layers = [
                ("sketch.updates_per_pkt", updates_per_pkt),
                ("output.us", median(&outputs_us)),
                ("output.hhh", percentile(&sizes, 0.5)),
                ("output.slack_ratio", r.max_slack_ratio),
                ("route.ns_per_pkt", route_s * 1e9 / r.packets as f64),
                ("worker.cpu_ns_per_pkt", worker_s * 1e9 / r.packets as f64),
                ("worker.idle_share", 1.0 - worker_s / r.wall_s),
                ("publish.wait_us", median(&waits_us)),
                ("merge.us", median(&merges_us)),
                ("harvest_ms", harvest_ms),
                ("handoff.sends", sends as f64),
                (
                    "handoff.full_events",
                    (sent.full_events - stats.full_events) as f64,
                ),
                (
                    "handoff.park_events",
                    (sent.park_events - stats.park_events) as f64,
                ),
                (
                    "handoff.mean_occupancy",
                    (sent.occupancy_sum - stats.occupancy_sum) as f64 / sends.max(1) as f64,
                ),
                ("handoff.dropped", dropped as f64),
            ];
            r.set_layers(&layers, route_s + queries_s, false);
        }
        r
    }

    fn check(&self, answer: &[HeavyHitter<u64>], slack: f64) -> Vec<String> {
        let truth = WeightedTruth::new(Lattice::ipv4_src_dst_bytes(), &self.packets);
        oracle::check(&truth, answer, THETA, self.config.epsilon_a, slack)
    }
}
