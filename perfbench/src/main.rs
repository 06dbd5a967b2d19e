//! The repository benchmark: three workloads that drive the RHHH workspace
//! only through its public API, measured end to end (`--trace 0`) or layer
//! by layer (`--trace 1`). See `README.md` next to this crate for the
//! workloads, the metrics and how to run one.
//!
//! A run repeats *rounds* until `--seconds` have passed. A round is a fixed
//! amount of work: a fresh monitor, a warm-up feed, then a timed feed with
//! queries at fixed packet offsets. Fixing packets rather than time keeps
//! every query at the same stream position, and so in the same `Output(θ)`
//! cost regime, in every round of every run. Inputs are generated from
//! `--seed` before the first round; corpus generation, pcap writing and the
//! correctness check count toward no metric.
//!
//! Since every round repeats the same steps on the same inputs, the timed
//! metrics take each step's fastest repetition over the run's rounds (see
//! [`best_steps`]): host interference only ever adds time, so the fastest
//! repetition is the least disturbed one. They are then rescaled to a
//! reference clock speed measured by a host probe (see [`host_probe_s`]),
//! because the host's speed drifts between runs.

mod oracle;
mod pcap_wire;
mod shard_bytes;
mod sys;
mod window_v1;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use hhh_core::{HeavyHitter, Rhhh, RhhhConfig};
use hhh_hierarchy::Lattice;

const USAGE: &str = "usage: perfbench --workload <pcap-wire|window-v1|shard-bytes> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("ingest_mpps", "Mpps"),
    ("cpu_ns_per_pkt", "ns"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them. A
/// workload whose path skips a layer reports that layer's metrics as 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("pcap.read_ns_per_pkt", "ns"),
    ("pcap.skipped", "count"),
    ("wire.classify_ns_per_pkt", "ns"),
    ("wire.accept_ratio", "ratio"),
    ("sketch.ns_per_pkt", "ns"),
    ("sketch.updates_per_pkt", "1/pkt"),
    ("window.rotations", "count"),
    ("window.merge_us", "us"),
    ("window.cached_query_us", "us"),
    ("output.us", "us"),
    ("output.hhh", "count"),
    ("output.slack_ratio", "ratio"),
    ("route.ns_per_pkt", "ns"),
    ("worker.cpu_ns_per_pkt", "ns"),
    ("worker.idle_share", "ratio"),
    ("publish.wait_us", "us"),
    ("merge.us", "us"),
    ("harvest_ms", "ms"),
    ("handoff.sends", "count"),
    ("handoff.full_events", "count"),
    ("handoff.park_events", "count"),
    ("handoff.mean_occupancy", "batches"),
    ("handoff.dropped", "count"),
    ("trace.ingest_ratio", "ratio"),
    ("trace.accounted_share", "ratio"),
    ("host.probe_ms", "ms"),
];

/// Fewest rounds per run, so every step's fastest repetition and the
/// median `setup_s` are taken over several.
const MIN_ROUNDS: usize = 8;
/// A query whose sampling slack exceeds this share of `θ·N` would land in
/// the regime where `Output(θ)` selects every candidate; it fails the run.
const MAX_SLACK_RATIO: f64 = 0.5;
/// Iterations of the host probe, about 7 ms of work.
const PROBE_ITERS: u32 = 1 << 21;
/// The host probe's time at the reference clock speed: its typical fastest
/// time on the 2-vCPU Xeon VM the README's reference numbers come from.
/// Timed end-to-end metrics are reported at this speed.
const PROBE_REF_S: f64 = 0.007;
/// On single-threaded workloads a traced round's per-layer busy times must
/// cover at least this share of the timed region, or the layers miss work.
const MIN_ACCOUNTED: f64 = 0.95;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub traced: bool,
    /// Monitor construction, worker spawn, pcap open and warm-up feed.
    pub setup_s: f64,
    /// Packets fed in the timed region.
    pub packets: u64,
    /// Ingest-thread wall time of each feed step of the timed region, in
    /// stream order, queries excluded (on `shard-bytes` the fresh-answer
    /// waits count, since they drain the hand-off).
    pub feed_s: Vec<f64>,
    /// Wall time of the whole timed region, queries included.
    pub wall_s: f64,
    /// Process CPU time (all threads) of each query interval: the feed
    /// since the previous query plus the query itself.
    pub cpu_s: Vec<f64>,
    /// Ask-to-answer latency of every timed query, in stream order.
    pub query_us: Vec<f64>,
    /// Answer size of every timed query.
    pub answer_sizes: Vec<usize>,
    /// Largest `slack / θN` over the timed queries.
    pub max_slack_ratio: f64,
    /// Operations attempted and failed (queries, final answer, hand-offs).
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident growth over the round, when sampled.
    pub rss_growth_mib: Option<f64>,
    /// The answer covering the round's last packet, and the sampling slack
    /// it was computed with.
    pub final_answer: Vec<HeavyHitter<u64>>,
    pub final_slack: f64,
    /// Per-layer metrics of a traced round.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Round {
    /// Closes a query interval: records the process CPU time used since
    /// `since` and moves `since` to now.
    pub fn note_cpu(&mut self, since: &mut f64) {
        let now = sys::process_cpu_s();
        self.cpu_s.push(now - *since);
        *since = now;
    }

    /// Folds the current resident size into the round's peak growth over
    /// `base`, when the round samples it.
    pub fn note_rss(&mut self, base: Option<f64>) {
        if let Some(base) = base {
            let growth = sys::rss_mib() - base;
            self.rss_growth_mib = Some(self.rss_growth_mib.map_or(growth, |g| g.max(growth)));
        }
    }

    /// Sets the traced round's per-layer metrics. `busy_s` is the time
    /// inside per-layer spans; when `must_account`, it has to cover
    /// [`MIN_ACCOUNTED`] of the timed region.
    pub fn set_layers(&mut self, layers: &[(&'static str, f64)], busy_s: f64, must_account: bool) {
        let share = busy_s / self.wall_s;
        self.layers = layers.iter().copied().collect();
        self.layers.insert("trace.accounted_share", share);
        if must_account {
            self.attempted += 1;
            if share < MIN_ACCOUNTED {
                eprintln!("perfbench: per-layer spans cover only {share:.3} of the timed region");
                self.failed += 1;
            }
        }
    }

    /// Records one timed query's latency, answer size and regime ratio.
    pub fn record_query(&mut self, latency_us: f64, answer: usize, slack_ratio: f64) {
        self.query_us.push(latency_us);
        self.answer_sizes.push(answer);
        self.max_slack_ratio = self.max_slack_ratio.max(slack_ratio);
        self.attempted += 1;
        if slack_ratio > MAX_SLACK_RATIO {
            self.failed += 1;
        }
    }
}

/// One workload: rounds of fixed work over inputs made from the seed.
pub trait Workload {
    /// Threads the workload runs (ingest plus workers).
    const THREADS: usize;

    /// Runs one round. `traced` adds per-call timers around every call into
    /// the program; `sample_rss` tracks resident growth.
    fn round(&mut self, traced: bool, sample_rss: bool) -> Round;

    /// Checks a final answer against exact truth over the packets it
    /// covers; returns the violations.
    fn check(&self, answer: &[HeavyHitter<u64>], slack: f64) -> Vec<String>;
}

/// The sampling slack `Output(θ)` charges an answer covering `weight`
/// units, read from the public `slack()` of a probe instance with the
/// monitor's configuration. The windowed and sharded monitors answer from
/// a merged instance they do not expose, and its slack depends on the
/// covered weight alone.
pub struct SlackProbe(Rhhh<u64>);

impl SlackProbe {
    pub fn new(config: RhhhConfig) -> Self {
        Self(Rhhh::new(Lattice::ipv4_src_dst_bytes(), config))
    }

    pub fn slack(&mut self, weight: u64) -> f64 {
        self.0.note_packets(0);
        self.0.update_weighted(0, weight);
        self.0.slack()
    }
}

/// Accumulates the wall time of calls into `total` when tracing is on; a
/// plain call otherwise.
pub fn span<T>(traced: bool, total: &mut f64, f: impl FnOnce() -> T) -> T {
    if traced {
        let t = Instant::now();
        let out = f();
        *total += t.elapsed().as_secs_f64();
        out
    } else {
        f()
    }
}

/// The fastest repetition of each fixed step over `rounds`, step by step.
/// Every round runs the same steps on the same inputs, and host
/// interference (steal, preemption, a neighbour's cache traffic) only adds
/// time, so the fastest repetition is the step's least disturbed cost.
pub fn best_steps(rounds: &[&Round], steps: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    let mut best = steps(rounds[0]).to_vec();
    for r in &rounds[1..] {
        for (b, &s) in best.iter_mut().zip(steps(r)) {
            *b = b.min(s);
        }
    }
    best
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Times a fixed kernel that shares no code with the program: a dependent
/// chain of xorshift and multiply steps in one register, with no memory
/// traffic. On a shared host the clock speed drifts in phases of seconds to
/// minutes, and a run that falls in a slow phase is slow in every step, its
/// fastest repetitions included. This kernel slows with it: its fastest
/// time in a run measures the host's speed during that run.
fn host_probe_s() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Runs rounds until `--seconds` have passed and the minimum round count
/// is met, with the host probe before every round; returns the rounds and
/// the probe's fastest time. With `--trace 1`, plain and traced rounds
/// alternate so the traced run's overhead is measured against plain
/// rounds of the same run.
fn run_rounds(args: &Args, workload: &mut impl Workload) -> (Vec<Round>, f64) {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut probe_s = f64::INFINITY;
    loop {
        probe_s = probe_s.min(host_probe_s());
        let traced = args.trace && rounds.len() % 2 == 1;
        let mut round = workload.round(traced, rounds.is_empty());
        round.traced = traced;
        rounds.push(round);
        let reported = rounds.iter().filter(|r| r.traced == args.trace).count();
        if start.elapsed().as_secs() >= args.seconds && reported >= MIN_ROUNDS {
            return (rounds, probe_s);
        }
    }
}

/// The run's result line and diagnostics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// The end-to-end values as measured, before the rescaling to the
    /// reference clock speed.
    raw: Vec<f64>,
}

fn report(args: &Args, workload: &impl Workload, rounds: &[Round], probe_s: f64) -> Report {
    let first = &rounds[0];
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    // Every round feeds the same inputs, so every round must give the same
    // answers; the first round's final answer stands for all of them.
    for r in &rounds[1..] {
        if r.answer_sizes != first.answer_sizes || r.final_answer != first.final_answer {
            eprintln!("perfbench: a round's answers differ from the first round's");
            failed += 1;
        }
    }
    let violations = workload.check(&first.final_answer, first.final_slack);
    for v in &violations {
        eprintln!("perfbench: {v}");
    }
    attempted += 1;
    failed += u64::from(!violations.is_empty());

    let reported: Vec<&Round> = rounds.iter().filter(|r| r.traced == args.trace).collect();
    // Every round feeds `first.packets` in the same steps.
    let packets = first.packets as f64;
    let mpps = |traced: bool| {
        let of: Vec<&Round> = rounds.iter().filter(|r| r.traced == traced).collect();
        packets / best_steps(&of, |r| &r.feed_s).iter().sum::<f64>() / 1e6
    };
    let mut raw = Vec::new();
    let metrics = if args.trace {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let v: Vec<f64> = reported
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            values.insert(name, median(&v));
        }
        values.insert("trace.ingest_ratio", mpps(true) / mpps(false));
        values.insert("host.probe_ms", probe_s * 1e3);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values[name], unit))
            .collect()
    } else {
        // Each query position's fastest latency over the rounds; the
        // percentiles are taken over the positions.
        let query_us = best_steps(&reported, |r| &r.query_us);
        let cpu_s: f64 = best_steps(&reported, |r| &r.cpu_s).iter().sum();
        let setup: Vec<f64> = reported.iter().map(|r| r.setup_s).collect();
        raw = vec![
            mpps(false),
            cpu_s * 1e9 / packets,
            percentile(&query_us, 0.5),
            percentile(&query_us, 0.9),
            median(&setup),
            first.rss_growth_mib.unwrap_or(0.0),
        ];
        // Report the timed metrics at the reference clock speed: a host
        // running slower than it makes the probe and every step slower
        // alike. Times scale by the reference probe time over this run's,
        // the packet rate by the inverse; resident memory not at all.
        let scale = PROBE_REF_S / probe_s;
        let factors = [1.0 / scale, scale, scale, scale, scale, 1.0];
        END_TO_END
            .iter()
            .zip(raw.iter().zip(factors))
            .map(|(&(name, unit), (v, k))| (name, v * k, unit))
            .collect()
    };
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        raw,
    }
}

/// Renders the result object; every value finite, with all its digits.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn run<W: Workload>(args: &Args, prepare: impl FnOnce(u64) -> Result<W, String>) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if W::THREADS > nproc {
        eprintln!(
            "perfbench: {} needs {} threads but only {nproc} CPUs are available",
            args.workload,
            W::THREADS
        );
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let mut workload = match prepare(args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prepare_s = started.elapsed().as_secs_f64();
    let (steal0, total0) = sys::host_ticks();
    let (rounds, probe_s) = run_rounds(args, &mut workload);
    let (steal1, total1) = sys::host_ticks();
    let checked = Instant::now();
    let report = report(args, &workload, &rounds, probe_s);
    let check_s = checked.elapsed().as_secs_f64();

    let reported: Vec<&Round> = rounds.iter().filter(|r| r.traced == args.trace).collect();
    let sizes: Vec<String> = rounds[0]
        .answer_sizes
        .iter()
        .map(usize::to_string)
        .collect();
    let worst_slack = reported
        .iter()
        .map(|r| r.max_slack_ratio)
        .fold(0.0, f64::max);
    println!(
        "# workload={} seed={} nproc={nproc} steal_share={:.4} host_probe_ms={:.3} rounds={} \
         queries={} query_positions={} max_slack_ratio={worst_slack:.4} prepare_s={prepare_s:.2} check_s={check_s:.2} \
         answer_sizes={}",
        args.workload,
        args.seed,
        (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        probe_s * 1e3,
        reported.len(),
        reported.iter().map(|r| r.query_us.len()).sum::<usize>(),
        rounds[0].query_us.len(),
        sizes.join(",")
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        match report.raw.get(i) {
            Some(raw) => println!("# {name:<26} {value:>14.4} {unit:<6} as measured {raw:.4}"),
            None => println!("# {name:<26} {value:>14.4} {unit}"),
        }
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "pcap-wire" => run(&args, pcap_wire::PcapWire::prepare),
        "window-v1" => run(&args, window_v1::WindowV1::prepare),
        "shard-bytes" => run(&args, shard_bytes::ShardBytes::prepare),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
