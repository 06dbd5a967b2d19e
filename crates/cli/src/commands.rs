//! The `generate`, `analyze` and `speed` subcommands.

use std::io::{self, Write};
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::{Duration, Instant};

use hhh_core::{
    CounterKind, FrozenRhhh, HeavyHitter, HhhAlgorithm, Rhhh, RhhhConfig, WindowedRhhh,
};
use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, LossyCounting, MisraGries,
    SpaceSaving,
};
use hhh_eval::{rhhh_config, AlgoKind};
use hhh_hierarchy::{KeyBits, Lattice};
use hhh_traces::io::{write_trace, TraceReader};
use hhh_traces::{
    AttackConfig, FrameBlock, Packet, PcapReader, ScenarioConfig, ScenarioGenerator, ScenarioKind,
    TraceConfig, TraceGenerator,
};
use hhh_vswitch::{ShardedMonitor, WireBlockView};

use crate::args::Flags;

fn preset(name: &str) -> Result<TraceConfig, String> {
    TraceConfig::presets()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("unknown preset `{name}` (try chicago15/16, sanjose13/14)"))
}

fn algo_kind(name: &str, counter: CounterKind) -> Result<AlgoKind, String> {
    let rhhh = |v_scale| AlgoKind::Rhhh { v_scale, counter };
    Ok(match name {
        "rhhh" => rhhh(1),
        "10-rhhh" => rhhh(10),
        "mst" => AlgoKind::Mst,
        "full-ancestry" => AlgoKind::FullAncestry,
        "partial-ancestry" => AlgoKind::PartialAncestry,
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

fn counter_kind(flags: &Flags) -> Result<CounterKind, String> {
    flags
        .get("counter")
        .map_or(Ok(CounterKind::default()), CounterKind::parse)
}

/// Seed of every algorithm the CLI builds, so reruns print the same table.
const SEED: u64 = 0xC11;

/// Frames per [`FrameBlock`] when reading a pcap in block mode: sized like
/// an rx burst ring so each block's validation prepass and lane sweep stay
/// cache-resident.
const PCAP_BLOCK_FRAMES: usize = 8_192;

/// Chunk size for feeding materialized keys. Larger chunks give the
/// per-node flush better dedup and cache locality; 64Ki keys ≈ 512 KiB of
/// input is still insignificant next to the counter state.
const BATCH_CHUNK: usize = 65_536;

/// Hand-off grain for `--shards`: the ingress hands each worker its
/// sampled entries once some shard has this many waiting.
const SHARD_BATCH: usize = 4_096;

/// Upper bound for `--shards`: each shard is an OS thread plus a full set
/// of counter instances, so a typo like `1e9` must fail cleanly instead of
/// reaching thread spawn.
const MAX_SHARDS: usize = 256;

/// Upper bound for `--packets`: generated traces are materialized in
/// memory, so a typo like `1e30` must fail cleanly instead of reaching the
/// allocator.
const MAX_PACKETS: u64 = 1 << 32;

/// Upper bound for `--top`, the number of HHH rows printed.
const MAX_TOP: u64 = 1 << 32;

/// Upper bound on the counters per lattice node that `--epsilon` may ask
/// for: every node allocates `counters_for(ε, ε)` of them up front, so a
/// typo like `1e-9` must fail cleanly instead of reaching the allocator.
const MAX_COUNTERS: usize = 1 << 17;

/// Default pane count G for `--window` when `--panes` is absent: a good
/// coverage/cost point per the `window_accuracy` eval (slop W/4, merge
/// ~4 × per-pane cost, accuracy flat in G).
const DEFAULT_PANES: usize = 4;

/// Upper bound for `--panes`: each pane is a full set of counter
/// instances, and coverage slop shrinks only as 1/G.
const MAX_PANES: usize = 64;

/// Parses `--epsilon`: a fraction in `(0, 1]` that sizes every lattice
/// node at no more than [`MAX_COUNTERS`] counters.
fn epsilon_flag(flags: &Flags, default: f64) -> Result<f64, String> {
    let epsilon = flags.fraction("epsilon", default)?;
    let counters = hhh_counters::counters_for(epsilon, epsilon);
    if counters > MAX_COUNTERS {
        // ⌈(1 + ε)/ε⌉ ≤ MAX exactly when ε ≥ 1/(MAX − 1).
        let floor = MAX_COUNTERS - 1;
        return Err(format!(
            "--epsilon {epsilon:e} needs {counters} counters per lattice node, more than the \
             {MAX_COUNTERS} supported; the smallest accepted value is 1/{floor} ≈ {:.4e}",
            1.0 / floor as f64
        ));
    }
    Ok(epsilon)
}

/// Parses the optional `--window W [--panes G]` pair. `None` when
/// `--window` is absent; `--panes` without `--window` is rejected.
fn window_flags(flags: &Flags) -> Result<Option<(u64, usize)>, String> {
    let window = flags.count("window", 0, u64::MAX).map_err(|_| {
        format!(
            "--window expects a non-negative packet count, got {}",
            flags.get("window").unwrap_or_default()
        )
    })?;
    let panes = flags
        .count("panes", DEFAULT_PANES as u64, MAX_PANES as u64)
        .ok()
        .filter(|&p| p >= 1)
        .ok_or_else(|| {
            format!(
                "--panes expects an integer in 1..={MAX_PANES}, got {}",
                flags.get("panes").unwrap_or_default()
            )
        })? as usize;
    if window == 0 {
        if flags.get("panes").is_some() {
            return Err("--panes only applies together with --window".into());
        }
        return Ok(None);
    }
    if window < panes as u64 {
        return Err(format!(
            "--window {window} is smaller than --panes {panes} (each pane needs a packet)"
        ));
    }
    Ok(Some((window, panes)))
}

/// Parses the optional `--shards N` flag (`None` when absent or `0`).
fn shards_flag(flags: &Flags) -> Result<Option<usize>, String> {
    let raw = flags.get("shards").unwrap_or_default();
    let n = flags
        .count("shards", 0, u64::MAX)
        .map_err(|_| format!("--shards expects a non-negative integer, got {raw}"))?;
    if n > MAX_SHARDS as u64 {
        return Err(format!(
            "--shards {raw} is beyond the supported maximum of {MAX_SHARDS} worker threads"
        ));
    }
    Ok((n > 0).then_some(n as usize))
}

/// Monomorphizes one expression over the selected [`CounterKind`]: inside
/// `$body`, `$est` is a type alias for the concrete estimator. The single
/// place this crate maps the counter roster to types.
macro_rules! with_counter_type {
    ($kind:expr, $est:ident, $body:expr) => {
        match $kind {
            CounterKind::StreamSummary => {
                type $est<K> = SpaceSaving<K>;
                $body
            }
            CounterKind::Compact => {
                type $est<K> = CompactSpaceSaving<K>;
                $body
            }
            CounterKind::MisraGries => {
                type $est<K> = MisraGries<K>;
                $body
            }
            CounterKind::LossyCounting => {
                type $est<K> = LossyCounting<K>;
                $body
            }
            CounterKind::CuckooHeavyKeeper => {
                type $est<K> = CuckooHeavyKeeper<K>;
                $body
            }
        }
    };
}

/// Monomorphizes one expression over the `--hierarchy` name: inside
/// `$body`, `$lattice` is the selected lattice. The single place this
/// crate maps hierarchy names to lattices and key types.
macro_rules! with_lattice {
    ($name:expr, $lattice:ident, $body:expr) => {
        match $name {
            "2d-bytes" => {
                let $lattice = Lattice::ipv4_src_dst_bytes();
                $body
            }
            "1d-bytes" => {
                let $lattice = Lattice::ipv4_src_bytes();
                $body
            }
            "1d-bits" => {
                let $lattice = Lattice::ipv4_src_bits();
                $body
            }
            other => Err(format!("unknown hierarchy `{other}`").into()),
        }
    };
}

/// Parses `10.20.0.0/16->8.8.8.8@0.3`.
fn parse_attack(spec: &str) -> Result<AttackConfig, String> {
    let err = || format!("bad attack spec `{spec}` (want subnet/bits->victim@fraction)");
    let (net, rest) = spec.split_once("->").ok_or_else(err)?;
    let (victim, fraction) = rest.split_once('@').ok_or_else(err)?;
    let (addr, bits) = net.split_once('/').ok_or_else(err)?;
    Ok(AttackConfig {
        subnet: addr.parse::<Ipv4Addr>().map_err(|_| err())?.into(),
        subnet_bits: bits.parse().map_err(|_| err())?,
        victim: victim.parse::<Ipv4Addr>().map_err(|_| err())?.into(),
        fraction: fraction.parse().map_err(|_| err())?,
    })
}

/// Why a subcommand stopped before it finished.
#[derive(Debug)]
enum Stop {
    /// Bad flags or input, or output that could not be written.
    Error(String),
    /// The reader of stdout went away (`rhhh analyze … | head -3`).
    Closed,
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Self::Error(e)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Self::Closed
        } else {
            Self::Error(format!("writing output: {e}"))
        }
    }
}

/// A subcommand's exit status: 0, also when stdout was closed early since
/// nobody is left to read the rest, or 2 after printing its error.
fn exit_code(result: Result<(), Stop>) -> i32 {
    match result {
        Ok(()) | Err(Stop::Closed) => 0,
        Err(Stop::Error(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// `rhhh generate` — materialize a trace file.
pub fn generate(argv: &[String]) -> i32 {
    exit_code(generate_inner(argv, &mut io::stdout().lock()))
}

fn generate_inner(argv: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    let flags = Flags::parse(
        argv,
        &["packets", "out", "scenario", "preset", "attack"],
        &[],
    )?;
    let packets = flags.count("packets", 1_000_000, MAX_PACKETS)? as usize;
    let path = flags.require("out")?;
    let (data, source) = if let Some(name) = flags.get("scenario") {
        if flags.get("preset").is_some() || flags.get("attack").is_some() {
            let e = "--scenario replaces --preset/--attack (scenarios script their own mix)";
            return Err(Stop::Error(e.into()));
        }
        let kind = ScenarioKind::parse(name)?;
        let data = ScenarioGenerator::new(&ScenarioConfig::new(kind)).take_packets(packets);
        (data, kind.name().to_string())
    } else {
        let mut config = preset(flags.get("preset").unwrap_or("chicago16"))?;
        if let Some(spec) = flags.get("attack") {
            config = config.with_attack(parse_attack(spec)?);
        }
        let name = config.name.clone();
        (TraceGenerator::new(&config).take_packets(packets), name)
    };
    // `.pcap` destinations get raw canonical frames — the input the
    // zero-copy `analyze --pcap` plane consumes; anything else gets the
    // compact struct trace format.
    let written = if path.ends_with(".pcap") {
        hhh_traces::write_pcap(Path::new(path), &data)
    } else {
        write_trace(Path::new(path), &data)
    }
    .map_err(|e| format!("writing {path}: {e}"))?;
    writeln!(out, "wrote {written} packets ({source}) to {path}")?;
    Ok(())
}

/// `rhhh analyze` — run an algorithm over a trace and print the HHH table.
pub fn analyze(argv: &[String]) -> i32 {
    exit_code(analyze_inner(argv, &mut io::stdout().lock()))
}

/// Where RHHH runs: one inline instance, a pane-ring window, or a shard
/// fleet (flat, or windowed when `window` is set).
#[derive(Debug, Clone, Copy, Default)]
struct Deploy {
    shards: Option<usize>,
    /// `(W, G)`: the last W packets over a G-pane ring.
    window: Option<(u64, usize)>,
    /// Print a live snapshot query before a fleet is harvested.
    live_query: bool,
}

/// One `analyze` invocation, parsed once before anything runs.
struct Request {
    algo: AlgoKind,
    hierarchy: String,
    epsilon: f64,
    theta: f64,
    volume: bool,
    deploy: Deploy,
    top: usize,
    filter: Option<String>,
}

impl Request {
    /// Parses and cross-checks the flags: volume weighting, shards,
    /// windows and counter layouts are RHHH-side extensions.
    fn parse(flags: &Flags) -> Result<Self, String> {
        let counter = counter_kind(flags)?;
        let request = Self {
            algo: algo_kind(flags.get("algorithm").unwrap_or("rhhh"), counter)?,
            hierarchy: flags.get("hierarchy").unwrap_or("2d-bytes").to_string(),
            theta: flags.fraction("theta", 0.03)?,
            epsilon: epsilon_flag(flags, 0.005)?,
            volume: flags.switch("volume"),
            deploy: Deploy {
                shards: shards_flag(flags)?,
                window: window_flags(flags)?,
                live_query: true,
            },
            top: flags.count("top", 50, MAX_TOP)? as usize,
            filter: flags.get("filter").map(ToString::to_string),
        };
        if !matches!(request.algo, AlgoKind::Rhhh { .. }) {
            let extensions = [
                ("--volume", request.volume),
                ("--shards", request.deploy.shards.is_some()),
                ("--window", request.deploy.window.is_some()),
                ("--counter", counter != CounterKind::default()),
            ];
            if let Some((flag, _)) = extensions.into_iter().find(|&(_, on)| on) {
                return Err(format!("{flag} supports rhhh/10-rhhh only"));
            }
        }
        Ok(request)
    }
}

/// The input as loaded, before the hierarchy picks a key type.
enum Source {
    Packets(Vec<Packet>),
    Pcap {
        path: String,
        blocks: Vec<FrameBlock>,
        records: u64,
    },
}

/// Loads the one input source the flags name: a pcap as rx-burst-sized
/// [`FrameBlock`]s, anything else as packets.
fn load_source(flags: &Flags) -> Result<Source, String> {
    let named: Vec<&str> = ["trace", "pcap", "scenario", "preset"]
        .into_iter()
        .filter(|s| flags.get(s).is_some())
        .collect();
    if named.len() > 1 {
        return Err(format!(
            "pick one input source, got --{}",
            named.join(" and --")
        ));
    }
    if let Some(path) = flags.get("pcap") {
        let mut reader =
            PcapReader::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?;
        let mut blocks = Vec::new();
        loop {
            let mut block = FrameBlock::new();
            let n = reader
                .read_block(&mut block, PCAP_BLOCK_FRAMES)
                .map_err(|e| format!("reading {path}: {e}"))?;
            if n == 0 {
                break;
            }
            blocks.push(block);
        }
        let (path, records) = (path.to_string(), reader.records());
        return Ok(Source::Pcap {
            path,
            blocks,
            records,
        });
    }
    if let Some(path) = flags.get("trace") {
        let reader =
            TraceReader::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?;
        return reader
            .collect::<Result<Vec<_>, _>>()
            .map(Source::Packets)
            .map_err(|e| format!("reading {path}: {e}"));
    }
    let packets = flags.count("packets", 1_000_000, MAX_PACKETS)? as usize;
    Ok(Source::Packets(if let Some(name) = flags.get("scenario") {
        let kind = ScenarioKind::parse(name)?;
        ScenarioGenerator::new(&ScenarioConfig::new(kind)).take_packets(packets)
    } else {
        let config = preset(flags.get("preset").unwrap_or("chicago16"))?;
        TraceGenerator::new(&config).take_packets(packets)
    }))
}

/// The value flags `analyze` accepts; `--volume` is its one switch.
const ANALYZE_FLAGS: [&str; 15] = [
    "trace",
    "pcap",
    "scenario",
    "preset",
    "packets",
    "algorithm",
    "hierarchy",
    "counter",
    "theta",
    "epsilon",
    "shards",
    "window",
    "panes",
    "top",
    "filter",
];

fn analyze_inner(argv: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    let flags = Flags::parse(argv, &ANALYZE_FLAGS, &["volume"])?;
    let request = Request::parse(&flags)?;
    let source = load_source(&flags)?;
    with_lattice!(request.hierarchy.as_str(), lattice, {
        analyze_on(&lattice, &request, &source, out)
    })
}

/// A hierarchy's key type as the CLI reads it: out of a packet, or out of
/// the accepted frames of a pcap block.
trait StreamKey: KeyBits {
    fn of(packet: &Packet) -> Self;

    fn keys_into(view: &WireBlockView<'_>, out: &mut Vec<Self>);

    /// Feeds a block to an inline instance straight from its frame bytes;
    /// `false` when this key has no zero-copy path.
    fn ingest<E: FrequencyEstimator<Self>>(
        _view: &WireBlockView<'_>,
        _algo: &mut Rhhh<Self, E>,
        _volume: bool,
    ) -> bool {
        false
    }
}

impl StreamKey for u64 {
    fn of(packet: &Packet) -> Self {
        packet.key2()
    }

    fn keys_into(view: &WireBlockView<'_>, out: &mut Vec<Self>) {
        view.keys2_into(out);
    }

    fn ingest<E: FrequencyEstimator<u64>>(
        view: &WireBlockView<'_>,
        algo: &mut Rhhh<u64, E>,
        volume: bool,
    ) -> bool {
        if volume {
            view.ingest_weighted(algo);
        } else {
            view.ingest(algo);
        }
        true
    }
}

impl StreamKey for u32 {
    fn of(packet: &Packet) -> Self {
        packet.key1()
    }

    fn keys_into(view: &WireBlockView<'_>, out: &mut Vec<Self>) {
        view.keys1_into(out);
    }
}

/// What the runner feeds, prepared before the clock starts: materialized
/// keys in the unit or the weighted lane, or pcap blocks (weighted by
/// their wire lengths when the flag is set).
enum Input<'a, K> {
    Unit(&'a [K]),
    Weighted(&'a [(K, u64)]),
    Wire(&'a [FrameBlock], bool),
}

/// The answer a run leaves behind, read off the clock.
enum Answer<K: KeyBits> {
    /// Every RHHH deployment answers from one merged view.
    Rhhh(FrozenRhhh<K>),
    Baseline(Box<dyn HhhAlgorithm<K>>),
}

impl<K: KeyBits> Answer<K> {
    /// `Output(θ)`, the packets (or bytes) it covers, and for RHHH the
    /// `# UNCONVERGED` note while the view has not passed ψ (`N ≤ ψ`), so
    /// Theorem 6.17's guarantee does not hold yet.
    fn read(&self, theta: f64, volume: bool) -> (Vec<HeavyHitter<K>>, u64, Option<String>) {
        match self {
            Answer::Rhhh(view) => {
                let (n, w) = (view.packets(), view.total_weight());
                let note = (!view.converged()).then(|| {
                    format!(
                        "# UNCONVERGED (N/ψ = {:.2}%)",
                        100.0 * n as f64 / view.psi()
                    )
                });
                (view.output(theta), if volume { w } else { n }, note)
            }
            Answer::Baseline(algo) => (algo.query(theta), algo.packets(), None),
        }
    }

    /// For RHHH, the `# SLACK ≥ θN` note when the sampling slack of line 13
    /// reaches the threshold: nearly every candidate then passes, so the
    /// table lists candidates rather than heavy hitters.
    fn slack_note(&self, theta: f64) -> Option<String> {
        let Answer::Rhhh(view) = self else {
            return None;
        };
        let threshold = theta * view.total_weight() as f64;
        (view.slack() >= threshold)
            .then(|| format!("# SLACK ≥ θN (slack/θN = {:.2})", view.slack() / threshold))
    }
}

/// One way to run an algorithm over the input.
trait Deployment<K: StreamKey> {
    fn feed(&mut self, keys: &[K]);

    fn feed_weighted(&mut self, packets: &[(K, u64)]);

    /// Feeds a pcap block straight from its frame bytes; `false` asks the
    /// runner to resolve the block's keys and feed those.
    fn feed_wire(&mut self, _view: &WireBlockView<'_>, _volume: bool) -> bool {
        false
    }

    /// Runs between feed and finish, off the clock; returns a line for
    /// the report.
    fn report(&mut self, _theta: f64) -> Option<String> {
        None
    }

    /// Drains whatever is in flight and combines the answer.
    fn finish(self) -> Result<Answer<K>, String>;
}

impl<K: StreamKey, E: FrequencyEstimator<K>> Deployment<K> for Rhhh<K, E> {
    fn feed(&mut self, keys: &[K]) {
        self.update_batch(keys);
    }

    fn feed_weighted(&mut self, packets: &[(K, u64)]) {
        self.update_batch_weighted(packets);
    }

    fn feed_wire(&mut self, view: &WireBlockView<'_>, volume: bool) -> bool {
        K::ingest(view, self, volume)
    }

    fn finish(self) -> Result<Answer<K>, String> {
        Ok(Answer::Rhhh(self.freeze()))
    }
}

impl<K: StreamKey, E: FrequencyEstimator<K>> Deployment<K> for WindowedRhhh<K, E> {
    fn feed(&mut self, keys: &[K]) {
        self.update_batch(keys);
    }

    fn feed_weighted(&mut self, packets: &[(K, u64)]) {
        self.update_batch_weighted(packets);
    }

    /// The last G completed panes; a stream shorter than one pane answers
    /// from the partial active pane.
    fn finish(mut self) -> Result<Answer<K>, String> {
        let view = match self.view() {
            Some(view) => view.clone(),
            None => self.current_view(),
        };
        Ok(Answer::Rhhh(view))
    }
}

/// The shard fleet and the deployment it was spawned for.
struct Fleet<K: KeyBits, E: FrequencyEstimator<K>> {
    mon: ShardedMonitor<K, E>,
    deploy: Deploy,
}

impl<K: StreamKey, E: FrequencyEstimator<K>> Deployment<K> for Fleet<K, E> {
    fn feed(&mut self, keys: &[K]) {
        self.mon.update_batch(keys);
    }

    fn feed_weighted(&mut self, packets: &[(K, u64)]) {
        self.mon.update_batch_weighted(packets);
    }

    /// Publishes fresh snapshots, waits (bounded) until every shard has
    /// published after the marker, so the snapshots cover what the
    /// harvest will (every packet fed, or the last G completed panes of a
    /// window), and reports the live query's answer size, coverage and
    /// latency — while the workers keep running. A fleet that does not
    /// answer within ten seconds gets a stale line instead.
    fn report(&mut self, theta: f64) -> Option<String> {
        if !self.deploy.live_query {
            return None;
        }
        let mon = &mut self.mon;
        mon.publish_now();
        let fed = mon.packets();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !mon.is_fresh() {
            if Instant::now() >= deadline {
                return Some(
                    "# stale snapshot query: not every shard published within 10 s".into(),
                );
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let start = Instant::now();
        let hhhs = mon.query(theta).len();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let covered = mon.query_coverage();
        Some(format!(
            "# live snapshot query: {hhhs} HHHs over {covered}/{fed} packets in {ms:.3} ms \
             (workers not joined)"
        ))
    }

    fn finish(self) -> Result<Answer<K>, String> {
        self.mon
            .harvest()
            .map(Answer::Rhhh)
            .map_err(|e| e.to_string())
    }
}

impl<K: StreamKey> Deployment<K> for Box<dyn HhhAlgorithm<K>> {
    fn feed(&mut self, keys: &[K]) {
        self.insert_batch(keys);
    }

    fn feed_weighted(&mut self, _packets: &[(K, u64)]) {
        unreachable!("Request::parse rejects --volume for the baselines");
    }

    fn finish(self) -> Result<Answer<K>, String> {
        Ok(Answer::Baseline(self))
    }
}

/// What one run hands the report.
struct Outcome<K: KeyBits> {
    answer: Answer<K>,
    /// Packets fed (accepted frames for a pcap).
    packets: usize,
    /// Non-IPv4 and truncated frames a pcap skipped.
    skipped: (u64, u64),
    /// The deployment's report line, taken between feed and finish.
    report: Option<String>,
    /// Seconds spent feeding, draining and merging.
    elapsed: f64,
}

/// The one runner behind every analysis: feeds `input` to `deployment`
/// with the clock running (materialized keys in [`BATCH_CHUNK`] slices, a
/// pcap one block per call), runs its report off the clock, then times
/// its drain and merge. `Output(θ)` is left to the caller, off the clock.
fn run<K: StreamKey, D: Deployment<K>>(
    mut deployment: D,
    input: &Input<'_, K>,
    theta: f64,
) -> Result<Outcome<K>, String> {
    let mut packets = 0;
    let mut skipped = (0, 0);
    let start = Instant::now();
    match *input {
        Input::Unit(keys) => {
            keys.chunks(BATCH_CHUNK).for_each(|c| deployment.feed(c));
            packets = keys.len();
        }
        Input::Weighted(weighted) => {
            weighted
                .chunks(BATCH_CHUNK)
                .for_each(|c| deployment.feed_weighted(c));
            packets = weighted.len();
        }
        Input::Wire(blocks, volume) => {
            let (mut keys, mut weighted) = (Vec::new(), Vec::new());
            for block in blocks {
                let view = WireBlockView::new(block);
                packets += view.len();
                skipped.0 += view.skipped_non_ipv4();
                skipped.1 += view.skipped_truncated();
                if deployment.feed_wire(&view, volume) {
                    continue;
                }
                keys.clear();
                K::keys_into(&view, &mut keys);
                if volume {
                    weighted.clear();
                    let lens = view.wire_lens().iter().map(|&w| u64::from(w));
                    weighted.extend(keys.iter().copied().zip(lens));
                    deployment.feed_weighted(&weighted);
                } else {
                    deployment.feed(&keys);
                }
            }
        }
    }
    let fed = start.elapsed();
    let report = deployment.report(theta);
    let drain = Instant::now();
    let answer = deployment.finish()?;
    Ok(Outcome {
        answer,
        packets,
        skipped,
        report,
        elapsed: (fed + drain.elapsed()).as_secs_f64(),
    })
}

/// Runs RHHH with `counter` per node where `deploy` says. The crate's one
/// expansion of [`with_counter_type!`].
fn run_rhhh<K: StreamKey>(
    lattice: &Lattice<K>,
    config: RhhhConfig,
    counter: CounterKind,
    deploy: Deploy,
    input: &Input<'_, K>,
    theta: f64,
) -> Result<Outcome<K>, String> {
    let (lat, b) = (lattice.clone(), SHARD_BATCH);
    with_counter_type!(counter, Est, {
        match (deploy.shards, deploy.window) {
            (Some(shards), window) => {
                let mon = match window {
                    Some((w, g)) => ShardedMonitor::spawn_windowed(lat, config, shards, b, w, g),
                    None => ShardedMonitor::<K, Est<K>>::spawn(lat, config, shards, b),
                };
                let mon = mon.map_err(|e| e.to_string())?;
                run(Fleet { mon, deploy }, input, theta)
            }
            (None, Some((w, g))) => run(
                WindowedRhhh::<K, Est<K>>::new(lat, config, w, g),
                input,
                theta,
            ),
            (None, None) => run(Rhhh::<K, Est<K>>::new(lat, config), input, theta),
        }
    })
}

/// Runs the request over `source` with `lattice`'s key type and writes
/// the HHH table to `out`.
fn analyze_on<K: StreamKey>(
    lattice: &Lattice<K>,
    request: &Request,
    source: &Source,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let filter = match request.filter.as_deref() {
        Some(f) => Some(
            lattice
                .parse_prefix(f)
                .map_err(|e| format!("--filter: {e}"))?,
        ),
        None => None,
    };
    // Keys are materialized before the clock starts, so the printed
    // throughput measures the update path, not key extraction.
    let (keys, weighted): (Vec<K>, Vec<(K, u64)>);
    let input = match source {
        Source::Packets(packets) if request.volume => {
            weighted = packets
                .iter()
                .map(|p| (K::of(p), u64::from(p.wire_len)))
                .collect();
            Input::Weighted(&weighted)
        }
        Source::Packets(packets) => {
            keys = packets.iter().map(K::of).collect();
            Input::Unit(&keys)
        }
        Source::Pcap { blocks, .. } => Input::Wire(blocks, request.volume),
    };
    let theta = request.theta;
    let outcome = match request.algo {
        AlgoKind::Rhhh { v_scale, counter } => {
            let config = rhhh_config(v_scale, request.epsilon, SEED);
            run_rhhh(lattice, config, counter, request.deploy, &input, theta)?
        }
        kind => {
            let baseline = kind.build(lattice.clone(), request.epsilon, SEED);
            run(baseline, &input, theta)?
        }
    };

    if let Some(line) = &outcome.report {
        writeln!(out, "{line}")?;
    }
    if let Source::Pcap { path, records, .. } = source {
        let (non_ipv4, truncated) = outcome.skipped;
        writeln!(
            out,
            "# pcap {path}: {} IPv4 frames of {records} records ({non_ipv4} non-IPv4, \
             {truncated} truncated skipped)",
            outcome.packets
        )?;
    }
    let (mut output, total, note) = outcome.answer.read(theta, request.volume);
    let unit = if request.volume { "bytes" } else { "packets" };
    if let Some((win, panes)) = request.deploy.window {
        writeln!(
            out,
            "# sliding window: {total} {unit} covered ({panes}-pane ring over W={win} packets, \
             pane={} packets)",
            win.div_ceil(panes as u64)
        )?;
    }
    if let Some(filter) = filter {
        output.retain(|h| filter.generalizes(&h.prefix, lattice));
    }
    output.sort_by(|a, b| b.freq_upper.total_cmp(&a.freq_upper));
    writeln!(
        out,
        "# {} on {} packets ({total} {unit}), theta={theta}, epsilon={}, {:.2}s ({:.2} Mpps)",
        request.algo.label(),
        outcome.packets,
        request.epsilon,
        outcome.elapsed,
        outcome.packets as f64 / outcome.elapsed / 1e6,
    )?;
    for note in note.into_iter().chain(outcome.answer.slack_note(theta)) {
        writeln!(out, "{note}")?;
    }
    writeln!(
        out,
        "{:<46} {:>14} {:>14} {:>8}",
        "prefix", "lower", "upper", "share"
    )?;
    for h in output.iter().take(request.top) {
        writeln!(
            out,
            "{:<46} {:>14.0} {:>14.0} {:>7.2}%",
            h.prefix.display(lattice),
            h.freq_lower,
            h.freq_upper,
            100.0 * h.freq_upper / total as f64
        )?;
    }
    Ok(())
}

/// `rhhh speed` — quick Mpps comparison of all algorithms.
pub fn speed(argv: &[String]) -> i32 {
    exit_code(speed_inner(argv, &mut io::stdout().lock()))
}

/// The value flags `speed` accepts; it has no switches.
const SPEED_FLAGS: [&str; 6] = [
    "preset",
    "packets",
    "epsilon",
    "hierarchy",
    "counter",
    "shards",
];

fn speed_inner(argv: &[String], out: &mut dyn Write) -> Result<(), Stop> {
    let flags = Flags::parse(argv, &SPEED_FLAGS, &[])?;
    let config = preset(flags.get("preset").unwrap_or("chicago16"))?;
    let packets = flags.count("packets", 1_000_000, MAX_PACKETS)? as usize;
    let epsilon = epsilon_flag(&flags, 0.001)?;
    let counter = counter_kind(&flags)?;
    let shards = shards_flag(&flags)?;
    let data = TraceGenerator::new(&config).take_packets(packets);

    writeln!(
        out,
        "# {packets} packets of {}, epsilon={epsilon}",
        config.name
    )?;
    writeln!(out, "{:<26} {:>10}", "algorithm", "Mpps")?;
    with_lattice!(flags.get("hierarchy").unwrap_or("2d-bytes"), lattice, {
        let keys: Vec<_> = data.iter().map(StreamKey::of).collect();
        speed_table(&lattice, &keys, epsilon, counter, shards, out)
    })
}

fn speed_table<K: StreamKey>(
    lattice: &Lattice<K>,
    keys: &[K],
    epsilon: f64,
    counter: CounterKind,
    shards: Option<usize>,
    out: &mut dyn Write,
) -> Result<(), Stop> {
    let mut kinds = AlgoKind::roster();
    if counter != CounterKind::default() {
        // A non-default counter adds its RHHH rows next to the roster's,
        // so the layouts read side by side.
        kinds.extend([1, 10].map(|v_scale| AlgoKind::Rhhh { v_scale, counter }));
    }
    for kind in &kinds {
        let mut algo = kind.build(lattice.clone(), epsilon, SEED);
        let mpps = hhh_eval::measure_mpps(algo.as_mut(), keys);
        writeln!(out, "{:<26} {:>10.2}", kind.label(), mpps)?;
    }
    for kind in &kinds {
        let &AlgoKind::Rhhh { v_scale, counter } = kind else {
            continue;
        };
        let mut algo = kind.build(lattice.clone(), epsilon, SEED);
        let mpps = hhh_eval::measure_mpps_batch(algo.as_mut(), keys, BATCH_CHUNK);
        writeln!(
            out,
            "{:<26} {:>10.2}",
            format!("{}(batch)", kind.label()),
            mpps
        )?;
        if let Some(shards) = shards {
            // The shard pipeline end to end: feed, drain and merge.
            let config = rhhh_config(v_scale, epsilon, SEED);
            let deploy = Deploy {
                shards: Some(shards),
                ..Deploy::default()
            };
            let fleet = run_rhhh(lattice, config, counter, deploy, &Input::Unit(keys), 1.0)?;
            let mpps = fleet.packets as f64 / fleet.elapsed / 1e6;
            writeln!(
                out,
                "{:<26} {:>10.2}",
                format!("{}(x{shards} shards)", kind.label()),
                mpps
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn attack_spec_roundtrip() {
        let atk = parse_attack("10.20.0.0/16->8.8.8.8@0.3").expect("parse");
        assert_eq!(atk.subnet, u32::from_be_bytes([10, 20, 0, 0]));
        assert_eq!(atk.subnet_bits, 16);
        assert_eq!(atk.victim, u32::from_be_bytes([8, 8, 8, 8]));
        assert!((atk.fraction - 0.3).abs() < 1e-12);
    }

    #[test]
    fn attack_spec_errors() {
        assert!(parse_attack("nonsense").is_err());
        assert!(parse_attack("10.0.0.0/8->bad@0.5").is_err());
        assert!(parse_attack("10.0.0.0/8->1.2.3.4@x").is_err());
    }

    #[test]
    fn preset_lookup() {
        assert!(preset("chicago16").is_ok());
        assert!(preset("nope").is_err());
    }

    #[test]
    fn algo_lookup() {
        for name in [
            "rhhh",
            "10-rhhh",
            "mst",
            "full-ancestry",
            "partial-ancestry",
        ] {
            assert!(algo_kind(name, CounterKind::default()).is_ok(), "{name}");
        }
        assert!(algo_kind("bogus", CounterKind::default()).is_err());
    }

    #[test]
    fn shards_flag_parses() {
        let f = Flags::parse(&["--shards".to_string(), "4".to_string()], &["shards"], &[])
            .expect("parse");
        assert_eq!(shards_flag(&f), Ok(Some(4)));
        let none = Flags::parse(&[], &[], &[]).expect("parse");
        assert_eq!(shards_flag(&none), Ok(None));
        let zero = Flags::parse(&["--shards".to_string(), "0".to_string()], &["shards"], &[])
            .expect("parse");
        assert_eq!(shards_flag(&zero), Ok(None));
        let bad = Flags::parse(
            &["--shards".to_string(), "2.5".to_string()],
            &["shards"],
            &[],
        )
        .expect("parse");
        assert!(shards_flag(&bad).is_err());
        let neg = Flags::parse(
            &["--shards".to_string(), "-1".to_string()],
            &["shards"],
            &[],
        )
        .expect("parse");
        assert!(shards_flag(&neg).is_err());
        let huge = Flags::parse(
            &["--shards".to_string(), "1e9".to_string()],
            &["shards"],
            &[],
        )
        .expect("parse");
        assert!(shards_flag(&huge).is_err(), "absurd shard counts rejected");
    }

    /// Runs stream-summary RHHH where `deploy` says over `input`.
    fn run_2d(
        config: RhhhConfig,
        deploy: Deploy,
        input: &Input<'_, u64>,
        theta: f64,
    ) -> Outcome<u64> {
        let lat = Lattice::ipv4_src_dst_bytes();
        run_rhhh(
            &lat,
            config,
            CounterKind::StreamSummary,
            deploy,
            input,
            theta,
        )
        .expect("healthy run")
    }

    fn fleet(shards: usize, window: Option<(u64, usize)>) -> Deploy {
        Deploy {
            shards: Some(shards),
            window,
            live_query: true,
        }
    }

    fn window(w: u64, g: usize) -> Deploy {
        Deploy {
            window: Some((w, g)),
            ..Deploy::default()
        }
    }

    #[test]
    fn sharded_analysis_runs_end_to_end() {
        // A small in-process run through the full --shards path: generate,
        // analyze sharded, find the planted attack in the output table.
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_s: 0.02,
            delta_s: 0.05,
            ..rhhh_config(1, 0.005, SEED)
        };
        let trace = preset("chicago16")
            .expect("preset")
            .with_attack(parse_attack("10.20.0.0/16->8.8.8.8@0.3").expect("attack"));
        let keys: Vec<u64> = TraceGenerator::new(&trace)
            .take_packets(200_000)
            .iter()
            .map(Packet::key2)
            .collect();
        let outcome = run_2d(config, fleet(3, None), &Input::Unit(&keys), 0.1);
        assert!(outcome.elapsed > 0.0);
        let (output, total, _) = outcome.answer.read(0.1, false);
        assert_eq!(total, 200_000);
        assert!(
            output
                .iter()
                .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
            "sharded analysis must find the planted attack"
        );
    }

    #[test]
    fn sharded_weighted_analysis_runs_end_to_end() {
        // The --shards --volume path: byte-weighted HHHs through the
        // shard-parallel pipeline, weight conserved end to end.
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_s: 0.02,
            delta_s: 0.05,
            ..rhhh_config(1, 0.005, SEED)
        };
        // Plant a volume-heavy flow: 10% of packets at 1400 B against a
        // 64 B background — ~70% of bytes, no packet-count dominance.
        let background =
            TraceGenerator::new(&preset("chicago16").expect("preset")).take_packets(200_000);
        let heavy = hhh_hierarchy::pack2(
            u32::from_be_bytes([7, 7, 7, 7]),
            u32::from_be_bytes([8, 8, 8, 8]),
        );
        let weighted: Vec<(u64, u64)> = background
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 10 == 0 {
                    (heavy, 1400)
                } else {
                    (p.key2(), 64)
                }
            })
            .collect();
        let volume: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let outcome = run_2d(config, fleet(3, None), &Input::Weighted(&weighted), 0.3);
        assert!(outcome.elapsed > 0.0);
        let (output, total, _) = outcome.answer.read(0.3, true);
        assert_eq!(total, volume, "sharded volume must be conserved");
        assert!(
            output
                .iter()
                .any(|h| h.prefix.display(&lat).contains("7.7.7.7/32")),
            "weighted sharded analysis must find the volume-heavy flow"
        );
    }

    #[test]
    fn window_flags_parse() {
        let args = |argv: &[&str]| {
            Flags::parse(
                &argv.iter().map(ToString::to_string).collect::<Vec<_>>(),
                &["window", "panes"],
                &[],
            )
            .expect("parse")
        };
        assert_eq!(window_flags(&args(&[])), Ok(None));
        assert_eq!(
            window_flags(&args(&["--window", "100000"])),
            Ok(Some((100_000, DEFAULT_PANES)))
        );
        assert_eq!(
            window_flags(&args(&["--window", "100000", "--panes", "8"])),
            Ok(Some((100_000, 8)))
        );
        assert!(window_flags(&args(&["--panes", "8"])).is_err());
        assert!(window_flags(&args(&["--window", "2.5"])).is_err());
        assert!(window_flags(&args(&["--window", "100", "--panes", "0"])).is_err());
        assert!(window_flags(&args(&["--window", "100", "--panes", "1000"])).is_err());
        assert!(window_flags(&args(&["--window", "4", "--panes", "8"])).is_err());
    }

    #[test]
    fn windowed_analysis_covers_the_recent_window_only() {
        // Old attack traffic followed by a clean window: the windowed
        // analysis (both counter layouts) must answer from the recent
        // window and drop the aged-out attack.
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_s: 0.05,
            delta_s: 0.05,
            ..rhhh_config(1, 0.005, SEED)
        };
        let attacked = preset("chicago16")
            .expect("preset")
            .with_attack(parse_attack("10.20.0.0/16->8.8.8.8@0.3").expect("attack"));
        let mut keys: Vec<u64> = TraceGenerator::new(&attacked)
            .take_packets(120_000)
            .iter()
            .map(Packet::key2)
            .collect();
        keys.extend(
            TraceGenerator::new(&preset("chicago16").expect("preset"))
                .take_packets(120_000)
                .iter()
                .map(Packet::key2),
        );
        let attacked_keys: Vec<u64> = TraceGenerator::new(&attacked)
            .take_packets(240_000)
            .iter()
            .map(Packet::key2)
            .collect();
        for counter in [CounterKind::StreamSummary, CounterKind::Compact] {
            let answer = |keys: &[u64]| {
                let outcome = run_rhhh(
                    &lat,
                    config,
                    counter,
                    window(100_000, 4),
                    &Input::Unit(keys),
                    0.1,
                )
                .expect("healthy run");
                let (output, covered, _) = outcome.answer.read(0.1, false);
                assert_eq!(covered, 100_000, "4 panes of 25k cover the window");
                output
                    .iter()
                    .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16"))
            };
            assert!(
                !answer(&keys),
                "{counter:?}: attack older than the window must age out"
            );
            assert!(
                answer(&attacked_keys),
                "{counter:?}: attack inside the window must be reported"
            );
        }
    }

    #[test]
    fn windowed_sharded_analysis_runs_end_to_end() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_s: 0.05,
            delta_s: 0.05,
            ..rhhh_config(1, 0.005, SEED)
        };
        let attacked = preset("chicago16")
            .expect("preset")
            .with_attack(parse_attack("10.20.0.0/16->8.8.8.8@0.3").expect("attack"));
        let keys: Vec<u64> = TraceGenerator::new(&attacked)
            .take_packets(200_000)
            .iter()
            .map(Packet::key2)
            .collect();
        let outcome = run_2d(
            config,
            fleet(3, Some((100_000, 4))),
            &Input::Unit(&keys),
            0.1,
        );
        assert!(outcome.elapsed > 0.0);
        let (output, covered, _) = outcome.answer.read(0.1, false);
        assert_eq!(covered, 100_000);
        assert!(
            output
                .iter()
                .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
            "windowed sharded analysis must find the in-window attack"
        );
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    type Subcommand = fn(&[String], &mut dyn Write) -> Result<(), Stop>;

    /// Runs a subcommand with its output discarded; `Err` carries the
    /// message of an exit-2 error.
    fn quiet(run: Subcommand, args: &[&str]) -> Result<(), String> {
        match run(&argv(args), &mut io::sink()) {
            Ok(()) => Ok(()),
            Err(Stop::Error(e)) => Err(e),
            Err(Stop::Closed) => unreachable!("a sink never closes"),
        }
    }

    /// Takes one line, then fails every write the way a pipe whose reader
    /// has exited does.
    struct ClosesAfterOneLine {
        open: bool,
    }

    impl Write for ClosesAfterOneLine {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.open {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.open = false;
                    Ok(i + 1)
                }
                None => Ok(buf.len()),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn closed_stdout_stops_with_exit_zero() {
        for run in [analyze_inner, speed_inner] as [Subcommand; 2] {
            let mut out = ClosesAfterOneLine { open: true };
            let result = run(&argv(&["--packets", "20000"]), &mut out);
            assert!(matches!(result, Err(Stop::Closed)), "{result:?}");
            assert_eq!(exit_code(result), 0);
        }
    }

    #[test]
    fn window_volume_runs_inline_and_on_the_fleet() {
        // Both windows take a weighted feed into packet-count panes. ε is
        // loose so the windows converge.
        for shards in [None, Some("2")] {
            let mut args = vec![
                "--packets",
                "60000",
                "--epsilon",
                "0.5",
                "--window",
                "20000",
                "--volume",
            ];
            args.extend(shards.map(|n| ["--shards", n]).into_iter().flatten());
            quiet(analyze_inner, &args).expect("--window --volume runs");
        }
    }

    /// The convergence note of a stream-summary RHHH run over `keys` in
    /// each deployment: inline, a 4-pane window over `window` packets, and
    /// a two-shard fleet.
    fn notes(config: RhhhConfig, keys: &[u64], window_len: u64) -> Vec<Option<String>> {
        [Deploy::default(), window(window_len, 4), fleet(2, None)]
            .into_iter()
            .map(|deploy| {
                run_2d(config, deploy, &Input::Unit(keys), 0.1)
                    .answer
                    .read(0.1, false)
                    .2
            })
            .collect()
    }

    #[test]
    fn short_run_is_reported_unconverged() {
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        // Inline and fleet: 10-RHHH at ε = 0.005 needs ψ ≈ 8e7 packets;
        // 20k are far short.
        let tight = rhhh_config(10, 0.005, SEED);
        let lat = Lattice::ipv4_src_dst_bytes();
        for deploy in [Deploy::default(), fleet(2, None)] {
            let outcome = run_rhhh(
                &lat,
                tight,
                CounterKind::StreamSummary,
                deploy,
                &Input::Unit(&keys),
                0.1,
            )
            .expect("healthy run");
            let note = outcome.answer.read(0.1, false).2;
            let note = note.expect("N ≤ ψ must be reported");
            assert!(note.starts_with("# UNCONVERGED (N/ψ = 0.0"), "{note}");
        }
        // Every deployment, at ε = 0.5 (10-RHHH: ψ ≈ 3.3k, below the 20k
        // window): 1,000 packets are short.
        for note in notes(rhhh_config(10, 0.5, SEED), &keys[..1_000], 20_000) {
            let note = note.expect("N ≤ ψ must be reported");
            assert!(note.starts_with("# UNCONVERGED (N/ψ = "), "{note}");
        }
    }

    #[test]
    fn theta_below_slack_is_reported() {
        // V = H at ε = 0.5: the slack 2·Z·√(N·V) is ≈ 0.20·N over 20k
        // packets and ≈ 0.29·N over a 10k window, so θ = 0.1 sits below it
        // and θ = 0.9 well above.
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let config = rhhh_config(1, 0.5, SEED);
        for deploy in [Deploy::default(), window(10_000, 4), fleet(2, None)] {
            let answer = run_2d(config, deploy, &Input::Unit(&keys), 0.1).answer;
            let note = answer.slack_note(0.1).expect("slack ≥ θN must be reported");
            assert!(note.starts_with("# SLACK ≥ θN (slack/θN = 2."), "{note}");
            assert_eq!(answer.slack_note(0.9), None);
        }
    }

    #[test]
    fn run_past_psi_is_not_reported_unconverged() {
        // ε = 0.5 puts ψ near 330 packets (RHHH) or 3.3k (10-RHHH); 20k
        // packets, and a 10k window, are well past it.
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        for v_scale in [1, 10] {
            let config = rhhh_config(v_scale, 0.5, SEED);
            assert_eq!(notes(config, &keys, 10_000), [None, None, None]);
        }
    }

    #[test]
    fn analyze_rejects_conflicting_sources() {
        let err = quiet(analyze_inner, &["--pcap", "x.pcap", "--trace", "y.trc"]).unwrap_err();
        assert!(err.contains("one input source"), "{err}");
        let err = quiet(
            analyze_inner,
            &["--scenario", "ddos-ramp", "--preset", "chicago16"],
        )
        .unwrap_err();
        assert!(err.contains("one input source"), "{err}");
    }

    #[test]
    fn scenario_names_resolve_everywhere() {
        for kind in ScenarioKind::all() {
            assert_eq!(ScenarioKind::parse(kind.name()), Ok(kind));
        }
        let err = quiet(analyze_inner, &["--scenario", "nope"]).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn pcap_wire_and_materialized_paths_run_end_to_end() {
        // generate --scenario → .pcap → analyze --pcap: the zero-copy wire
        // feed (inline 2D RHHH) and the keys every other deployment, the
        // 1D hierarchy and the baselines resolve from the same blocks.
        let dir = std::env::temp_dir().join(format!("rhhh-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let pcap = dir.join("ramp.pcap");
        let path = pcap.to_str().expect("utf-8 path");
        quiet(
            generate_inner,
            &[
                "--scenario",
                "ddos-ramp",
                "--packets",
                "30000",
                "--out",
                path,
            ],
        )
        .expect("generate pcap");
        // Wire feed with a filter.
        quiet(
            analyze_inner,
            &[
                "--pcap",
                path,
                "--theta",
                "0.05",
                "--filter",
                "8.8.8.8/32,*",
            ],
        )
        .expect("wire-plane analyze");
        // Every deployment × window × lane × hierarchy; ε is loose so the
        // windows converge.
        for hierarchy in ["2d-bytes", "1d-bytes"] {
            for shards in [None, Some("2")] {
                for window in [None, Some("10000")] {
                    for volume in [false, true] {
                        let mut args = vec!["--pcap", path, "--epsilon", "0.5"];
                        args.extend(["--hierarchy", hierarchy]);
                        args.extend(shards.map(|n| ["--shards", n]).into_iter().flatten());
                        args.extend(window.map(|w| ["--window", w]).into_iter().flatten());
                        args.extend(volume.then_some("--volume"));
                        quiet(analyze_inner, &args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
                    }
                }
            }
        }
        quiet(analyze_inner, &["--pcap", path, "--algorithm", "mst"]).expect("baseline");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subcommands_reject_unknown_flags() {
        // A typo must not silently run single-threaded.
        let err = quiet(analyze_inner, &["--preset", "chicago16", "--shard", "4"]).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
        // The removed hand-off selector must not silently run the ring.
        for run in [analyze_inner, speed_inner] {
            let err = quiet(run, &["--shards", "2", "--handoff", "channel"]).unwrap_err();
            assert!(err.contains("--handoff"), "{err}");
        }
        let err = quiet(generate_inner, &["--out", "x.trc", "--window", "10"]).unwrap_err();
        assert!(err.contains("--window"), "{err}");
        // Every RHHH deployment feeds slices and speed always prints its
        // batch rows, so neither has a --batch switch.
        for run in [analyze_inner, speed_inner] {
            let err = quiet(run, &["--preset", "chicago16", "--batch"]).unwrap_err();
            assert!(err.contains("--batch"), "{err}");
        }
        // The algorithm name is parsed before anything runs.
        let bogus = ["--packets", "20000", "--algorithm", "rhhhbogus"];
        let err = quiet(analyze_inner, &bogus).unwrap_err();
        assert_eq!(err, "unknown algorithm `rhhhbogus`");
    }

    #[test]
    fn baselines_reject_rhhh_only_flags() {
        for extra in [
            &["--volume"][..],
            &["--shards", "2"],
            &["--window", "1000"],
            &["--counter", "compact"],
        ] {
            let mut args = vec!["--packets", "100", "--algorithm", "mst"];
            args.extend(extra);
            let err = quiet(analyze_inner, &args).unwrap_err();
            assert_eq!(err, format!("{} supports rhhh/10-rhhh only", extra[0]));
        }
    }

    #[test]
    fn epsilon_and_theta_outside_unit_interval_are_errors() {
        for eps in ["0", "1.5", "nan"] {
            let err = quiet(analyze_inner, &["--epsilon", eps]).unwrap_err();
            assert!(err.contains("--epsilon"), "analyze --epsilon {eps}: {err}");
        }
        let err = quiet(speed_inner, &["--epsilon", "0"]).unwrap_err();
        assert!(err.contains("--epsilon"), "speed --epsilon 0: {err}");
        // The stated floor is accepted and anything below it is not; only
        // the flag is parsed, since a run there allocates hundreds of MiB.
        let eps = |value: &str| {
            let flags = Flags::parse(&["--epsilon".into(), value.into()], &["epsilon"], &[])
                .expect("parse");
            epsilon_flag(&flags, 0.5)
        };
        let err = eps("7.6e-6").unwrap_err();
        assert!(
            err.contains("smallest accepted value is 1/131071 ≈ 7.6295e-6"),
            "{err}"
        );
        assert_eq!(eps("7.6295e-6"), Ok(7.6295e-6));
        for theta in ["0", "nan", "2"] {
            let err = quiet(analyze_inner, &["--theta", theta]).unwrap_err();
            assert!(err.contains("--theta"), "analyze --theta {theta}: {err}");
        }
    }

    #[test]
    fn packet_and_row_counts_outside_range_are_errors() {
        for packets in ["1e30", "-5", "nan", "2.5"] {
            let err = quiet(analyze_inner, &["--packets", packets]).unwrap_err();
            assert!(
                err.contains("--packets"),
                "analyze --packets {packets}: {err}"
            );
            let err = quiet(speed_inner, &["--packets", packets]).unwrap_err();
            assert!(
                err.contains("--packets"),
                "speed --packets {packets}: {err}"
            );
            let gen = [
                "--scenario",
                "ddos-ramp",
                "--out",
                "x.pcap",
                "--packets",
                packets,
            ];
            let err = quiet(generate_inner, &gen).unwrap_err();
            assert!(
                err.contains("--packets"),
                "generate --packets {packets}: {err}"
            );
        }
        for top in ["-1", "nan", "0.5"] {
            let err = quiet(analyze_inner, &["--top", top]).unwrap_err();
            assert!(err.contains("--top"), "analyze --top {top}: {err}");
        }
    }

    #[test]
    fn counter_flag_parses() {
        let f = Flags::parse(
            &["--counter".to_string(), "compact".to_string()],
            &["counter"],
            &[],
        )
        .expect("parse");
        assert_eq!(counter_kind(&f), Ok(CounterKind::Compact));
        let none = Flags::parse(&[], &[], &[]).expect("parse");
        assert_eq!(counter_kind(&none), Ok(CounterKind::StreamSummary));
        for name in ["nope", "dispatch", "heap"] {
            let bad = Flags::parse(
                &["--counter".to_string(), name.to_string()],
                &["counter"],
                &[],
            )
            .expect("parse");
            assert_eq!(
                counter_kind(&bad),
                Err(format!(
                    "unknown counter `{name}` (try stream-summary, compact, misra-gries, \
                     lossy-counting, chk)"
                ))
            );
        }
    }

    /// Pieces that arbitrary flag values are spliced from: number, prefix
    /// and attack-spec syntax, flag and counter names, and odd characters.
    const PIECES: [&str; 30] = [
        "--",
        "-",
        "0",
        "1",
        "9",
        ".",
        "e",
        "E",
        "+",
        "inf",
        "nan",
        "1e30",
        "1e-300",
        "/",
        ",",
        "*",
        "->",
        "@",
        "255",
        "256",
        "4294967296",
        "10.0.0.0",
        "/8",
        "compact",
        "dispatch",
        "window",
        "epsilon",
        " ",
        "\u{0}",
        "é",
    ];

    /// An arbitrary string: each of up to 12 parts is a [`PIECES`] entry
    /// or, half the time, any Unicode scalar value.
    fn arbitrary_string() -> impl Strategy<Value = String> {
        vec((0..2 * PIECES.len(), any::<u32>()), 0..12).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(i, c)| match PIECES.get(i) {
                    Some(piece) => (*piece).to_string(),
                    None => char::from_u32(c % 0x11_0000).unwrap_or('?').to_string(),
                })
                .collect()
        })
    }

    /// An arbitrary argument vector: each token is an `analyze` flag name,
    /// a switch, or an arbitrary string.
    fn arbitrary_argv() -> impl Strategy<Value = Vec<String>> {
        let names = ANALYZE_FLAGS.len();
        vec((0..2 * names + 2, arbitrary_string()), 0..10).prop_map(move |tokens| {
            tokens
                .into_iter()
                .map(|(i, text)| match i {
                    i if i < names => format!("--{}", ANALYZE_FLAGS[i]),
                    i if i == names => "--volume".to_string(),
                    i if i == names + 1 => "--batch".to_string(),
                    _ => text,
                })
                .collect()
        })
    }

    proptest! {
        /// The flag layer returns `Ok` or `Err` for any argument vector;
        /// nothing here runs a workload.
        #[test]
        fn flag_parsing_never_panics(argv in arbitrary_argv()) {
            for (values, switches) in [(&ANALYZE_FLAGS[..], &["volume"][..]), (&SPEED_FLAGS, &[])] {
                if let Ok(flags) = Flags::parse(&argv, values, switches) {
                    let _ = Request::parse(&flags);
                    let _ = epsilon_flag(&flags, 0.001);
                    let _ = flags.count("packets", 1_000_000, MAX_PACKETS);
                    let _ = counter_kind(&flags);
                    let _ = window_flags(&flags);
                    let _ = shards_flag(&flags);
                }
            }
        }

        /// Every value parser returns `Ok` or `Err` for any value.
        #[test]
        fn flag_values_never_panic(value in arbitrary_string(), other in arbitrary_string()) {
            let flags = |args: &[&str]| {
                let argv: Vec<String> = args.iter().map(ToString::to_string).collect();
                Flags::parse(&argv, &ANALYZE_FLAGS, &[]).expect("known flags")
            };
            let _ = flags(&["--packets", &value]).count("packets", 7, MAX_PACKETS);
            let _ = flags(&["--top", &value]).count("top", 50, MAX_TOP);
            let _ = flags(&["--theta", &value]).fraction("theta", 0.03);
            let _ = epsilon_flag(&flags(&["--epsilon", &value]), 0.005);
            let _ = counter_kind(&flags(&["--counter", &value]));
            let _ = shards_flag(&flags(&["--shards", &value]));
            let _ = window_flags(&flags(&["--window", &value, "--panes", &other]));
            let _ = window_flags(&flags(&["--panes", &value]));
            let _ = parse_attack(&value);
            let _ = Lattice::ipv4_src_dst_bytes().parse_prefix(&value);
            let _ = Lattice::ipv4_src_bytes().parse_prefix(&other);
            let _ = Lattice::ipv4_src_bits().parse_prefix(&value);
        }
    }
}
