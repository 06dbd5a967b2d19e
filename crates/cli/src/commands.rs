//! The `generate`, `analyze` and `speed` subcommands.

use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

use hhh_core::{
    CounterKind, FrozenRhhh, HeavyHitter, HhhAlgorithm, Rhhh, RhhhConfig, WindowedRhhh,
};
use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, DispatchedEstimator, FrequencyEstimator,
    HeapSpaceSaving, LossyCounting, MisraGries, SpaceSaving,
};
use hhh_eval::AlgoKind;
use hhh_hierarchy::{KeyBits, Lattice};
use hhh_traces::io::{write_trace, TraceReader};
use hhh_traces::{
    parse_ipv4_frame, AttackConfig, FrameBlock, Packet, PcapReader, ScenarioConfig,
    ScenarioGenerator, ScenarioKind, TraceConfig, TraceGenerator,
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
    Ok(match name {
        "rhhh" => AlgoKind::Rhhh {
            v_scale: 1,
            counter,
        },
        "10-rhhh" => AlgoKind::Rhhh {
            v_scale: 10,
            counter,
        },
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

/// Frames per [`FrameBlock`] when reading a pcap in block mode: sized like
/// an rx burst ring so each block's validation prepass and lane sweep stay
/// cache-resident.
const PCAP_BLOCK_FRAMES: usize = 8_192;

/// Chunk size for the CLI's batch update paths. Larger chunks give the
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

/// Default pane count G for `--window` when `--panes` is absent: a good
/// coverage/cost point per the `window_accuracy` eval (slop W/4, merge
/// ~4 × per-pane cost, accuracy flat in G).
const DEFAULT_PANES: usize = 4;

/// Upper bound for `--panes`: each pane is a full set of counter
/// instances, and coverage slop shrinks only as 1/G.
const MAX_PANES: usize = 64;

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
/// place this crate maps the counter roster to types — the analyze and
/// speed dispatches all expand through it.
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
            CounterKind::Heap => {
                type $est<K> = HeapSpaceSaving<K>;
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
            CounterKind::Dispatch => {
                type $est<K> = DispatchedEstimator<K>;
                $body
            }
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

/// `rhhh generate` — materialize a trace file.
pub fn generate(argv: &[String]) -> i32 {
    match generate_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn generate_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        argv,
        &["packets", "out", "scenario", "preset", "attack"],
        &[],
    )?;
    let packets = flags.count("packets", 1_000_000, MAX_PACKETS)? as usize;
    let out = flags.require("out")?;
    let (data, source) = if let Some(name) = flags.get("scenario") {
        if flags.get("preset").is_some() || flags.get("attack").is_some() {
            return Err(
                "--scenario replaces --preset/--attack (scenarios script their own mix)".into(),
            );
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
    let written = if out.ends_with(".pcap") {
        hhh_traces::write_pcap(Path::new(out), &data)
    } else {
        write_trace(Path::new(out), &data)
    }
    .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {written} packets ({source}) to {out}");
    Ok(())
}

/// `rhhh analyze` — run an algorithm over a trace and print the HHH table.
pub fn analyze(argv: &[String]) -> i32 {
    match analyze_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Rejects `analyze` invocations naming more than one input source.
fn check_one_source(flags: &Flags) -> Result<(), String> {
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
    Ok(())
}

fn load_packets(flags: &Flags) -> Result<Vec<Packet>, String> {
    if let Some(path) = flags.get("trace") {
        let reader =
            TraceReader::open(Path::new(path)).map_err(|e| format!("opening {path}: {e}"))?;
        return reader
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("reading {path}: {e}"));
    }
    let packets = flags.count("packets", 1_000_000, MAX_PACKETS)? as usize;
    if let Some(name) = flags.get("scenario") {
        let kind = ScenarioKind::parse(name)?;
        return Ok(ScenarioGenerator::new(&ScenarioConfig::new(kind)).take_packets(packets));
    }
    let config = preset(flags.get("preset").unwrap_or("chicago16"))?;
    Ok(TraceGenerator::new(&config).take_packets(packets))
}

/// Reads a whole pcap into rx-burst-sized [`FrameBlock`]s. Returns the
/// blocks plus the reader's record count.
fn load_pcap_blocks(path: &str) -> Result<(Vec<FrameBlock>, u64), String> {
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
    Ok((blocks, reader.records()))
}

/// Materializes [`Packet`] structs from raw frame blocks — the fallback
/// when the requested analysis cannot run on the zero-copy wire plane
/// (non-RHHH algorithm, 1D hierarchy, shards, scalar updates).
fn packets_from_blocks(blocks: &[FrameBlock]) -> Vec<Packet> {
    let mut out = Vec::new();
    for block in blocks {
        for (frame, orig) in block.frames() {
            if let Some(p) = parse_ipv4_frame(frame, orig) {
                out.push(p);
            }
        }
    }
    out
}

fn analyze_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        argv,
        &[
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
        ],
        &["volume", "batch"],
    )?;
    let theta = flags.fraction("theta", 0.03)?;
    let epsilon = flags.fraction("epsilon", 0.005)?;
    let top = flags.count("top", 50, MAX_TOP)? as usize;
    let algo_name = flags.get("algorithm").unwrap_or("rhhh");
    let hierarchy = flags.get("hierarchy").unwrap_or("2d-bytes");
    let volume = flags.switch("volume");
    let batch = flags.switch("batch");
    let counter = counter_kind(&flags)?;
    let shards = shards_flag(&flags)?;
    let window = window_flags(&flags)?;
    let filter = flags.get("filter").map(ToString::to_string);
    check_one_source(&flags)?;

    let packets;
    if let Some(path) = flags.get("pcap") {
        if window.is_some() {
            return Err(
                "--pcap streams raw frames; --window needs a materialized trace (use \
                 --trace, --scenario or --preset)"
                    .into(),
            );
        }
        let (blocks, records) = load_pcap_blocks(path)?;
        // The zero-copy wire plane covers exactly the single-instance
        // RHHH batch path over the 2D hierarchy — raw frame bytes feed
        // `update_batch_wire` with no Packet structs in between. Anything
        // else (other algorithms, 1D keys, shards, scalar updates)
        // materializes structs and takes the regular path below.
        if hierarchy == "2d-bytes"
            && matches!(algo_name, "rhhh" | "10-rhhh")
            && batch
            && shards.is_none()
        {
            return run_wire_analysis(
                &blocks,
                records,
                algo_name,
                epsilon,
                theta,
                volume,
                counter,
                top,
                filter.as_deref(),
            );
        }
        packets = packets_from_blocks(&blocks);
        println!(
            "# pcap {path}: {} of {records} records materialized (wire fast path needs \
             2d-bytes + rhhh/10-rhhh + --batch, no --shards)",
            packets.len()
        );
    } else {
        packets = load_packets(&flags)?;
    }

    match hierarchy {
        "2d-bytes" => run_analysis::<u64>(
            &Lattice::ipv4_src_dst_bytes(),
            &packets,
            Packet::key2,
            algo_name,
            epsilon,
            theta,
            volume,
            batch,
            counter,
            shards,
            window,
            top,
            filter.as_deref(),
        ),
        "1d-bytes" => run_analysis::<u32>(
            &Lattice::ipv4_src_bytes(),
            &packets,
            Packet::key1,
            algo_name,
            epsilon,
            theta,
            volume,
            batch,
            counter,
            shards,
            window,
            top,
            filter.as_deref(),
        ),
        "1d-bits" => run_analysis::<u32>(
            &Lattice::ipv4_src_bits(),
            &packets,
            Packet::key1,
            algo_name,
            epsilon,
            theta,
            volume,
            batch,
            counter,
            shards,
            window,
            top,
            filter.as_deref(),
        ),
        other => Err(format!("unknown hierarchy `{other}`")),
    }
}

/// The `# UNCONVERGED` warning for an answer whose view has not passed ψ
/// yet (`N ≤ ψ`), so Theorem 6.17's guarantee does not hold.
fn convergence_note<K: KeyBits>(view: &FrozenRhhh<K>) -> Option<String> {
    (!view.converged()).then(|| {
        format!(
            "# UNCONVERGED (N/ψ = {:.2}%)",
            100.0 * view.packets() as f64 / view.psi()
        )
    })
}

/// `Output(θ)` and the convergence note of one live instance, both read
/// from its view.
fn answer_of<K: KeyBits, E: FrequencyEstimator<K> + Clone>(
    algo: &Rhhh<K, E>,
    theta: f64,
) -> (Vec<HeavyHitter<K>>, Option<String>) {
    let view = Rhhh::merged_view(&[algo]);
    (view.output(theta), convergence_note(&view))
}

/// What an RHHH run hands the report: the answer, the weight or packet
/// count it covers, the elapsed seconds and its convergence note.
type Answer<K> = (Vec<HeavyHitter<K>>, u64, f64, Option<String>);

/// Drives one concrete `Rhhh<K, E>` through the requested update path with
/// the clock running.
fn run_rhhh_timed<K: KeyBits, E: FrequencyEstimator<K> + Clone>(
    lattice: &Lattice<K>,
    config: RhhhConfig,
    volume: bool,
    batch: bool,
    weighted: &[(K, u64)],
    keys: &[K],
    theta: f64,
) -> Answer<K> {
    let mut algo = Rhhh::<K, E>::new(lattice.clone(), config);
    let start = Instant::now();
    match (volume, batch) {
        (true, true) => {
            for chunk in weighted.chunks(BATCH_CHUNK) {
                algo.update_batch_weighted(chunk);
            }
        }
        (true, false) => {
            for &(k, w) in weighted {
                algo.update_weighted(k, w);
            }
        }
        (false, true) => {
            for chunk in keys.chunks(BATCH_CHUNK) {
                algo.update_batch(chunk);
            }
        }
        (false, false) => unreachable!("guarded by the caller"),
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total = if volume {
        algo.total_weight()
    } else {
        algo.packets()
    };
    let (output, note) = answer_of(&algo, theta);
    (output, total, elapsed, note)
}

/// Drives the shard fleet with the clock running: sample every key
/// (`keys`, or `weighted` when `volume`) at ingress in [`BATCH_CHUNK`]
/// calls, route the samples across `shards` worker threads, each flushing
/// into its own pane ring — a sliding window over the last W packets with
/// globally aligned panes when `window` is `Some((W, G))` — then
/// merge-on-harvest. The elapsed time covers feed, drain and merge, the
/// end-to-end pipeline cost a deployment pays. The answer's `N` is the
/// harvested instance's.
#[allow(clippy::too_many_arguments)]
fn run_fleet_timed<K: KeyBits, E: FrequencyEstimator<K> + Clone + Sync>(
    lattice: &Lattice<K>,
    config: RhhhConfig,
    shards: usize,
    window: Option<(u64, usize)>,
    volume: bool,
    weighted: &[(K, u64)],
    keys: &[K],
    live_query: bool,
    theta: f64,
) -> Result<Answer<K>, String> {
    let start = Instant::now();
    let mut mon = match window {
        Some((win, panes)) => ShardedMonitor::<K, E>::spawn_windowed(
            lattice.clone(),
            config,
            shards,
            SHARD_BATCH,
            win,
            panes,
        ),
        None => ShardedMonitor::<K, E>::spawn(lattice.clone(), config, shards, SHARD_BATCH),
    }
    .map_err(|e| e.to_string())?;
    for chunk in weighted.chunks(BATCH_CHUNK) {
        mon.update_batch_weighted(chunk);
    }
    for chunk in keys.chunks(BATCH_CHUNK) {
        mon.update_batch(chunk);
    }
    let fed = start.elapsed();
    if live_query {
        // Demonstrate the snapshot query plane off the clock: the workers
        // keep running while we merge their latest published snapshots.
        report_live_query(&mut mon, window.map(|(_, g)| g), theta);
    }
    let drain = Instant::now();
    let merged = mon.harvest().map_err(|e| e.to_string())?;
    let elapsed = (fed + drain.elapsed()).as_secs_f64();
    let total = if volume {
        merged.total_weight()
    } else {
        merged.packets()
    };
    let (output, note) = answer_of(&merged, theta);
    Ok((output, total, elapsed, note))
}

/// Publishes fresh snapshots, waits (bounded) until they cover what the
/// answer should (every packet fed, or the last `panes` completed panes of
/// a window), and prints the live query's answer size, coverage and
/// latency — without joining or stopping the workers.
fn report_live_query<K: KeyBits, E: FrequencyEstimator<K> + Clone + Sync>(
    mon: &mut ShardedMonitor<K, E>,
    panes: Option<usize>,
    theta: f64,
) {
    mon.publish_now();
    let fed = mon.packets();
    let want = match panes {
        Some(g) if mon.panes_completed() > 0 => {
            mon.panes_completed().min(g as u64) * mon.pane_len()
        }
        _ => fed,
    };
    let deadline = Instant::now() + std::time::Duration::from_millis(500);
    while Instant::now() < deadline && mon.query_coverage() < want {
        std::thread::yield_now();
    }
    let start = Instant::now();
    let live = mon.query(theta);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "# live snapshot query: {} HHHs over {}/{} packets in {:.3} ms (workers not joined)",
        live.len(),
        mon.query_coverage(),
        fed,
        ms
    );
}

/// Drives a pane-ring sliding window with the clock running: feed every
/// key (scalar or geometric-skip batch per `batch`), then answer the
/// windowed query over the last G completed panes. Streams shorter than
/// one pane fall back to the partial active-pane answer. The answer's
/// total is the packets it covers, the denominator of the printed shares,
/// and its `N` for the convergence note.
fn run_windowed_timed<K: KeyBits, E: FrequencyEstimator<K> + Clone>(
    lattice: &Lattice<K>,
    config: RhhhConfig,
    window: u64,
    panes: usize,
    batch: bool,
    keys: &[K],
    theta: f64,
) -> Answer<K> {
    let mut mon = WindowedRhhh::<K, E>::new(lattice.clone(), config, window, panes);
    let start = Instant::now();
    if batch {
        for chunk in keys.chunks(BATCH_CHUNK) {
            mon.update_batch(chunk);
        }
    } else {
        for &k in keys {
            mon.update(k);
        }
    }
    let current;
    let view = match mon.view() {
        Some(view) => view,
        None => {
            current = mon.current_view();
            &current
        }
    };
    let output = view.output(theta);
    let elapsed = start.elapsed().as_secs_f64();
    (output, view.packets(), elapsed, convergence_note(view))
}

#[allow(clippy::too_many_arguments)]
fn run_analysis<K: KeyBits>(
    lattice: &Lattice<K>,
    packets: &[Packet],
    key_of: impl Fn(&Packet) -> K,
    algo_name: &str,
    epsilon: f64,
    theta: f64,
    volume: bool,
    batch: bool,
    counter: CounterKind,
    shards: Option<usize>,
    window: Option<(u64, usize)>,
    top: usize,
    filter: Option<&str>,
) -> Result<(), String> {
    let filter_prefix = filter
        .map(|f| {
            lattice
                .parse_prefix(f)
                .map_err(|e| format!("--filter: {e}"))
        })
        .transpose()?;
    let output: Vec<HeavyHitter<K>>;
    let total: u64;
    let elapsed: f64;
    let mut note = None;

    if volume || batch || shards.is_some() || window.is_some() {
        // Volume weighting, the batch update path, shard parallelism and
        // the pane-ring sliding window are RHHH-side extensions; run the
        // concrete algorithm directly, monomorphized over the selected
        // per-node counter.
        if !algo_name.starts_with("rhhh") && algo_name != "10-rhhh" {
            let flag = if volume {
                "--volume"
            } else if batch {
                "--batch"
            } else if shards.is_some() {
                "--shards"
            } else {
                "--window"
            };
            return Err(format!("{flag} supports rhhh/10-rhhh only"));
        }
        if volume && window.is_some() && shards.is_none() {
            return Err(
                "--window --volume needs --shards (the single-thread window takes no \
                        weighted feed); add --shards N or drop --volume"
                    .into(),
            );
        }
        let v_scale = if algo_name == "10-rhhh" { 10 } else { 1 };
        let config = RhhhConfig {
            epsilon_a: epsilon,
            epsilon_s: epsilon,
            delta_s: 0.001,
            v_scale,
            updates_per_packet: 1,
            seed: 0xC11,
        };
        // Materialize inputs before starting the clock — for the scalar
        // and batch arms alike — so the printed throughput measures the
        // update path, not key extraction, and the two stay comparable.
        let weighted: Vec<(K, u64)> = if volume {
            packets
                .iter()
                .map(|p| (key_of(p), u64::from(p.wire_len)))
                .collect()
        } else {
            Vec::new()
        };
        let keys: Vec<K> = if volume {
            Vec::new()
        } else {
            packets.iter().map(&key_of).collect()
        };
        (output, total, elapsed, note) = if let Some(shards) = shards {
            with_counter_type!(counter, Est, {
                run_fleet_timed::<K, Est<K>>(
                    lattice, config, shards, window, volume, &weighted, &keys, true, theta,
                )?
            })
        } else if let Some((win, panes)) = window {
            with_counter_type!(counter, Est, {
                run_windowed_timed::<K, Est<K>>(lattice, config, win, panes, batch, &keys, theta)
            })
        } else {
            with_counter_type!(counter, Est, {
                run_rhhh_timed::<K, Est<K>>(lattice, config, volume, batch, &weighted, &keys, theta)
            })
        };
    } else {
        let kind = algo_kind(algo_name, counter)?;
        if counter != CounterKind::default() && !matches!(kind, AlgoKind::Rhhh { .. }) {
            return Err("--counter supports rhhh/10-rhhh only".into());
        }
        let mut algo = kind.build(lattice.clone(), epsilon, 0xC11);
        let keys: Vec<K> = packets.iter().map(&key_of).collect();
        let start = Instant::now();
        for &k in &keys {
            algo.insert(k);
        }
        elapsed = start.elapsed().as_secs_f64();
        total = algo.packets();
        output = algo.query(theta);
    }

    if let Some((win, panes)) = window {
        let unit = if volume { "bytes" } else { "packets" };
        println!(
            "# sliding window: {total} {unit} covered ({panes}-pane ring over W={win} packets, \
             pane={} packets)",
            win.div_ceil(panes as u64)
        );
    }
    print_report(
        lattice,
        output,
        filter_prefix,
        algo_name,
        packets.len(),
        total,
        elapsed,
        theta,
        epsilon,
        volume,
        top,
        note,
    );
    Ok(())
}

/// Filters, sorts and prints the HHH table — shared by the struct-fed and
/// wire-fed analysis paths.
#[allow(clippy::too_many_arguments)]
fn print_report<K: KeyBits>(
    lattice: &Lattice<K>,
    mut output: Vec<HeavyHitter<K>>,
    filter: Option<hhh_hierarchy::Prefix<K>>,
    algo_name: &str,
    stream_len: usize,
    total: u64,
    elapsed: f64,
    theta: f64,
    epsilon: f64,
    volume: bool,
    top: usize,
    note: Option<String>,
) {
    if let Some(filter) = filter {
        output.retain(|h| filter.generalizes(&h.prefix, lattice));
    }
    output.sort_by(|a, b| b.freq_upper.total_cmp(&a.freq_upper));
    let unit = if volume { "bytes" } else { "packets" };
    println!(
        "# {} on {} packets ({total} {unit}), theta={theta}, epsilon={epsilon}, {:.2}s ({:.2} Mpps)",
        algo_name,
        stream_len,
        elapsed,
        stream_len as f64 / elapsed / 1e6,
    );
    if let Some(note) = note {
        println!("{note}");
    }
    println!(
        "{:<46} {:>14} {:>14} {:>8}",
        "prefix", "lower", "upper", "share"
    );
    for h in output.iter().take(top) {
        println!(
            "{:<46} {:>14.0} {:>14.0} {:>7.2}%",
            h.prefix.display(lattice),
            h.freq_lower,
            h.freq_upper,
            100.0 * h.freq_upper / total as f64
        );
    }
}

/// The zero-copy pcap analysis: every block resolves to key lanes through
/// [`WireBlockView`] and feeds `update_batch_wire` — no `Packet` structs
/// exist anywhere on the hot path, and the clock covers parse + sketch
/// together (the quantity the `wire_ingest` benchmark gates).
#[allow(clippy::too_many_arguments)]
fn run_wire_analysis(
    blocks: &[FrameBlock],
    records: u64,
    algo_name: &str,
    epsilon: f64,
    theta: f64,
    volume: bool,
    counter: CounterKind,
    top: usize,
    filter: Option<&str>,
) -> Result<(), String> {
    let lattice = Lattice::ipv4_src_dst_bytes();
    let filter_prefix = filter
        .map(|f| {
            lattice
                .parse_prefix(f)
                .map_err(|e| format!("--filter: {e}"))
        })
        .transpose()?;
    let config = RhhhConfig {
        epsilon_a: epsilon,
        epsilon_s: epsilon,
        delta_s: 0.001,
        v_scale: if algo_name == "10-rhhh" { 10 } else { 1 },
        updates_per_packet: 1,
        seed: 0xC11,
    };
    let (output, frames, skipped, total, elapsed, note) = with_counter_type!(counter, Est, {
        let mut algo = Rhhh::<u64, Est<u64>>::new(lattice.clone(), config);
        let mut frames = 0u64;
        let mut non_ipv4 = 0u64;
        let mut truncated = 0u64;
        let start = Instant::now();
        for block in blocks {
            let view = WireBlockView::new(block);
            if volume {
                view.ingest_weighted(&mut algo);
            } else {
                view.ingest(&mut algo);
            }
            frames += view.len() as u64;
            non_ipv4 += view.skipped_non_ipv4();
            truncated += view.skipped_truncated();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let total = if volume {
            algo.total_weight()
        } else {
            algo.packets()
        };
        let (output, note) = answer_of(&algo, theta);
        (output, frames, (non_ipv4, truncated), total, elapsed, note)
    });
    println!(
        "# wire ingest: {frames} IPv4 frames of {records} records sketched from raw bytes \
         ({} non-IPv4, {} truncated skipped)",
        skipped.0, skipped.1
    );
    print_report(
        &lattice,
        output,
        filter_prefix,
        &format!("{algo_name}(wire)"),
        frames as usize,
        total,
        elapsed,
        theta,
        epsilon,
        volume,
        top,
        note,
    );
    Ok(())
}

/// `rhhh speed` — quick Mpps comparison of all algorithms.
pub fn speed(argv: &[String]) -> i32 {
    match speed_inner(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn speed_inner(argv: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        argv,
        &[
            "preset",
            "packets",
            "epsilon",
            "hierarchy",
            "counter",
            "shards",
        ],
        &["batch"],
    )?;
    let config = preset(flags.get("preset").unwrap_or("chicago16"))?;
    let packets = flags.count("packets", 1_000_000, MAX_PACKETS)? as usize;
    let epsilon = flags.fraction("epsilon", 0.001)?;
    let hierarchy = flags.get("hierarchy").unwrap_or("2d-bytes");
    let batch = flags.switch("batch");
    let counter = counter_kind(&flags)?;
    let shards = shards_flag(&flags)?;
    let data = TraceGenerator::new(&config).take_packets(packets);

    println!(
        "# {} packets of {}, epsilon={epsilon}",
        packets, config.name
    );
    println!("{:<26} {:>10}", "algorithm", "Mpps");
    match hierarchy {
        "2d-bytes" => {
            let keys: Vec<u64> = data.iter().map(Packet::key2).collect();
            speed_table(
                &Lattice::ipv4_src_dst_bytes(),
                &keys,
                epsilon,
                batch,
                counter,
                shards,
            );
        }
        "1d-bytes" => {
            let keys: Vec<u32> = data.iter().map(Packet::key1).collect();
            speed_table(
                &Lattice::ipv4_src_bytes(),
                &keys,
                epsilon,
                batch,
                counter,
                shards,
            );
        }
        "1d-bits" => {
            let keys: Vec<u32> = data.iter().map(Packet::key1).collect();
            speed_table(
                &Lattice::ipv4_src_bits(),
                &keys,
                epsilon,
                batch,
                counter,
                shards,
            );
        }
        other => return Err(format!("unknown hierarchy `{other}`")),
    }
    Ok(())
}

/// Measures the shard-parallel pipeline end to end (feed + drain + merge),
/// monomorphized over the selected counter kind.
fn measure_sharded_mpps<K: KeyBits>(
    counter: CounterKind,
    lattice: &Lattice<K>,
    keys: &[K],
    epsilon: f64,
    v_scale: u64,
    shards: usize,
) -> f64 {
    let config = RhhhConfig {
        epsilon_a: epsilon,
        epsilon_s: epsilon,
        delta_s: 0.001,
        v_scale,
        updates_per_packet: 1,
        seed: 1,
    };
    let (_, total, elapsed, _) = with_counter_type!(counter, Est, {
        run_fleet_timed::<K, Est<K>>(lattice, config, shards, None, false, &[], keys, false, 1.0)
    })
    .expect("healthy pipeline");
    total as f64 / elapsed / 1e6
}

fn speed_table<K: KeyBits>(
    lattice: &Lattice<K>,
    keys: &[K],
    epsilon: f64,
    batch: bool,
    counter: CounterKind,
    shards: Option<usize>,
) {
    let mut kinds = AlgoKind::roster();
    if counter != CounterKind::default() {
        // A non-default counter adds its RHHH rows next to the roster's,
        // so the layouts read side by side.
        kinds.push(AlgoKind::Rhhh {
            v_scale: 1,
            counter,
        });
        kinds.push(AlgoKind::Rhhh {
            v_scale: 10,
            counter,
        });
    }
    for kind in &kinds {
        let mut algo = kind.build(lattice.clone(), epsilon, 1);
        let mpps = hhh_eval::measure_mpps(algo.as_mut(), keys);
        println!("{:<26} {:>10.2}", kind.label(), mpps);
    }
    if batch {
        for kind in &kinds {
            let AlgoKind::Rhhh { .. } = kind else {
                continue;
            };
            let mut algo = kind.build(lattice.clone(), epsilon, 1);
            let mpps = hhh_eval::measure_mpps_batch(algo.as_mut(), keys, BATCH_CHUNK);
            println!("{:<26} {:>10.2}", format!("{}(batch)", kind.label()), mpps);
        }
    }
    if let Some(shards) = shards {
        for kind in &kinds {
            let AlgoKind::Rhhh { v_scale, counter } = kind else {
                continue;
            };
            let mpps = measure_sharded_mpps(*counter, lattice, keys, epsilon, *v_scale, shards);
            println!(
                "{:<26} {:>10.2}",
                format!("{}(x{shards} shards)", kind.label()),
                mpps
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn sharded_analysis_runs_end_to_end() {
        // A small in-process run through the full --shards path: generate,
        // analyze sharded, find the planted attack in the output table.
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_a: 0.005,
            epsilon_s: 0.02,
            delta_s: 0.05,
            v_scale: 1,
            updates_per_packet: 1,
            seed: 0xC11,
        };
        let trace = preset("chicago16")
            .expect("preset")
            .with_attack(parse_attack("10.20.0.0/16->8.8.8.8@0.3").expect("attack"));
        let keys: Vec<u64> = TraceGenerator::new(&trace)
            .take_packets(200_000)
            .iter()
            .map(Packet::key2)
            .collect();
        let (output, total, elapsed, _) = run_fleet_timed::<u64, SpaceSaving<u64>>(
            &lat,
            config,
            3,
            None,
            false,
            &[],
            &keys,
            true,
            0.1,
        )
        .expect("healthy pipeline");
        assert_eq!(total, 200_000);
        assert!(elapsed > 0.0);
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
            epsilon_a: 0.005,
            epsilon_s: 0.02,
            delta_s: 0.05,
            v_scale: 1,
            updates_per_packet: 1,
            seed: 0xC11,
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
        let (output, total, elapsed, _) = run_fleet_timed::<u64, SpaceSaving<u64>>(
            &lat,
            config,
            3,
            None,
            true,
            &weighted,
            &[],
            true,
            0.3,
        )
        .expect("healthy pipeline");
        assert_eq!(total, volume, "sharded volume must be conserved");
        assert!(elapsed > 0.0);
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
        // analysis (batch path, both counter layouts) must answer from the
        // recent window and drop the aged-out attack.
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_a: 0.005,
            epsilon_s: 0.05,
            delta_s: 0.05,
            v_scale: 1,
            updates_per_packet: 1,
            seed: 0xC11,
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
        for batch in [false, true] {
            let (output, covered, _, _) = run_windowed_timed::<u64, SpaceSaving<u64>>(
                &lat, config, 100_000, 4, batch, &keys, 0.1,
            );
            assert_eq!(covered, 100_000, "4 panes of 25k cover the window");
            assert!(
                !output
                    .iter()
                    .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
                "batch={batch}: attack older than the window must age out"
            );
        }
        // Compact layout, attack inside the window: must be found.
        let attacked_keys: Vec<u64> = TraceGenerator::new(&attacked)
            .take_packets(240_000)
            .iter()
            .map(Packet::key2)
            .collect();
        let (output, covered, _, _) = run_windowed_timed::<u64, CompactSpaceSaving<u64>>(
            &lat,
            config,
            100_000,
            4,
            true,
            &attacked_keys,
            0.1,
        );
        assert_eq!(covered, 100_000);
        assert!(
            output
                .iter()
                .any(|h| h.prefix.display(&lat).contains("10.20.0.0/16")),
            "attack inside the window must be reported"
        );
    }

    #[test]
    fn windowed_sharded_analysis_runs_end_to_end() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_a: 0.005,
            epsilon_s: 0.05,
            delta_s: 0.05,
            v_scale: 1,
            updates_per_packet: 1,
            seed: 0xC11,
        };
        let attacked = preset("chicago16")
            .expect("preset")
            .with_attack(parse_attack("10.20.0.0/16->8.8.8.8@0.3").expect("attack"));
        let keys: Vec<u64> = TraceGenerator::new(&attacked)
            .take_packets(200_000)
            .iter()
            .map(Packet::key2)
            .collect();
        let (output, covered, elapsed, _) = run_fleet_timed::<u64, SpaceSaving<u64>>(
            &lat,
            config,
            3,
            Some((100_000, 4)),
            false,
            &[],
            &keys,
            true,
            0.1,
        )
        .expect("healthy pipeline");
        assert_eq!(covered, 100_000);
        assert!(elapsed > 0.0);
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

    #[test]
    fn window_volume_runs_on_the_fleet_only() {
        // The fleet takes a weighted feed into packet-count panes.
        analyze_inner(&argv(&[
            "--packets",
            "60000",
            "--shards",
            "2",
            "--window",
            "20000",
            "--volume",
        ]))
        .expect("--shards --window --volume runs");
        // The single-thread window has no weighted feed: a typed error.
        let err =
            analyze_inner(&argv(&["--packets", "100", "--window", "50", "--volume"])).unwrap_err();
        assert!(
            err.contains("--shards") && err.contains("--volume"),
            "{err}"
        );
    }

    #[test]
    fn short_run_is_reported_unconverged() {
        // 10-RHHH at ε = 0.005 needs ψ ≈ 8e7 packets; 20k are far short.
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_a: 0.005,
            epsilon_s: 0.005,
            delta_s: 0.001,
            v_scale: 10,
            updates_per_packet: 1,
            seed: 0xC11,
        };
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let (_, _, _, note) =
            run_rhhh_timed::<u64, SpaceSaving<u64>>(&lat, config, false, true, &[], &keys, 0.1);
        let note = note.expect("N ≤ ψ must be reported");
        assert!(note.starts_with("# UNCONVERGED (N/ψ = 0.0"), "{note}");
    }

    #[test]
    fn run_past_psi_is_not_reported_unconverged() {
        // ε_s = 0.5 puts ψ near 330 packets; 20k are well past it.
        let lat = Lattice::ipv4_src_dst_bytes();
        let config = RhhhConfig {
            epsilon_a: 0.5,
            epsilon_s: 0.5,
            delta_s: 0.001,
            v_scale: 1,
            updates_per_packet: 1,
            seed: 0xC11,
        };
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let (_, _, _, note) =
            run_rhhh_timed::<u64, SpaceSaving<u64>>(&lat, config, false, true, &[], &keys, 0.1);
        assert_eq!(note, None);
    }

    #[test]
    fn analyze_rejects_conflicting_sources() {
        let err = analyze_inner(&argv(&["--pcap", "x.pcap", "--trace", "y.trc"])).unwrap_err();
        assert!(err.contains("one input source"), "{err}");
        let err = analyze_inner(&argv(&["--scenario", "ddos-ramp", "--preset", "chicago16"]))
            .unwrap_err();
        assert!(err.contains("one input source"), "{err}");
    }

    #[test]
    fn pcap_rejects_window() {
        // Validated before the file is touched, so no fixture needed.
        let err =
            analyze_inner(&argv(&["--pcap", "missing.pcap", "--window", "1000"])).unwrap_err();
        assert!(err.contains("--window"), "{err}");
    }

    #[test]
    fn scenario_names_resolve_everywhere() {
        for kind in ScenarioKind::all() {
            assert_eq!(ScenarioKind::parse(kind.name()), Ok(kind));
        }
        let err = analyze_inner(&argv(&["--scenario", "nope"])).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn pcap_wire_and_materialized_paths_run_end_to_end() {
        // generate --scenario → .pcap → analyze --pcap through both the
        // zero-copy wire fast path and the struct-materializing fallback.
        let dir = std::env::temp_dir().join(format!("rhhh-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let pcap = dir.join("ramp.pcap");
        let path = pcap.to_str().expect("utf-8 path");
        generate_inner(&argv(&[
            "--scenario",
            "ddos-ramp",
            "--packets",
            "30000",
            "--out",
            path,
        ]))
        .expect("generate pcap");
        // Wire fast path: 2d-bytes + rhhh + --batch, with a filter.
        analyze_inner(&argv(&[
            "--pcap",
            path,
            "--batch",
            "--theta",
            "0.05",
            "--filter",
            "8.8.8.8/32,*",
        ]))
        .expect("wire-plane analyze");
        // Fallback: 1d hierarchy materializes structs from the same blocks.
        analyze_inner(&argv(&[
            "--pcap",
            path,
            "--batch",
            "--hierarchy",
            "1d-bytes",
            "--theta",
            "0.05",
        ]))
        .expect("materialized analyze");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subcommands_reject_unknown_flags() {
        // A typo must not silently run single-threaded.
        let err = analyze_inner(&argv(&["--preset", "chicago16", "--shard", "4"])).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
        // The removed hand-off selector must not silently run the ring.
        for run in [analyze_inner, speed_inner] {
            let err = run(&argv(&["--shards", "2", "--handoff", "channel"])).unwrap_err();
            assert!(err.contains("--handoff"), "{err}");
        }
        let err = generate_inner(&argv(&["--out", "x.trc", "--window", "10"])).unwrap_err();
        assert!(err.contains("--window"), "{err}");
    }

    #[test]
    fn epsilon_and_theta_outside_unit_interval_are_errors() {
        for eps in ["0", "1.5", "nan"] {
            let err = analyze_inner(&argv(&["--epsilon", eps])).unwrap_err();
            assert!(err.contains("--epsilon"), "analyze --epsilon {eps}: {err}");
        }
        let err = speed_inner(&argv(&["--epsilon", "0"])).unwrap_err();
        assert!(err.contains("--epsilon"), "speed --epsilon 0: {err}");
        for theta in ["0", "nan", "2"] {
            let err = analyze_inner(&argv(&["--theta", theta])).unwrap_err();
            assert!(err.contains("--theta"), "analyze --theta {theta}: {err}");
        }
    }

    #[test]
    fn packet_and_row_counts_outside_range_are_errors() {
        for packets in ["1e30", "-5", "nan", "2.5"] {
            let err = analyze_inner(&argv(&["--packets", packets])).unwrap_err();
            assert!(
                err.contains("--packets"),
                "analyze --packets {packets}: {err}"
            );
            let err = speed_inner(&argv(&["--packets", packets])).unwrap_err();
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
            let err = generate_inner(&argv(&gen)).unwrap_err();
            assert!(
                err.contains("--packets"),
                "generate --packets {packets}: {err}"
            );
        }
        for top in ["-1", "nan", "0.5"] {
            let err = analyze_inner(&argv(&["--top", top])).unwrap_err();
            assert!(err.contains("--top"), "analyze --top {top}: {err}");
        }
    }

    #[test]
    fn counter_flag_parses() {
        let f = Flags::parse(
            &["--counter".to_string(), "compact".to_string()],
            &["counter"],
            &["batch"],
        )
        .expect("parse");
        assert_eq!(counter_kind(&f), Ok(CounterKind::Compact));
        let none = Flags::parse(&[], &[], &[]).expect("parse");
        assert_eq!(counter_kind(&none), Ok(CounterKind::StreamSummary));
        let bad = Flags::parse(
            &["--counter".to_string(), "nope".to_string()],
            &["counter"],
            &[],
        )
        .expect("parse");
        assert!(counter_kind(&bad).is_err());
    }
}
