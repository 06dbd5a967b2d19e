//! Merged-vs-single accuracy: what does shard-parallelism cost?
//!
//! A K-shard pipeline partitions the stream by key hash, counts each
//! sub-stream on its own RHHH instance and merges at query time. The merge
//! analysis says the per-node counter errors add (`Σᵢ nᵢ/m = n/m` — the
//! same class as one instance) while the independent sampling errors add in
//! variance, so accuracy should be *flat in K*. This experiment measures
//! that claim with the paper's three quality metrics against exact ground
//! truth, for K ∈ {1, 2, 4, 8} and **every counter in
//! [`CounterKind::roster`]**, plus the wall-clock cost of the merge
//! itself. (For the decay family the merged per-key bands widen by the
//! summed shard deficits — its documented merge bound — so its accuracy
//! column is expected to drift with K rather than stay flat.)
//!
//! Two combine strategies are compared at every K > 1:
//!
//! * `pairwise` — the shards are held as `Box<dyn HhhAlgorithm>` and folded
//!   through the driver trait's `merge`, the exact code path a
//!   runtime-configured pipeline ran before PR 4; each fold step pads
//!   one-sided keys with the growing intermediate merged min-counts.
//! * `kway` — one `Rhhh::merge_many` combine over all K candidate lists at
//!   once (the `ShardedMonitor::harvest` path), padding with the per-shard
//!   minima only. The K-way estimates are pointwise no looser than the
//!   fold's, so its accuracy column must be ≤ the pairwise row's.

use std::time::Instant;

use hhh_core::{CounterKind, ExactHhh, HeavyHitter, HhhAlgorithm, Rhhh, RhhhConfig};
use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, HeapSpaceSaving, LossyCounting,
    MisraGries, SpaceSaving,
};
use hhh_eval::{accuracy_error_ratio, coverage_error_ratio, false_positive_ratio, Args, Report};
use hhh_hierarchy::Lattice;
use hhh_traces::{Packet, TraceConfig, TraceGenerator};
use hhh_vswitch::shard_of;

fn shard_config(epsilon: f64, i: usize) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: epsilon,
        epsilon_s: epsilon,
        delta_s: 0.001,
        v_scale: 1,
        updates_per_packet: 1,
        seed: 0x3E6 + i as u64 * 0x9E37,
    }
}

/// K-way combine on concrete instances: partition, feed, one
/// `merge_many` over all shards. Returns the output and the merge cost.
fn run_kway<E: FrequencyEstimator<u64>>(
    lattice: &Lattice<u64>,
    keys: &[u64],
    epsilon: f64,
    shards: usize,
    theta: f64,
) -> (Vec<HeavyHitter<u64>>, f64) {
    let mut parts: Vec<Rhhh<u64, E>> = (0..shards)
        .map(|i| Rhhh::new(lattice.clone(), shard_config(epsilon, i)))
        .collect();
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for &k in keys {
        buckets[shard_of(k, shards)].push(k);
    }
    for (part, bucket) in parts.iter_mut().zip(&buckets) {
        part.update_batch(bucket);
    }
    let mut merged = parts.remove(0);
    let t0 = Instant::now();
    merged.merge_many(parts);
    let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
    (merged.output(theta), merge_ms)
}

/// Monomorphizes `$body` over the roster: `$est` aliases the concrete
/// `u64`-keyed estimator for `$kind`.
macro_rules! with_counter_type {
    ($kind:expr, $est:ident, $body:expr) => {
        match $kind {
            CounterKind::StreamSummary => {
                type $est = SpaceSaving<u64>;
                $body
            }
            CounterKind::Compact => {
                type $est = CompactSpaceSaving<u64>;
                $body
            }
            CounterKind::Heap => {
                type $est = HeapSpaceSaving<u64>;
                $body
            }
            CounterKind::MisraGries => {
                type $est = MisraGries<u64>;
                $body
            }
            CounterKind::LossyCounting => {
                type $est = LossyCounting<u64>;
                $body
            }
            CounterKind::CuckooHeavyKeeper => {
                type $est = CuckooHeavyKeeper<u64>;
                $body
            }
        }
    };
}

fn main() {
    let args = Args::parse(1_000_000, 1);
    let mut report = Report::new(
        "merge_accuracy",
        &[
            "trace",
            "counter",
            "shards",
            "combine",
            "accuracy_error",
            "coverage_error",
            "false_positive",
            "merge_ms",
        ],
    );
    report.comment(&format!(
        "merged-vs-single: 2D bytes (H=25), theta={}, eps_a=eps_s={}, packets={}",
        args.theta, args.epsilon, args.packets
    ));

    let lattice = Lattice::ipv4_src_dst_bytes();
    for trace in [TraceConfig::chicago16(), TraceConfig::sanjose14()] {
        let keys: Vec<u64> = TraceGenerator::new(&trace)
            .take_packets(args.packets as usize)
            .iter()
            .map(Packet::key2)
            .collect();
        let mut exact = ExactHhh::new(lattice.clone());
        for &k in &keys {
            exact.insert(k);
        }
        let epsilon_total = 2.0 * args.epsilon; // ε = ε_a + ε_s
        let metrics = |out: &[HeavyHitter<u64>]| {
            (
                accuracy_error_ratio(out, &exact, epsilon_total),
                coverage_error_ratio(out, &exact, args.theta),
                false_positive_ratio(out, &exact, args.theta),
            )
        };

        for counter in CounterKind::roster() {
            for shards in [1usize, 2, 4, 8] {
                // Pairwise fold through the dyn driver trait.
                let mut parts: Vec<Box<dyn HhhAlgorithm<u64>>> = (0..shards)
                    .map(|i| counter.build_rhhh(lattice.clone(), shard_config(args.epsilon, i)))
                    .collect();
                if shards == 1 {
                    parts[0].insert_batch(&keys);
                } else {
                    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
                    for &k in &keys {
                        buckets[shard_of(k, shards)].push(k);
                    }
                    for (part, bucket) in parts.iter_mut().zip(&buckets) {
                        part.insert_batch(bucket);
                    }
                }
                let mut merged = parts.remove(0);
                let t0 = Instant::now();
                for part in parts {
                    merged.merge(part).expect("same kind and config");
                }
                let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
                let out = merged.query(args.theta);
                let (acc, cov, fpr) = metrics(&out);
                report.row(&[
                    trace.name.clone(),
                    counter.label().to_string(),
                    shards.to_string(),
                    "pairwise".to_string(),
                    format!("{acc:.4}"),
                    format!("{cov:.4}"),
                    format!("{fpr:.4}"),
                    format!("{merge_ms:.2}"),
                ]);

                // Single K-way combine (the harvest path).
                if shards > 1 {
                    let (out, merge_ms) = with_counter_type!(counter, Est, {
                        run_kway::<Est>(&lattice, &keys, args.epsilon, shards, args.theta)
                    });
                    let (acc, cov, fpr) = metrics(&out);
                    report.row(&[
                        trace.name.clone(),
                        counter.label().to_string(),
                        shards.to_string(),
                        "kway".to_string(),
                        format!("{acc:.4}"),
                        format!("{cov:.4}"),
                        format!("{fpr:.4}"),
                        format!("{merge_ms:.2}"),
                    ]);
                }
            }
        }
    }
}
