//! Merged-vs-single accuracy: what does shard-parallelism cost?
//!
//! A K-shard pipeline partitions the stream by key hash, counts each
//! sub-stream on its own RHHH instance and combines the shards into one
//! read-only view at query time. The merge analysis says the per-node counter errors add (`Σᵢ nᵢ/m = n/m` — the
//! same class as one instance) while the independent sampling errors add in
//! variance, so accuracy should be *flat in K*. This experiment measures
//! that claim with the paper's three quality metrics against exact ground
//! truth, for K ∈ {1, 2, 4, 8} and **every counter in
//! [`CounterKind::roster`]**, plus the wall-clock cost of the combine
//! itself. (For the decay family the combined per-key bands widen by the
//! summed shard deficits — its documented combine bound — so its accuracy
//! column is expected to drift with K rather than stay flat.)
//!
//! Every row is the one combine the fleet answers with (`kway`):
//! `Rhhh::combine` over all K shards, frozen once their feed ends, each
//! counter family's combine rule per node. The pairwise fold through the driver trait that earlier
//! versions also measured is gone; its accuracy columns were identical to
//! the K-way rows at every K.

use std::time::Instant;

use hhh_core::{CounterKind, ExactHhh, HeavyHitter, Rhhh, RhhhConfig};
use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, LossyCounting, MisraGries,
    SpaceSaving,
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

/// K-way combine on concrete instances: partition, feed, freeze, one
/// `Rhhh::combine` over all shards. Returns the output and the cost of
/// the combine of the frozen parts.
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
    let frozen: Vec<_> = parts.iter().map(Rhhh::freeze).collect();
    let t0 = Instant::now();
    let view = Rhhh::<u64, E>::combine(&frozen.iter().collect::<Vec<_>>());
    let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
    (view.output(theta), merge_ms)
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
