//! DESIGN.md ablation: the per-increment cost of the counter algorithms.
//!
//! The paper's O(1) worst-case update (Theorem 6.18) requires the
//! stream-summary Space Saving. This bench prices both Space Saving
//! layouts at the paper's ε = 0.001 (1001 counters) and a coarser
//! ε = 0.01, plus the alternative algorithms for context.
//!
//! The `compact-vs-stream-summary` groups isolate the tentpole layout
//! question — hash index fused into a flat arena vs the pointer-based
//! stream summary — on the scalar `increment` path and on the sorted
//! `increment_batch` path RHHH's batch flush actually drives (every
//! counter now has a run-length-merged batch override, so the comparison
//! is batch-vs-batch rather than batch-vs-default-loop).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hhh_bench::Workload;
use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, LossyCounting, MisraGries,
    SpaceSaving,
};
use hhh_traces::{Packet, TraceConfig, TraceGenerator};

const PACKETS: usize = 200_000;

fn bench_counter<E: FrequencyEstimator<u32>>(
    c: &mut Criterion,
    group_name: &str,
    label: &str,
    capacity: usize,
    keys: &[u32],
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function(BenchmarkId::from_parameter(label), |b| {
        b.iter_batched(
            || E::with_capacity(capacity),
            |mut est| {
                for &k in keys {
                    est.increment(k);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Feeds the keys through `increment_batch` in sorted 4Ki chunks — the
/// shape of one RHHH node group after masking and sorting, where duplicate
/// keys form runs the overrides merge into weighted updates.
fn bench_counter_batch<E: FrequencyEstimator<u32>>(
    c: &mut Criterion,
    group_name: &str,
    label: &str,
    capacity: usize,
    chunks: &[Vec<u32>],
    total: u64,
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(total));
    group.bench_function(BenchmarkId::from_parameter(label), |b| {
        b.iter_batched(
            || E::with_capacity(capacity),
            |mut est| {
                for chunk in chunks {
                    est.increment_batch(chunk);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    let w = Workload::chicago16(PACKETS);
    for (eps_label, capacity) in [("eps-0.001", 1000usize), ("eps-0.01", 100usize)] {
        let group = format!("counter-ablation/{eps_label}");
        bench_counter::<SpaceSaving<u32>>(c, &group, "SpaceSaving(list)", capacity, &w.keys1);
        bench_counter::<CompactSpaceSaving<u32>>(
            c,
            &group,
            "SpaceSaving(compact)",
            capacity,
            &w.keys1,
        );
        bench_counter::<MisraGries<u32>>(c, &group, "MisraGries", capacity, &w.keys1);
        bench_counter::<LossyCounting<u32>>(c, &group, "LossyCounting", capacity, &w.keys1);
        bench_counter::<CuckooHeavyKeeper<u32>>(c, &group, "CuckooHeavyKeeper", capacity, &w.keys1);
    }
}

fn compact_vs_stream_summary(c: &mut Criterion) {
    let w = Workload::chicago16(PACKETS);
    // Sorted 4Ki chunks: what `Rhhh::update_batch` hands one node instance.
    let chunks: Vec<Vec<u32>> = w
        .keys1
        .chunks(4_096)
        .map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            sorted
        })
        .collect();
    let total = w.keys1.len() as u64;
    for (eps_label, capacity) in [("eps-0.001", 1000usize), ("eps-0.01", 100usize)] {
        let group = format!("compact-vs-stream-summary/{eps_label}");
        bench_counter::<SpaceSaving<u32>>(c, &group, "scalar/list", capacity, &w.keys1);
        bench_counter::<CompactSpaceSaving<u32>>(c, &group, "scalar/compact", capacity, &w.keys1);
        bench_counter_batch::<SpaceSaving<u32>>(
            c,
            &group,
            "sorted-batch/list",
            capacity,
            &chunks,
            total,
        );
        bench_counter_batch::<CompactSpaceSaving<u32>>(
            c,
            &group,
            "sorted-batch/compact",
            capacity,
            &chunks,
            total,
        );
        bench_counter_batch::<CuckooHeavyKeeper<u32>>(
            c,
            &group,
            "sorted-batch/chk",
            capacity,
            &chunks,
            total,
        );
    }
}

/// The regime the fingerprint/tag array targets: instances pre-warmed to
/// their full/evicting steady state, then fed streams of entirely new
/// distinct keys — every key is a miss, and at capacity every miss evicts.
/// The scalar rows drive `increment`; the `flush` rows drive
/// `flush_group` on sorted 4Ki groups, the exact hook the RHHH batch
/// flush calls (bulk min-level eviction on the compact layout,
/// the per-key default elsewhere).
///
/// Warm-up streams fresh chicago16 1D keys through the shared
/// [`hhh_bench::warm_stream`] helper (the same pre-warm protocol as
/// `update_speed`'s steady-state group), so the warmed tables carry real
/// trace churn; the measured keys are sequential values disjoint from the
/// address space, making the all-miss property exact.
fn miss_heavy(c: &mut Criterion) {
    const WARM_PACKETS: usize = 2_000_000;
    const GROUP_KEYS: usize = 4_096;
    const CAPACITY: usize = 1000; // ε = 0.001, the paper's operating point
    let mut gen = TraceGenerator::new(&TraceConfig::chicago16());
    let mut warm_list: SpaceSaving<u32> = SpaceSaving::with_capacity(CAPACITY);
    let mut warm_compact: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(CAPACITY);
    let mut warm_chk: CuckooHeavyKeeper<u32> = CuckooHeavyKeeper::with_capacity(CAPACITY);
    hhh_bench::warm_stream(&mut gen, WARM_PACKETS, GROUP_KEYS, Packet::key1, |chunk| {
        warm_list.increment_batch(chunk);
        warm_compact.increment_batch(chunk);
        warm_chk.increment_batch(chunk);
    });

    // All-distinct measured keys in a region real traces never visit
    // (class E space), pre-grouped into sorted 4Ki chunks.
    let keys: Vec<u32> = (0..PACKETS as u32).map(|i| 0xF000_0000 | i).collect();
    let chunks: Vec<Vec<u32>> = keys.chunks(GROUP_KEYS).map(<[u32]>::to_vec).collect();
    let total = keys.len() as u64;

    let group_name = "counter-ablation/miss-heavy";
    let mut g = c.benchmark_group(group_name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(total));
    g.bench_function(BenchmarkId::from_parameter("scalar/list"), |b| {
        b.iter_batched(
            || warm_list.clone(),
            |mut est| {
                for &k in &keys {
                    est.increment(k);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function(BenchmarkId::from_parameter("scalar/compact"), |b| {
        b.iter_batched(
            || warm_compact.clone(),
            |mut est| {
                for &k in &keys {
                    est.increment(k);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function(BenchmarkId::from_parameter("scalar/chk"), |b| {
        b.iter_batched(
            || warm_chk.clone(),
            |mut est| {
                for &k in &keys {
                    est.increment(k);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function(BenchmarkId::from_parameter("flush/list"), |b| {
        b.iter_batched(
            || (warm_list.clone(), chunks.clone()),
            |(mut est, mut chunks)| {
                for chunk in &mut chunks {
                    est.flush_group(chunk, &mut <[u32]>::sort_unstable);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function(BenchmarkId::from_parameter("flush/compact"), |b| {
        b.iter_batched(
            || (warm_compact.clone(), chunks.clone()),
            |(mut est, mut chunks)| {
                for chunk in &mut chunks {
                    est.flush_group(chunk, &mut <[u32]>::sort_unstable);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function(BenchmarkId::from_parameter("flush/chk"), |b| {
        b.iter_batched(
            || (warm_chk.clone(), chunks.clone()),
            |(mut est, mut chunks)| {
                for chunk in &mut chunks {
                    est.flush_group(chunk, &mut <[u32]>::sort_unstable);
                }
                est
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(ablation, benches, compact_vs_stream_summary, miss_heavy);
criterion_main!(ablation);
