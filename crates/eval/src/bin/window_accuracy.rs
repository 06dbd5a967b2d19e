//! Sliding-window accuracy: what does the G-pane ring approximation cost?
//!
//! A `WindowedRhhh` answers "HHHs over the last W packets" from the last G
//! completed panes — an interval that always covers `[W, W + W/G)` packets
//! back from now. The pane-ring analysis says the per-query error is
//! bounded by the *summed per-pane bounds*: counter errors add across
//! panes to `ε·W` (the same class as one instance over the window) and
//! the G independent per-pane sampling slacks sum to `√G ×` the merged
//! slack. This experiment measures that claim against an **exact oracle
//! computed over precisely the covered packet range**, for G ∈ {1, 2, 4,
//! 8}, **every counter in [`CounterKind::roster`]** and two trace shapes,
//! and prices the two query paths (fresh K-way merge per query vs the
//! cached in-flight snapshot).
//!
//! The bound check is two-sided (`|upper − truth| ≤ allow`) for the
//! ε·N-error family and one-sided (`truth ≤ upper + allow`) for the decay
//! family (`chk`), whose upper bound embeds the data-dependent deficit —
//! a sound overestimate with no ε·N-sized cap.
//!
//! Columns: the three standard quality metrics vs the covered-range
//! oracle, `bound_violations` (reported HHHs straying beyond the summed
//! per-pane bound — must be 0), and the per-query costs `merge_ms`
//! (`query_fresh`: one G-way combine + output) vs `cached_ms` (snapshot
//! hit: output only).

use std::time::Instant;

use hhh_core::{CounterKind, ExactHhh, RhhhConfig, WindowedRhhh};
use hhh_counters::{
    CompactSpaceSaving, CuckooHeavyKeeper, FrequencyEstimator, LossyCounting, MisraGries,
    SpaceSaving,
};
use hhh_eval::{accuracy_error_ratio, coverage_error_ratio, false_positive_ratio, Args, Report};
use hhh_hierarchy::Lattice;
use hhh_traces::{Packet, TraceConfig, TraceGenerator};

struct Row {
    covered: u64,
    accuracy: f64,
    coverage: f64,
    false_pos: f64,
    bound_violations: usize,
    merge_ms: f64,
    cached_ms: f64,
}

/// Runs one (trace, counter, G) cell: feed the whole stream through the
/// batch path, build the oracle over the covered range, measure.
fn run_one<E: FrequencyEstimator<u64>>(
    lattice: &Lattice<u64>,
    keys: &[u64],
    window: u64,
    panes: usize,
    epsilon: f64,
    theta: f64,
    two_sided: bool,
) -> Row {
    // ε_s is sized so that ψ = Z·V/ε_s² lands at 80% of the window — the
    // windows this binary constructs are honestly convergent at every
    // `--packets`/`--quick` operating point (at the 400k default this
    // gives ε_s ≈ 0.02). ε_a is the CLI-selectable counter error.
    let delta_s = 0.05;
    let v = 25.0;
    let epsilon_s = (hhh_stats::z_quantile(1.0 - delta_s / 2.0) * v / (0.8 * window as f64)).sqrt();
    let config = RhhhConfig {
        epsilon_a: epsilon,
        epsilon_s,
        delta_s,
        v_scale: 1,
        updates_per_packet: 1,
        seed: 0x3E6,
    };
    let mut mon = WindowedRhhh::<u64, E>::new(lattice.clone(), config, window, panes);
    for chunk in keys.chunks(65_536) {
        mon.update_batch(chunk);
    }
    let (start, end) = mon.covered_range();
    let mut oracle = ExactHhh::new(lattice.clone());
    for &k in &keys[start as usize..end as usize] {
        oracle.insert(k);
    }

    // Fresh-merge query cost (the per-query path without the cache)…
    let t0 = Instant::now();
    let out = mon.query_fresh(theta).expect("window complete");
    let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
    // …vs the steady-state cached path: the first call rebuilds the
    // snapshot (that cost is paid once per pane), the timed call is what
    // every query at a steady cadence pays.
    let _ = mon.query(theta);
    let t1 = Instant::now();
    let out_cached = mon.query(theta).expect("window complete");
    let cached_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(out.len(), out_cached.len(), "cache must not change answers");

    let merged = mon.merged_window().expect("window complete");
    let covered = merged.packets();
    let eps_total = config.epsilon_a + config.epsilon_s;
    let allow = eps_total * covered as f64 + (panes as f64).sqrt() * merged.slack();
    let bound_violations = out
        .iter()
        .filter(|h| {
            let truth = oracle.frequency(&h.prefix) as f64;
            if two_sided {
                (h.freq_upper - truth).abs() > allow
            } else {
                truth - h.freq_upper > allow
            }
        })
        .count();

    Row {
        covered,
        accuracy: accuracy_error_ratio(&out, &oracle, eps_total),
        coverage: coverage_error_ratio(&out, &oracle, theta),
        false_pos: false_positive_ratio(&out, &oracle, theta),
        bound_violations,
        merge_ms,
        cached_ms,
    }
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
    let mut args = Args::parse(400_000, 1);
    // θ defaults to 0.1 here (not the harness's 0.01): the covered window
    // is only 2/5 of the stream, and θ·W must clear the sampling slack
    // for `Output(θ)`'s threshold to bind — below the crossover every
    // monitored candidate is (correctly, conservatively) reported and
    // the false-positive and query-cost columns measure nothing. An
    // explicit `--theta` still wins.
    if !std::env::args().any(|a| a == "--theta") {
        args.theta = 0.1;
    }
    // The window is 2/5 of the stream: long enough that every G has
    // completed a full ring with panes left over to age out.
    let window = args.packets * 2 / 5;
    let mut report = Report::new(
        "window_accuracy",
        &[
            "trace",
            "counter",
            "panes",
            "covered",
            "accuracy_error",
            "coverage_error",
            "false_positive",
            "bound_violations",
            "merge_ms",
            "cached_ms",
        ],
    );
    report.comment(&format!(
        "G-pane ring vs exact sliding-window oracle: 2D bytes (H=25), W={window}, theta={}, \
         eps_a={}, packets={}",
        args.theta, args.epsilon, args.packets
    ));

    let lattice = Lattice::ipv4_src_dst_bytes();
    for trace in [TraceConfig::chicago16(), TraceConfig::sanjose14()] {
        let keys: Vec<u64> = TraceGenerator::new(&trace)
            .take_packets(args.packets as usize)
            .iter()
            .map(Packet::key2)
            .collect();
        for counter in CounterKind::roster() {
            // The decay family's upper embeds the data-dependent deficit;
            // only the lower side of the sandwich carries an ε·N-class cap.
            let two_sided = counter != CounterKind::CuckooHeavyKeeper;
            for panes in [1usize, 2, 4, 8] {
                let row = with_counter_type!(counter, Est, {
                    run_one::<Est>(
                        &lattice,
                        &keys,
                        window,
                        panes,
                        args.epsilon,
                        args.theta,
                        two_sided,
                    )
                });
                report.row(&[
                    trace.name.clone(),
                    counter.label().to_string(),
                    panes.to_string(),
                    row.covered.to_string(),
                    format!("{:.4}", row.accuracy),
                    format!("{:.4}", row.coverage),
                    format!("{:.4}", row.false_pos),
                    row.bound_violations.to_string(),
                    format!("{:.2}", row.merge_ms),
                    format!("{:.2}", row.cached_ms),
                ]);
            }
        }
    }
}
