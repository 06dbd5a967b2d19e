//! Shared experiment plumbing: CLI arguments, algorithm factories, the
//! quality sweep behind Figures 2–4, and timing helpers.

use std::time::Instant;

use hhh_baselines::{Ancestry, AncestryMode, Mst};
use hhh_core::{CounterKind, ExactHhh, HhhAlgorithm, RhhhConfig};
use hhh_hierarchy::{KeyBits, Lattice};
use hhh_traces::{Packet, TraceConfig, TraceGenerator};

use crate::metrics::{accuracy_error_ratio, coverage_error_ratio, false_positive_ratio};

/// Minimal CLI argument set shared by the figure binaries.
///
/// Flags: `--packets N`, `--runs R`, `--theta T`, `--epsilon E`, `--quick`.
/// `--quick` divides the packet budget by 8 (used by the smoke tests).
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Packet budget for the largest stream-length point.
    pub packets: u64,
    /// Repetitions per point (the paper uses 5 for its t-test CIs).
    pub runs: u32,
    /// HHH threshold θ.
    pub theta: f64,
    /// Counter error ε_a (and the baselines' ε).
    pub epsilon: f64,
}

impl Args {
    /// Parses `std::env::args`, starting from the given defaults.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    #[must_use]
    pub fn parse(default_packets: u64, default_runs: u32) -> Self {
        let mut args = Self {
            packets: default_packets,
            runs: default_runs,
            theta: 0.01,
            epsilon: 0.001,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut grab = |name: &str| -> f64 {
                it.next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or_else(|| panic!("{name} expects a numeric value"))
            };
            match flag.as_str() {
                "--packets" => args.packets = grab("--packets") as u64,
                "--runs" => args.runs = grab("--runs") as u32,
                "--theta" => args.theta = grab("--theta"),
                "--epsilon" => args.epsilon = grab("--epsilon"),
                "--quick" => args.packets = (args.packets / 8).max(1),
                "--help" | "-h" => {
                    eprintln!("flags: --packets N --runs R --theta T --epsilon E --quick");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}

/// The algorithm roster of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// RHHH with `V = v_scale · H` over a selectable per-node counter.
    Rhhh {
        /// V as a multiple of H (1 = RHHH, 10 = 10-RHHH).
        v_scale: u64,
        /// Per-node counter layout/algorithm.
        counter: CounterKind,
    },
    /// Mitzenmacher–Steinke–Thaler update-all baseline.
    Mst,
    /// TKDD'08 Full Ancestry.
    FullAncestry,
    /// TKDD'08 Partial Ancestry.
    PartialAncestry,
}

impl AlgoKind {
    /// RHHH with the default (stream-summary) counter, as the paper runs it.
    #[must_use]
    pub fn rhhh(v_scale: u64) -> AlgoKind {
        AlgoKind::Rhhh {
            v_scale,
            counter: CounterKind::default(),
        }
    }

    /// The roster in the order the paper's figures list it.
    #[must_use]
    pub fn roster() -> Vec<AlgoKind> {
        vec![
            AlgoKind::Mst,
            AlgoKind::FullAncestry,
            AlgoKind::PartialAncestry,
            AlgoKind::rhhh(1),
            AlgoKind::rhhh(10),
        ]
    }

    /// Display name matching the paper's legends; non-default counters are
    /// tagged in brackets ("10-RHHH[compact]").
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AlgoKind::Rhhh { v_scale, counter } => {
                let base = if *v_scale == 1 {
                    "RHHH".to_string()
                } else {
                    format!("{v_scale}-RHHH")
                };
                if *counter == CounterKind::default() {
                    base
                } else {
                    format!("{base}[{}]", counter.label())
                }
            }
            AlgoKind::Mst => "MST".into(),
            AlgoKind::FullAncestry => "FullAncestry".into(),
            AlgoKind::PartialAncestry => "PartialAncestry".into(),
        }
    }

    /// Builds an instance over `lattice`. `epsilon` is the counter error
    /// (ε_a); RHHH splits the budget evenly between ε_a and ε_s, mirroring
    /// the paper's configuration where both are 0.001.
    #[must_use]
    pub fn build<K: KeyBits>(
        &self,
        lattice: Lattice<K>,
        epsilon: f64,
        seed: u64,
    ) -> Box<dyn HhhAlgorithm<K>> {
        match self {
            AlgoKind::Rhhh { v_scale, counter } => {
                counter.build_rhhh(lattice, rhhh_config(*v_scale, epsilon, seed))
            }
            AlgoKind::Mst => Box::new(Mst::<K>::new(lattice, epsilon)),
            AlgoKind::FullAncestry => Box::new(Ancestry::new(lattice, AncestryMode::Full, epsilon)),
            AlgoKind::PartialAncestry => {
                Box::new(Ancestry::new(lattice, AncestryMode::Partial, epsilon))
            }
        }
    }
}

/// The configuration every RHHH roster entry runs: `V = v_scale · H`,
/// `ε_a = ε_s = epsilon`, `δ_s = 0.001` and one draw per packet.
#[must_use]
pub fn rhhh_config(v_scale: u64, epsilon: f64, seed: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: epsilon,
        epsilon_s: epsilon,
        delta_s: 0.001,
        v_scale,
        updates_per_packet: 1,
        seed,
    }
}

/// Feeds `keys` through the algorithm, returning sustained update speed in
/// million packets per second — Figure 5's y-axis.
pub fn measure_mpps<K: KeyBits>(algo: &mut dyn HhhAlgorithm<K>, keys: &[K]) -> f64 {
    let start = Instant::now();
    for &k in keys {
        algo.insert(k);
    }
    let secs = start.elapsed().as_secs_f64();
    keys.len() as f64 / secs / 1e6
}

/// Like [`measure_mpps`] but through the slice-at-a-time path
/// ([`HhhAlgorithm::insert_batch`]) in rx-burst-sized chunks — the batch
/// counterpart for speed comparisons.
pub fn measure_mpps_batch<K: KeyBits>(
    algo: &mut dyn HhhAlgorithm<K>,
    keys: &[K],
    chunk: usize,
) -> f64 {
    assert!(chunk > 0, "chunk size must be positive");
    let start = Instant::now();
    for part in keys.chunks(chunk) {
        algo.insert_batch(part);
    }
    let secs = start.elapsed().as_secs_f64();
    keys.len() as f64 / secs / 1e6
}

/// Geometric checkpoints `start, 2·start, 4·start, … , end` used by the
/// stream-length sweeps of Figures 2–4.
#[must_use]
pub fn checkpoints(start: u64, end: u64) -> Vec<u64> {
    let mut points = Vec::new();
    let mut at = start;
    while at < end {
        points.push(at);
        at *= 2;
    }
    points.push(end);
    points
}

/// One measured point of the quality sweep.
#[derive(Debug, Clone)]
pub struct QualityPoint {
    /// Trace name.
    pub trace: String,
    /// Stream length at the checkpoint.
    pub n: u64,
    /// Algorithm label.
    pub algo: String,
    /// Figure 2 metric.
    pub accuracy_error: f64,
    /// Figure 3 metric.
    pub coverage_error: f64,
    /// Figure 4 metric.
    pub false_positive: f64,
}

/// Streams one trace through every algorithm (and the exact ground truth)
/// in a single pass, evaluating all three quality metrics at geometric
/// stream-length checkpoints — the engine behind Figures 2–4.
///
/// `key_of` extracts the lattice key from a packet (`Packet::key1` /
/// `Packet::key2`), so the same sweep serves the 1D and 2D hierarchies.
pub fn quality_sweep<K: KeyBits>(
    lattice: &Lattice<K>,
    trace: &TraceConfig,
    kinds: &[AlgoKind],
    args: &Args,
    key_of: impl Fn(&Packet) -> K,
    run_seed: u64,
) -> Vec<QualityPoint> {
    let mut algos: Vec<(String, Box<dyn HhhAlgorithm<K>>)> = kinds
        .iter()
        .map(|k| (k.label(), k.build(lattice.clone(), args.epsilon, run_seed)))
        .collect();
    let mut exact = ExactHhh::new(lattice.clone());
    let mut gen = TraceGenerator::new(trace);
    let cps = checkpoints((args.packets / 16).max(1), args.packets);

    let mut points = Vec::new();
    let mut streamed = 0u64;
    for &cp in &cps {
        while streamed < cp {
            let key = key_of(&gen.generate());
            for (_, algo) in &mut algos {
                algo.insert(key);
            }
            exact.insert(key);
            streamed += 1;
        }
        let epsilon_total = 2.0 * args.epsilon; // ε = ε_a + ε_s
        for (label, algo) in &algos {
            let out = algo.query(args.theta);
            points.push(QualityPoint {
                trace: trace.name.clone(),
                n: cp,
                algo: label.clone(),
                accuracy_error: accuracy_error_ratio(&out, &exact, epsilon_total),
                coverage_error: coverage_error_ratio(&out, &exact, args.theta),
                false_positive: false_positive_ratio(&out, &exact, args.theta),
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_five_algorithms() {
        let roster = AlgoKind::roster();
        assert_eq!(roster.len(), 5);
        let labels: Vec<String> = roster.iter().map(AlgoKind::label).collect();
        assert_eq!(
            labels,
            vec!["MST", "FullAncestry", "PartialAncestry", "RHHH", "10-RHHH"]
        );
    }

    #[test]
    fn factories_build_working_instances() {
        for kind in AlgoKind::roster() {
            let lat = Lattice::ipv4_src_dst_bytes();
            let mut algo = kind.build(lat, 0.01, 7);
            for i in 0..10_000u64 {
                algo.insert(i % 64);
            }
            assert_eq!(algo.packets(), 10_000, "{}", kind.label());
            let _ = algo.query(0.05);
        }
    }

    #[test]
    fn one_dimensional_factories_work_too() {
        for kind in AlgoKind::roster() {
            let lat = Lattice::ipv4_src_bits();
            let mut algo = kind.build(lat, 0.01, 9);
            for i in 0..5_000u32 {
                algo.insert(i % 32);
            }
            assert_eq!(algo.packets(), 5_000);
        }
    }

    #[test]
    fn checkpoints_double_until_end() {
        assert_eq!(
            checkpoints(250_000, 2_000_000),
            vec![250_000, 500_000, 1_000_000, 2_000_000]
        );
        assert_eq!(checkpoints(100, 100), vec![100]);
        assert_eq!(checkpoints(100, 150), vec![100, 150]);
    }

    #[test]
    fn measure_mpps_is_positive() {
        let lat = Lattice::ipv4_src_bytes();
        let mut algo = AlgoKind::rhhh(1).build(lat, 0.01, 3);
        let keys: Vec<u32> = (0..100_000u32).collect();
        let mpps = measure_mpps(algo.as_mut(), &keys);
        assert!(mpps > 0.0);
    }

    #[test]
    fn counter_kind_threads_through_build_and_label() {
        for counter in CounterKind::roster() {
            let kind = AlgoKind::Rhhh {
                v_scale: 10,
                counter,
            };
            if counter == CounterKind::default() {
                assert_eq!(kind.label(), "10-RHHH");
            } else {
                assert_eq!(kind.label(), format!("10-RHHH[{}]", counter.label()));
            }
            let lat = Lattice::ipv4_src_bytes();
            let mut algo = kind.build(lat, 0.01, 5);
            let keys: Vec<u32> = (0..50_000u32).map(|i| i % 128).collect();
            let mpps = measure_mpps_batch(algo.as_mut(), &keys, 4_096);
            assert!(mpps > 0.0);
            assert_eq!(algo.packets(), 50_000, "{}", kind.label());
        }
    }

    #[test]
    fn quality_sweep_produces_point_grid() {
        let lat = Lattice::ipv4_src_dst_bytes();
        let args = Args {
            packets: 40_000,
            runs: 1,
            theta: 0.05,
            epsilon: 0.02,
        };
        let kinds = [AlgoKind::Mst, AlgoKind::rhhh(1)];
        let points = quality_sweep(
            &lat,
            &hhh_traces::TraceConfig::sanjose14(),
            &kinds,
            &args,
            Packet::key2,
            1,
        );
        // checkpoints(2500, 40000) = 2500,5000,...,40000 -> 5 points × 2.
        assert_eq!(points.len(), 10);
        for p in &points {
            assert!(p.accuracy_error >= 0.0 && p.accuracy_error <= 1.0);
            assert!(p.false_positive >= 0.0 && p.false_positive <= 1.0);
            assert!(p.coverage_error >= 0.0);
        }
        // MST is deterministic: zero accuracy and coverage error.
        for p in points.iter().filter(|p| p.algo == "MST") {
            assert_eq!(p.accuracy_error, 0.0, "MST accuracy at n={}", p.n);
            assert_eq!(p.coverage_error, 0.0, "MST coverage at n={}", p.n);
        }
    }
}
