//! Evaluation harness for the RHHH reproduction.
//!
//! One binary per figure of the paper's evaluation (Sections 4–5); each
//! prints the figure's series as CSV rows to stdout and mirrors them into
//! `results/<figure>.csv`. DESIGN.md's per-experiment index maps every
//! figure to its binary; EXPERIMENTS.md records paper-vs-measured.
//!
//! | Binary                 | Paper figure | Series |
//! |------------------------|--------------|--------|
//! | `fig2_accuracy`        | Figure 2     | accuracy-error ratio vs N, 2D bytes, 4 traces |
//! | `fig3_coverage`        | Figure 3     | coverage-error ratio vs N |
//! | `fig4_false_positives` | Figure 4     | false-positive rate vs N, 3 hierarchies × 2 traces |
//! | `fig5_speed`           | Figure 5     | update speed (Mpps) vs ε, 3 hierarchies × 2 traces |
//! | `fig6_ovs_throughput`  | Figure 6     | dataplane throughput per monitor |
//! | `fig7_dataplane_v`     | Figure 7     | dataplane throughput vs V |
//! | `fig8_distributed_v`   | Figure 8     | distributed throughput vs V |
//! | `psi_convergence`      | Thm 6.3/6.17 | empirical ε_s(N) vs the √(Z·V/N) envelope |
//!
//! The [`metrics`] module defines the three quality metrics against exact
//! ground truth; [`runner`] holds the shared experiment plumbing (argument
//! parsing, algorithm factories, timing); [`report`] tees CSV to stdout and
//! the results directory.

pub mod metrics;
pub mod report;
pub mod runner;

pub use hhh_core::CounterKind;
pub use metrics::{accuracy_error_ratio, coverage_error_ratio, false_positive_ratio};
pub use report::Report;
pub use runner::{
    checkpoints, measure_mpps, measure_mpps_batch, quality_sweep, rhhh_config, AlgoKind, Args,
    QualityPoint,
};
