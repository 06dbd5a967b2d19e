//! Feature-gated cycle accounting for the batch hot path.
//!
//! The `update_speed` benches answer "how fast is the batch path end to
//! end", but never *where the time goes* — and a perf PR that can't
//! attribute its cycles is guessing. With the `hot-profile` cargo feature
//! enabled, [`crate::batch`] brackets each stage of its one pipeline —
//! shared by the unit, weighted and wire entry points — with a
//! [`ProfTimer`] and charges the elapsed wall time to one of four named
//! stages plus a whole-call total:
//!
//! * **`draw`** — RNG block fill, deriving each trial's node from its
//!   draw (the Lemire bound), the geometric gap (`fast_ln`) conversion,
//!   and the selection walk that turns gaps into packet indices.
//! * **`mask-hash`** — the masked gather (`key & node_mask`, the block's
//!   lane work), for bare keys or `(key, weight)` pairs.
//! * **`scatter`** — distributing masked entries into the per-node
//!   staging groups.
//! * **`flush`** — handing each node group to its counter instance: the
//!   estimator's one hook (`flush_group`) for unit groups, a sort plus
//!   one `add` per run for weighted groups, including the counter's own
//!   sort/evict work.
//!
//! Accounting is per-thread (`thread_local`) so shard-parallel pipelines
//! don't contend, and the timers bracket whole *refill blocks* (≤256
//! selected packets), not individual keys — two `Instant::now()` calls per
//! stage per block amortize to a few tenths of a nanosecond per packet,
//! small against the ~4 ns/packet batch path. Stage time is measured
//! inside the total bracket, so `draw + mask-hash + scatter + flush ≤
//! total` and the gap is genuinely unattributed work (scratch clears, the
//! walk's tail, timer overhead); the CI gate on the
//! `hot_path_profile` bench asserts the named stages cover ≥ 95% of the
//! total.
//!
//! The `flush` stage additionally keeps a **per-layout** side table: each
//! per-node flush charges its time against the node counter's
//! [`layout_label`](hhh_counters::FrequencyEstimator::layout_label), so a
//! dispatched lattice (where different nodes run different layouts) shows
//! where its flush cycles actually go. The side table is informational —
//! the `Stage::Flush` accumulator and the ≥ 95% accounted-share gate are
//! computed exactly as before.
//!
//! With the feature **off** (the default), [`ProfTimer`] is a unit struct,
//! every method is an empty `#[inline(always)]` body, and the whole layer
//! compiles to nothing — the bit-identity and throughput of the unprofiled
//! batch path are untouched.

/// The named stages of the batch update pipeline, in pipeline order.
/// `Total` brackets the whole `update_batch` call and is what the
/// per-stage shares are computed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// RNG fill + gap conversion + selection walk.
    Draw,
    /// Node derivation + masked-key gather.
    MaskHash,
    /// Distribution into per-node staging groups.
    Scatter,
    /// Per-node counter flush.
    Flush,
    /// The whole batch call.
    Total,
}

/// Stage names as they appear in the profile JSON, indexed by `Stage`.
pub const STAGE_NAMES: [&str; 5] = ["draw", "mask-hash", "scatter", "flush", "total"];

/// Accumulated per-stage wall time and bracket counts for the current
/// thread, as captured by [`snapshot`]. Indexed by [`Stage`] discriminant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Nanoseconds charged to each stage.
    pub ns: [u64; 5],
    /// Number of timer brackets charged to each stage.
    pub calls: [u64; 5],
}

impl StageTotals {
    /// Nanoseconds charged to `stage`.
    #[must_use]
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Fraction of the `Total` bracket attributed to the four named
    /// stages; the CI profile gate requires ≥ 0.95. Returns 0 when no
    /// total time was recorded.
    #[must_use]
    pub fn accounted_share(&self) -> f64 {
        let total = self.ns[Stage::Total as usize];
        if total == 0 {
            return 0.0;
        }
        let named: u64 = self.ns[..4].iter().sum();
        named as f64 / total as f64
    }
}

#[cfg(feature = "hot-profile")]
mod imp {
    use super::{Stage, StageTotals};
    use std::cell::{Cell, RefCell};
    use std::time::Instant;

    thread_local! {
        static TOTALS: Cell<StageTotals> = const { Cell::new(StageTotals { ns: [0; 5], calls: [0; 5] }) };
        static FLUSH_LAYOUTS: RefCell<Vec<(&'static str, u64, u64)>> = const { RefCell::new(Vec::new()) };
    }

    /// Wall-clock bracket charging its elapsed time to one [`Stage`].
    #[derive(Debug)]
    pub struct ProfTimer {
        start: Instant,
    }

    impl ProfTimer {
        /// Starts the bracket.
        #[inline(always)]
        #[must_use]
        pub fn start() -> Self {
            Self {
                start: Instant::now(),
            }
        }

        /// Ends the bracket, charging the elapsed time to `stage`.
        #[inline(always)]
        pub fn stop(self, stage: Stage) {
            let elapsed = self.start.elapsed().as_nanos() as u64;
            TOTALS.with(|t| {
                let mut totals = t.get();
                totals.ns[stage as usize] += elapsed;
                totals.calls[stage as usize] += 1;
                t.set(totals);
            });
        }

        /// Ends the bracket, charging the elapsed time to the flush
        /// layout side table only (not a [`Stage`] — the caller's outer
        /// `Stage::Flush` bracket still owns the stage accounting).
        /// `label` is lazy so the disabled build never evaluates it.
        #[inline(always)]
        pub fn stop_layout(self, label: impl FnOnce() -> &'static str) {
            let elapsed = self.start.elapsed().as_nanos() as u64;
            let label = label();
            FLUSH_LAYOUTS.with(|t| {
                let mut rows = t.borrow_mut();
                if let Some(row) = rows.iter_mut().find(|r| r.0 == label) {
                    row.1 += elapsed;
                    row.2 += 1;
                } else {
                    rows.push((label, elapsed, 1));
                }
            });
        }
    }

    /// Zeroes the current thread's accumulators.
    pub fn reset() {
        TOTALS.with(|t| t.set(StageTotals::default()));
        FLUSH_LAYOUTS.with(|t| t.borrow_mut().clear());
    }

    /// Returns the current thread's accumulated totals.
    #[must_use]
    pub fn snapshot() -> StageTotals {
        TOTALS.with(Cell::get)
    }

    /// Returns the current thread's flush time split by counter layout
    /// label: `(label, ns, brackets)`, in first-seen order.
    #[must_use]
    pub fn flush_layout_snapshot() -> Vec<(&'static str, u64, u64)> {
        FLUSH_LAYOUTS.with(|t| t.borrow().clone())
    }
}

#[cfg(not(feature = "hot-profile"))]
mod imp {
    use super::{Stage, StageTotals};

    /// Disabled bracket: every method is an empty inlined body, so the
    /// instrumented call sites compile to exactly the uninstrumented code.
    #[derive(Debug)]
    pub struct ProfTimer;

    impl ProfTimer {
        /// Starts nothing.
        #[inline(always)]
        #[must_use]
        pub fn start() -> Self {
            Self
        }

        /// Charges nothing.
        #[inline(always)]
        pub fn stop(self, stage: Stage) {
            let _ = stage;
        }

        /// Charges nothing; the label closure is never called.
        #[inline(always)]
        pub fn stop_layout(self, label: impl FnOnce() -> &'static str) {
            let _ = label;
        }
    }

    /// No accumulators to zero.
    pub fn reset() {}

    /// Always the zero totals.
    #[must_use]
    pub fn snapshot() -> StageTotals {
        StageTotals::default()
    }

    /// Always empty.
    #[must_use]
    pub fn flush_layout_snapshot() -> Vec<(&'static str, u64, u64)> {
        Vec::new()
    }
}

pub use imp::{flush_layout_snapshot, reset, snapshot, ProfTimer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "hot-profile")]
    fn brackets_accumulate_and_reset() {
        reset();
        let t = ProfTimer::start();
        std::hint::black_box(0u64);
        t.stop(Stage::Draw);
        let outer = ProfTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        outer.stop(Stage::Total);
        let s = snapshot();
        assert_eq!(s.calls[Stage::Draw as usize], 1);
        assert_eq!(s.calls[Stage::Total as usize], 1);
        assert!(s.ns(Stage::Total) >= 2_000_000, "sleep must register");
        reset();
        assert_eq!(snapshot(), StageTotals::default());
    }

    #[test]
    #[cfg(feature = "hot-profile")]
    fn flush_layout_table_accumulates_per_label() {
        reset();
        for label in ["compact", "stream-summary", "compact"] {
            let t = ProfTimer::start();
            std::hint::black_box(0u64);
            t.stop_layout(|| label);
        }
        let rows = flush_layout_snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "compact");
        assert_eq!(rows[0].2, 2, "two compact brackets fold into one row");
        assert_eq!(rows[1].0, "stream-summary");
        assert_eq!(rows[1].2, 1);
        // The side table never touches the stage accumulators.
        assert_eq!(snapshot(), StageTotals::default());
        reset();
        assert!(flush_layout_snapshot().is_empty());
    }

    #[test]
    #[cfg(not(feature = "hot-profile"))]
    fn disabled_layer_is_inert() {
        reset();
        let t = ProfTimer::start();
        t.stop(Stage::Total);
        let t = ProfTimer::start();
        t.stop_layout(|| unreachable!("label must not be evaluated when disabled"));
        assert_eq!(snapshot(), StageTotals::default());
        assert!(flush_layout_snapshot().is_empty());
    }

    #[test]
    fn accounted_share_is_named_over_total() {
        let mut s = StageTotals::default();
        assert_eq!(s.accounted_share(), 0.0);
        s.ns = [40, 30, 20, 5, 100];
        assert!((s.accounted_share() - 0.95).abs() < 1e-12);
        assert_eq!(s.ns(Stage::MaskHash), 30);
        assert_eq!(STAGE_NAMES[Stage::Flush as usize], "flush");
    }
}
