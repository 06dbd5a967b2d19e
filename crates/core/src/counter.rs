//! Counter-algorithm selection: one name for every [`FrequencyEstimator`]
//! this workspace can plug into a lattice node.
//!
//! The paper's analysis only requires *some* (ε, δ)-Frequency-Estimation
//! structure per node (Definition 4); which one is a deployment choice.
//! [`CounterKind`] is that choice reified as a value, so the CLI
//! (`--counter`), the evaluation harness and the vswitch monitors can all
//! thread it through to [`Rhhh`] without hard-coding a concrete type.

use hhh_counters::{CompactSpaceSaving, CuckooHeavyKeeper, LossyCounting, MisraGries, SpaceSaving};
use hhh_hierarchy::{KeyBits, Lattice};

use crate::rhhh::{Rhhh, RhhhConfig};
use crate::HhhAlgorithm;

/// The per-node counter algorithms RHHH can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterKind {
    /// Stream-summary Space Saving (Metwally et al.) — strict O(1) worst
    /// case; doubly linked count buckets plus a separate hash index.
    #[default]
    StreamSummary,
    /// Flat-arena Space Saving — the hash index fused into the counter
    /// storage; O(1) amortized with a lazily-maintained exact minimum.
    Compact,
    /// Misra–Gries / Frequent — deterministic underestimates.
    MisraGries,
    /// Manku–Motwani Lossy Counting — deterministic, δ = 0.
    LossyCounting,
    /// Cuckoo Heavy Keeper — bucketized cuckoo table with exponential
    /// decay counts; deterministic deficit bound instead of per-entry
    /// errors.
    CuckooHeavyKeeper,
}

impl CounterKind {
    /// Every kind, in ablation-roster order (the two production layouts
    /// first).
    #[must_use]
    pub fn roster() -> [CounterKind; 5] {
        [
            CounterKind::StreamSummary,
            CounterKind::Compact,
            CounterKind::MisraGries,
            CounterKind::LossyCounting,
            CounterKind::CuckooHeavyKeeper,
        ]
    }

    /// The CLI/report name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CounterKind::StreamSummary => "stream-summary",
            CounterKind::Compact => "compact",
            CounterKind::MisraGries => "misra-gries",
            CounterKind::LossyCounting => "lossy-counting",
            CounterKind::CuckooHeavyKeeper => "chk",
        }
    }

    /// Parses a CLI name (the inverse of [`CounterKind::label`], plus the
    /// `space-saving` alias for the default layout).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "stream-summary" | "space-saving" => CounterKind::StreamSummary,
            "compact" => CounterKind::Compact,
            "misra-gries" => CounterKind::MisraGries,
            "lossy-counting" => CounterKind::LossyCounting,
            "chk" | "cuckoo-heavy-keeper" => CounterKind::CuckooHeavyKeeper,
            other => {
                return Err(format!(
                    "unknown counter `{other}` (try stream-summary, compact, \
                     misra-gries, lossy-counting, chk)"
                ))
            }
        })
    }

    /// Builds an [`Rhhh`] instance whose per-node counters are this kind,
    /// erased behind the driver interface (which carries the batch path
    /// via [`HhhAlgorithm::insert_batch`]).
    #[must_use]
    pub fn build_rhhh<K: KeyBits>(
        self,
        lattice: Lattice<K>,
        config: RhhhConfig,
    ) -> Box<dyn HhhAlgorithm<K>> {
        match self {
            CounterKind::StreamSummary => Box::new(Rhhh::<K, SpaceSaving<K>>::new(lattice, config)),
            CounterKind::Compact => {
                Box::new(Rhhh::<K, CompactSpaceSaving<K>>::new(lattice, config))
            }
            CounterKind::MisraGries => Box::new(Rhhh::<K, MisraGries<K>>::new(lattice, config)),
            CounterKind::LossyCounting => {
                Box::new(Rhhh::<K, LossyCounting<K>>::new(lattice, config))
            }
            CounterKind::CuckooHeavyKeeper => {
                Box::new(Rhhh::<K, CuckooHeavyKeeper<K>>::new(lattice, config))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_labels() {
        for kind in CounterKind::roster() {
            assert_eq!(CounterKind::parse(kind.label()), Ok(kind));
        }
        assert_eq!(
            CounterKind::parse("space-saving"),
            Ok(CounterKind::StreamSummary)
        );
        assert_eq!(
            CounterKind::parse("cuckoo-heavy-keeper"),
            Ok(CounterKind::CuckooHeavyKeeper)
        );
        assert!(CounterKind::parse("bogus").is_err());
        assert!(CounterKind::parse("heap").is_err(), "retired layout");
    }

    #[test]
    fn every_kind_builds_a_working_rhhh() {
        for kind in CounterKind::roster() {
            let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
            let mut algo = kind.build_rhhh::<u32>(
                lat,
                RhhhConfig {
                    epsilon_s: 0.05,
                    delta_s: 0.05,
                    ..RhhhConfig::default()
                },
            );
            for i in 0..50_000u32 {
                algo.insert(if i % 3 == 0 { 0x0909_0000 } else { i });
            }
            assert_eq!(algo.packets(), 50_000, "{}", kind.label());
            assert!(
                !algo.query(0.2).is_empty(),
                "{} found nothing",
                kind.label()
            );
        }
    }

    #[test]
    fn batch_insert_reaches_counters_for_every_kind() {
        for kind in CounterKind::roster() {
            let lat = hhh_hierarchy::Lattice::ipv4_src_bytes();
            let mut algo = kind.build_rhhh::<u32>(lat, RhhhConfig::default());
            let keys: Vec<u32> = (0..20_000u32).map(|i| i % 256).collect();
            algo.insert_batch(&keys);
            assert_eq!(algo.packets(), 20_000, "{}", kind.label());
        }
    }
}
