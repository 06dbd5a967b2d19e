//! Regime-adaptive per-instance layout dispatch.
//!
//! The performance tables since PR 2 agree on one thing: no fixed counter
//! layout wins everywhere. The tagged-SoA arena ([`CompactSpaceSaving`])
//! wins miss-heavy batched flushes (bulk min-level eviction, tag-only miss
//! rejection); the stream summary ([`SpaceSaving`]) wins hit-heavy flushes
//! and every scalar path. An RHHH lattice contains *both* regimes at once
//! — tail nodes see full-granularity churn (miss-heavy) while aggregated
//! nodes collapse whole subnets onto a handful of hot keys (hit-heavy) —
//! so any fixed choice leaves one class of nodes on its slower layout.
//!
//! [`DispatchedEstimator`] lets every instance choose for itself, from
//! two per-instance signals observed at flush boundaries:
//!
//! * **Flush group size** (an EWMA of `keys.len()`, exact and free).
//!   Groups below `capacity / `[`SMALL_GROUP_DIVISOR`] never amortize the
//!   stream summary's per-flush merge, so the dispatcher targets the
//!   miss-side arena outright — this is what moves every node to the
//!   arena at `V = 10H`, where per-node groups are a tenth the size they
//!   are at `V = H`.
//! * **Flush miss ratio**, the same regime signal the PR 4 adaptive
//!   flush introduced, consulted once groups are big enough to amortize.
//!   While the **compact** layout is active the wrapper bootstraps from
//!   the arena's own EWMA (`CompactSpaceSaving::miss_ratio_estimate`) —
//!   exact and free. While a layout without a native estimate is active,
//!   the wrapper probes [`SAMPLE_PROBES`](self) strided keys per sampled
//!   group (read-only membership checks, so the inner state is
//!   untouched) and maintains the identical EWMA recurrence
//!   `e ← (e + 3·observed) / 4` on the same `0 ..= 255` scale, throttled
//!   to every 16th flush once the instance has been stable for a while.
//!
//! The miss-ratio rule is a **hysteresis band**: the EWMA must sit
//! beyond [`MISS_HEAVY_ABOVE`] (switch to the miss-side layout) or below
//! [`HIT_HEAVY_BELOW`] (switch to the hit-side layout) for
//! [`SWITCH_DWELL`] consecutive *observations* — flushes whose sample
//! was throttled away don't advance the dwell, so one noisy sample can't
//! ride a stale EWMA into a switch. A switch performs a **one-shot
//! migration**: the target layout is rebuilt from the source's entries,
//! then the source is dropped.
//!
//! # Migration bounds
//!
//! * **Space Saving → Space Saving** (the default pair) is *exact*: both
//!   layouts share identical semantics, so the `(count, error)` entries,
//!   the update total and the discarded-mass ledger transfer verbatim —
//!   the migrated instance is observationally identical to the source,
//!   and every Space Saving guarantee continues unbroken.
//! * **Space Saving → [`CuckooHeavyKeeper`]** keeps each entry's
//!   *guaranteed* mass (`count − error`) as the decay count; the error
//!   and discarded mass land in CHK's deficit. The sandwich
//!   `lower ≤ X ≤ upper` survives for every key (the deficit covers
//!   exactly the unattributed remainder).
//! * **[`CuckooHeavyKeeper`] → Space Saving** inflates each count by the
//!   source's deficit and records the deficit as the entry error
//!   (`count' = count + D`, `error' = D`): counts become sound
//!   overestimates, lower bounds are unchanged, and the mass ledger
//!   closes exactly (`Σ(count' − error') + discarded' = updates`). The
//!   cost is a looser per-key band — `upper − lower` grows by `D` — paid
//!   once at the switch.
//!
//! A dispatched node that never crosses the band never migrates, and its
//! inner state stays **bit-identical** to the fixed layout fed the same
//! updates (the wrapper's probes are read-only and it owns no RNG); the
//! dispatch property suite pins both facts.
//!
//! Scalar updates (`increment`/`add`) delegate without bookkeeping — the
//! regime signal only exists at flush boundaries, so a scalar-only
//! deployment simply stays on the boot layout (the stream summary, which
//! is the measured scalar winner).

use crate::{
    Candidate, CompactSpaceSaving, CounterKey, CuckooHeavyKeeper, FrequencyEstimator, SpaceSaving,
};

/// Flush groups whose running average is below `capacity /
/// SMALL_GROUP_DIVISOR` don't amortize the stream summary's per-flush
/// merge cost, so the dispatcher prefers the miss-side arena regardless
/// of the hit ratio (see the module docs).
pub const SMALL_GROUP_DIVISOR: usize = 2;

/// Switch to the miss-side layout when the EWMA sits at or above this.
pub const MISS_HEAVY_ABOVE: u8 = 192;

/// Switch to the hit-side layout when the EWMA sits at or below this.
pub const HIT_HEAVY_BELOW: u8 = 64;

/// Consecutive out-of-band flushes required before a switch.
pub const SWITCH_DWELL: u8 = 4;

/// Membership probes per sampled flush group. Sixteen probes quantize
/// the observation to ~6% steps — coarse enough to stay cheap, fine
/// enough that crossing [`MISS_HEAVY_ABOVE`] takes a genuinely
/// miss-saturated group rather than one unlucky all-miss handful.
const SAMPLE_PROBES: usize = 16;

/// After this many consecutive in-band flushes the instance counts as
/// settled and sampling throttles to every [`SETTLED_SAMPLE_EVERY`]th
/// flush (the probes then cost ~nothing at steady state).
const SETTLED_AFTER: u32 = 64;

/// Sampling cadence once settled.
const SETTLED_SAMPLE_EVERY: u64 = 16;

/// The concrete layouts the dispatcher can run. The default pair is
/// `StreamSummary` (hit side) / `Compact` (miss side) — both exact Space
/// Saving, so the dispatched monitor keeps full Space Saving accuracy.
/// `Chk` is selectable via [`DispatchedEstimator::with_sides`] for
/// deployments that accept its documented deficit bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchLayout {
    /// [`SpaceSaving`] — the stream summary.
    StreamSummary,
    /// [`CompactSpaceSaving`] — the tagged-SoA arena.
    Compact,
    /// [`CuckooHeavyKeeper`] — decay counting.
    Chk,
}

impl DispatchLayout {
    /// The report/profile label (matches the fixed layouts' labels).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DispatchLayout::StreamSummary => "stream-summary",
            DispatchLayout::Compact => "compact",
            DispatchLayout::Chk => "chk",
        }
    }
}

// The arena variant is ~3x the list's size; boxing it would buy back a
// few hundred bytes per node at the price of a pointer chase on every
// flush delegation, so the variants stay inline.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Inner<K> {
    List(SpaceSaving<K>),
    Compact(CompactSpaceSaving<K>),
    Chk(CuckooHeavyKeeper<K>),
}

/// Expands `$body` once per variant with `$e` bound to the concrete
/// estimator — the delegation workhorse.
macro_rules! each_inner {
    ($inner:expr, $e:ident => $body:expr) => {
        match $inner {
            Inner::List($e) => $body,
            Inner::Compact($e) => $body,
            Inner::Chk($e) => $body,
        }
    };
}

/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DispatchedEstimator<K> {
    inner: Inner<K>,
    /// Layout adopted when the regime reads hit-heavy.
    hit_side: DispatchLayout,
    /// Layout adopted when the regime reads miss-heavy.
    miss_side: DispatchLayout,
    /// Flush miss-ratio EWMA, `0 ..= 255`; boots pessimistic like the
    /// compact arena's own estimate.
    ewma: u8,
    /// Consecutive flushes whose EWMA asked for a layout other than the
    /// active one.
    dwell: u8,
    /// Consecutive flushes without a pending switch (sampling throttle).
    settled: u32,
    /// Total flushes seen (sampling cadence).
    flushes: u64,
    /// Flush group size EWMA (amortization signal; seeded by the first
    /// flush).
    group_ewma: u32,
    /// Completed migrations.
    switches: u32,
}

/// `(key, count, error)` triples from Space Saving candidates, ascending
/// by count then key — the shape both Space Saving rebuilds accept.
fn ss_entries<K: CounterKey>(mut cands: Vec<Candidate<K>>) -> Vec<(K, u64, u64)> {
    cands.sort_unstable_by(|a, b| a.upper.cmp(&b.upper).then(a.key.cmp(&b.key)));
    cands
        .into_iter()
        .map(|c| (c.key, c.upper, c.upper - c.lower))
        .collect()
}

impl<K: CounterKey> DispatchedEstimator<K> {
    /// A dispatcher over an explicit layout pair, booted on `hit_side`.
    /// The default ([`FrequencyEstimator::with_capacity`]) pair is
    /// stream-summary / compact.
    #[must_use]
    pub fn with_sides(
        capacity: usize,
        hit_side: DispatchLayout,
        miss_side: DispatchLayout,
    ) -> Self {
        let inner = match hit_side {
            DispatchLayout::StreamSummary => Inner::List(SpaceSaving::with_capacity(capacity)),
            DispatchLayout::Compact => Inner::Compact(CompactSpaceSaving::with_capacity(capacity)),
            DispatchLayout::Chk => Inner::Chk(CuckooHeavyKeeper::with_capacity(capacity)),
        };
        Self {
            inner,
            hit_side,
            miss_side,
            ewma: u8::MAX,
            dwell: 0,
            settled: 0,
            flushes: 0,
            group_ewma: 0,
            switches: 0,
        }
    }

    /// The currently active layout.
    #[must_use]
    pub fn active_layout(&self) -> DispatchLayout {
        match self.inner {
            Inner::List(_) => DispatchLayout::StreamSummary,
            Inner::Compact(_) => DispatchLayout::Compact,
            Inner::Chk(_) => DispatchLayout::Chk,
        }
    }

    /// Completed migrations since construction.
    #[must_use]
    pub fn switch_count(&self) -> u32 {
        self.switches
    }

    /// The current miss-ratio EWMA (`0 ..= 255`).
    #[doc(hidden)]
    #[must_use]
    pub fn miss_ewma(&self) -> u8 {
        self.ewma
    }

    /// Debug rendering of the inner estimator only (no wrapper fields) —
    /// what the never-switch bit-identity property compares against a
    /// fixed instance.
    #[doc(hidden)]
    #[must_use]
    pub fn inner_repr(&self) -> String {
        each_inner!(&self.inner, e => format!("{e:?}"))
    }

    /// Immediately migrates to `target` (test/bench hook; the production
    /// path migrates through the hysteresis rule).
    #[doc(hidden)]
    pub fn force_migrate(&mut self, target: DispatchLayout) {
        self.migrate_to(target);
    }

    /// One-shot migration: rebuild `target` from the active source's
    /// entries (bounds in the module docs), drop the source.
    fn migrate_to(&mut self, target: DispatchLayout) {
        if target == self.active_layout() {
            return;
        }
        let capacity = self.capacity();
        // Placeholder is swapped right back; one tiny allocation per switch.
        let source = std::mem::replace(&mut self.inner, Inner::List(SpaceSaving::with_capacity(1)));
        self.inner = match source {
            Inner::List(e) => {
                let (updates, discarded) = (e.updates(), e.discarded());
                Self::from_ss(
                    capacity,
                    updates,
                    discarded,
                    ss_entries(e.candidates()),
                    target,
                )
            }
            Inner::Compact(e) => {
                let (updates, discarded) = (e.updates(), e.discarded());
                Self::from_ss(
                    capacity,
                    updates,
                    discarded,
                    ss_entries(e.candidates()),
                    target,
                )
            }
            Inner::Chk(e) => {
                let (updates, deficit) = (e.updates(), e.deficit());
                let mut entries: Vec<(K, u64, u64)> = e
                    .raw_entries()
                    .into_iter()
                    .map(|(key, count)| (key, count + deficit, deficit))
                    .collect();
                entries.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
                match target {
                    DispatchLayout::StreamSummary => {
                        Inner::List(SpaceSaving::rebuild(capacity, updates, deficit, &entries))
                    }
                    DispatchLayout::Compact => {
                        Inner::Compact(CompactSpaceSaving::rebuild_from_entries(
                            capacity, updates, deficit, &entries,
                        ))
                    }
                    DispatchLayout::Chk => unreachable!("same layout handled above"),
                }
            }
        };
        self.switches += 1;
    }

    /// Builds the target layout from Space Saving `(count, error)` entries.
    fn from_ss(
        capacity: usize,
        updates: u64,
        discarded: u64,
        entries: Vec<(K, u64, u64)>,
        target: DispatchLayout,
    ) -> Inner<K> {
        match target {
            DispatchLayout::StreamSummary => {
                Inner::List(SpaceSaving::rebuild(capacity, updates, discarded, &entries))
            }
            DispatchLayout::Compact => Inner::Compact(CompactSpaceSaving::rebuild_from_entries(
                capacity, updates, discarded, &entries,
            )),
            DispatchLayout::Chk => {
                // Keep guaranteed mass only; errors + discarded become
                // CHK's deficit (module docs).
                let mut guaranteed: Vec<(K, u64)> = entries
                    .into_iter()
                    .filter_map(|(key, count, error)| {
                        (count > error).then_some((key, count - error))
                    })
                    .collect();
                guaranteed.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                Inner::Chk(CuckooHeavyKeeper::from_entries(
                    capacity,
                    updates,
                    &guaranteed,
                ))
            }
        }
    }

    /// Pre-flush regime sample: a few strided read-only membership probes
    /// (None when the active layout has a native estimate, the group is
    /// empty, or the settled throttle says skip).
    fn sample_misses(&self, keys: &[K]) -> Option<u8> {
        if keys.is_empty() || matches!(self.inner, Inner::Compact(_)) {
            return None;
        }
        if self.settled >= SETTLED_AFTER && !self.flushes.is_multiple_of(SETTLED_SAMPLE_EVERY) {
            return None;
        }
        let probes = SAMPLE_PROBES.min(keys.len());
        let stride = keys.len() / probes;
        let mut misses = 0u32;
        for p in 0..probes {
            let key = &keys[p * stride];
            let hit = match &self.inner {
                Inner::List(e) => e.monitored(key),
                Inner::Chk(e) => e.monitored(key),
                Inner::Compact(_) => unreachable!(),
            };
            misses += u32::from(!hit);
        }
        Some(((misses * 255) / probes as u32) as u8)
    }

    /// Post-flush bookkeeping: fold the observation into the EWMA (or
    /// adopt the compact arena's native estimate), then apply the
    /// hysteresis rule.
    fn after_flush(&mut self, group_len: usize, sampled: Option<u8>) {
        if group_len > 0 {
            let len = group_len.min(u32::MAX as usize) as u32;
            self.group_ewma = if self.flushes == 0 {
                len
            } else {
                (3 * self.group_ewma + len) / 4
            };
        }
        self.flushes += 1;
        let fresh = match (&self.inner, sampled) {
            (Inner::Compact(e), _) => {
                self.ewma = e.miss_ratio_estimate();
                true
            }
            (_, Some(observed)) => {
                self.ewma = ((u32::from(self.ewma) + 3 * u32::from(observed)) / 4) as u8;
                true
            }
            (_, None) => false,
        };
        let active = self.active_layout();
        let amortized = self.group_ewma as usize >= self.capacity() / SMALL_GROUP_DIVISOR;
        let target = if !amortized {
            // Groups too small to amortize the stream summary's per-flush
            // merge: the arena's in-place updates win outright, whatever
            // the hit ratio says. Group length is exact and arrives every
            // flush, so this arm doesn't wait for a sample.
            self.miss_side
        } else if !fresh {
            // No fresh miss-ratio evidence this flush (sampling throttled):
            // hold position. Dwell advances only on observations, so a
            // single noisy sample can't ride a stale EWMA into a switch.
            self.settled = self.settled.saturating_add(1);
            return;
        } else if self.ewma >= MISS_HEAVY_ABOVE {
            self.miss_side
        } else if self.ewma <= HIT_HEAVY_BELOW {
            self.hit_side
        } else {
            active
        };
        if target == active {
            self.dwell = 0;
            self.settled = self.settled.saturating_add(1);
        } else {
            self.dwell += 1;
            if self.dwell >= SWITCH_DWELL {
                self.migrate_to(target);
                self.dwell = 0;
                self.settled = 0;
            }
        }
    }
}

impl<K: CounterKey> FrequencyEstimator<K> for DispatchedEstimator<K> {
    fn with_capacity(capacity: usize) -> Self {
        Self::with_sides(
            capacity,
            DispatchLayout::StreamSummary,
            DispatchLayout::Compact,
        )
    }

    #[inline]
    fn increment(&mut self, key: K) {
        each_inner!(&mut self.inner, e => e.increment(key));
    }

    #[inline]
    fn add(&mut self, key: K, weight: u64) {
        each_inner!(&mut self.inner, e => e.add(key, weight));
    }

    fn increment_batch(&mut self, keys: &[K]) {
        each_inner!(&mut self.inner, e => e.increment_batch(keys));
    }

    fn flush_group(&mut self, keys: &mut [K], sort: &mut dyn FnMut(&mut [K])) {
        let sampled = self.sample_misses(keys);
        each_inner!(&mut self.inner, e => e.flush_group(keys, sort));
        self.after_flush(keys.len(), sampled);
    }

    fn merge(&mut self, other: Self) {
        self.merge_many(vec![other]);
    }

    fn merge_many(&mut self, others: Vec<Self>) {
        if others.is_empty() {
            return;
        }
        // Align every input on the active layout (exact for the default
        // Space Saving pair; cross-family costs the documented migration
        // bound once), then run the concrete K-way merge.
        let target = self.active_layout();
        let inners: Vec<Inner<K>> = others
            .into_iter()
            .map(|mut o| {
                o.migrate_to(target);
                o.inner
            })
            .collect();
        match &mut self.inner {
            Inner::List(e) => e.merge_many(
                inners
                    .into_iter()
                    .map(|i| match i {
                        Inner::List(x) => x,
                        _ => unreachable!("aligned above"),
                    })
                    .collect(),
            ),
            Inner::Compact(e) => e.merge_many(
                inners
                    .into_iter()
                    .map(|i| match i {
                        Inner::Compact(x) => x,
                        _ => unreachable!("aligned above"),
                    })
                    .collect(),
            ),
            Inner::Chk(e) => e.merge_many(
                inners
                    .into_iter()
                    .map(|i| match i {
                        Inner::Chk(x) => x,
                        _ => unreachable!("aligned above"),
                    })
                    .collect(),
            ),
        }
    }

    fn updates(&self) -> u64 {
        each_inner!(&self.inner, e => e.updates())
    }

    fn upper(&self, key: &K) -> u64 {
        each_inner!(&self.inner, e => e.upper(key))
    }

    fn lower(&self, key: &K) -> u64 {
        each_inner!(&self.inner, e => e.lower(key))
    }

    fn unmonitored_upper(&self) -> u64 {
        each_inner!(&self.inner, e => e.unmonitored_upper())
    }

    fn candidates(&self) -> Vec<Candidate<K>> {
        each_inner!(&self.inner, e => e.candidates())
    }

    fn capacity(&self) -> usize {
        each_inner!(&self.inner, e => e.capacity())
    }

    fn error_bound(&self) -> u64 {
        each_inner!(&self.inner, e => e.error_bound())
    }

    fn layout_label(&self) -> &'static str {
        self.active_layout().label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::hash_u64;

    fn flush<E: FrequencyEstimator<u64>>(e: &mut E, keys: &[u64]) {
        let mut group = keys.to_vec();
        e.flush_group(&mut group, &mut <[u64]>::sort_unstable);
    }

    #[test]
    fn boots_on_hit_side_and_stays_there_on_hot_traffic() {
        let mut d = DispatchedEstimator::<u64>::with_capacity(64);
        assert_eq!(d.active_layout(), DispatchLayout::StreamSummary);
        for round in 0..50u64 {
            let keys: Vec<u64> = (0..256).map(|i| i % 16).collect();
            let _ = round;
            flush(&mut d, &keys);
        }
        assert_eq!(d.active_layout(), DispatchLayout::StreamSummary);
        assert_eq!(d.switch_count(), 0);
        assert!(d.miss_ewma() <= HIT_HEAVY_BELOW);
    }

    #[test]
    fn miss_heavy_traffic_switches_to_compact_once() {
        let mut d = DispatchedEstimator::<u64>::with_capacity(64);
        for round in 0..40u64 {
            let keys: Vec<u64> = (0..256u64).map(|i| round * 1_000 + i).collect();
            flush(&mut d, &keys);
        }
        assert_eq!(d.active_layout(), DispatchLayout::Compact);
        assert_eq!(d.switch_count(), 1, "hysteresis must not thrash");
    }

    #[test]
    fn never_switching_node_is_bit_identical_to_fixed_layout() {
        let mut d = DispatchedEstimator::<u64>::with_capacity(48);
        let mut fixed = SpaceSaving::<u64>::with_capacity(48);
        for round in 0..30u64 {
            // Hit-heavy with a sprinkle of churn: stays mid/low band.
            let keys: Vec<u64> = (0..200u64)
                .map(|i| if i % 8 == 0 { round * 100 + i } else { i % 24 })
                .collect();
            flush(&mut d, &keys);
            flush(&mut fixed, &keys);
        }
        assert_eq!(d.switch_count(), 0);
        assert_eq!(d.inner_repr(), format!("{fixed:?}"));
    }

    #[test]
    fn ss_migration_is_exact() {
        let keys: Vec<u64> = (0..20_000u64).map(|i| hash_u64(i) % 500).collect();
        let mut d = DispatchedEstimator::<u64>::with_capacity(64);
        let mut fixed = SpaceSaving::<u64>::with_capacity(64);
        flush(&mut d, &keys);
        flush(&mut fixed, &keys);
        d.force_migrate(DispatchLayout::Compact);
        let mut a = d.candidates();
        let mut b = fixed.candidates();
        let by_key = |x: &Candidate<u64>, y: &Candidate<u64>| x.key.cmp(&y.key);
        a.sort_unstable_by(by_key);
        b.sort_unstable_by(by_key);
        assert_eq!(a, b, "SS→SS migration must preserve every (count, error)");
        assert_eq!(d.updates(), fixed.updates());
        // And back again.
        d.force_migrate(DispatchLayout::StreamSummary);
        let mut c = d.candidates();
        c.sort_unstable_by(by_key);
        assert_eq!(c, b);
    }

    #[test]
    fn cross_family_migration_preserves_the_sandwich() {
        let keys: Vec<u64> = (0..30_000u64).map(|i| hash_u64(i) % 700).collect();
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            *truth.entry(k).or_insert(0u64) += 1;
        }
        // SS → CHK.
        let mut d = DispatchedEstimator::<u64>::with_capacity(64);
        flush(&mut d, &keys);
        d.force_migrate(DispatchLayout::Chk);
        for (&k, &t) in &truth {
            assert!(d.lower(&k) <= t, "chk lower({k})");
            assert!(d.upper(&k) >= t, "chk upper({k})");
        }
        // CHK → SS.
        let mut c = DispatchedEstimator::<u64>::with_sides(
            64,
            DispatchLayout::Chk,
            DispatchLayout::Compact,
        );
        flush(&mut c, &keys);
        c.force_migrate(DispatchLayout::Compact);
        for (&k, &t) in &truth {
            assert!(c.lower(&k) <= t, "ss lower({k})");
            assert!(c.upper(&k) >= t, "ss upper({k})");
        }
    }

    #[test]
    fn merge_aligns_layouts() {
        let mut a = DispatchedEstimator::<u64>::with_capacity(32);
        let mut b = DispatchedEstimator::<u64>::with_capacity(32);
        let ka: Vec<u64> = (0..5_000u64).map(|i| hash_u64(i) % 100).collect();
        let kb: Vec<u64> = (0..5_000u64).map(|i| hash_u64(i ^ 0xF00) % 150).collect();
        flush(&mut a, &ka);
        flush(&mut b, &kb);
        b.force_migrate(DispatchLayout::Compact);
        let total = a.updates() + b.updates();
        a.merge(b);
        assert_eq!(a.updates(), total);
        assert_eq!(a.active_layout(), DispatchLayout::StreamSummary);
        let mut truth = std::collections::HashMap::new();
        for &k in ka.iter().chain(&kb) {
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for (&k, &t) in &truth {
            assert!(a.lower(&k) <= t);
            assert!(a.upper(&k) >= t);
        }
    }
}
