//! Space Saving on a tagged, temperature-split SoA arena: SwissTable-style
//! fingerprints in front, hot `(key, count)` pairs and cold error lanes
//! behind, a windowed lazy minimum, and a bulk-evicting batch flush.
//!
//! The stream-summary implementation ([`crate::SpaceSaving`]) is O(1)
//! worst-case but pays in memory traffic: a separate `HashMap` index plus
//! counter and bucket pointer walks per update. The PR 2 predecessor of
//! this module removed the indirection by fusing the hash index into 32 B
//! AoS slots — and measurement put the remaining ceiling on exactly the
//! operations that layout still made touch those slots: misses (which had
//! to load slots to find emptiness), minimum rescans (which strode the
//! whole 128 KB arena), and eviction-heavy sorted flushes. This rewrite
//! attacks all three (measured tables in ROADMAP "Performance"):
//!
//! * **Fingerprint tags** ([`crate::tagged_table`]): every slot contributes
//!   one byte — `EMPTY`, or a 7-bit hash tag — to a dense array probed
//!   *ahead of* the slot data with 8-at-a-time `u64` SWAR word compares.
//!   A miss resolves by scanning tag bytes only; it never loads a slot.
//!   At ε = 0.001 the whole tag array is 4 KB and effectively L1-resident
//!   across a batch flush.
//! * **Temperature-split SoA**: the hot lane packs `(key, count)` pairs so
//!   one cache line serves tag-hit confirmation, the count bump, victim
//!   revalidation and an eviction's install — while minimum rescans walk
//!   the same dense lane at a fixed 16 B stride, half the traffic of the
//!   32 B AoS slots. Eviction `error`s live in a cold lane nothing on the
//!   bump path touches, and the PR 2 `home` cache is gone entirely
//!   (backward shifts rehash the few entries they actually move).
//! * **Windowed lazy minimum**: instead of one victim stack for the
//!   current minimum level, the structure tracks [`LEVELS`] consecutive
//!   count levels with *exact* per-level occupancy counts and per-level
//!   victim-hint stacks, all refilled by a single arena pass. The minimum
//!   then advances level-to-level in O(1) and full rescans happen once per
//!   `LEVELS` exhausted levels — on eviction-heavy nodes this removes most
//!   of the rescan traffic that capped the PR 2 layout.
//! * **Bulk min-level eviction with adaptive ordering**
//!   (the [`FrequencyEstimator::flush_group`] override): the estimator owns
//!   each RHHH node group's processing order and picks it from a learned
//!   miss-ratio estimate. Hit-heavy groups skip sorting entirely (arrival
//!   order; duplicates re-hit hot lines — and the sort itself is ~30% of
//!   a steady-state batch). Miss-heavy groups sort, classify each distinct
//!   key with one tag probe, defer the slot-stealing keys, and serve each
//!   run of misses as one eviction sweep in which keys installed by the
//!   sweep stay *virtual* (a count-bucketed scratch ladder): a later miss
//!   whose victim is such an entry replaces it in O(1) scratch work
//!   without touching the table, so only true table minima are physically
//!   evicted and only the sweep's survivors are installed. Its sorted
//!   path uses the caller's ascending sorter (RHHH's radix sort). The
//!   default trait hook keeps the classic sort-and-flush for every other
//!   estimator.
//!
//! # Replace-min without the bucket list
//!
//! The stream summary exists to answer "which counter is minimal?" in
//! O(1). Here the minimum is maintained *lazily but exactly* over the
//! level window:
//!
//! * `min_val` — the exact minimum count over occupied slots; always
//!   within `[level_base, level_base + LEVELS)`.
//! * `level_support` — exact occupancy per window level, maintained by
//!   every count transition that touches the window. Exactness is what
//!   lets the minimum advance to the next live level — or prove that a
//!   rescan is due — without scanning.
//! * `level_stacks` — per-level victim hints. Evictions pop the minimum
//!   level's stack; a popped index is revalidated with a single count
//!   compare (any slot holding `min_val` is a valid victim, no matter
//!   which key moved into it), so stale or duplicate hints cost one
//!   probe. Backward shifts re-point the hints of entries they move.
//! * When the minimum leaves the window, one arena pass re-anchors it and
//!   refills every level. Each pass covers `LEVELS` level exhaustions and
//!   the minimum never exceeds `N/capacity`, so total rescan work is
//!   `O(table · N/(capacity · LEVELS)) = O(N)` — amortized O(1) per
//!   update, with a constant `LEVELS`× smaller than the PR 2 layout's.
//!
//! Because a victim is only ever taken at `count == min_val` while every
//! slot holds `count ≥ min_val`, each eviction removes a *true* minimum —
//! the structure is a faithful Space Saving (with its own tie-break among
//! equal minima) and inherits every Metwally et al. guarantee verbatim:
//! `count − error ≤ X ≤ count` for monitored keys and `X ≤ min_val ≤ N/m`
//! for unmonitored ones. The same holds for the bulk sweep: virtual
//! entries are conceptually in the table, and every eviction — real or
//! virtual — takes a minimum of the union, in group order. Which key is
//! evicted among equal minima is a tie-break the count multiset never
//! observes, so the `counter_props` differential suite pins the multisets
//! of this layout, the stream summary, and both flush orders against
//! per-key processing exactly.
//!
//! # Eviction without tombstones
//!
//! Replacing the minimum removes one key and inserts another. When a
//! minimum lives on the new key's own probe chain it is overwritten in
//! place (no slot empties, no chain changes). Otherwise deletion is
//! backward-shift (no tombstones, so probes never degrade); chain-end
//! detection during the shift is a tag read, and the insert lands in the
//! probe's empty slot — or in the shift's final hole when that hole
//! opened earlier on the same chain — so an eviction never scans the
//! table twice.
//!
//! # Table geometry
//!
//! The table is the first power of two ≥ 4·capacity (load factor ≤ ¼ —
//! measured faster than ½ even with tag probing: backward shifts move
//! almost nothing and eviction chains stay short). For the paper's
//! 1001-counter configuration over `u64` keys that is 4096 slots split as
//! 4 KB tags + 64 KB hot pairs + 32 KB cold errors. The trade-off of the
//! PR 2 layout stands: with all `H` instances live the aggregate
//! footprint makes *scalar* (one-packet-at-a-time) updates more
//! cache-hostile than the stream summary's — this is the batch-path
//! counter; keep [`crate::SpaceSaving`] for scalar deployments (measured
//! numbers in ROADMAP "Performance").

use std::hash::BuildHasher;

use crate::fast_hash::IntHashBuilder;

/// Count levels tracked ahead of the minimum. One full rescan anchors the
/// window and fills all of its per-level supports and victim stacks, so
/// the next `LEVELS − 1` minimum-level exhaustions advance in O(1) —
/// rescan traffic drops by the same factor.
const LEVELS: usize = 8;
use crate::tagged_table::{Probe, TaggedTable};
use crate::{for_each_run, Candidate, CounterKey, FrequencyEstimator, Frozen};

/// Space Saving over a tagged SoA arena.
///
/// Same estimates and guarantees as [`crate::SpaceSaving`]; see the
/// [module docs](self) for the layout and the lazy-minimum machinery.
#[derive(Debug, Clone)]
pub struct CompactSpaceSaving<K> {
    /// Tag array + SoA slot lanes. Unallocated until the first update
    /// (lazy init supplies the filler key without requiring `K: Default`).
    table: TaggedTable<K>,
    /// Number of occupied slots (≤ `capacity` < table length).
    len: usize,
    capacity: usize,
    updates: u64,
    /// Exact minimum count over occupied slots (meaningful when `len > 0`;
    /// always inside the level window).
    min_val: u64,
    /// First count level of the tracked window: levels
    /// `[level_base, level_base + LEVELS)` have exact per-level occupancy
    /// counts and victim-hint stacks, so the minimum can advance `LEVELS`
    /// times between full rescans instead of once.
    level_base: u64,
    /// Exact number of occupied slots per window level. Maintained
    /// incrementally by every count transition that touches the window —
    /// exactness is what lets `advance_min` move to the next level (or
    /// decide a rescan is due) without scanning.
    level_support: [u32; LEVELS],
    /// Victim hints per window level: slot indices that held the level's
    /// count when last observed. May contain stale or duplicate entries
    /// (bumped or shifted since); consumers revalidate with one count
    /// compare, so only `level_support` needs exactness.
    level_stacks: [Vec<u32>; LEVELS],
    /// Deferred slot-stealing keys of the current bulk flush (key, weight,
    /// home, tag, and the chain's first empty slot as found by the
    /// classification probe); drained at each miss-run boundary. Kept on
    /// the instance so steady-state flushes allocate nothing.
    pending: Vec<(K, u64, u32, u8, u32)>,
    /// Drain scratch: entries of the current eviction sweep whose install
    /// is deferred (key, count, error, home, tag). See `drain_pending`.
    virt: Vec<(K, u64, u64, u32, u8)>,
    /// Drain scratch: count-bucketed ladder over `virt` (level `l` holds
    /// the indices whose count is `base + l`). Virtual counts cluster in a
    /// handful of adjacent levels, so this is the stream summary's count
    /// bucket idea in O(1)-amortized scratch form.
    virt_ladder: Vec<Vec<u32>>,
    /// EWMA of the flush-path miss fraction (0 = all hits, 255 = all
    /// misses), learned from each flushed group; drives the adaptive
    /// ordering decision of `flush_group`. Starts pessimistic
    /// (miss-heavy ⇒ sorted) so fresh instances keep the classic
    /// behaviour until they have observed real traffic.
    miss_ratio: u8,
    /// Whether the last `flush_group` took the sorted path —
    /// exposed (doc-hidden) so differential tests can mirror the adaptive
    /// order decision onto their reference instance.
    last_flush_sorted: bool,
    hasher: IntHashBuilder,
}

impl<K: CounterKey> CompactSpaceSaving<K> {
    /// Count of the minimal slot — the upper bound for any unmonitored key
    /// once the structure is full; 0 while it still has free slots.
    #[must_use]
    pub fn min_count(&self) -> u64 {
        if self.len < self.capacity {
            0
        } else {
            self.min_val
        }
    }

    /// Number of monitored keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is monitored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key's probe start and 7-bit fingerprint.
    #[inline(always)]
    fn home_and_tag(&self, key: &K) -> (usize, u8) {
        self.table.home_and_tag(self.hasher.hash_one(key))
    }

    /// Slot index of a monitored key, if any (safe on the pre-init table).
    fn lookup(&self, key: &K) -> Option<usize> {
        if !self.table.is_init() {
            return None;
        }
        let (home, tag) = self.home_and_tag(key);
        match self.table.probe(home, tag, key) {
            Probe::Found(i) => Some(i),
            Probe::Absent(_) => None,
        }
    }

    /// Anchors the level window at the true minimum with one full pass:
    /// find the minimum, then fill every window level's exact support and
    /// victim stack. Called when the minimum would advance past the window
    /// end — i.e. once per `LEVELS` exhausted levels; see the module docs
    /// for why total rescan work amortizes to O(1) per update.
    #[cold]
    fn rescan_window(&mut self) {
        debug_assert!(self.len > 0);
        let mut min = u64::MAX;
        for slot in &self.table.hot {
            if slot.count != 0 && slot.count < min {
                min = slot.count;
            }
        }
        self.level_base = min;
        self.min_val = min;
        self.level_support = [0; LEVELS];
        for stack in &mut self.level_stacks {
            stack.clear();
        }
        for (i, slot) in self.table.hot.iter().enumerate() {
            let off = slot.count.wrapping_sub(min);
            if slot.count != 0 && off < LEVELS as u64 {
                self.level_support[off as usize] += 1;
                self.level_stacks[off as usize].push(i as u32);
            }
        }
    }

    /// Refills the minimum level's stack from the table (used when stale
    /// hints starved the stack while its exact support shows survivors).
    #[cold]
    fn fill_min_level(&mut self) {
        let off = (self.min_val - self.level_base) as usize;
        let stack = &mut self.level_stacks[off];
        stack.clear();
        for (i, slot) in self.table.hot.iter().enumerate() {
            if slot.count == self.min_val {
                stack.push(i as u32);
            }
        }
        debug_assert_eq!(stack.len(), self.level_support[off] as usize);
    }

    /// Moves the minimum to the next level with live occupants, rescanning
    /// only when it would leave the window. Counts only ever increase, and
    /// every transition into a window level is support-counted, so an
    /// all-zero window tail proves the next minimum lies at or beyond
    /// `level_base + LEVELS`.
    fn advance_min(&mut self) {
        debug_assert!(self.len > 0);
        let mut off = (self.min_val - self.level_base) as usize;
        loop {
            off += 1;
            if off >= LEVELS {
                self.rescan_window();
                return;
            }
            if self.level_support[off] > 0 {
                self.min_val = self.level_base + off as u64;
                return;
            }
        }
    }

    /// A slot's count left level `c` (bumped away, overwritten or
    /// removed); repair the window bookkeeping. Tolerates the table
    /// emptying mid-sweep (the drain's deferred installs).
    #[inline(always)]
    fn on_leave_level(&mut self, c: u64) {
        let off = c.wrapping_sub(self.level_base);
        if off < LEVELS as u64 {
            let off = off as usize;
            self.level_support[off] -= 1;
            if self.level_support[off] == 0 && c == self.min_val {
                if self.len > 0 {
                    self.advance_min();
                } else {
                    self.min_val = 0;
                }
            }
        }
    }

    /// A slot entered count level `c`; track it if the window covers `c`.
    #[inline(always)]
    fn note_enter(&mut self, i: usize, c: u64) {
        let off = c.wrapping_sub(self.level_base);
        if off < LEVELS as u64 {
            self.level_support[off as usize] += 1;
            self.level_stacks[off as usize].push(i as u32);
        }
    }

    /// Re-anchors the window at a smaller base (fill-phase inserts below
    /// the current window): surviving levels shift up, levels pushed past
    /// the window end become untracked — which is always legal, the next
    /// rescan re-covers them.
    #[cold]
    fn slide_down(&mut self, new_base: u64) {
        let shift = self.level_base - new_base;
        if shift >= LEVELS as u64 {
            self.level_support = [0; LEVELS];
            for stack in &mut self.level_stacks {
                stack.clear();
            }
        } else {
            let shift = shift as usize;
            self.level_stacks.rotate_right(shift);
            self.level_support.rotate_right(shift);
            for k in 0..shift {
                self.level_stacks[k].clear();
                self.level_support[k] = 0;
            }
        }
        self.level_base = new_base;
    }

    /// Window bookkeeping for a newly installed entry at count `c`
    /// (`self.len` already incremented).
    fn note_install(&mut self, i: usize, c: u64) {
        if self.len == 1 {
            self.level_base = c;
            self.min_val = c;
            self.level_support = [0; LEVELS];
            for stack in &mut self.level_stacks {
                stack.clear();
            }
            self.level_support[0] = 1;
            self.level_stacks[0].push(i as u32);
            return;
        }
        if c < self.level_base {
            self.slide_down(c);
        }
        if c < self.min_val {
            self.min_val = c;
        }
        self.note_enter(i, c);
    }

    /// Pops a victim slot with `count == min_val`. Stale hints (slots that
    /// were bumped, or whose entry a backward shift replaced) are skipped
    /// after one count compare; if they starved the stack while the exact
    /// support shows survivors, one count-lane pass refills it. This stack
    /// is what makes the bulk flush's eviction sweeps cheap: one window
    /// fill serves every victim of `LEVELS` consecutive levels.
    fn pop_victim(&mut self) -> usize {
        debug_assert!(self.min_val > 0 && self.len > 0);
        loop {
            let off = (self.min_val - self.level_base) as usize;
            while let Some(i) = self.level_stacks[off].pop() {
                if self.table.hot[i as usize].count == self.min_val {
                    return i as usize;
                }
            }
            self.fill_min_level();
        }
    }

    /// Raises slot `i` by `w`, repairing the window bookkeeping. Counts
    /// above the window — every established heavy hitter — pay a single
    /// compare.
    #[inline(always)]
    fn bump_at(&mut self, i: usize, w: u64) {
        let old = self.table.hot[i].count;
        let new = old + w;
        self.table.hot[i].count = new;
        if old.wrapping_sub(self.level_base) < LEVELS as u64 {
            self.note_enter(i, new);
            self.on_leave_level(old);
        }
    }

    /// Claims the (empty) slot `i` for a fresh key during the filling
    /// phase, folding the new count into the window bookkeeping.
    fn insert_fresh(&mut self, i: usize, tag: u8, key: K, w: u64) {
        debug_assert!(self.len < self.capacity);
        self.table.install(i, tag, key, w, 0);
        self.len += 1;
        self.note_install(i, w);
    }

    /// Replace-min for a key already known absent. `probe_empty` is the
    /// empty slot ending the key's probe chain (the membership probe or a
    /// tag rescan already found it).
    ///
    /// Fast path: every slot from `home` to `probe_empty` is occupied and
    /// on the new key's own chain, so if any of them holds the minimum it
    /// is overwritten *in place* — no slot empties, every probe chain
    /// stays intact, zero shifts and zero extra scans. On tail-heavy
    /// nodes, where most counts sit at the minimum level, this is the
    /// dominant eviction. Otherwise: pop a true-minimum victim from the
    /// count-grouped stack, backward-shift it out, and install the new key
    /// at `probe_empty` — or at the shift's final hole when that hole
    /// opened earlier on the same chain — so the slow path never re-scans
    /// either.
    fn evict_install(&mut self, home: usize, tag: u8, key: K, w: u64, probe_empty: usize) {
        let chain_mask = self.table.mask;
        let mut i = home;
        while i != probe_empty {
            if self.table.hot[i].count == self.min_val {
                let victim_count = self.min_val;
                self.table
                    .overwrite(i, tag, key, victim_count + w, victim_count);
                self.note_enter(i, victim_count + w);
                self.on_leave_level(victim_count);
                return;
            }
            i = (i + 1) & chain_mask;
        }
        let v = self.pop_victim();
        let victim_count = self.table.hot[v].count;
        let hole = self.remove_slot(v);
        let mask = self.table.mask;
        // The shift cannot have emptied anything on the new key's chain
        // except its final hole — use it when it opened earlier on the
        // chain, else the probe's empty slot is still the right spot.
        let target = if (hole.wrapping_sub(home) & mask) < (probe_empty.wrapping_sub(home) & mask) {
            hole
        } else {
            probe_empty
        };
        self.table
            .install(target, tag, key, victim_count + w, victim_count);
        self.note_enter(target, victim_count + w);
        self.on_leave_level(victim_count);
    }

    /// Backward-shift removal of slot `v`, re-pointing the victim-hint
    /// stacks of any window-level entries the shift relocates — without
    /// the repair, eviction churn starves the stacks and forces refill
    /// passes while support remains. Home positions of shifted entries
    /// are recomputed from their keys. Returns the final hole.
    fn remove_slot(&mut self, v: usize) -> usize {
        let (table, level_stacks) = (&mut self.table, &mut self.level_stacks);
        let level_base = self.level_base;
        let table_mask = table.mask;
        let hasher = self.hasher;
        table.remove_at(
            v,
            |key| hasher.hash_one(key) as usize & table_mask,
            |moved, count| {
                let off = count.wrapping_sub(level_base);
                if off < LEVELS as u64 {
                    level_stacks[off as usize].push(moved as u32);
                }
            },
        )
    }

    /// The shared scalar path: monitored bump, free-slot insert, or
    /// replace-min, all resolved by a single tag-array probe.
    #[inline]
    fn apply(&mut self, key: K, w: u64) {
        debug_assert!(w >= 1);
        self.updates += w;
        if !self.table.is_init() {
            self.table.init(self.capacity, key);
        }
        let (home, tag) = self.home_and_tag(&key);
        match self.table.probe(home, tag, &key) {
            Probe::Found(i) => self.bump_at(i, w),
            Probe::Absent(i) => {
                if self.len < self.capacity {
                    self.insert_fresh(i, tag, key, w);
                } else {
                    self.evict_install(home, tag, key, w, i);
                }
            }
        }
    }

    /// Serves every deferred miss of the current run as one **bulk
    /// min-level eviction sweep**. The per-key semantics it must reproduce
    /// (pinned by the differential and equivalence suites): each pending
    /// evicts a *current true minimum* and installs at `minimum + w` — so
    /// an entry installed earlier in the sweep can itself become a later
    /// pending's victim once the minimum level rises to its count.
    ///
    /// The sweep exploits exactly that: keys the streak installs stay
    /// **virtual** — `(key, count, error)` triples in a scratch min-heap —
    /// until the sweep ends. A pending whose victim is a virtual entry
    /// (heap minimum ≤ table minimum; ties prefer the heap, a free
    /// tie-break) replaces it in O(log k) register/L1 work and never
    /// touches the table. Only true table minima are physically evicted
    /// (in place when one lies on the pending's own probe chain, else via
    /// the count-grouped victim stack — one `rescan_min` refills victims
    /// for the whole level), and only the sweep's *survivors* are
    /// installed, each with one tag scan — its absence was established at
    /// classification and all streak keys are distinct, so no membership
    /// re-probe is ever needed. On an all-distinct group at capacity this
    /// collapses most of the eviction churn into heap operations.
    fn drain_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if self.pending.len() == 1 {
            // Single-miss streak — the common case on mixed hit/miss
            // groups. Nothing touched the table since the classification
            // probe, so its first-empty slot is still exact: take the
            // direct eviction path and skip the sweep scaffolding.
            let (key, w, home32, tag, e) = self.pending[0];
            self.pending.clear();
            self.evict_install(home32 as usize, tag, key, w, e as usize);
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        debug_assert!(self.virt.is_empty());
        // Ladder state: virtual counts live in `virt_ladder[count - base]`.
        // `base` is fixed at the first deferral (every later virtual count
        // is ≥ the then-minimum + 1, so offsets never go negative), `vmin`
        // is the least live virtual count (`u64::MAX` when none), and
        // `max_off` bounds the levels to clear afterwards.
        let mut base = 0u64;
        let mut vmin = u64::MAX;
        let mut max_off = 0usize;
        for &(key, w, home32, tag, _) in &pending {
            let table_min = if self.len > 0 { self.min_val } else { u64::MAX };
            if vmin <= table_min {
                // The minimum is (also) a streak-installed entry: replace
                // it without touching the table.
                let off = (vmin - base) as usize;
                let idx = self.virt_ladder[off].pop().expect("vmin level live") as usize;
                let c = vmin;
                self.virt[idx] = (key, c + w, c, home32, tag);
                let noff = (c + w - base) as usize;
                if noff >= self.virt_ladder.len() {
                    self.virt_ladder.resize_with(noff + 1, Vec::new);
                }
                self.virt_ladder[noff].push(idx as u32);
                max_off = max_off.max(noff + 1);
                if self.virt_ladder[off].is_empty() {
                    // Advance to the next live level (the one just pushed
                    // guarantees termination).
                    let mut o = off;
                    while self.virt_ladder[o].is_empty() {
                        o += 1;
                    }
                    vmin = base + o as u64;
                }
                continue;
            }
            let home = home32 as usize;
            let e = self.table.first_empty_from(home);
            // In-place fast path: a minimum on the key's own chain (all
            // slots home..e are occupied) is overwritten directly — the
            // new entry is immediately real, and later sweep steps treat
            // it like any other table entry.
            let mut i = home;
            let mut inplace = usize::MAX;
            while i != e {
                if self.table.hot[i].count == self.min_val {
                    inplace = i;
                    break;
                }
                i = (i + 1) & self.table.mask;
            }
            if inplace != usize::MAX {
                let c = self.min_val;
                self.table.overwrite(inplace, tag, key, c + w, c);
                self.note_enter(inplace, c + w);
                self.on_leave_level(c);
                continue;
            }
            // Physical eviction with deferred install: the victim leaves
            // the table now; the new key joins the virtual set.
            let v = self.pop_victim();
            let c = self.table.hot[v].count;
            self.remove_slot(v);
            self.len -= 1;
            self.on_leave_level(c);
            if vmin == u64::MAX && self.virt.is_empty() {
                base = c + 1;
            }
            let idx = self.virt.len() as u32;
            self.virt.push((key, c + w, c, home32, tag));
            let noff = (c + w - base) as usize;
            if noff >= self.virt_ladder.len() {
                self.virt_ladder.resize_with(noff + 1, Vec::new);
            }
            self.virt_ladder[noff].push(idx);
            max_off = max_off.max(noff + 1);
            vmin = vmin.min(c + w);
        }
        // Install the survivors and fold them into the window bookkeeping.
        while let Some((key, count, error, home32, tag)) = self.virt.pop() {
            let i = self.table.first_empty_from(home32 as usize);
            self.table.install(i, tag, key, count, error);
            self.len += 1;
            self.note_install(i, count);
        }
        for level in &mut self.virt_ladder[..max_off] {
            level.clear();
        }
        self.pending = pending;
        self.pending.clear();
    }

    /// Folds one flushed group's observed miss fraction into the adaptive
    /// ordering estimate (recent groups weighted 3:1).
    fn note_miss_ratio(&mut self, misses: usize, group_len: usize) {
        if group_len == 0 {
            return;
        }
        let observed = (misses * 256 / group_len).min(255) as u32;
        self.miss_ratio = ((u32::from(self.miss_ratio) + 3 * observed) / 4) as u8;
    }

    /// The hit-heavy flush order: arrival order, no sort. Duplicate keys
    /// simply re-probe lines that are already hot (a monitored key's
    /// second occurrence is an L1 bump), and any slot-stealing key is
    /// evicted immediately through the scalar replace-min path — arrival
    /// order is exactly the per-key scalar semantics, so no deferral
    /// bookkeeping is needed.
    fn flush_arrival(&mut self, keys: &[K]) {
        let mut misses = 0usize;
        for_each_run(keys, |key, w| {
            self.updates += w;
            if !self.table.is_init() {
                self.table.init(self.capacity, key);
            }
            let (home, tag) = self.home_and_tag(&key);
            match self.table.probe(home, tag, &key) {
                Probe::Found(i) => self.bump_at(i, w),
                Probe::Absent(e) => {
                    misses += 1;
                    if self.len < self.capacity {
                        self.insert_fresh(e, tag, key, w);
                    } else {
                        self.evict_install(home, tag, key, w, e);
                    }
                }
            }
        });
        self.note_miss_ratio(misses, keys.len());
    }

    /// The miss-heavy flush order behind
    /// [`FrequencyEstimator::flush_group`]: one classification
    /// probe per distinct key of the (sorted) group, with slot-stealing
    /// keys deferred and evicted in per-run sweeps.
    fn flush_sorted_bulk(&mut self, keys: &[K]) {
        debug_assert!(self.pending.is_empty());
        let mut misses = 0usize;
        let mut i = 0;
        while i < keys.len() {
            let key = keys[i];
            let mut j = i + 1;
            while j < keys.len() && keys[j] == key {
                j += 1;
            }
            let w = (j - i) as u64;
            i = j;

            self.updates += w;
            if !self.table.is_init() {
                self.table.init(self.capacity, key);
            }
            let (home, tag) = self.home_and_tag(&key);
            match self.table.probe(home, tag, &key) {
                Probe::Found(s) => {
                    if self.pending.is_empty() {
                        self.bump_at(s, w);
                    } else {
                        // The deferred misses precede this key in the
                        // group's order; apply them first — one of them
                        // may evict this very key, so re-probe after.
                        self.drain_pending();
                        match self.table.probe(home, tag, &key) {
                            Probe::Found(s) => self.bump_at(s, w),
                            Probe::Absent(e) => self.evict_install(home, tag, key, w, e),
                        }
                    }
                }
                Probe::Absent(e) => {
                    misses += 1;
                    if self.len < self.capacity {
                        // Pendings only accumulate once the table is full,
                        // and `len` never drops below capacity again.
                        debug_assert!(self.pending.is_empty());
                        self.insert_fresh(e, tag, key, w);
                    } else {
                        self.pending.push((key, w, home as u32, tag, e as u32));
                    }
                }
            }
        }
        self.drain_pending();
        self.note_miss_ratio(misses, keys.len());
    }

    /// Whether the last [`FrequencyEstimator::flush_group`] call
    /// took the sorted bulk path (`true`) or the arrival-order path
    /// (`false`). Diagnostic for the differential suites, which mirror
    /// the adaptive order decision onto their reference instance.
    #[doc(hidden)]
    #[must_use]
    pub fn last_flush_sorted(&self) -> bool {
        self.last_flush_sorted
    }

    /// Validates every structural invariant; used by tests and proptests.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        assert!(self.pending.is_empty(), "pending evictions outside a flush");
        if !self.table.is_init() {
            assert_eq!(self.len, 0, "len without an arena");
            assert_eq!(self.updates, 0, "mass without an arena");
            return;
        }
        self.table.debug_validate_tags(|key| self.home_and_tag(key));
        let occupied: Vec<usize> = (0..self.table.len())
            .filter(|&i| self.table.occupied(i))
            .collect();
        assert_eq!(occupied.len(), self.len, "len out of sync");
        assert!(self.len <= self.capacity, "over capacity");
        let mut min = u64::MAX;
        let mut support = 0usize;
        for &i in &occupied {
            let count = self.table.hot[i].count;
            assert!(self.table.errors[i] <= count, "error exceeds count");
            // The probe chain for this key must terminate at this slot —
            // backward-shift deletion left no unreachable entries.
            assert_eq!(
                self.lookup(&self.table.hot[i].key),
                Some(i),
                "monitored key unreachable by probing"
            );
            if count < min {
                min = count;
                support = 1;
            } else if count == min {
                support += 1;
            }
        }
        if self.len > 0 {
            assert_eq!(self.min_val, min, "cached minimum is stale");
            assert!(
                self.level_base <= self.min_val && self.min_val < self.level_base + LEVELS as u64,
                "minimum outside the level window"
            );
            // Per-level supports must be exact: they are what authorizes
            // `advance_min` to move the minimum without scanning. The
            // minimum-level support in particular equals `support`.
            let mut window_support = [0u32; LEVELS];
            for &i in &occupied {
                let off = self.table.hot[i].count.wrapping_sub(self.level_base);
                if off < LEVELS as u64 {
                    window_support[off as usize] += 1;
                }
            }
            assert_eq!(
                self.level_support, window_support,
                "window level supports are stale"
            );
            assert_eq!(
                self.level_support[(self.min_val - self.level_base) as usize] as usize,
                support,
                "minimum support is stale"
            );
            // Every stack hint is in bounds; staleness and duplicates are
            // allowed, loss is not: the live level slots must be
            // recoverable (fill_min_level rebuilds from the hot lane, so
            // this is implied by the exact supports).
            for stack in &self.level_stacks {
                for &i in stack {
                    assert!((i as usize) < self.table.len(), "stack hint out of bounds");
                }
            }
        }
        let guaranteed: u64 = occupied
            .iter()
            .map(|&i| self.table.hot[i].count - self.table.errors[i])
            .sum();
        assert!(guaranteed <= self.updates, "counted mass exceeds updates");
        if occupied.iter().all(|&i| self.table.errors[i] == 0) {
            assert_eq!(guaranteed, self.updates, "mass lost without evictions");
        }
    }
}

impl<K: CounterKey> CompactSpaceSaving<K> {
    /// The monitored candidates, in slot order.
    fn candidate_iter(&self) -> impl Iterator<Item = Candidate<K>> + '_ {
        (0..self.table.len())
            .filter(|&i| self.table.occupied(i))
            .map(|i| Candidate {
                key: self.table.hot[i].key,
                upper: self.table.hot[i].count,
                lower: self.table.hot[i].count - self.table.errors[i],
            })
    }
}

impl<K: CounterKey> FrequencyEstimator<K> for CompactSpaceSaving<K> {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            table: TaggedTable::new(),
            len: 0,
            capacity,
            updates: 0,
            min_val: 0,
            level_base: 0,
            level_support: [0; LEVELS],
            level_stacks: std::array::from_fn(|_| Vec::new()),
            pending: Vec::new(),
            virt: Vec::new(),
            virt_ladder: Vec::new(),
            miss_ratio: u8::MAX,
            last_flush_sorted: true,
            hasher: IntHashBuilder,
        }
    }

    fn combine(parts: &[&Frozen<K>]) -> Frozen<K> {
        Frozen::combine_by(parts, crate::merge_entries_many)
    }

    #[inline]
    fn increment(&mut self, key: K) {
        self.apply(key, 1);
    }

    #[inline]
    fn add(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        self.apply(key, weight);
    }

    fn increment_batch(&mut self, keys: &[K]) {
        // One probe per run of equal consecutive keys: the slot found by
        // the probe absorbs the whole run while its lanes are hot.
        for_each_run(keys, |key, run| self.apply(key, run));
    }

    fn flush_group(&mut self, keys: &mut [K], sort: &mut dyn FnMut(&mut [K])) {
        // Adaptive ordering: the estimator owns the group's processing
        // order, and the best order depends on the node's regime, which
        // the previous flushes of the *same instance* predict well.
        //
        // * **Miss-heavy** (tail nodes): sort with the caller's ascending
        //   sorter so distinct keys become runs, defer the slot-stealing
        //   keys, and serve each run of misses as one bulk min-level
        //   eviction sweep (most of the churn collapses into the virtual
        //   ladder).
        // * **Hit-heavy** (aggregated nodes): skip the sort entirely —
        //   duplicate keys re-hit cache-hot lines, and the sort itself
        //   (~30% of a steady-state batch across all nodes) is pure
        //   overhead when there is nothing to evict in bulk. Staging or
        //   prefetching this path measured as a double-digit regression.
        //
        // Either order processes the same multiset per-key through true
        // minimum evictions, so every Space Saving guarantee holds
        // identically; which one ran is exposed for the differential
        // suites via `last_flush_sorted`.
        if self.miss_ratio >= 230 {
            self.last_flush_sorted = true;
            sort(keys);
            self.flush_sorted_bulk(keys);
        } else {
            self.last_flush_sorted = false;
            self.flush_arrival(keys);
        }
    }

    fn updates(&self) -> u64 {
        self.updates
    }

    fn upper(&self, key: &K) -> u64 {
        match self.lookup(key) {
            Some(i) => self.table.hot[i].count,
            None => self.min_count(),
        }
    }

    fn lower(&self, key: &K) -> u64 {
        match self.lookup(key) {
            Some(i) => self.table.hot[i].count - self.table.errors[i],
            None => 0,
        }
    }

    fn unmonitored_upper(&self) -> u64 {
        self.min_count()
    }

    fn candidates(&self) -> Vec<Candidate<K>> {
        self.candidate_iter().collect()
    }

    #[inline]
    fn for_each_candidate(&self, f: impl FnMut(Candidate<K>)) {
        self.candidate_iter().for_each(f);
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpaceSaving;
    use std::collections::HashMap;

    #[test]
    fn exact_below_capacity() {
        let mut ss: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(10);
        for (key, n) in [(1u32, 5u64), (2, 3), (3, 9)] {
            for _ in 0..n {
                ss.increment(key);
            }
        }
        for (key, n) in [(1u32, 5u64), (2, 3), (3, 9)] {
            assert_eq!(ss.upper(&key), n);
            assert_eq!(ss.lower(&key), n);
        }
        assert_eq!(ss.upper(&999), 0, "unseen key while not full");
        assert_eq!(ss.updates(), 17);
        ss.debug_validate();
    }

    #[test]
    fn replacement_sets_error_and_bounds_hold() {
        let mut ss: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(2);
        ss.increment(1);
        ss.increment(1);
        ss.increment(2);
        // Structure full; key 3 evicts key 2 (count 1).
        ss.increment(3);
        assert_eq!(ss.upper(&3), 2); // victim count + 1
        assert_eq!(ss.lower(&3), 1); // could all be error
        assert_eq!(ss.lower(&2), 0); // evicted
        assert!(ss.upper(&2) >= 1); // min-count bound
        ss.debug_validate();
    }

    #[test]
    fn never_underestimates_and_error_bounded() {
        let cap = 8;
        let mut ss: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x12345678u64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = if i % 3 == 0 { i % 5 } else { x % 64 };
            ss.increment(key);
            *exact.entry(key).or_default() += 1;
        }
        let n = ss.updates();
        for key in exact.keys().chain([&999_999u64]) {
            let f = exact.get(key).copied().unwrap_or(0);
            assert!(ss.upper(key) >= f, "upper({key}) < f");
            assert!(ss.lower(key) <= f, "lower({key}) > f");
            assert!(
                ss.upper(key) <= f + n / cap as u64,
                "error bound violated for {key}: upper {} f {f} bound {}",
                ss.upper(key),
                f + n / cap as u64
            );
        }
        ss.debug_validate();
    }

    #[test]
    fn matches_stream_summary_on_deterministic_stream() {
        // Both variants evict a true minimum, so the count multiset — and
        // with it min_count, updates and total mass — evolve identically.
        let cap = 16;
        let mut flat: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        let mut list: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        let mut x = 7u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xB5);
            let key = x % 300;
            flat.increment(key);
            list.increment(key);
        }
        assert_eq!(flat.updates(), list.updates());
        assert_eq!(flat.min_count(), list.min_count());
        let mass = |c: Vec<Candidate<u64>>| -> u64 { c.iter().map(|e| e.upper).sum() };
        assert_eq!(mass(flat.candidates()), mass(list.candidates()));
        flat.debug_validate();
    }

    #[test]
    fn heavy_hitters_always_monitored() {
        let cap = 10;
        let mut ss: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(cap);
        let mut x = 7u64;
        for i in 0..5_000u64 {
            if i % 4 == 0 {
                ss.increment(42); // 25% of traffic
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ss.increment((x % 1000) as u32 + 100);
            }
        }
        let cands = ss.candidates();
        assert!(cands.iter().any(|c| c.key == 42), "HH lost from summary");
        assert_eq!(cands.len(), cap);
        ss.debug_validate();
    }

    #[test]
    fn min_count_tracks_minimum() {
        let mut ss: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(3);
        assert_eq!(ss.min_count(), 0);
        for k in 0..3 {
            ss.increment(k);
        }
        assert_eq!(ss.min_count(), 1);
        ss.increment(0);
        ss.increment(1);
        ss.increment(2);
        assert_eq!(ss.min_count(), 2);
        ss.debug_validate();
    }

    #[test]
    fn single_counter_capacity() {
        let mut ss: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(1);
        for k in 0..100u32 {
            ss.increment(k);
        }
        assert_eq!(ss.upper(&99), 100);
        assert_eq!(ss.len(), 1);
        ss.debug_validate();
    }

    #[test]
    fn eviction_churn_keeps_probe_chains_sound() {
        // All-distinct stream at capacity: every update past the fill
        // phase evicts, exercising backward-shift deletion continuously.
        let cap = 32;
        let mut ss: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        for i in 0..10_000u64 {
            ss.increment(i);
            if i % 1_000 == 999 {
                ss.debug_validate();
            }
        }
        assert_eq!(ss.len(), cap);
        assert_eq!(ss.updates(), 10_000);
        ss.debug_validate();
    }

    #[test]
    fn weighted_add_matches_repeated_increment_mass() {
        let cap = 8;
        let mut weighted: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        let mut unit: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        let mut x = 3u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            let key = x % 40;
            let w = 1 + (x >> 32) % 5;
            weighted.add(key, w);
            for _ in 0..w {
                unit.increment(key);
            }
        }
        assert_eq!(weighted.updates(), unit.updates());
        weighted.debug_validate();
        unit.debug_validate();
    }

    #[test]
    fn increment_batch_matches_scalar_increments() {
        let mut x = 0xFEED_u64;
        let mut runs: Vec<u64> = Vec::new();
        for _ in 0..2_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = x % 17;
            let len = 1 + (x >> 32) % 9;
            for _ in 0..len {
                runs.push(key);
            }
        }
        for cap in [1usize, 4, 16, 64] {
            let mut batched: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
            let mut scalar: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
            batched.increment_batch(&runs);
            for &k in &runs {
                scalar.increment(k);
            }
            assert_eq!(batched.updates(), scalar.updates());
            for key in 0..17u64 {
                assert_eq!(
                    batched.upper(&key),
                    scalar.upper(&key),
                    "cap {cap} key {key}"
                );
                assert_eq!(
                    batched.lower(&key),
                    scalar.lower(&key),
                    "cap {cap} key {key}"
                );
            }
            batched.debug_validate();
        }
    }

    #[test]
    fn bulk_flush_matches_default_flush_multiset() {
        // flush_group (bulk min-level eviction) and a sorted
        // increment_batch (per-run apply) must produce identical count
        // multisets, updates and min-counts on the same groups —
        // tie-breaks may differ.
        let mut x = 0xBEEF_u64;
        for cap in [1usize, 3, 8, 32] {
            let mut bulk: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
            let mut default: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
            for _ in 0..40 {
                let mut group: Vec<u64> = (0..150)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                        x % 96
                    })
                    .collect();
                let mut group2 = group.clone();
                bulk.flush_group(&mut group, &mut <[u64]>::sort_unstable);
                // Mirror the adaptive order decision onto the per-key
                // reference (sorted runs; arrival order = plain
                // increment_batch).
                if bulk.last_flush_sorted() {
                    group2.sort_unstable();
                }
                default.increment_batch(&group2);
            }
            assert_eq!(bulk.updates(), default.updates(), "cap {cap}");
            assert_eq!(bulk.min_count(), default.min_count(), "cap {cap}");
            let multiset = |c: Vec<Candidate<u64>>| -> Vec<u64> {
                let mut v: Vec<u64> = c.iter().map(|e| e.upper).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(
                multiset(bulk.candidates()),
                multiset(default.candidates()),
                "cap {cap}: count multisets diverged"
            );
            bulk.debug_validate();
            default.debug_validate();
        }
    }

    #[test]
    fn bulk_flush_all_distinct_group() {
        // The miss-heavy regime the tag array targets: a full table and a
        // group of entirely new keys — every distinct key is one deferred
        // eviction served from the shared victim stack.
        let cap = 16;
        let mut bulk: CompactSpaceSaving<u64> = CompactSpaceSaving::with_capacity(cap);
        let mut scalar: SpaceSaving<u64> = SpaceSaving::with_capacity(cap);
        let mut next = 0u64;
        for _ in 0..20 {
            let mut group: Vec<u64> = (0..256)
                .map(|_| {
                    next += 1;
                    next
                })
                .collect();
            let mut sorted = group.clone();
            sorted.sort_unstable();
            scalar.increment_batch(&sorted);
            bulk.flush_group(&mut group, &mut <[u64]>::sort_unstable);
            assert!(
                bulk.last_flush_sorted(),
                "all-miss groups must stay on the sorted bulk path"
            );
        }
        assert_eq!(bulk.updates(), scalar.updates());
        assert_eq!(bulk.min_count(), scalar.min_count());
        let mass = |c: Vec<Candidate<u64>>| -> u64 { c.iter().map(|e| e.upper).sum() };
        assert_eq!(mass(bulk.candidates()), mass(scalar.candidates()));
        bulk.debug_validate();
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut ss: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(4);
        ss.add(5, 0);
        assert_eq!(ss.updates(), 0);
        assert_eq!(ss.upper(&5), 0);
        assert!(ss.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: CompactSpaceSaving<u32> = CompactSpaceSaving::with_capacity(0);
    }
}
