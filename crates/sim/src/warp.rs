//! Warp-level slot accumulation: merging the 32 lanes of a warp into
//! warp instructions and deriving coalescing / divergence / bank-conflict
//! statistics.
//!
//! This is the simulator's hottest data structure — every recorded event
//! of every lane passes through it — so it is laid out
//! structure-of-arrays style around dense site indices: a
//! [`SiteInterner`] maps `&'static Location` addresses to small integers
//! once, and from then on the per-lane occurrence counters and the
//! occurrence → slot table are flat arrays indexed directly. The hot
//! `record_*` path performs no hashing (one multiply-shift probe in the
//! interner) and no allocation (key vectors are recycled through a pool
//! across warps). A memory slot does not keep its lanes' raw accesses:
//! as each lane records, the access is turned into the segments (or
//! shared bank words) it touches and a key is pushed only when it
//! differs from the slot's last one, so the warp-end fold sees short,
//! usually already sorted key lists. Slots are kept in
//! program/insertion order, which is also what makes the fold
//! deterministic.
//!
//! Statistics semantics are pinned bit-for-bit against the pre-SoA
//! implementation preserved in `tests/support/warp_reference.rs`; see
//! `tests/soa_equivalence.rs`.

use crate::config::GpuConfig;
use crate::profile::{SiteProfile, SiteStats};
use crate::stats::KernelStats;
use crate::trace::{OpClass, Site, SiteInterner, Space};
use std::panic::Location;

/// One warp-level instruction slot under construction.
#[derive(Debug)]
struct Slot {
    /// Original site pointer (for profile attribution).
    site: Site,
    /// Dense site index (to reset the slot table at warp end).
    dense: u32,
    /// Per-lane occurrence index this slot represents.
    occ: u32,
    kind: SlotKind,
}

#[derive(Debug)]
enum SlotKind {
    Op {
        class: OpClass,
        max_count: u32,
        lanes: u32,
    },
    Mem {
        space: Space,
        write: bool,
        bytes_requested: u64,
        /// Lane accesses recorded into the slot.
        accesses: u32,
        /// The segments (global/local) or 4-byte bank words (shared) the
        /// accesses touch, in record order, each pushed only when it
        /// differs from the one before it.
        keys: Vec<u64>,
    },
    Branch {
        taken: u32,
        not_taken: u32,
    },
    Sync {
        lanes: u32,
    },
}

/// Accumulates the events of one warp's 32 lanes and flushes warp-level
/// statistics into a [`KernelStats`].
///
/// Lanes execute sequentially; [`WarpAccumulator::begin_lane`] resets the
/// per-lane occurrence counters, and [`WarpAccumulator::end_warp`] analyses
/// and clears the slot table.
#[derive(Debug)]
pub struct WarpAccumulator {
    interner: SiteInterner,
    /// Per dense site: the current lane's occurrence counter.
    occ: Vec<u32>,
    /// Per dense site: occurrence → slot index for the current warp
    /// (`u32::MAX` = no slot yet). Rows keep their allocation across
    /// warps; entries are un-set per slot at warp end.
    slot_of: Vec<Vec<u32>>,
    /// Slots of the current warp, in first-recorded (program) order.
    slots: Vec<Slot>,
    /// Predicted slot index of the current lane's next event. Lanes of a
    /// warp usually replay the previous lane's event sequence in program
    /// order, so the common case needs no interner probe at all — just
    /// an exact `(site, occurrence)` check against `slots[cursor]`.
    cursor: u32,
    lanes_seen: u32,
    /// Whether per-site attribution is on (off by default).
    profiling: bool,
    /// Per dense site: batched attribution accumulator. Indexed by
    /// `Slot::dense`, so the profiled warp-end path is a plain vector
    /// add instead of a per-slot hash probe; materialized into a
    /// [`SiteProfile`] only in [`WarpAccumulator::take_site_profile`].
    site_acc: Vec<SiteStats>,
    /// Per dense site: whether the site was already registered with the
    /// global source-location registry (registration is idempotent, the
    /// flag just avoids re-taking the registry lock per warp).
    site_registered: Vec<bool>,
    /// Recycled key vectors for `SlotKind::Mem`, refilled at warp end
    /// so steady-state recording never allocates.
    key_pool: Vec<Vec<u64>>,
    /// Segment size the keys of global/local slots are recorded in.
    segment: SegmentGeometry,
    /// Warp-end scratch: first-touch-ordered segment list of one slot.
    segments: Vec<u64>,
    /// Warp-end scratch: distinct-word counts per shared bank.
    bank_counts: Vec<u32>,
}

/// Bytes per shared-memory bank word.
const BANK_WORD_BYTES: u64 = 4;

/// Segment size every shipped [`GpuConfig`] uses (the Fermi L1 line);
/// [`WarpAccumulator::new`] records in it until
/// [`WarpAccumulator::set_geometry`] says otherwise.
const DEFAULT_SEGMENT_BYTES: u64 = 128;

/// Address → segment index for one segment size: a shift when the size
/// is a power of two, a division otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentGeometry {
    bytes: u64,
    /// `log2(bytes)`, or `None` when `bytes` is not a power of two.
    shift: Option<u32>,
}

impl SegmentGeometry {
    fn new(bytes: u64) -> Self {
        assert!(bytes > 0, "segment size must be positive");
        SegmentGeometry {
            bytes,
            shift: bytes.is_power_of_two().then(|| bytes.trailing_zeros()),
        }
    }

    #[inline]
    fn index(self, addr: u64) -> u64 {
        match self.shift {
            Some(s) => addr >> s,
            None => addr / self.bytes,
        }
    }

    /// Appends the keys an access of `width` bytes at `addr` in `space`
    /// touches — segments for global/local, bank words for shared —
    /// skipping each key equal to the last one pushed.
    #[inline]
    fn push_keys(self, space: Space, addr: u64, width: u8, keys: &mut Vec<u64>) {
        let end = addr + width.max(1) as u64 - 1;
        let (first, last) = match space {
            Space::Shared => (addr / BANK_WORD_BYTES, end / BANK_WORD_BYTES),
            Space::Global | Space::Local => (self.index(addr), self.index(end)),
        };
        for k in first..=last {
            if keys.last() != Some(&k) {
                keys.push(k);
            }
        }
    }
}

impl WarpAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        WarpAccumulator {
            interner: SiteInterner::new(),
            occ: Vec::new(),
            slot_of: Vec::new(),
            slots: Vec::new(),
            cursor: 0,
            lanes_seen: 0,
            profiling: false,
            site_acc: Vec::new(),
            site_registered: Vec::new(),
            key_pool: Vec::new(),
            segment: SegmentGeometry::new(DEFAULT_SEGMENT_BYTES),
            segments: Vec::with_capacity(64),
            bank_counts: Vec::new(),
        }
    }

    /// Creates an accumulator that additionally attributes every slot's
    /// counters to its source site.
    pub fn with_site_profile() -> Self {
        WarpAccumulator {
            profiling: true,
            ..Self::new()
        }
    }

    /// Takes the accumulated per-site profile (if site profiling was
    /// enabled), leaving an empty one behind.
    ///
    /// This is where the dense per-site accumulator is materialized into
    /// a keyed [`SiteProfile`] — once per block, not once per warp slot.
    pub fn take_site_profile(&mut self) -> Option<SiteProfile> {
        if !self.profiling {
            return None;
        }
        let mut profile = SiteProfile::new();
        for (dense, acc) in self.site_acc.iter_mut().enumerate() {
            // Sites the profiled warps never touched keep the default
            // all-zero entry; every touched site has `warp_slots >= 1`.
            if acc.warp_slots > 0 {
                profile.add(self.interner.site(dense as u32), acc);
                *acc = SiteStats::default();
            }
        }
        Some(profile)
    }

    /// Switches site profiling on or off — used when a pooled accumulator
    /// is reused by a launch with different [`crate::kernel::LaunchOptions`].
    /// Turning it on starts from an empty profile.
    pub fn set_profiling(&mut self, on: bool) {
        if on && !self.profiling {
            self.site_acc.fill_with(SiteStats::default);
        }
        self.profiling = on;
    }

    /// Records global/local accesses in `cfg`'s segment size from the
    /// next warp on; [`WarpAccumulator::end_warp`] rejects any other
    /// config. Call it between warps, never with slots pending.
    pub fn set_geometry(&mut self, cfg: &GpuConfig) {
        debug_assert!(self.slots.is_empty(), "geometry changed mid-warp");
        if self.segment.bytes != cfg.segment_bytes {
            self.segment = SegmentGeometry::new(cfg.segment_bytes);
        }
    }

    /// Starts recording a new lane of the current warp.
    pub fn begin_lane(&mut self) {
        self.occ.fill(0);
        self.cursor = 0;
        self.lanes_seen += 1;
    }

    /// Resolves the warp slot for one event at `site`: `Ok(index)` when
    /// the slot exists (an earlier lane reached this `(site, occurrence)`
    /// first), `Err((dense, occ))` when the caller must push a new slot —
    /// the table already points at `self.slots.len()`.
    ///
    /// The fast path predicts the slot from the cursor: when the lane is
    /// replaying the warp's program order (the overwhelmingly common,
    /// divergence-free case), `slots[cursor]` *is* this event's slot, and
    /// the exact `(site, occurrence)` check proves it without touching
    /// the interner — equivalent to the table lookup in `locate_slow`
    /// because `slot_of[dense][occ]` was set to exactly this index when
    /// the slot was created and is never overwritten within a warp.
    #[inline]
    fn locate(&mut self, site: Site) -> Result<usize, (u32, u32)> {
        let cur = self.cursor as usize;
        if let Some(slot) = self.slots.get(cur) {
            if slot.site == site && slot.occ == self.occ[slot.dense as usize] {
                self.occ[slot.dense as usize] += 1;
                self.cursor = cur as u32 + 1;
                return Ok(cur);
            }
        }
        self.locate_slow(site)
    }

    #[cold]
    fn locate_slow(&mut self, site: Site) -> Result<usize, (u32, u32)> {
        let dense = self.interner.intern(site) as usize;
        if dense >= self.occ.len() {
            self.occ.resize(dense + 1, 0);
            self.slot_of.resize_with(dense + 1, Vec::new);
        }
        let occ = self.occ[dense];
        self.occ[dense] = occ + 1;
        let row = &mut self.slot_of[dense];
        if (occ as usize) < row.len() {
            let ix = row[occ as usize];
            if ix != u32::MAX {
                self.cursor = ix + 1;
                return Ok(ix as usize);
            }
        } else {
            row.resize(occ as usize + 1, u32::MAX);
        }
        let ix = self.slots.len() as u32;
        row[occ as usize] = ix;
        // The caller pushes the new slot at `ix`; predict the event after
        // it at `ix + 1`.
        self.cursor = ix + 1;
        Err((dense as u32, occ))
    }

    /// Records `count` arithmetic operations of `class`.
    #[inline]
    pub fn record_op(&mut self, loc: &'static Location<'static>, class: OpClass, count: u32) {
        let site = loc as *const _ as usize;
        match self.locate(site) {
            Ok(ix) => match &mut self.slots[ix].kind {
                SlotKind::Op {
                    max_count, lanes, ..
                } => {
                    *max_count = (*max_count).max(count);
                    *lanes += 1;
                }
                other => debug_assert!(false, "slot kind mismatch at op slot: {other:?}"),
            },
            Err((dense, occ)) => self.slots.push(Slot {
                site,
                dense,
                occ,
                kind: SlotKind::Op {
                    class,
                    max_count: count,
                    lanes: 1,
                },
            }),
        }
    }

    /// Records a memory access of `width` bytes at `addr` in `space`.
    #[inline]
    pub fn record_mem(
        &mut self,
        loc: &'static Location<'static>,
        space: Space,
        write: bool,
        addr: u64,
        width: u8,
    ) {
        let site = loc as *const _ as usize;
        let segment = self.segment;
        match self.locate(site) {
            Ok(ix) => match &mut self.slots[ix].kind {
                SlotKind::Mem {
                    space,
                    bytes_requested,
                    accesses,
                    keys,
                    ..
                } => {
                    *bytes_requested += width as u64;
                    *accesses += 1;
                    // Keys follow the slot's space: the first lane's.
                    segment.push_keys(*space, addr, width, keys);
                }
                other => debug_assert!(false, "slot kind mismatch at mem slot: {other:?}"),
            },
            Err((dense, occ)) => {
                let mut keys = self
                    .key_pool
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(32));
                segment.push_keys(space, addr, width, &mut keys);
                self.slots.push(Slot {
                    site,
                    dense,
                    occ,
                    kind: SlotKind::Mem {
                        space,
                        write,
                        bytes_requested: width as u64,
                        accesses: 1,
                        keys,
                    },
                });
            }
        }
    }

    /// Records a data-dependent branch outcome.
    #[inline]
    pub fn record_branch(&mut self, loc: &'static Location<'static>, taken: bool) {
        let site = loc as *const _ as usize;
        match self.locate(site) {
            Ok(ix) => match &mut self.slots[ix].kind {
                SlotKind::Branch {
                    taken: t,
                    not_taken: n,
                } => {
                    if taken {
                        *t += 1;
                    } else {
                        *n += 1;
                    }
                }
                other => debug_assert!(false, "slot kind mismatch at branch slot: {other:?}"),
            },
            Err((dense, occ)) => self.slots.push(Slot {
                site,
                dense,
                occ,
                kind: SlotKind::Branch {
                    taken: taken as u32,
                    not_taken: !taken as u32,
                },
            }),
        }
    }

    /// Records a `__syncthreads()`-style barrier.
    #[inline]
    pub fn record_sync(&mut self, loc: &'static Location<'static>) {
        let site = loc as *const _ as usize;
        match self.locate(site) {
            Ok(ix) => match &mut self.slots[ix].kind {
                SlotKind::Sync { lanes } => *lanes += 1,
                other => debug_assert!(false, "slot kind mismatch at sync slot: {other:?}"),
            },
            Err((dense, occ)) => self.slots.push(Slot {
                site,
                dense,
                occ,
                kind: SlotKind::Sync { lanes: 1 },
            }),
        }
    }

    /// Analyses the accumulated warp and folds its statistics into `stats`,
    /// then resets for the next warp. Convenience wrapper for the
    /// cache-less configuration.
    pub fn end_warp(&mut self, cfg: &GpuConfig, stats: &mut KernelStats) {
        self.end_warp_cached(cfg, stats, None);
    }

    /// Like [`WarpAccumulator::end_warp`], filtering DRAM transactions
    /// through an optional L2 cache slice: segments that hit do not count
    /// as transactions.
    pub fn end_warp_cached(
        &mut self,
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        cache: Option<&mut crate::cache::CacheModel>,
    ) {
        // Monomorphize so the common unprofiled path carries no
        // per-slot attribution work at all.
        if self.profiling {
            self.end_warp_impl::<true>(cfg, stats, cache);
        } else {
            self.end_warp_impl::<false>(cfg, stats, cache);
        }
    }

    fn end_warp_impl<const PROFILE: bool>(
        &mut self,
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        mut cache: Option<&mut crate::cache::CacheModel>,
    ) {
        assert_eq!(
            cfg.segment_bytes, self.segment.bytes,
            "warp folded under a {} B segment config but recorded in {} B segments; \
             call set_geometry before the warp",
            cfg.segment_bytes, self.segment.bytes
        );
        let banks = cfg.shared_banks as u64;
        let bank_mask = banks.is_power_of_two().then(|| banks - 1);
        if self.bank_counts.len() < cfg.shared_banks as usize {
            self.bank_counts.resize(cfg.shared_banks as usize, 0);
        }
        // Move the slot list out so the scratch fields stay borrowable;
        // it is drained (capacity retained) and swapped back below.
        let mut slots = std::mem::take(&mut self.slots);
        for slot in &mut slots {
            // Per-slot contribution, also attributed to the slot's source
            // site when profiling is on.
            let mut delta = SiteStats {
                warp_slots: 1,
                ..Default::default()
            };
            match &mut slot.kind {
                SlotKind::Op {
                    class,
                    max_count,
                    lanes,
                } => {
                    let cost = match class {
                        OpClass::F64 => cfg.f64_issue_cost,
                        _ => 1.0,
                    };
                    stats.issue_cycles += *max_count as f64 * cost;
                    let scalar = *max_count as u64 * *lanes as u64;
                    if PROFILE {
                        delta.issue_cycles = *max_count as f64 * cost;
                        delta.scalar_ops = scalar;
                    }
                    match class {
                        OpClass::Int => stats.int_ops += scalar,
                        OpClass::F32 => stats.flops_f32 += scalar,
                        OpClass::F64 => stats.flops_f64 += scalar,
                    }
                }
                SlotKind::Mem {
                    space,
                    write,
                    bytes_requested,
                    accesses,
                    keys,
                } => {
                    stats.issue_cycles += 1.0;
                    if PROFILE {
                        delta.issue_cycles = 1.0;
                    }
                    match space {
                        Space::Shared => {
                            // Bank conflicts: replays = max number of
                            // *distinct 4-byte words* mapping to one bank.
                            // A word lives on exactly one bank, so global
                            // sort+dedup then per-bank counting gives the
                            // same per-bank distinct-word sets as the
                            // per-bank lists the reference kept.
                            sort_distinct(keys);
                            let bank = |w: u64| match bank_mask {
                                Some(m) => (w & m) as usize,
                                None => (w % banks) as usize,
                            };
                            let mut degree = 1u64;
                            for &w in keys.iter() {
                                let b = bank(w);
                                self.bank_counts[b] += 1;
                                degree = degree.max(self.bank_counts[b] as u64);
                            }
                            for &w in keys.iter() {
                                self.bank_counts[bank(w)] = 0;
                            }
                            stats.shared_accesses += *accesses as u64;
                            stats.shared_replays += degree - 1;
                            // Each replay is an extra issue of this slot.
                            stats.issue_cycles += (degree - 1) as f64;
                            if PROFILE {
                                delta.shared_replays = degree - 1;
                                delta.issue_cycles += (degree - 1) as f64;
                            }
                        }
                        Space::Global | Space::Local => {
                            let tx = match cache.as_deref_mut() {
                                Some(c) => {
                                    // First-touch segment order is
                                    // preserved: the L2 model is stateful,
                                    // so the sequence of `access_segment`
                                    // calls is semantics.
                                    self.segments.clear();
                                    for &s in keys.iter() {
                                        if !self.segments.contains(&s) {
                                            self.segments.push(s);
                                        }
                                    }
                                    let mut misses = 0u64;
                                    for &s in self.segments.iter() {
                                        if c.access_segment(s) {
                                            stats.l2_hits += 1;
                                        } else {
                                            stats.l2_misses += 1;
                                            misses += 1;
                                        }
                                    }
                                    misses
                                }
                                None => {
                                    // Without a cache only the *count* of
                                    // distinct segments matters.
                                    sort_distinct(keys);
                                    keys.len() as u64
                                }
                            };
                            stats.mem_slots += 1;
                            stats.lane_mem_accesses += *accesses as u64;
                            if PROFILE {
                                delta.transactions = tx;
                                delta.bytes_requested = *bytes_requested;
                            }
                            match (*space, *write) {
                                (Space::Global, false) => {
                                    stats.global_load_tx += tx;
                                    stats.global_load_bytes_requested += *bytes_requested;
                                }
                                (Space::Global, true) => {
                                    stats.global_store_tx += tx;
                                    stats.global_store_bytes_requested += *bytes_requested;
                                }
                                (Space::Local, false) => {
                                    stats.local_load_tx += tx;
                                    stats.local_load_bytes_requested += *bytes_requested;
                                }
                                (Space::Local, true) => {
                                    stats.local_store_tx += tx;
                                    stats.local_store_bytes_requested += *bytes_requested;
                                }
                                (Space::Shared, _) => unreachable!(),
                            }
                        }
                    }
                }
                SlotKind::Branch { taken, not_taken } => {
                    stats.issue_cycles += 1.0;
                    stats.branch_slots += 1;
                    stats.lane_branches += (*taken + *not_taken) as u64;
                    if PROFILE {
                        delta.issue_cycles = 1.0;
                        delta.branch_slots = 1;
                    }
                    if *taken > 0 && *not_taken > 0 {
                        stats.divergent_branch_slots += 1;
                        if PROFILE {
                            delta.divergent_branch_slots = 1;
                        }
                    }
                }
                SlotKind::Sync { .. } => {
                    stats.issue_cycles += 1.0;
                    stats.sync_slots += 1;
                    if PROFILE {
                        delta.issue_cycles = 1.0;
                        delta.sync_slots = 1;
                    }
                }
            }
            if PROFILE {
                // Batched attribution: fold the slot's delta into the
                // dense per-site row; the keyed profile is materialized
                // once per block in `take_site_profile`.
                let dense = slot.dense as usize;
                if dense >= self.site_acc.len() {
                    self.site_acc.resize_with(dense + 1, SiteStats::default);
                    self.site_registered.resize(dense + 1, false);
                }
                self.site_acc[dense].merge(&delta);
                if !self.site_registered[dense] {
                    self.site_registered[dense] = true;
                    // First sighting of this site in the profile:
                    // resolve its source position. Sound cast: sites
                    // only enter `slots` through `record_*`, which
                    // takes `&'static Location`.
                    let loc = unsafe { &*(slot.site as *const Location<'static>) };
                    crate::trace::register_site(slot.site, loc);
                }
            }
        }
        stats.warp_slots += slots.len() as u64;
        stats.warps += 1;
        stats.lanes += self.lanes_seen as u64;
        // Reset the occurrence → slot table and recycle key vectors.
        for slot in slots.drain(..) {
            self.slot_of[slot.dense as usize][slot.occ as usize] = u32::MAX;
            if let SlotKind::Mem { mut keys, .. } = slot.kind {
                keys.clear();
                self.key_pool.push(keys);
            }
        }
        self.slots = slots;
        self.lanes_seen = 0;
    }
}

/// Sorts `keys` into its distinct values. Record-time folding already
/// dropped consecutive repeats, so a list that is sorted is distinct and
/// coalesced slots — the common case — skip the sort.
fn sort_distinct(keys: &mut Vec<u64>) {
    if !keys.is_sorted() {
        keys.sort_unstable();
        keys.dedup();
    }
}

impl Default for WarpAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Site;

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c2075()
    }

    /// Helper: run `f(lane, acc)` for `n` lanes and flush.
    fn run_warp(n: u32, mut f: impl FnMut(u32, &mut WarpAccumulator)) -> KernelStats {
        let mut acc = WarpAccumulator::new();
        let mut stats = KernelStats::default();
        for lane in 0..n {
            acc.begin_lane();
            f(lane, &mut acc);
        }
        acc.end_warp(&cfg(), &mut stats);
        stats
    }

    // Two distinct real call sites: the typed `record_*` API requires
    // genuine `Location`s (their addresses are the site keys).
    fn site_a() -> &'static Location<'static> {
        Location::caller()
    }
    fn site_b() -> &'static Location<'static> {
        Location::caller()
    }

    fn sid(loc: &'static Location<'static>) -> Site {
        loc as *const _ as usize
    }

    #[test]
    fn coalesced_f64_warp_access_is_two_transactions() {
        // 32 lanes x 8 B contiguous = 256 B = 2 x 128 B segments.
        let stats = run_warp(32, |lane, acc| {
            acc.record_mem(site_a(), Space::Global, false, lane as u64 * 8, 8);
        });
        assert_eq!(stats.global_load_tx, 2);
        assert_eq!(stats.global_load_bytes_requested, 256);
        assert!((stats.gld_efficiency(&cfg()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_aos_access_explodes_transactions() {
        // Stride 72 B (3 Gaussians x 3 f64 params, AoS): 32 lanes span
        // 32*72 = 2304 B => 18-19 segments.
        let stats = run_warp(32, |lane, acc| {
            acc.record_mem(site_a(), Space::Global, true, lane as u64 * 72, 8);
        });
        assert!(
            stats.global_store_tx >= 18,
            "tx = {}",
            stats.global_store_tx
        );
        let eff = stats.gst_efficiency(&cfg());
        assert!(eff < 0.15, "efficiency {eff} should be poor");
    }

    #[test]
    fn u8_coalesced_access_is_one_quarter_efficient() {
        let stats = run_warp(32, |lane, acc| {
            acc.record_mem(site_a(), Space::Global, false, lane as u64, 1);
        });
        assert_eq!(stats.global_load_tx, 1);
        assert!((stats.gld_efficiency(&cfg()) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uniform_branch_is_not_divergent() {
        let stats = run_warp(32, |_, acc| {
            acc.record_branch(site_a(), true);
        });
        assert_eq!(stats.branch_slots, 1);
        assert_eq!(stats.divergent_branch_slots, 0);
        assert!((stats.branch_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_branch_is_divergent() {
        let stats = run_warp(32, |lane, acc| {
            acc.record_branch(site_a(), lane % 2 == 0);
        });
        assert_eq!(stats.branch_slots, 1);
        assert_eq!(stats.divergent_branch_slots, 1);
        assert_eq!(stats.branch_efficiency(), 0.0);
    }

    #[test]
    fn divergent_paths_serialize_into_extra_slots() {
        // Half the lanes do work at site_a(), half at site_b(): both slots
        // must be issued (serialization).
        let stats = run_warp(32, |lane, acc| {
            if lane < 16 {
                acc.record_op(site_a(), OpClass::F32, 4);
            } else {
                acc.record_op(site_b(), OpClass::F32, 4);
            }
        });
        assert_eq!(stats.warp_slots, 2);
        assert!((stats.issue_cycles - 8.0).abs() < 1e-12);
        // Scalar FLOP count still reflects actual work: 32 lanes x 4.
        assert_eq!(stats.flops_f32, 128);
    }

    #[test]
    fn f64_ops_cost_double_issue() {
        let s32 = run_warp(32, |_, acc| acc.record_op(site_a(), OpClass::F32, 10));
        let s64 = run_warp(32, |_, acc| acc.record_op(site_a(), OpClass::F64, 10));
        assert!((s64.issue_cycles - 2.0 * s32.issue_cycles).abs() < 1e-12);
    }

    #[test]
    fn loop_iterations_occupy_distinct_slots() {
        // Each lane executes the same site 3 times: occurrences align
        // across lanes => 3 slots, not 1 or 96.
        let stats = run_warp(32, |_, acc| {
            for _ in 0..3 {
                acc.record_op(site_a(), OpClass::Int, 1);
            }
        });
        assert_eq!(stats.warp_slots, 3);
        assert_eq!(stats.int_ops, 96);
    }

    #[test]
    fn shared_conflict_free_access() {
        // Lane i -> word i: all 32 banks hit once.
        let stats = run_warp(32, |lane, acc| {
            acc.record_mem(site_a(), Space::Shared, false, lane as u64 * 4, 4);
        });
        assert_eq!(stats.shared_accesses, 32);
        assert_eq!(stats.shared_replays, 0);
    }

    #[test]
    fn shared_two_way_bank_conflict() {
        // Lane i -> word 2*i: banks 0,2,4,... each hit twice => 1 replay.
        let stats = run_warp(32, |lane, acc| {
            acc.record_mem(site_a(), Space::Shared, false, lane as u64 * 8, 4);
        });
        assert_eq!(stats.shared_replays, 1);
    }

    #[test]
    fn shared_broadcast_is_conflict_free() {
        // All lanes read the same word: broadcast, no replay.
        let stats = run_warp(32, |_, acc| {
            acc.record_mem(site_a(), Space::Shared, false, 64, 4);
        });
        assert_eq!(stats.shared_replays, 0);
    }

    #[test]
    fn local_space_counted_separately() {
        let stats = run_warp(32, |lane, acc| {
            acc.record_mem(site_a(), Space::Local, true, lane as u64 * 8, 8);
        });
        assert_eq!(stats.local_store_tx, 2);
        assert_eq!(stats.global_store_tx, 0);
    }

    #[test]
    fn site_profile_attributes_slots_to_sites() {
        let mut acc = WarpAccumulator::with_site_profile();
        let mut stats = KernelStats::default();
        for lane in 0..32 {
            acc.begin_lane();
            // site_a(): divergent branch; site_b(): coalesced f64 store.
            acc.record_branch(site_a(), lane % 2 == 0);
            acc.record_mem(site_b(), Space::Global, true, lane as u64 * 8, 8);
        }
        acc.end_warp(&cfg(), &mut stats);
        let profile = acc.take_site_profile().unwrap();
        assert_eq!(profile.len(), 2);
        let a = profile.get(sid(site_a())).unwrap();
        assert_eq!(a.branch_slots, 1);
        assert_eq!(a.divergent_branch_slots, 1);
        assert_eq!(a.transactions, 0);
        let b = profile.get(sid(site_b())).unwrap();
        assert_eq!(b.transactions, 2); // 256 B coalesced = 2 segments
        assert_eq!(b.bytes_requested, 256);
        assert_eq!(b.branch_slots, 0);
        // Site totals must sum to the whole-kernel counters.
        assert_eq!(a.transactions + b.transactions, stats.total_tx());
        assert!((a.issue_cycles + b.issue_cycles - stats.issue_cycles).abs() < 1e-12);
    }

    #[test]
    fn site_profile_absent_by_default() {
        let mut acc = WarpAccumulator::new();
        let mut stats = KernelStats::default();
        acc.begin_lane();
        acc.record_op(site_a(), OpClass::Int, 1);
        acc.end_warp(&cfg(), &mut stats);
        assert!(acc.take_site_profile().is_none());
    }

    #[test]
    fn site_profile_survives_multiple_warps() {
        let mut acc = WarpAccumulator::with_site_profile();
        let mut stats = KernelStats::default();
        for _warp in 0..3 {
            for _lane in 0..32 {
                acc.begin_lane();
                acc.record_op(site_a(), OpClass::F64, 2);
            }
            acc.end_warp(&cfg(), &mut stats);
        }
        let profile = acc.take_site_profile().unwrap();
        let a = profile.get(sid(site_a())).unwrap();
        assert_eq!(a.warp_slots, 3);
        assert_eq!(a.scalar_ops, 3 * 32 * 2);
    }

    #[test]
    fn partial_warp_counts_lanes() {
        let stats = run_warp(7, |lane, acc| {
            acc.record_mem(site_a(), Space::Global, false, lane as u64 * 8, 8);
        });
        assert_eq!(stats.lanes, 7);
        assert_eq!(stats.global_load_tx, 1); // 56 B within one segment
    }

    /// Keys are recorded in the segment size of the config the
    /// accumulator was set to; folding under another is refused instead
    /// of counting the wrong segments.
    #[test]
    fn end_warp_rejects_a_config_with_another_segment_size() {
        let mut acc = WarpAccumulator::new();
        let mut stats = KernelStats::default();
        acc.begin_lane();
        acc.record_mem(site_a(), Space::Global, false, 0, 8);
        let wide = GpuConfig {
            segment_bytes: 256,
            ..cfg()
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            acc.end_warp(&wide, &mut stats)
        }));
        assert!(r.is_err(), "a 256 B fold of 128 B keys must be refused");
    }

    /// Segment and bank counts that are not powers of two take the
    /// division path and count exactly what the definition says.
    #[test]
    fn non_power_of_two_geometry_folds_by_division() {
        let odd = GpuConfig {
            segment_bytes: 96,
            shared_banks: 24,
            ..cfg()
        };
        let mut acc = WarpAccumulator::new();
        acc.set_geometry(&odd);
        let mut stats = KernelStats::default();
        for lane in 0..32u64 {
            acc.begin_lane();
            acc.record_mem(site_a(), Space::Global, false, lane * 12 + 5, 8);
            acc.record_mem(site_b(), Space::Shared, false, lane * 8, 4);
        }
        acc.end_warp(&odd, &mut stats);
        let segments: std::collections::BTreeSet<u64> = (0..32u64)
            .flat_map(|l| [(l * 12 + 5) / 96, (l * 12 + 12) / 96])
            .collect();
        assert_eq!(stats.global_load_tx, segments.len() as u64);
        // Lane l reads word 2l, on bank 2l % 24.
        let mut per_bank = [0u64; 24];
        for l in 0..32 {
            per_bank[(2 * l) % 24] += 1;
        }
        assert_eq!(stats.shared_replays, per_bank.iter().max().unwrap() - 1);
    }

    #[test]
    fn accumulator_reuse_across_warps_is_clean() {
        // The SoA tables persist across warps (occurrence resets, slot
        // table un-set, access vectors pooled): a second identical warp
        // must fold identical statistics.
        let mut acc = WarpAccumulator::new();
        let mut first = KernelStats::default();
        let mut second = KernelStats::default();
        for (warp, stats) in [&mut first, &mut second].into_iter().enumerate() {
            for lane in 0..32u32 {
                acc.begin_lane();
                for i in 0..3 {
                    acc.record_op(site_a(), OpClass::Int, i + 1);
                }
                acc.record_mem(site_b(), Space::Global, warp == 1, lane as u64 * 8, 8);
                acc.record_branch(site_a(), lane < 16);
            }
            acc.end_warp(&cfg(), stats);
        }
        assert_eq!(first.warp_slots, second.warp_slots);
        assert_eq!(first.int_ops, second.int_ops);
        assert_eq!(first.global_load_tx, second.global_store_tx);
        assert_eq!(first.branch_slots, 1);
        assert_eq!(second.divergent_branch_slots, 1);
    }
}
