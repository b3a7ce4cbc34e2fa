//! Warp-level slot accumulation: merging the 32 lanes of a warp into
//! warp instructions and deriving coalescing / divergence / bank-conflict
//! statistics.
//!
//! This is the simulator's hottest data structure — every recorded event
//! of every lane passes through it — so it is laid out
//! structure-of-arrays style around dense site indices: a
//! [`SiteInterner`] maps `&'static Location` addresses to small integers
//! once, and from then on the per-lane occurrence counters and the
//! occurrence → slot table are flat arrays indexed directly.
//!
//! The slot table is a *template* kept across the warps of a launch:
//! consecutive warps run the same kernel, so their lanes replay the same
//! slots in the same order, and a warp only stamps the slots it touches
//! with its epoch and lists them in first-touch order. The fold walks
//! that list, which is the order a fresh table would have created the
//! slots in. A lane that replays the template in order is recognised by
//! comparing each event's site at a cursor — no hashing, no occurrence
//! counting (see `WarpAccumulator::hit`) — on a path inlined into every
//! `record_*` call. A memory slot does not keep its lanes' raw accesses:
//! as each lane records, the access is turned into the segments (or
//! shared bank words) it touches and a key is pushed only when it
//! differs from the slot's last one, so the warp-end fold sees short,
//! usually already sorted key lists.
//!
//! Statistics semantics are pinned bit-for-bit against the pre-SoA
//! implementation preserved in `tests/support/warp_reference.rs`; see
//! `tests/soa_equivalence.rs`.

use crate::config::GpuConfig;
use crate::profile::{SiteProfile, SiteStats};
use crate::stats::KernelStats;
use crate::trace::{OpClass, Site, SiteInterner, Space};
use std::panic::Location;

/// One warp-level instruction slot of the template.
#[derive(Debug)]
struct Slot {
    /// Original site pointer (for profile attribution).
    site: Site,
    /// Dense site index.
    dense: u32,
    /// Per-lane occurrence index this slot represents.
    occ: u32,
    /// Epoch of the last warp that touched the slot. Any other value
    /// than the current warp's means `kind` holds an earlier warp's
    /// counters, which the first touch of this warp overwrites.
    epoch: u32,
    kind: SlotKind,
}

#[derive(Debug)]
pub(crate) enum SlotKind {
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
/// Lanes execute sequentially; [`WarpAccumulator::begin_lane`] rewinds
/// the lane cursor, and [`WarpAccumulator::end_warp`] folds the slots
/// the warp touched and opens the next warp's epoch.
#[derive(Debug)]
pub struct WarpAccumulator {
    interner: SiteInterner,
    /// Per dense site: the current lane's occurrence counter. Maintained
    /// only once the lane has left the template's order; see `in_order`.
    occ: Vec<u32>,
    /// Per dense site: occurrence → template slot index. Row `d` holds
    /// exactly one entry per slot of site `d`, in occurrence order.
    slot_of: Vec<Vec<u32>>,
    /// The template: every slot created since the last
    /// [`WarpAccumulator::reset_template`], in creation order. Slot
    /// `(s, k)` is created only after `(s, 0..k)`, so exactly `k` slots
    /// of site `s` precede it (the prefix invariant).
    slots: Vec<Slot>,
    /// Indices of the slots the current warp touched, in first-touch
    /// order: the order the fold visits them in.
    touched: Vec<u32>,
    /// The current warp's epoch; never [`NEVER`].
    epoch: u32,
    /// Predicted slot index of the current lane's next event. Lanes of a
    /// warp usually replay the template in program order, so the common
    /// case is a site check against `slots[cursor]`.
    cursor: u32,
    /// Whether every event of the current lane so far matched
    /// `slots[0..cursor]` one by one. Such a lane's occurrence count of a
    /// site is that prefix's count of it, so by the prefix invariant a
    /// site match at the cursor is also an occurrence match and `occ`
    /// need not be kept. The first miss materializes `occ` from the
    /// prefix and clears the flag.
    in_order: bool,
    lanes_seen: u32,
    /// Recycled key vectors for `SlotKind::Mem`, refilled when a slot
    /// changes kind or the template is dropped, so steady-state
    /// recording never allocates.
    key_pool: Vec<Vec<u64>>,
    /// The warp-end fold, shared with the lockstep executor.
    fold: SlotFold,
}

/// Epoch value no warp has: the stamp of a slot not yet touched.
const NEVER: u32 = 0;

/// Bytes per shared-memory bank word.
const BANK_WORD_BYTES: u64 = 4;

/// Segment size every shipped [`GpuConfig`] uses (the Fermi L1 line);
/// [`WarpAccumulator::new`] records in it until
/// [`WarpAccumulator::set_geometry`] says otherwise.
const DEFAULT_SEGMENT_BYTES: u64 = 128;

/// Address → segment index for one segment size: a shift when the size
/// is a power of two, a division otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentGeometry {
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

    /// The first and last key an access of `width` bytes at `addr` in
    /// `space` touches.
    #[inline(always)]
    pub(crate) fn key_range(self, space: Space, addr: u64, width: u8) -> (u64, u64) {
        let end = addr + width.max(1) as u64 - 1;
        match (space, self.shift) {
            (Space::Shared, _) => (addr / BANK_WORD_BYTES, end / BANK_WORD_BYTES),
            (_, Some(s)) => (addr >> s, end >> s),
            (_, None) => (addr / self.bytes, end / self.bytes),
        }
    }

    /// Appends the keys an access of `width` bytes at `addr` in `space`
    /// touches — segments for global/local, bank words for shared —
    /// skipping each key equal to the last one pushed.
    #[inline(always)]
    fn push_keys(self, space: Space, addr: u64, width: u8, keys: &mut Vec<u64>) {
        let (first, last) = self.key_range(space, addr, width);
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
            touched: Vec::new(),
            epoch: NEVER + 1,
            cursor: 0,
            in_order: true,
            lanes_seen: 0,
            key_pool: Vec::new(),
            fold: SlotFold::new(),
        }
    }

    /// Creates an accumulator that additionally attributes every slot's
    /// counters to its source site.
    pub fn with_site_profile() -> Self {
        let mut acc = Self::new();
        acc.fold.set_profiling(true);
        acc
    }

    /// Takes the accumulated per-site profile (if site profiling was
    /// enabled), leaving an empty one behind.
    ///
    /// This is where the dense per-site accumulator is materialized into
    /// a keyed [`SiteProfile`] — once per block, not once per warp slot.
    pub fn take_site_profile(&mut self) -> Option<SiteProfile> {
        self.fold.take_site_profile(&self.interner)
    }

    /// Switches site profiling on or off — used when a pooled accumulator
    /// is reused by a launch with different [`crate::kernel::LaunchOptions`].
    /// Turning it on starts from an empty profile.
    pub fn set_profiling(&mut self, on: bool) {
        self.fold.set_profiling(on);
    }

    /// Records global/local accesses in `cfg`'s segment size from the
    /// next warp on; [`WarpAccumulator::end_warp`] rejects any other
    /// config. Call it between warps, never with slots pending.
    pub fn set_geometry(&mut self, cfg: &GpuConfig) {
        debug_assert!(self.touched.is_empty(), "geometry changed mid-warp");
        self.fold.set_geometry(cfg);
    }

    /// Drops the slot template, so the next warp builds one from its own
    /// lanes — call it before warps of another kernel, whose sites would
    /// never match. Call it between warps.
    pub(crate) fn reset_template(&mut self) {
        debug_assert!(self.touched.is_empty(), "template dropped mid-warp");
        for slot in self.slots.drain(..) {
            if let SlotKind::Mem { mut keys, .. } = slot.kind {
                keys.clear();
                self.key_pool.push(keys);
            }
        }
        for row in &mut self.slot_of {
            row.clear();
        }
        self.cursor = 0;
        self.in_order = true;
    }

    /// Starts recording a new lane of the current warp.
    pub fn begin_lane(&mut self) {
        self.cursor = 0;
        self.in_order = true;
        self.lanes_seen += 1;
    }

    /// The hit path: the slot the current lane's event at `site`
    /// accumulates into, when the slot at the cursor is this event's and
    /// the warp has already touched it. Anything else — a first touch, a
    /// lane off the template's order, a new slot — returns `None` for
    /// [`WarpAccumulator::locate_slow`].
    ///
    /// An in-order lane needs only the site compared: it has matched
    /// `slots[0..cursor]`, so its occurrence of `site` is the number of
    /// `site` slots in that prefix, which is `slots[cursor].occ` by the
    /// prefix invariant. A lane that left order compares its occurrence
    /// counter too, and stays on this path while the prediction holds.
    #[inline(always)]
    fn hit(&mut self, site: Site) -> Option<usize> {
        let cur = self.cursor as usize;
        let slot = self.slots.get(cur)?;
        if slot.site != site || slot.epoch != self.epoch {
            return None;
        }
        if !self.in_order {
            let occ = &mut self.occ[slot.dense as usize];
            if *occ != slot.occ {
                return None;
            }
            *occ += 1;
        }
        self.cursor = cur as u32 + 1;
        Some(cur)
    }

    /// The slow path of [`WarpAccumulator::hit`]: finds or creates the
    /// slot of the current lane's event at `site` and moves the cursor
    /// past it. On the warp's first touch of the slot it installs `fresh`
    /// as the slot's kind (empty counters; a `Mem` kind gets a pooled key
    /// vector), stamps the epoch and appends the slot to `touched`.
    #[inline(never)]
    fn locate_slow(&mut self, site: Site, fresh: SlotKind) -> usize {
        let cur = self.cursor as usize;
        let ix = if self.in_order && self.slots.get(cur).is_some_and(|s| s.site == site) {
            // In order; the hit path missed on the epoch alone.
            cur
        } else {
            let dense = self.intern(site);
            let occ = if self.in_order && cur == self.slots.len() {
                // In order past the template's end: the lane has matched
                // every slot, so it has seen all of `site`'s occurrences
                // and this one is new — appended at `cur`, in order.
                self.slot_of[dense].len() as u32
            } else {
                if self.in_order {
                    self.leave_order();
                }
                let occ = self.occ[dense];
                self.occ[dense] = occ + 1;
                occ
            };
            match self.slot_of[dense].get(occ as usize) {
                Some(&ix) => ix as usize,
                None => {
                    // `occ` equals the row length: the lane reached every
                    // earlier occurrence of `site`, so the prefix
                    // invariant holds for the appended slot.
                    let ix = self.slots.len();
                    self.slot_of[dense].push(ix as u32);
                    self.slots.push(Slot {
                        site,
                        dense: dense as u32,
                        occ,
                        epoch: NEVER,
                        kind: SlotKind::Sync { lanes: 0 },
                    });
                    ix
                }
            }
        };
        self.cursor = ix as u32 + 1;
        if self.slots[ix].epoch != self.epoch {
            self.slots[ix].epoch = self.epoch;
            self.touched.push(ix as u32);
            let old = std::mem::replace(&mut self.slots[ix].kind, fresh);
            if let SlotKind::Mem { mut keys, .. } = old {
                keys.clear();
                self.key_pool.push(keys);
            }
            if let SlotKind::Mem { keys, .. } = &mut self.slots[ix].kind {
                *keys = self
                    .key_pool
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(32));
            }
        }
        ix
    }

    /// Dense index of `site`, growing the per-site tables on first sight.
    fn intern(&mut self, site: Site) -> usize {
        let dense = self.interner.intern(site) as usize;
        if dense >= self.occ.len() {
            self.occ.resize(dense + 1, 0);
            self.slot_of.resize_with(dense + 1, Vec::new);
        }
        dense
    }

    /// Takes the current lane off the in-order path: its occurrence
    /// counters become the per-site slot counts of the prefix it matched.
    fn leave_order(&mut self) {
        self.occ.fill(0);
        for slot in &self.slots[..self.cursor as usize] {
            self.occ[slot.dense as usize] += 1;
        }
        self.in_order = false;
    }

    /// Records `count` arithmetic operations of `class`.
    #[inline(always)]
    pub fn record_op(&mut self, loc: &'static Location<'static>, class: OpClass, count: u32) {
        let site = loc as *const _ as usize;
        let ix = match self.hit(site) {
            Some(ix) => ix,
            None => self.locate_slow(
                site,
                SlotKind::Op {
                    class,
                    max_count: 0,
                    lanes: 0,
                },
            ),
        };
        match &mut self.slots[ix].kind {
            SlotKind::Op {
                max_count, lanes, ..
            } => {
                *max_count = (*max_count).max(count);
                *lanes += 1;
            }
            other => debug_assert!(false, "slot kind mismatch at op slot: {other:?}"),
        }
    }

    /// Records a memory access of `width` bytes at `addr` in `space`.
    #[inline(always)]
    pub fn record_mem(
        &mut self,
        loc: &'static Location<'static>,
        space: Space,
        write: bool,
        addr: u64,
        width: u8,
    ) {
        let site = loc as *const _ as usize;
        let segment = self.fold.segment;
        let ix = match self.hit(site) {
            Some(ix) => ix,
            None => self.locate_slow(
                site,
                SlotKind::Mem {
                    space,
                    write,
                    bytes_requested: 0,
                    accesses: 0,
                    keys: Vec::new(),
                },
            ),
        };
        match &mut self.slots[ix].kind {
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
        }
    }

    /// Records a data-dependent branch outcome.
    #[inline(always)]
    pub fn record_branch(&mut self, loc: &'static Location<'static>, taken: bool) {
        let site = loc as *const _ as usize;
        let ix = match self.hit(site) {
            Some(ix) => ix,
            None => self.locate_slow(
                site,
                SlotKind::Branch {
                    taken: 0,
                    not_taken: 0,
                },
            ),
        };
        match &mut self.slots[ix].kind {
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
        }
    }

    /// Records a `__syncthreads()`-style barrier.
    #[inline(always)]
    pub fn record_sync(&mut self, loc: &'static Location<'static>) {
        let site = loc as *const _ as usize;
        let ix = match self.hit(site) {
            Some(ix) => ix,
            None => self.locate_slow(site, SlotKind::Sync { lanes: 0 }),
        };
        match &mut self.slots[ix].kind {
            SlotKind::Sync { lanes } => *lanes += 1,
            other => debug_assert!(false, "slot kind mismatch at sync slot: {other:?}"),
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
        if self.fold.profiling {
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
        self.fold.begin(cfg);
        // Visit the touched slots in first-touch order — the order a
        // fresh table would have created them in, which the stateful L2
        // model and the f64 sums depend on. Untouched template slots hold
        // an earlier warp's counters and add nothing.
        for &ix in &self.touched {
            let slot = &mut self.slots[ix as usize];
            let delta = match &mut slot.kind {
                SlotKind::Op {
                    class,
                    max_count,
                    lanes,
                } => SlotFold::op::<PROFILE>(cfg, stats, *class, *max_count, *lanes),
                SlotKind::Mem {
                    space,
                    write,
                    bytes_requested,
                    accesses,
                    keys,
                } => self.fold.mem::<PROFILE>(
                    cfg,
                    stats,
                    cache.as_deref_mut(),
                    MemSlot {
                        space: *space,
                        write: *write,
                        bytes_requested: *bytes_requested,
                        accesses: *accesses,
                    },
                    keys,
                ),
                SlotKind::Branch { taken, not_taken } => {
                    SlotFold::branch::<PROFILE>(stats, *taken, *not_taken)
                }
                SlotKind::Sync { .. } => SlotFold::sync::<PROFILE>(stats),
            };
            if PROFILE {
                self.fold.attribute(slot.site, slot.dense, &delta);
            }
        }
        stats.warp_slots += self.touched.len() as u64;
        stats.warps += 1;
        stats.lanes += self.lanes_seen as u64;
        self.touched.clear();
        self.lanes_seen = 0;
        // Open the next warp's epoch. On wrap-around every slot is marked
        // untouched so no stale stamp can equal a future epoch.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == NEVER {
            for slot in &mut self.slots {
                slot.epoch = NEVER;
            }
            self.epoch = NEVER + 1;
        }
    }
}

/// The scalar fields of a memory slot the fold reads besides its keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemSlot {
    pub(crate) space: Space,
    pub(crate) write: bool,
    pub(crate) bytes_requested: u64,
    pub(crate) accesses: u32,
}

/// The warp-end fold of merged slots into [`KernelStats`] and the
/// per-site profile. Both executors own one: the lane accumulator feeds
/// it the template slots a warp touched, the lockstep recorder
/// ([`crate::lockstep`]) the slots its warp instructions built. Callers
/// visit slots in per-lane first-touch order; this type never reorders.
#[derive(Debug)]
pub(crate) struct SlotFold {
    /// Whether per-site attribution is on (off by default).
    profiling: bool,
    /// Per dense site: batched attribution accumulator. Indexed by the
    /// owner's dense site index, so the profiled warp-end path is a plain
    /// vector add instead of a per-slot hash probe; materialized into a
    /// [`SiteProfile`] only in [`SlotFold::take_site_profile`].
    site_acc: Vec<SiteStats>,
    /// Per dense site: whether the site was already registered with the
    /// global source-location registry (registration is idempotent, the
    /// flag just avoids re-taking the registry lock per warp).
    site_registered: Vec<bool>,
    /// Segment size the keys of global/local slots are recorded in.
    pub(crate) segment: SegmentGeometry,
    /// Scratch: first-touch-ordered segment list of one slot.
    segments: Vec<u64>,
    /// Scratch: distinct-word counts per shared bank.
    bank_counts: Vec<u32>,
}

impl SlotFold {
    pub(crate) fn new() -> Self {
        SlotFold {
            profiling: false,
            site_acc: Vec::new(),
            site_registered: Vec::new(),
            segment: SegmentGeometry::new(DEFAULT_SEGMENT_BYTES),
            segments: Vec::with_capacity(64),
            bank_counts: Vec::new(),
        }
    }

    pub(crate) fn profiling(&self) -> bool {
        self.profiling
    }

    /// See [`WarpAccumulator::set_profiling`].
    pub(crate) fn set_profiling(&mut self, on: bool) {
        if on && !self.profiling {
            self.site_acc.fill_with(SiteStats::default);
        }
        self.profiling = on;
    }

    /// See [`WarpAccumulator::set_geometry`].
    pub(crate) fn set_geometry(&mut self, cfg: &GpuConfig) {
        if self.segment.bytes != cfg.segment_bytes {
            self.segment = SegmentGeometry::new(cfg.segment_bytes);
        }
    }

    /// See [`WarpAccumulator::take_site_profile`]; `interner` maps the
    /// owner's dense site indices back to sites.
    pub(crate) fn take_site_profile(&mut self, interner: &SiteInterner) -> Option<SiteProfile> {
        if !self.profiling {
            return None;
        }
        let mut profile = SiteProfile::new();
        for (dense, acc) in self.site_acc.iter_mut().enumerate() {
            // Sites the profiled warps never touched keep the default
            // all-zero entry; every touched site has `warp_slots >= 1`.
            if acc.warp_slots > 0 {
                profile.add(interner.site(dense as u32), acc);
                *acc = SiteStats::default();
            }
        }
        Some(profile)
    }

    /// Checks `cfg` against the recorded geometry and sizes the bank
    /// scratch; call once per warp before its slots.
    pub(crate) fn begin(&mut self, cfg: &GpuConfig) {
        assert_eq!(
            cfg.segment_bytes, self.segment.bytes,
            "warp folded under a {} B segment config but recorded in {} B segments; \
             call set_geometry before the warp",
            cfg.segment_bytes, self.segment.bytes
        );
        if self.bank_counts.len() < cfg.shared_banks as usize {
            self.bank_counts.resize(cfg.shared_banks as usize, 0);
        }
    }

    /// Folds an arithmetic slot; returns its per-site contribution.
    #[inline]
    pub(crate) fn op<const PROFILE: bool>(
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        class: OpClass,
        max_count: u32,
        lanes: u32,
    ) -> SiteStats {
        let mut delta = SiteStats {
            warp_slots: 1,
            ..Default::default()
        };
        let cost = match class {
            OpClass::F64 => cfg.f64_issue_cost,
            _ => 1.0,
        };
        stats.issue_cycles += max_count as f64 * cost;
        let scalar = max_count as u64 * lanes as u64;
        if PROFILE {
            delta.issue_cycles = max_count as f64 * cost;
            delta.scalar_ops = scalar;
        }
        match class {
            OpClass::Int => stats.int_ops += scalar,
            OpClass::F32 => stats.flops_f32 += scalar,
            OpClass::F64 => stats.flops_f64 += scalar,
        }
        delta
    }

    /// Folds a memory slot whose `keys` are its lanes' segments (or
    /// shared bank words) in lane order, consecutive repeats dropped.
    pub(crate) fn mem<const PROFILE: bool>(
        &mut self,
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        cache: Option<&mut crate::cache::CacheModel>,
        slot: MemSlot,
        keys: &mut Vec<u64>,
    ) -> SiteStats {
        let mut delta = SiteStats {
            warp_slots: 1,
            ..Default::default()
        };
        stats.issue_cycles += 1.0;
        if PROFILE {
            delta.issue_cycles = 1.0;
        }
        match slot.space {
            Space::Shared => {
                // Bank conflicts: replays = max number of *distinct
                // 4-byte words* mapping to one bank. A word lives on
                // exactly one bank, so global sort+dedup then per-bank
                // counting gives the same per-bank distinct-word sets as
                // the per-bank lists the reference kept.
                sort_distinct(keys);
                let banks = cfg.shared_banks as u64;
                let bank_mask = banks.is_power_of_two().then(|| banks - 1);
                let bank = |w: u64| match bank_mask {
                    Some(m) => (w & m) as usize,
                    None => (w % banks) as usize,
                };
                let mut degree = 1u64;
                let counts = &mut self.bank_counts[..banks as usize];
                for &w in keys.iter() {
                    let c = &mut counts[bank(w)];
                    *c += 1;
                    degree = degree.max(*c as u64);
                }
                counts.fill(0);
                stats.shared_accesses += slot.accesses as u64;
                stats.shared_replays += degree - 1;
                // Each replay is an extra issue of this slot.
                stats.issue_cycles += (degree - 1) as f64;
                if PROFILE {
                    delta.shared_replays = degree - 1;
                    delta.issue_cycles += (degree - 1) as f64;
                }
            }
            Space::Global | Space::Local => {
                let tx = match cache {
                    Some(c) => {
                        // First-touch segment order is preserved: the L2
                        // model is stateful, so the sequence of
                        // `access_segment` calls is semantics.
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
                    // Without a cache only the *count* of distinct
                    // segments matters.
                    None => {
                        sort_distinct(keys);
                        keys.len() as u64
                    }
                };
                stats.mem_slots += 1;
                stats.lane_mem_accesses += slot.accesses as u64;
                if PROFILE {
                    delta.transactions = tx;
                    delta.bytes_requested = slot.bytes_requested;
                }
                let bytes = slot.bytes_requested;
                match (slot.space, slot.write) {
                    (Space::Global, false) => {
                        stats.global_load_tx += tx;
                        stats.global_load_bytes_requested += bytes;
                    }
                    (Space::Global, true) => {
                        stats.global_store_tx += tx;
                        stats.global_store_bytes_requested += bytes;
                    }
                    (Space::Local, false) => {
                        stats.local_load_tx += tx;
                        stats.local_load_bytes_requested += bytes;
                    }
                    (Space::Local, true) => {
                        stats.local_store_tx += tx;
                        stats.local_store_bytes_requested += bytes;
                    }
                    (Space::Shared, _) => unreachable!(),
                }
            }
        }
        delta
    }

    /// Folds a branch slot.
    #[inline]
    pub(crate) fn branch<const PROFILE: bool>(
        stats: &mut KernelStats,
        taken: u32,
        not_taken: u32,
    ) -> SiteStats {
        let mut delta = SiteStats {
            warp_slots: 1,
            ..Default::default()
        };
        stats.issue_cycles += 1.0;
        stats.branch_slots += 1;
        stats.lane_branches += (taken + not_taken) as u64;
        if PROFILE {
            delta.issue_cycles = 1.0;
            delta.branch_slots = 1;
        }
        if taken > 0 && not_taken > 0 {
            stats.divergent_branch_slots += 1;
            if PROFILE {
                delta.divergent_branch_slots = 1;
            }
        }
        delta
    }

    /// Folds a barrier slot.
    #[inline]
    pub(crate) fn sync<const PROFILE: bool>(stats: &mut KernelStats) -> SiteStats {
        stats.issue_cycles += 1.0;
        stats.sync_slots += 1;
        let mut delta = SiteStats {
            warp_slots: 1,
            ..Default::default()
        };
        if PROFILE {
            delta.issue_cycles = 1.0;
            delta.sync_slots = 1;
        }
        delta
    }

    /// Batched attribution: folds a slot's `delta` into the dense
    /// per-site row of `site`; the keyed profile is materialized once per
    /// block in [`SlotFold::take_site_profile`].
    pub(crate) fn attribute(&mut self, site: Site, dense: u32, delta: &SiteStats) {
        let dense = dense as usize;
        if dense >= self.site_acc.len() {
            self.site_acc.resize_with(dense + 1, SiteStats::default);
            self.site_registered.resize(dense + 1, false);
        }
        self.site_acc[dense].merge(delta);
        if !self.site_registered[dense] {
            self.site_registered[dense] = true;
            // First sighting of this site in the profile: resolve its
            // source position. Sound cast: sites only enter a fold
            // through `record_*` or a lockstep instruction, both of which
            // take `&'static Location`.
            let loc = unsafe { &*(site as *const Location<'static>) };
            crate::trace::register_site(site, loc);
        }
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
    use crate::cache::CacheModel;
    use crate::trace::Site;

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c2075()
    }

    /// Helper: run `f(lane, acc)` for `n` lanes and flush.
    fn run_warp(n: u32, f: impl FnMut(u32, &mut WarpAccumulator)) -> KernelStats {
        warp_on(&mut WarpAccumulator::new(), n, f, None)
    }

    /// Runs one warp of `n` lanes of `f` on `acc` and returns its stats.
    fn warp_on(
        acc: &mut WarpAccumulator,
        n: u32,
        mut f: impl FnMut(u32, &mut WarpAccumulator),
        cache: Option<&mut CacheModel>,
    ) -> KernelStats {
        let mut stats = KernelStats::default();
        for lane in 0..n {
            acc.begin_lane();
            f(lane, acc);
        }
        acc.end_warp_cached(&cfg(), &mut stats, cache);
        stats
    }

    // Distinct real call sites: the typed `record_*` API requires
    // genuine `Location`s (their addresses are the site keys).
    fn site_a() -> &'static Location<'static> {
        Location::caller()
    }
    fn site_b() -> &'static Location<'static> {
        Location::caller()
    }
    fn site_c() -> &'static Location<'static> {
        Location::caller()
    }
    fn site_d() -> &'static Location<'static> {
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

    // ---- the slot template across warps ----

    /// Lane program of a warp whose halves take different paths, in
    /// different first-touch orders.
    fn split_paths(lane: u32, acc: &mut WarpAccumulator) {
        let l = lane as u64;
        if lane < 16 {
            acc.record_op(site_a(), OpClass::F32, lane % 5 + 1);
            acc.record_mem(site_b(), Space::Global, false, l * 8, 8);
            acc.record_branch(site_c(), lane.is_multiple_of(2));
        } else {
            acc.record_branch(site_c(), lane.is_multiple_of(3));
            acc.record_mem(site_b(), Space::Global, false, l * 72, 8);
            acc.record_op(site_a(), OpClass::F32, 2);
        }
    }

    /// The next warp: the paths swap roles, revisit `site_a` twice and
    /// touch a site the first warp never did.
    fn swapped_paths(lane: u32, acc: &mut WarpAccumulator) {
        let l = lane as u64;
        if lane >= 8 {
            acc.record_mem(site_b(), Space::Global, true, l * 72, 8);
            acc.record_op(site_d(), OpClass::F64, 3);
        } else {
            acc.record_op(site_d(), OpClass::F64, lane);
            acc.record_op(site_a(), OpClass::F32, 1);
            acc.record_op(site_a(), OpClass::F32, lane + 2);
        }
    }

    #[test]
    fn warps_with_different_first_touch_orders_fold_like_fresh_accumulators() {
        let mut acc = WarpAccumulator::new();
        let programs: [fn(u32, &mut WarpAccumulator); 4] =
            [split_paths, swapped_paths, split_paths, swapped_paths];
        for program in programs {
            let reused = warp_on(&mut acc, 32, program, None);
            let fresh = warp_on(&mut WarpAccumulator::new(), 32, program, None);
            assert_eq!(reused, fresh);
        }
        // The template kept every slot: a0, b0, c0, plus d0 and a1.
        assert_eq!(acc.slots.len(), 5);
    }

    #[test]
    fn untouched_template_slots_add_nothing() {
        let mut acc = WarpAccumulator::new();
        let first = warp_on(&mut acc, 32, split_paths, None);
        assert_eq!(first.warp_slots, 3);
        let only_a = |lane: u32, acc: &mut WarpAccumulator| {
            acc.record_op(site_a(), OpClass::Int, lane);
        };
        let reused = warp_on(&mut acc, 32, only_a, None);
        let fresh = warp_on(&mut WarpAccumulator::new(), 32, only_a, None);
        assert_eq!(reused, fresh);
        assert_eq!(reused.warp_slots, 1);
        assert_eq!(reused.global_load_tx + reused.branch_slots, 0);
        assert_eq!(acc.slots.len(), 3, "the template keeps the untouched slots");
        // A warp that records nothing folds nothing.
        let empty = warp_on(&mut acc, 32, |_, _| {}, None);
        assert_eq!(empty.warp_slots, 0);
        assert_eq!(empty.issue_cycles, 0.0);
        assert_eq!(empty.lanes, 32);
    }

    /// A one-line L2 makes the fold order visible: the second warp
    /// touches `site_b`'s segment first, so it hits the line the first
    /// warp left behind; visiting the slots in template order would
    /// evict it first and miss twice.
    #[test]
    fn cached_fold_follows_this_warps_first_touch_order() {
        let first = |_: u32, acc: &mut WarpAccumulator| {
            acc.record_mem(site_a(), Space::Global, false, 0, 8);
            acc.record_mem(site_b(), Space::Global, false, 128, 8);
        };
        let second = |_: u32, acc: &mut WarpAccumulator| {
            acc.record_mem(site_b(), Space::Global, false, 128, 8);
            acc.record_mem(site_a(), Space::Global, false, 0, 8);
        };
        let one_line = || CacheModel::new(128, 1, 128);
        let (mut acc, mut cache) = (WarpAccumulator::new(), one_line());
        let (mut fresh_cache, mut reused) = (one_line(), Vec::new());
        for program in [first, second] {
            let stats = warp_on(&mut acc, 32, program, Some(&mut cache));
            let fresh = warp_on(
                &mut WarpAccumulator::new(),
                32,
                program,
                Some(&mut fresh_cache),
            );
            assert_eq!(stats, fresh);
            reused.push(stats);
        }
        assert_eq!((reused[0].l2_hits, reused[0].l2_misses), (0, 2));
        assert_eq!((reused[1].l2_hits, reused[1].l2_misses), (1, 1));
    }

    #[test]
    fn reset_between_kernels_matches_a_fresh_accumulator() {
        let second_kernel = |lane: u32, acc: &mut WarpAccumulator| {
            for i in 0..lane % 3 {
                acc.record_mem(site_d(), Space::Shared, false, (lane * 8 + i) as u64, 4);
            }
            acc.record_sync(site_c());
            acc.record_op(site_a(), OpClass::Int, lane);
        };
        let mut acc = WarpAccumulator::with_site_profile();
        for _ in 0..2 {
            warp_on(&mut acc, 32, split_paths, None);
            warp_on(&mut acc, 32, swapped_paths, None);
        }
        acc.take_site_profile();
        acc.reset_template();
        assert!(acc.slots.is_empty());
        let mut fresh = WarpAccumulator::with_site_profile();
        for _ in 0..3 {
            let reused = warp_on(&mut acc, 32, second_kernel, None);
            assert_eq!(reused, warp_on(&mut fresh, 32, second_kernel, None));
        }
        let (reused, fresh) = (
            acc.take_site_profile().unwrap(),
            fresh.take_site_profile().unwrap(),
        );
        assert_eq!(reused.len(), 3);
        for (site, stats) in fresh.iter() {
            assert_eq!(reused.get(site), Some(stats));
        }
        // d0, d1, c0, a0: only the second kernel's slots.
        assert_eq!(acc.slots.len(), 4);
    }

    /// Lane 1 starts off the template's order, lands the cursor on
    /// `site_a`'s second slot while its own next `site_a` event is the
    /// first occurrence, and later rejoins the cursor path at `site_c`.
    #[test]
    fn lane_that_leaves_order_and_rejoins_folds_exactly() {
        type SiteFn = fn() -> &'static Location<'static>;
        let lanes: [[(SiteFn, u32); 4]; 3] = [
            [(site_a, 1), (site_b, 10), (site_a, 100), (site_c, 1000)],
            [(site_b, 20), (site_a, 200), (site_a, 2), (site_c, 2000)],
            [(site_a, 3), (site_b, 30), (site_a, 300), (site_c, 3000)],
        ];
        let mut acc = WarpAccumulator::new();
        for _ in 0..2 {
            let stats = warp_on(
                &mut acc,
                3,
                |lane, acc| {
                    for (site, count) in lanes[lane as usize] {
                        acc.record_op(site(), OpClass::F32, count);
                    }
                },
                None,
            );
            // Slots a0 = max(1, 200, 3), b0 = 30, a1 = 300, c0 = 3000.
            assert_eq!(stats.warp_slots, 4);
            assert_eq!(stats.issue_cycles, 3530.0);
            assert_eq!(stats.flops_f32, 3 * 3530);
        }
    }

    /// When the epoch counter wraps, no slot stamped long ago may pass
    /// as touched by the new warp.
    #[test]
    fn epoch_wrap_keeps_warps_apart() {
        let mut acc = WarpAccumulator::new();
        acc.epoch = u32::MAX - 1;
        for program in [split_paths, swapped_paths, split_paths, swapped_paths] {
            let reused = warp_on(&mut acc, 32, program, None);
            assert_eq!(
                reused,
                warp_on(&mut WarpAccumulator::new(), 32, program, None)
            );
        }
        assert_eq!(acc.epoch, 3);
    }
}
