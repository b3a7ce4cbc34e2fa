//! The warp-end fold: a warp's slots become coalescing, divergence and
//! bank-conflict statistics.
//!
//! The lockstep recorder ([`crate::lockstep`]) groups a warp's
//! instructions into slots, one per `(site, per-lane occurrence)`, and
//! hands them to [`SlotFold`] in per-lane first-touch order. A memory
//! slot arrives as its [`SlotKeys`]: the segments (or shared bank words)
//! its lanes touch, either as a list in lane order with consecutive
//! repeats dropped, usually already sorted, or — when its lanes are one
//! run — as the range `first..=last`. A range folds without a list: its
//! length is the transaction count, it is the L2's `access_segment`
//! sequence, and `n` consecutive bank words give a bank degree of
//! `ceil(n / banks)`.
//!
//! Statistics semantics are pinned bit-for-bit against the frozen
//! reference fold in `tests/support/warp_reference.rs`; see
//! `tests/soa_equivalence.rs`.

use crate::config::GpuConfig;
use crate::profile::{SiteProfile, SiteStats};
use crate::stats::KernelStats;
use crate::trace::{OpClass, Site, SiteInterner, Space};
use std::panic::Location;

/// Bytes per shared-memory bank word.
const BANK_WORD_BYTES: u64 = 4;

/// Segment size every shipped [`GpuConfig`] uses (the Fermi L1 line);
/// a new [`SlotFold`] records in it until [`SlotFold::set_geometry`]
/// says otherwise.
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

    /// Bytes per key in `space`: a segment, or a shared bank word.
    #[inline(always)]
    pub(crate) fn key_bytes(self, space: Space) -> u64 {
        match space {
            Space::Shared => BANK_WORD_BYTES,
            _ => self.bytes,
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
}

/// The scalar fields of a memory slot the fold reads besides its keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemSlot {
    pub(crate) space: Space,
    pub(crate) write: bool,
    pub(crate) bytes_requested: u64,
    pub(crate) accesses: u32,
}

/// The segments (or shared bank words) of one memory slot.
#[derive(Debug)]
pub(crate) enum SlotKeys<'a> {
    /// Exactly the keys `first..=last`, first touched in ascending order:
    /// a slot whose lanes are one run.
    Range(u64, u64),
    /// The lanes' keys in lane order, consecutive repeats dropped.
    List(&'a mut Vec<u64>),
}

/// The warp-end fold of merged slots into [`KernelStats`] and the
/// per-site profile. The lockstep recorder ([`crate::lockstep`]) owns
/// one and visits its slots in per-lane first-touch order; this type
/// never reorders.
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

    /// Switches per-site attribution on or off: a pooled recorder is
    /// reused by launches with different
    /// [`crate::kernel::LaunchOptions`]. Turning it on starts from an
    /// empty profile.
    pub(crate) fn set_profiling(&mut self, on: bool) {
        if on && !self.profiling {
            self.site_acc.fill_with(SiteStats::default);
        }
        self.profiling = on;
    }

    /// Records global/local keys in `cfg`'s segment size from the next
    /// warp on; [`SlotFold::begin`] rejects any other config. Call it
    /// between warps, never with slots pending.
    pub(crate) fn set_geometry(&mut self, cfg: &GpuConfig) {
        if self.segment.bytes != cfg.segment_bytes {
            self.segment = SegmentGeometry::new(cfg.segment_bytes);
        }
    }

    /// Takes the accumulated per-site profile (if site profiling is on),
    /// leaving an empty one behind; `interner` maps the owner's dense
    /// site indices back to sites. This is where the dense per-site rows
    /// become a keyed [`SiteProfile`]: once per block, not per slot.
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

    /// Folds a memory slot whose keys are `keys`.
    pub(crate) fn mem<const PROFILE: bool>(
        &mut self,
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        cache: Option<&mut crate::cache::CacheModel>,
        slot: MemSlot,
        keys: SlotKeys<'_>,
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
                // the per-bank lists the reference kept; `n` consecutive
                // words put `ceil(n / banks)` on the busiest bank.
                let banks = cfg.shared_banks as u64;
                let degree = match keys {
                    SlotKeys::Range(first, last) => (last - first + 1).div_ceil(banks),
                    SlotKeys::List(keys) => {
                        sort_distinct(keys);
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
                        degree
                    }
                };
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
                let tx = match (cache, keys) {
                    // First-touch segment order is preserved: the L2
                    // model is stateful, so the sequence of
                    // `access_segment` calls is semantics.
                    (Some(c), SlotKeys::Range(first, last)) => {
                        (first..=last).map(|s| l2_miss(c, stats, s)).sum()
                    }
                    (Some(c), SlotKeys::List(keys)) => {
                        self.segments.clear();
                        for &s in keys.iter() {
                            if !self.segments.contains(&s) {
                                self.segments.push(s);
                            }
                        }
                        self.segments.iter().map(|&s| l2_miss(c, stats, s)).sum()
                    }
                    // Without a cache only the *count* of distinct
                    // segments matters.
                    (None, SlotKeys::Range(first, last)) => last - first + 1,
                    (None, SlotKeys::List(keys)) => {
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
            // through a lockstep instruction, which takes
            // `&'static Location`.
            let loc = unsafe { &*(site as *const Location<'static>) };
            crate::trace::register_site(site, loc);
        }
    }
}

/// One L2 access of segment `s`, counted into `stats`; 1 on a miss.
#[inline]
fn l2_miss(cache: &mut crate::cache::CacheModel, stats: &mut KernelStats, s: u64) -> u64 {
    if cache.access_segment(s) {
        stats.l2_hits += 1;
        0
    } else {
        stats.l2_misses += 1;
        1
    }
}

/// Sorts `keys` into its distinct values. The recorder already dropped
/// consecutive repeats, so a list that is sorted is distinct and
/// coalesced slots — the common case — skip the sort.
fn sort_distinct(keys: &mut Vec<u64>) {
    if !keys.is_sorted() {
        keys.sort_unstable();
        keys.dedup();
    }
}

#[cfg(test)]
mod tests {
    //! Fold semantics, driven through launches of one-block test kernels
    //! whose warp `w` runs program `w`.

    use super::*;
    use crate::kernel::{launch_with, KernelResources, LaunchConfig, LaunchOptions, LaunchReport};
    use crate::lockstep::{lanes, mask_of, Lanes, Mask, WarpCtx, WarpKernel, WARP_LANES};
    use crate::memory::{Buffer, DeviceMemory};
    use crate::occupancy::occupancy;
    use crate::trace::site_source;

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c2075()
    }

    /// One warp's body; `buf` is a global buffer at device address 0.
    type Program = fn(&mut WarpCtx<'_>, Buffer);

    /// Warp `w` of the block runs `programs[w]`.
    struct Warps<'a> {
        programs: &'a [Program],
        buf: Buffer,
    }

    const RESOURCES: KernelResources = KernelResources {
        regs_per_thread: 16,
        shared_bytes_per_block: 1024,
        local_f64_slots: 2,
    };

    impl WarpKernel for Warps<'_> {
        fn resources(&self) -> KernelResources {
            RESOURCES
        }

        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            (self.programs[w.thread_idx()[0] / WARP_LANES])(w, self.buf);
        }
    }

    /// One block of `threads` threads running `programs` under `cfg`.
    fn launch_on(
        cfg: &GpuConfig,
        threads: u32,
        programs: &[Program],
        opts: LaunchOptions,
    ) -> LaunchReport {
        let mut mem = DeviceMemory::new(1 << 16);
        let buf = mem.alloc(1 << 14).unwrap();
        assert_eq!(buf.addr(), 0);
        let lc = LaunchConfig {
            blocks: 1,
            threads_per_block: threads,
        };
        launch_with(&mut mem, cfg, lc, &Warps { programs, buf }, opts).unwrap()
    }

    /// The stats of one block running `programs`, a full warp each.
    fn run(programs: &[Program]) -> KernelStats {
        let threads = (programs.len() * WARP_LANES) as u32;
        launch_on(&cfg(), threads, programs, LaunchOptions::default()).stats
    }

    /// What `run(programs)` folds when every warp starts from a fresh
    /// recorder: the programs launched one by one, summed.
    fn fresh(programs: &[Program]) -> KernelStats {
        let mut sum = KernelStats::default();
        for &p in programs {
            sum.merge(&run(&[p]));
        }
        sum.blocks = 1;
        sum
    }

    #[test]
    fn coalesced_f64_warp_access_is_two_transactions() {
        // 32 lanes x 8 B contiguous = 256 B = 2 x 128 B segments.
        let stats = run(&[|w, buf| {
            w.ld_f64(buf, &lanes(|l| l));
        }]);
        assert_eq!(stats.global_load_tx, 2);
        assert_eq!(stats.global_load_bytes_requested, 256);
        assert!((stats.gld_efficiency(&cfg()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_aos_access_explodes_transactions() {
        // Stride 72 B (3 Gaussians x 3 f64 params, AoS): 32 lanes span
        // 32*72 = 2304 B => 18-19 segments.
        let stats = run(&[|w, buf| {
            w.st_f64(buf, &lanes(|l| 9 * l), &[1.0; WARP_LANES]);
        }]);
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
        let stats = run(&[|w, buf| {
            w.ld_u8(buf, &lanes(|l| l));
        }]);
        assert_eq!(stats.global_load_tx, 1);
        assert!((stats.gld_efficiency(&cfg()) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uniform_branch_is_not_divergent() {
        let stats = run(&[|w, _| {
            w.branch(u32::MAX);
        }]);
        assert_eq!(stats.branch_slots, 1);
        assert_eq!(stats.divergent_branch_slots, 0);
        assert!((stats.branch_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_branch_is_divergent() {
        let stats = run(&[|w, _| {
            w.branch(mask_of(|l| l % 2 == 0));
        }]);
        assert_eq!(stats.branch_slots, 1);
        assert_eq!(stats.divergent_branch_slots, 1);
        assert_eq!(stats.branch_efficiency(), 0.0);
    }

    #[test]
    fn divergent_paths_serialize_into_extra_slots() {
        // Half the lanes do work at one site, half at another: both slots
        // must be issued (serialization).
        let stats = run(&[|w, _| {
            let low = mask_of(|l| l < 16);
            w.when(low, |w| w.flop32(4));
            w.when(!low, |w| w.flop32(4));
        }]);
        assert_eq!(stats.warp_slots, 2);
        assert!((stats.issue_cycles - 8.0).abs() < 1e-12);
        // Scalar FLOP count still reflects actual work: 32 lanes x 4.
        assert_eq!(stats.flops_f32, 128);
    }

    #[test]
    fn f64_ops_cost_double_issue() {
        let s32 = run(&[|w, _| w.flop32(10)]);
        let s64 = run(&[|w, _| w.flop64(10)]);
        assert!((s64.issue_cycles - 2.0 * s32.issue_cycles).abs() < 1e-12);
    }

    #[test]
    fn loop_iterations_occupy_distinct_slots() {
        // Each lane executes the same site 3 times: occurrences align
        // across lanes => 3 slots, not 1 or 96.
        let stats = run(&[|w, _| {
            for _ in 0..3 {
                w.int_op(1);
            }
        }]);
        assert_eq!(stats.warp_slots, 3);
        assert_eq!(stats.int_ops, 96);
    }

    #[test]
    fn shared_conflict_free_access() {
        // Lane i -> word i: all 32 banks hit once.
        let stats = run(&[|w, _| {
            w.sh_ld_f32(&lanes(|l| 4 * l));
        }]);
        assert_eq!(stats.shared_accesses, 32);
        assert_eq!(stats.shared_replays, 0);
    }

    #[test]
    fn shared_two_way_bank_conflict() {
        // Lane i -> word 2*i: banks 0,2,4,... each hit twice => 1 replay.
        let stats = run(&[|w, _| {
            w.sh_ld_f32(&lanes(|l| 8 * l));
        }]);
        assert_eq!(stats.shared_replays, 1);
        // Lanes alternate between words 0 and 32, both on bank 0: two
        // distinct words, however often each recurs.
        let stats = run(&[|w, _| {
            w.sh_ld_f32(&lanes(|l| l % 2 * 128));
        }]);
        assert_eq!(stats.shared_replays, 1);
    }

    #[test]
    fn shared_broadcast_is_conflict_free() {
        // All lanes read the same word: broadcast, no replay.
        let stats = run(&[|w, _| {
            w.sh_ld_f32(&[64; WARP_LANES]);
        }]);
        assert_eq!(stats.shared_replays, 0);
    }

    #[test]
    fn local_space_counted_separately() {
        // One slot's 32 lane copies are contiguous: 256 B, 2 segments.
        let stats = run(&[|w, _| w.st_local(&[0; WARP_LANES], &[1.0; WARP_LANES])]);
        assert_eq!(stats.local_store_tx, 2);
        assert_eq!(stats.global_store_tx, 0);
    }

    /// The profiled launch's sites in source-line order.
    fn sites_by_line(report: &LaunchReport) -> Vec<SiteStats> {
        let mut rows: Vec<_> = report
            .sites
            .as_ref()
            .expect("profiled launch")
            .iter()
            .map(|(site, stats)| (site_source(site).unwrap().line, *stats))
            .collect();
        rows.sort_by_key(|r| r.0);
        rows.into_iter().map(|r| r.1).collect()
    }

    fn profiled() -> LaunchOptions {
        LaunchOptions {
            profile_sites: true,
            ..Default::default()
        }
    }

    #[test]
    fn site_profile_attributes_slots_to_sites() {
        // A divergent branch, then a coalesced f64 store.
        let report = launch_on(
            &cfg(),
            32,
            &[|w, buf| {
                w.branch(mask_of(|l| l % 2 == 0));
                w.st_f64(buf, &lanes(|l| l), &[0.0; WARP_LANES]);
            }],
            profiled(),
        );
        let (stats, sites) = (&report.stats, sites_by_line(&report));
        assert_eq!(sites.len(), 2);
        let (a, b) = (&sites[0], &sites[1]);
        assert_eq!(a.branch_slots, 1);
        assert_eq!(a.divergent_branch_slots, 1);
        assert_eq!(a.transactions, 0);
        assert_eq!(b.transactions, 2); // 256 B coalesced = 2 segments
        assert_eq!(b.bytes_requested, 256);
        assert_eq!(b.branch_slots, 0);
        // Site totals must sum to the whole-kernel counters.
        assert_eq!(a.transactions + b.transactions, stats.total_tx());
        assert!((a.issue_cycles + b.issue_cycles - stats.issue_cycles).abs() < 1e-12);
    }

    #[test]
    fn site_profile_absent_by_default() {
        let report = launch_on(&cfg(), 32, &[|w, _| w.int_op(1)], LaunchOptions::default());
        assert!(report.sites.is_none());
    }

    #[test]
    fn site_profile_survives_multiple_warps() {
        let p: Program = |w, _| w.flop64(2);
        let report = launch_on(&cfg(), 96, &[p, p, p], profiled());
        let sites = sites_by_line(&report);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].warp_slots, 3);
        assert_eq!(sites[0].scalar_ops, 3 * 32 * 2);
    }

    #[test]
    fn partial_warp_counts_lanes() {
        let report = launch_on(
            &cfg(),
            7,
            &[|w, buf| {
                w.ld_f64(buf, &lanes(|l| l));
            }],
            LaunchOptions::default(),
        );
        assert_eq!(report.stats.lanes, 7);
        assert_eq!(report.stats.global_load_tx, 1); // 56 B within one segment
    }

    /// Keys are recorded in the segment size of the config the fold was
    /// set to; folding under another is refused instead of counting the
    /// wrong segments.
    #[test]
    fn end_warp_rejects_a_config_with_another_segment_size() {
        let mut fold = SlotFold::new();
        fold.set_geometry(&cfg());
        let wide = GpuConfig {
            segment_bytes: 256,
            ..cfg()
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fold.begin(&wide)));
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
        let program: Program = |w, buf| {
            w.ld_f64(buf, &lanes(|l| 3 * l + 1));
            w.sh_ld_f32(&lanes(|l| 8 * l));
        };
        let stats = launch_on(&odd, 32, &[program], LaunchOptions::default()).stats;
        let segments: std::collections::BTreeSet<u64> = (0..32u64)
            .flat_map(|l| [(l * 24 + 8) / 96, (l * 24 + 15) / 96])
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
        // The recorder's per-site rows persist across warps: a second
        // warp running the same sites must fold what a fresh one does.
        let programs: [Program; 2] = [
            |w, buf| {
                for i in 0..3 {
                    w.int_op(i + 1);
                }
                w.ld_f64(buf, &lanes(|l| l));
                w.branch(mask_of(|l| l < 16));
            },
            |w, buf| {
                for i in 0..3 {
                    w.int_op(i + 1);
                }
                w.st_f64(buf, &lanes(|l| l), &[0.0; WARP_LANES]);
                w.branch(mask_of(|l| l < 16));
            },
        ];
        let stats = run(&programs);
        assert_eq!(stats, fresh(&programs));
        assert_eq!(stats.global_load_tx, stats.global_store_tx);
        assert_eq!(stats.branch_slots, 2);
        assert_eq!(stats.divergent_branch_slots, 2);
    }

    // ---- recorder rows across warps ----

    // Sites shared by the paths of a warp: each helper is one call site.
    fn op_a(w: &mut WarpCtx<'_>, counts: &Lanes<u32>) {
        w.ops(OpClass::F32, counts);
    }
    fn mem_b(w: &mut WarpCtx<'_>, buf: Buffer, idx: &Lanes<usize>) {
        w.ld_f64(buf, idx);
    }
    fn branch_c(w: &mut WarpCtx<'_>, cond: Mask) {
        w.branch(cond);
    }
    fn op_d(w: &mut WarpCtx<'_>, counts: &Lanes<u32>) {
        w.ops(OpClass::F64, counts);
    }

    /// A warp whose halves take different paths through the same three
    /// sites, in different orders.
    fn split_paths(w: &mut WarpCtx<'_>, buf: Buffer) {
        let low = mask_of(|l| l < 16);
        w.when(low, |w| {
            op_a(w, &lanes(|l| l as u32 % 5 + 1));
            mem_b(w, buf, &lanes(|l| l));
            branch_c(w, mask_of(|l| l % 2 == 0));
        });
        w.when(!low, |w| {
            branch_c(w, mask_of(|l| l % 3 == 0));
            mem_b(w, buf, &lanes(|l| 9 * l));
            op_a(w, &[2; WARP_LANES]);
        });
    }

    /// The next warp: a site the first never touched, reached by the
    /// high lanes first, and `op_a` twice on the low lanes only.
    fn swapped_paths(w: &mut WarpCtx<'_>, buf: Buffer) {
        let high = mask_of(|l| l >= 8);
        w.when(high, |w| {
            w.st_f64(buf, &lanes(|l| 9 * l), &[0.0; WARP_LANES]);
            op_d(w, &[3; WARP_LANES]);
        });
        w.when(!high, |w| {
            op_d(w, &lanes(|l| l as u32));
            op_a(w, &[1; WARP_LANES]);
            op_a(w, &lanes(|l| l as u32 + 2));
        });
    }

    #[test]
    fn warps_with_different_first_touch_orders_fold_like_fresh_accumulators() {
        let programs: [Program; 4] = [split_paths, swapped_paths, split_paths, swapped_paths];
        let stats = run(&programs);
        assert_eq!(stats, fresh(&programs));
        // a0, b0, c0; then the store, d0, a0 and a1.
        assert_eq!(stats.warp_slots, 2 * (3 + 4));
    }

    #[test]
    fn rows_of_an_earlier_warp_add_nothing() {
        let only_a: Program = |w, _| op_a(w, &lanes(|l| l as u32));
        let empty: Program = |_, _| {};
        let stats = run(&[split_paths, only_a]);
        assert_eq!(stats, fresh(&[split_paths, only_a]));
        assert_eq!(stats.warp_slots, 3 + 1);
        assert_eq!(stats.global_load_tx, run(&[split_paths]).global_load_tx);
        // A warp that records nothing folds nothing.
        let none = run(&[empty]);
        assert_eq!(none.warp_slots, 0);
        assert_eq!(none.issue_cycles, 0.0);
        assert_eq!(none.lanes, 32);
    }

    /// A one-line L2 makes the fold order visible. Warp 0 leaves segment
    /// 0 in the line. In warp 1 the high lanes load segment 1 first and
    /// the low lanes segment 0 after them, so segment 0's slot is the
    /// later instruction but has the lower lane: folding in per-lane
    /// first-touch order hits the line, instruction order would evict
    /// it first and miss twice.
    #[test]
    fn cached_fold_follows_this_warps_first_touch_order() {
        let programs: [Program; 2] = [
            |w, buf| {
                w.ld_f64(buf, &lanes(|l| l % 16));
            },
            |w, buf| {
                let low = mask_of(|l| l < 16);
                w.when(!low, |w| {
                    w.ld_f64(buf, &lanes(|l| l));
                });
                w.when(low, |w| {
                    w.ld_f64(buf, &lanes(|l| l));
                });
            },
        ];
        let lc = LaunchConfig {
            blocks: 1,
            threads_per_block: 64,
        };
        let resident = occupancy(&cfg(), &lc, &RESOURCES).unwrap().resident_blocks;
        // Each block's L2 slice is `l2_bytes / (sms x resident blocks)`.
        let one_line = GpuConfig {
            l2_bytes: (cfg().num_sms * resident) as usize * 128,
            l2_assoc: 1,
            ..cfg()
        };
        let stats = launch_on(&one_line, 64, &programs, LaunchOptions::default()).stats;
        assert_eq!((stats.l2_hits, stats.l2_misses), (1, 2));
    }

    /// Lane 1 reaches site `b` before its first `a`, so its `a`
    /// occurrences trail the other lanes' by one instruction: each `a`
    /// instruction splits across the two slots its lanes are at.
    #[test]
    fn lane_that_leaves_order_and_rejoins_folds_exactly() {
        fn a(w: &mut WarpCtx<'_>, counts: [u32; 3]) {
            w.ops(OpClass::F32, &lanes(|l| counts[l.min(2)]));
        }
        fn b(w: &mut WarpCtx<'_>, counts: [u32; 3]) {
            w.ops(OpClass::F32, &lanes(|l| counts[l.min(2)]));
        }
        fn c(w: &mut WarpCtx<'_>, counts: [u32; 3]) {
            w.ops(OpClass::F32, &lanes(|l| counts[l.min(2)]));
        }
        let report = launch_on(
            &cfg(),
            3,
            &[|w, _| {
                // Lanes 0 and 2: a b a c; lane 1: b a a c.
                w.when(0b101, |w| a(w, [1, 0, 3]));
                b(w, [10, 20, 30]);
                a(w, [100, 200, 300]);
                w.when(0b010, |w| a(w, [0, 2, 0]));
                c(w, [1000, 2000, 3000]);
            }],
            LaunchOptions::default(),
        );
        // Slots a0 = max(1, 200, 3), b0 = 30, a1 = max(100, 2, 300),
        // c0 = 3000.
        let stats = report.stats;
        assert_eq!(stats.warp_slots, 4);
        assert_eq!(stats.issue_cycles, 3530.0);
        assert_eq!(stats.flops_f32, 3 * 3530);
    }
}
