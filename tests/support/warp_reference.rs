//! Frozen copy of the original hash-map warp accumulator, kept as the
//! bit-identity oracle for the SoA rewrite in [`mogpu::sim::warp`].
//!
//! `tests/soa_equivalence.rs` drives this and the production
//! [`mogpu::sim::warp::WarpAccumulator`] with identical event streams (including
//! proptest-generated random ones) and asserts the folded [`KernelStats`]
//! are equal. Do not "fix" or optimize this module: its value is that it
//! preserves the pre-rewrite semantics exactly. The only permitted edits
//! are those required to keep it compiling.

use mogpu::sim::config::GpuConfig;
use mogpu::sim::stats::KernelStats;
use mogpu::sim::trace::{BuildPtrHasher, OpClass, Site, SiteCounters, Space};
use std::collections::HashMap;
use std::panic::Location;

#[derive(Debug)]
enum SlotAccum {
    Op {
        class: OpClass,
        max_count: u32,
        lanes: u32,
    },
    Mem {
        space: Space,
        write: bool,
        bytes_requested: u64,
        accesses: Vec<(u64, u8)>,
    },
    Branch {
        taken: u32,
        not_taken: u32,
    },
    Sync {
        #[allow(dead_code)]
        lanes: u32,
    },
}

/// The pre-SoA accumulator, API-compatible with the production
/// [`mogpu::sim::warp::WarpAccumulator`] minus site profiling.
#[derive(Debug, Default)]
pub struct ReferenceAccumulator {
    occ: SiteCounters,
    slots: HashMap<(Site, u32), SlotAccum, BuildPtrHasher>,
    lanes_seen: u32,
}

impl ReferenceAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts recording a new lane of the current warp.
    pub fn begin_lane(&mut self) {
        self.occ.clear();
        self.lanes_seen += 1;
    }

    fn key(&mut self, site: Site) -> (Site, u32) {
        (site, self.occ.next(site))
    }

    /// Records `count` arithmetic operations of `class`.
    pub fn record_op(&mut self, loc: &'static Location<'static>, class: OpClass, count: u32) {
        let key = self.key(loc as *const _ as usize);
        match self.slots.entry(key).or_insert(SlotAccum::Op {
            class,
            max_count: 0,
            lanes: 0,
        }) {
            SlotAccum::Op {
                max_count, lanes, ..
            } => {
                *max_count = (*max_count).max(count);
                *lanes += 1;
            }
            other => debug_assert!(false, "slot kind mismatch at op slot: {other:?}"),
        }
    }

    /// Records a memory access of `width` bytes at `addr` in `space`.
    pub fn record_mem(
        &mut self,
        loc: &'static Location<'static>,
        space: Space,
        write: bool,
        addr: u64,
        width: u8,
    ) {
        let key = self.key(loc as *const _ as usize);
        match self.slots.entry(key).or_insert_with(|| SlotAccum::Mem {
            space,
            write,
            bytes_requested: 0,
            accesses: Vec::with_capacity(32),
        }) {
            SlotAccum::Mem {
                bytes_requested,
                accesses,
                ..
            } => {
                *bytes_requested += width as u64;
                accesses.push((addr, width));
            }
            other => debug_assert!(false, "slot kind mismatch at mem slot: {other:?}"),
        }
    }

    /// Records a data-dependent branch outcome.
    pub fn record_branch(&mut self, loc: &'static Location<'static>, taken: bool) {
        let key = self.key(loc as *const _ as usize);
        match self.slots.entry(key).or_insert(SlotAccum::Branch {
            taken: 0,
            not_taken: 0,
        }) {
            SlotAccum::Branch {
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
    pub fn record_sync(&mut self, loc: &'static Location<'static>) {
        let key = self.key(loc as *const _ as usize);
        match self
            .slots
            .entry(key)
            .or_insert(SlotAccum::Sync { lanes: 0 })
        {
            SlotAccum::Sync { lanes } => *lanes += 1,
            other => debug_assert!(false, "slot kind mismatch at sync slot: {other:?}"),
        }
    }

    /// Analyses the accumulated warp and folds its statistics into
    /// `stats`, then resets for the next warp.
    pub fn end_warp(&mut self, cfg: &GpuConfig, stats: &mut KernelStats) {
        self.end_warp_cached(cfg, stats, None);
    }

    /// [`ReferenceAccumulator::end_warp`] with an optional L2 slice.
    pub fn end_warp_cached(
        &mut self,
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        mut cache: Option<&mut mogpu::sim::cache::CacheModel>,
    ) {
        let seg = cfg.segment_bytes;
        let mut segments: Vec<u64> = Vec::with_capacity(64);
        for ((_site, _occ), slot) in &self.slots {
            match slot {
                SlotAccum::Op {
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
                    match class {
                        OpClass::Int => stats.int_ops += scalar,
                        OpClass::F32 => stats.flops_f32 += scalar,
                        OpClass::F64 => stats.flops_f64 += scalar,
                    }
                }
                SlotAccum::Mem {
                    space,
                    write,
                    bytes_requested,
                    accesses,
                } => {
                    stats.issue_cycles += 1.0;
                    match space {
                        Space::Shared => {
                            let mut per_bank: HashMap<u32, Vec<u64>, BuildPtrHasher> =
                                HashMap::default();
                            for &(addr, width) in accesses {
                                let mut w = addr / 4;
                                let end = (addr + width as u64).div_ceil(4);
                                while w < end.max(w + 1) {
                                    let bank = (w % cfg.shared_banks as u64) as u32;
                                    let words = per_bank.entry(bank).or_default();
                                    if !words.contains(&w) {
                                        words.push(w);
                                    }
                                    w += 1;
                                    if w >= end {
                                        break;
                                    }
                                }
                            }
                            let degree =
                                per_bank.values().map(|v| v.len()).max().unwrap_or(1) as u64;
                            stats.shared_accesses += accesses.len() as u64;
                            stats.shared_replays += degree.saturating_sub(1);
                            stats.issue_cycles += degree.saturating_sub(1) as f64;
                        }
                        Space::Global | Space::Local => {
                            segments.clear();
                            for &(addr, width) in accesses {
                                let first = addr / seg;
                                let last = (addr + width as u64 - 1) / seg;
                                for s in first..=last {
                                    if !segments.contains(&s) {
                                        segments.push(s);
                                    }
                                }
                            }
                            let tx = match cache.as_deref_mut() {
                                Some(c) => {
                                    let mut misses = 0u64;
                                    for &s in segments.iter() {
                                        if c.access_segment(s) {
                                            stats.l2_hits += 1;
                                        } else {
                                            stats.l2_misses += 1;
                                            misses += 1;
                                        }
                                    }
                                    misses
                                }
                                None => segments.len() as u64,
                            };
                            stats.mem_slots += 1;
                            stats.lane_mem_accesses += accesses.len() as u64;
                            match (space, write) {
                                (Space::Global, false) => {
                                    stats.global_load_tx += tx;
                                    stats.global_load_bytes_requested += bytes_requested;
                                }
                                (Space::Global, true) => {
                                    stats.global_store_tx += tx;
                                    stats.global_store_bytes_requested += bytes_requested;
                                }
                                (Space::Local, false) => {
                                    stats.local_load_tx += tx;
                                    stats.local_load_bytes_requested += bytes_requested;
                                }
                                (Space::Local, true) => {
                                    stats.local_store_tx += tx;
                                    stats.local_store_bytes_requested += bytes_requested;
                                }
                                (Space::Shared, _) => unreachable!(),
                            }
                        }
                    }
                }
                SlotAccum::Branch { taken, not_taken } => {
                    stats.issue_cycles += 1.0;
                    stats.branch_slots += 1;
                    stats.lane_branches += (*taken + *not_taken) as u64;
                    if *taken > 0 && *not_taken > 0 {
                        stats.divergent_branch_slots += 1;
                    }
                }
                SlotAccum::Sync { .. } => {
                    stats.issue_cycles += 1.0;
                    stats.sync_slots += 1;
                }
            }
        }
        stats.warp_slots += self.slots.len() as u64;
        stats.warps += 1;
        stats.lanes += self.lanes_seen as u64;
        self.slots.clear();
        self.lanes_seen = 0;
    }
}
