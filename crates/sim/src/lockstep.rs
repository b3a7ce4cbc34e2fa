//! The kernel executor: kernels run once per warp over 32-lane values.
//!
//! A [`WarpKernel`] is written against [`WarpCtx`], which holds the
//! warp's *active mask* and executes every call as one warp instruction:
//! arithmetic charges, branches, barriers and memory accesses take
//! [`Lanes`] of per-lane operands and act for the active lanes only.
//! [`WarpCtx::branch`] returns the mask of lanes that take a branch, and
//! [`WarpCtx::when`] runs a region under a narrower mask, so `if`/`else`
//! and loops with data-dependent trip counts become masked regions that
//! run while any lane is active.
//!
//! Every instruction records one event — its site, mask, per-lane op
//! counts or addresses, and branch outcomes — into a lockstep recorder,
//! which groups the warp's instructions into the slots the warp-end fold
//! (`crates/sim/src/warp.rs`) turns into counters. The slots are those of a SIMT
//! machine that issues each lane's instruction stream in order:
//!
//! - **Occurrence splitting.** A slot is a `(site, per-lane occurrence)`
//!   pair, and each lane counts its own occurrences of each site. When
//!   the active lanes of an instruction disagree on the count (a lane
//!   skipped an earlier occurrence in a masked region), the instruction
//!   splits across one slot per count.
//! - **Fold order.** Slots fold in per-lane first-touch order: by the
//!   lowest lane that touches the slot, then by that lane's event order,
//!   which in lockstep is the instruction order. The stateful L2 model
//!   and the f64 sums depend on this order.
//! - **Key order.** A memory slot keeps each lane's address; at the fold
//!   its segments (or shared bank words) are pushed in lane order,
//!   dropping a key equal to the previous one. A slot whose lanes are one
//!   run — consecutive lanes of one width, addresses a constant stride
//!   `0 <= stride <= width + key bytes - 1` apart — touches exactly the
//!   keys from its first lane's first to its last lane's last, first
//!   reached in ascending order, and folds from those two keys without
//!   building the list.
//!
//! A global load or store whose lanes are all active and address
//! consecutive elements, all in bounds, is one run as well: it is
//! bounds-checked once, addressed arithmetically, and loaded with one
//! snapshot copy patched line by line from the overlay pages it covers,
//! or stored page by page. Any other access, a run that leaves its buffer
//! included, goes lane by lane, so panics and memcheck findings stay per
//! lane.
//!
//! These rules are pinned against the frozen per-lane reference fold in
//! `tests/support/warp_reference.rs` (`tests/soa_equivalence.rs`) and
//! against the answers of the per-lane executor this one replaced
//! (`tests/data/lane_executor_golden.json`).
//!
//! The sanitizer's and dataflow's per-lane events go into one
//! `LaneLog`, replayed in lane order at the end of the warp, so
//! racecheck, synccheck, the first-occurrence fields of findings and the
//! read collector's runs see each thread's accesses as one sequence.
//! Loads and stores act on memory instruction by instruction, so lanes of
//! one warp that exchange data through global or shared memory without a
//! barrier see lockstep (hardware) order; such kernels are races on a
//! real GPU and draw racecheck findings.

use crate::config::GpuConfig;
use crate::dataflow::IntervalCollector;
use crate::kernel::{low_bits, KernelResources, WriteOverlay};
use crate::memory::{Buffer, InitMask};
use crate::profile::SiteProfile;
use crate::sancheck::{BlockSan, CheckKind};
use crate::stats::KernelStats;
use crate::trace::{OpClass, Site, SiteInterner, Space};
use crate::warp::{MemSlot, SegmentGeometry, SlotFold, SlotKeys};
use std::panic::Location;

/// Lanes per warp the executor runs (the warp size of every shipped
/// [`GpuConfig`]).
pub const WARP_LANES: usize = 32;

/// Virtual base address of the per-thread local (spill) space; far above
/// any global allocation so segment sets never collide.
const LOCAL_BASE: u64 = 1 << 40;

/// The message of an out-of-bounds global access.
fn global_oob_detail(buf: Buffer, idx: usize, width: usize, store: bool) -> String {
    let dir = if store { "store" } else { "load" };
    format!(
        "global {dir} of {width} B at element {idx} is out of bounds for buffer @0x{:x} \
         (+{} B, {} elements)",
        buf.addr(),
        buf.len(),
        buf.len() / width.max(1)
    )
}

/// One value per lane of a warp.
pub type Lanes<T> = [T; WARP_LANES];

/// A set of lanes: bit `l` is lane `l`.
pub type Mask = u32;

/// `[f(0), f(1), …, f(31)]`, built by a plain loop the optimizer sees
/// through.
#[inline(always)]
pub fn lanes<T: Copy>(mut f: impl FnMut(usize) -> T) -> Lanes<T> {
    let mut out = [f(0); WARP_LANES];
    for (l, o) in out.iter_mut().enumerate().skip(1) {
        *o = f(l);
    }
    out
}

/// `f` applied to every lane of `v`.
#[inline(always)]
pub fn lanes_of<T: Copy, U: Copy>(v: Lanes<T>, mut f: impl FnMut(T) -> U) -> Lanes<U> {
    lanes(|l| f(v[l]))
}

/// The mask of lanes `l` for which `f(l)` holds.
#[inline]
pub fn mask_of(mut f: impl FnMut(usize) -> bool) -> Mask {
    let mut m = 0;
    for l in 0..WARP_LANES {
        m |= (f(l) as Mask) << l;
    }
    m
}

/// Every lane when `cond` holds, none otherwise: the condition of a
/// warp-uniform branch.
#[inline]
pub const fn uniform(cond: bool) -> Mask {
    if cond {
        Mask::MAX
    } else {
        0
    }
}

/// Copies `src[l]` into `dst[l]` for the lanes of `mask`; the other
/// lanes keep their value.
#[inline]
pub fn blend<T: Copy>(mask: Mask, dst: &mut Lanes<T>, src: &Lanes<T>) {
    for l in 0..WARP_LANES {
        if mask >> l & 1 != 0 {
            dst[l] = src[l];
        }
    }
}

/// The lanes of `mask`, lowest first.
#[inline]
pub fn lanes_in(mask: Mask) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let l = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            l
        })
    })
}

/// A GPU kernel whose body runs once per warp under [`WarpCtx`]
/// ([`crate::kernel::launch`]).
pub trait WarpKernel: Sync {
    /// Declared resource footprint (registers / shared memory / spill).
    fn resources(&self) -> KernelResources;
    /// Per-warp body.
    fn run_warp(&self, warp: &mut WarpCtx<'_>);
}

/// Per-warp execution context: the warp's identity, its active mask,
/// masked memory access and instruction recording. `log` is present when
/// the launch observes lanes (sanitizer or dataflow capture on).
pub struct WarpCtx<'a> {
    pub(crate) block_idx: u32,
    pub(crate) first_thread: u32,
    pub(crate) threads_per_block: u32,
    pub(crate) local_slots: u32,
    pub(crate) global_warp_id: u64,
    pub(crate) active: Mask,
    pub(crate) snapshot: &'a [u8],
    pub(crate) init: &'a InitMask,
    pub(crate) writes: &'a mut WriteOverlay,
    pub(crate) shared: &'a mut [u8],
    pub(crate) local: &'a mut [f64],
    pub(crate) rec: &'a mut LockstepRecorder,
    pub(crate) log: Option<&'a mut LaneLog>,
}

/// One observer event of one lane, as a warp instruction issues it.
#[derive(Debug)]
pub(crate) enum LaneEvent {
    /// A global load for dataflow capture: bit `i` of `external` is set
    /// when byte `i` at `addr` was not stored by the lane's own block.
    Load { addr: u64, external: u64 },
    /// A memcheck or initcheck occurrence.
    Hit(Box<Hit>),
    /// A barrier arrival.
    Sync { loc: &'static Location<'static> },
    /// A shared-memory load.
    SharedRead {
        loc: &'static Location<'static>,
        off: usize,
        width: usize,
    },
    /// A shared-memory store.
    SharedWrite {
        loc: &'static Location<'static>,
        off: usize,
        width: usize,
    },
}

/// An access the sanitizer reports as it happens: one out of bounds,
/// which it absorbs, or a global load of bytes never defined. Boxed:
/// hits are rare, and the other events stay small.
#[derive(Debug)]
pub(crate) struct Hit {
    pub(crate) kind: CheckKind,
    pub(crate) space: Space,
    pub(crate) loc: &'static Location<'static>,
    pub(crate) addr: u64,
    pub(crate) width: usize,
    /// A load's external bytes, as in [`LaneEvent::Load`]; 0 for an
    /// absorbed access.
    pub(crate) external: u64,
    pub(crate) message: String,
}

/// The observer events of one warp, kept per lane and replayed lane
/// after lane at the end of the warp: the sanitizer sees each thread's
/// events as one sequence, threads in order, and each lane's external
/// reads reach the read collector as one run of neighbours.
#[derive(Debug, Default)]
pub(crate) struct LaneLog {
    /// Each lane's events, in the order the lane issued them.
    lanes: [Vec<LaneEvent>; WARP_LANES],
    /// The sanitizer reads the log: out-of-bounds accesses are absorbed
    /// instead of panicking, and hits, shared accesses and barriers are
    /// logged.
    pub(crate) sanitize: bool,
    /// Dataflow capture reads the log: every global load is logged.
    pub(crate) dataflow: bool,
}

impl LaneLog {
    /// Replays the warp's events and empties the log: lane `l` of
    /// `0..lanes` is thread `first_thread + l` of `san`, and each lane's
    /// events go to `san` and `reads` in the order the lane issued them.
    pub(crate) fn replay(
        &mut self,
        mut san: Option<&mut BlockSan>,
        mut reads: Option<&mut IntervalCollector>,
        first_thread: u32,
        lanes: u32,
    ) {
        for (lane, events) in (0..lanes).zip(&mut self.lanes) {
            if let Some(san) = san.as_deref_mut() {
                san.begin_thread(first_thread + lane);
            }
            for event in events.drain(..) {
                if let Some(reads) = reads.as_deref_mut() {
                    match &event {
                        LaneEvent::Load { addr, external } => reads.record_mask(*addr, *external),
                        LaneEvent::Hit(hit) => reads.record_mask(hit.addr, hit.external),
                        _ => {}
                    }
                }
                if let Some(san) = san.as_deref_mut() {
                    san.observe(event);
                }
            }
        }
    }
}

impl WarpCtx<'_> {
    /// The lanes executing the current instruction.
    pub fn active(&self) -> Mask {
        self.active
    }

    /// Each lane's thread index within the block (`threadIdx.x`).
    pub fn thread_idx(&self) -> Lanes<usize> {
        lanes(|l| self.first_thread as usize + l)
    }

    /// Each lane's global linear thread id.
    pub fn global_thread_id(&self) -> Lanes<usize> {
        let base = self.block_idx as usize * self.threads_per_block as usize;
        lanes(|l| base + self.first_thread as usize + l)
    }

    /// Retires the active lanes outside `mask` for the rest of the body
    /// (a `return` taken by those lanes); returns whether any lane is
    /// still active. Inside a [`WarpCtx::when`] region the lanes come back
    /// when the region ends, so an early return belongs at the top level.
    pub fn keep(&mut self, mask: Mask) -> bool {
        self.active &= mask;
        self.active != 0
    }

    /// Runs `f` with only the active lanes in `mask` active, then
    /// restores the mask. Nothing runs when no lane of `mask` is active:
    /// a region no lane enters issues no instruction.
    #[inline]
    pub fn when(&mut self, mask: Mask, f: impl FnOnce(&mut Self)) {
        let outer = self.active;
        if outer & mask != 0 {
            self.active = outer & mask;
            f(self);
            self.active = outer;
        }
    }

    /// The lane log when the sanitizer reads it.
    #[inline]
    fn san_log(&mut self) -> Option<&mut LaneLog> {
        self.log.as_deref_mut().filter(|log| log.sanitize)
    }

    // ---- arithmetic ----

    /// Charges `n` double-precision operations on every active lane.
    #[track_caller]
    #[inline]
    pub fn flop64(&mut self, n: u32) {
        self.op(Location::caller(), OpClass::F64, n);
    }

    /// Charges `n` single-precision operations on every active lane.
    #[track_caller]
    #[inline]
    pub fn flop32(&mut self, n: u32) {
        self.op(Location::caller(), OpClass::F32, n);
    }

    /// Charges `n` integer/address operations on every active lane.
    #[track_caller]
    #[inline]
    pub fn int_op(&mut self, n: u32) {
        self.op(Location::caller(), OpClass::Int, n);
    }

    /// Charges `counts[l]` operations of `class` on each active lane `l`.
    #[track_caller]
    #[inline]
    pub fn ops(&mut self, class: OpClass, counts: &Lanes<u32>) {
        if self.active != 0 {
            self.rec
                .op_lanes(Location::caller(), class, self.active, counts);
        }
    }

    #[inline]
    fn op(&mut self, loc: &'static Location<'static>, class: OpClass, n: u32) {
        if self.active != 0 {
            self.rec.op(loc, class, self.active, n);
        }
    }

    /// Records a data-dependent branch with per-lane condition `cond`
    /// and returns the active lanes that take it.
    #[track_caller]
    #[inline]
    pub fn branch(&mut self, cond: Mask) -> Mask {
        let taken = self.active & cond;
        if self.active != 0 {
            self.rec.branch(Location::caller(), self.active, taken);
        }
        taken
    }

    /// Records a block barrier (`__syncthreads()`) for the active lanes.
    ///
    /// Warps of a block run one after another, each to completion, so a
    /// barrier orders a warp's accesses against the warps before it and
    /// against its own lanes' earlier instructions; it cannot make a warp
    /// wait for the warps after it. Each lane's logged arrival separates
    /// its sanitizer sync epochs and is what synccheck audits. Kernels
    /// with cross-lane data flow through shared memory should be validated
    /// once under
    /// [`crate::kernel::LaunchOptions::sanitize`], which reports genuine
    /// races and the barrier-ordered flows from later warps that this
    /// order cannot reproduce (see [`crate::sancheck`]).
    #[track_caller]
    #[inline]
    pub fn sync(&mut self) {
        if self.active == 0 {
            return;
        }
        let (loc, active) = (Location::caller(), self.active);
        self.rec.sync(loc, active);
        if let Some(log) = self.san_log() {
            for l in lanes_in(active) {
                log.lanes[l].push(LaneEvent::Sync { loc });
            }
        }
    }

    // ---- global memory ----

    /// Bounds-checks lane `l`'s access of `width` bytes at element `idx`
    /// of `buf` and resolves its device byte address.
    ///
    /// Out of bounds: panics at the kernel call site with the buffer
    /// identity on the plain path; under
    /// [`crate::kernel::LaunchOptions::sanitize`] records a memcheck
    /// finding and returns `None` so the caller absorbs the access.
    /// Either way an overrun can never silently reach a neighboring
    /// allocation (the kernel-side mirror of the `DeviceMemory`
    /// typed-accessor checks).
    #[inline]
    fn check_global(
        &mut self,
        loc: &'static Location<'static>,
        l: usize,
        buf: Buffer,
        idx: usize,
        width: usize,
        store: bool,
    ) -> Option<u64> {
        let end = idx
            .checked_mul(width)
            .and_then(|o| o.checked_add(width))
            .unwrap_or(usize::MAX);
        if end <= buf.len() {
            return Some(buf.addr() + (idx * width) as u64);
        }
        self.global_oob(loc, l, buf, idx, width, store);
        None
    }

    #[cold]
    fn global_oob(
        &mut self,
        loc: &'static Location<'static>,
        l: usize,
        buf: Buffer,
        idx: usize,
        width: usize,
        store: bool,
    ) {
        let addr = buf
            .addr()
            .saturating_add((idx as u64).saturating_mul(width as u64));
        let message = global_oob_detail(buf, idx, width, store);
        self.out_of_bounds(loc, l, Space::Global, addr, width, message);
    }

    /// Lane `l`'s out-of-bounds access: a memcheck hit the access is
    /// absorbed into under the sanitizer, a panic at the kernel call site
    /// otherwise.
    #[cold]
    fn out_of_bounds(
        &mut self,
        loc: &'static Location<'static>,
        l: usize,
        space: Space,
        addr: u64,
        width: usize,
        message: String,
    ) {
        match self.san_log() {
            Some(log) => log.lanes[l].push(LaneEvent::Hit(Box::new(Hit {
                kind: CheckKind::Memcheck,
                space,
                loc,
                addr,
                width,
                external: 0,
                message,
            }))),
            None => panic!("kernel {}:{}: {message}", loc.file(), loc.line()),
        }
    }

    /// The device address of element `idx[0]` of `buf` when the
    /// instruction is one run: every lane active, lane `l` at element
    /// `idx[0] + l`, and the whole run in bounds. A run is checked,
    /// addressed and copied as a whole; any other access goes lane by
    /// lane, so out-of-bounds lanes panic or draw findings one by one.
    #[inline]
    fn run_base(&self, buf: Buffer, idx: &Lanes<usize>, width: usize) -> Option<u64> {
        if self.active != Mask::MAX {
            return None;
        }
        let first = idx[0];
        let mut run = true;
        for (l, &i) in idx.iter().enumerate() {
            run &= i == first.wrapping_add(l);
        }
        let end = first.checked_add(WARP_LANES)?.checked_mul(width)?;
        (run && end <= buf.len()).then(|| buf.addr() + (first * width) as u64)
    }

    /// The lanes of a global access of `width` bytes that are active and
    /// in bounds, with their addresses, and the run's base address when
    /// the access is one run ([`WarpCtx::run_base`]). Out-of-bounds lanes
    /// panic or draw findings here, one by one.
    #[inline]
    fn global_lanes(
        &mut self,
        loc: &'static Location<'static>,
        buf: Buffer,
        idx: &Lanes<usize>,
        width: usize,
        store: bool,
    ) -> (Option<u64>, Mask, Lanes<u64>) {
        if let Some(base) = self.run_base(buf, idx, width) {
            return (Some(base), Mask::MAX, lanes(|l| base + (l * width) as u64));
        }
        let mut addrs = [0u64; WARP_LANES];
        let mut valid = 0;
        for l in lanes_in(self.active) {
            if let Some(a) = self.check_global(loc, l, buf, idx[l], width, store) {
                addrs[l] = a;
                valid |= 1 << l;
            }
        }
        (None, valid, addrs)
    }

    /// One global load instruction of width `W`: every active lane in
    /// bounds loads `idx[l]` of `buf` (the pre-launch snapshot patched
    /// with this block's stores); other lanes read zeros.
    #[inline]
    fn ld_global<const W: usize>(
        &mut self,
        loc: &'static Location<'static>,
        buf: Buffer,
        idx: &Lanes<usize>,
    ) -> Lanes<[u8; W]> {
        let mut out = [[0u8; W]; WARP_LANES];
        let (run, valid, addrs) = self.global_lanes(loc, buf, idx, W, false);
        if valid == 0 {
            return out;
        }
        self.rec
            .mem(loc, Space::Global, false, valid, &addrs, W as u8);
        if self.log.is_some() {
            self.log_loads(loc, buf, valid, &addrs, W);
        }
        match run {
            Some(base) => self.writes.load_run(self.snapshot, base, &mut out),
            None => self
                .writes
                .load_lanes(self.snapshot, valid, &addrs, &mut out),
        }
        out
    }

    /// Logs a load instruction for the observers: per lane, an
    /// initcheck hit or, under dataflow capture, the load.
    #[cold]
    fn log_loads(
        &mut self,
        loc: &'static Location<'static>,
        buf: Buffer,
        valid: Mask,
        addrs: &Lanes<u64>,
        width: usize,
    ) {
        let Some(log) = self.log.as_deref_mut() else {
            return;
        };
        for l in lanes_in(valid) {
            let addr = addrs[l];
            let external = !self.writes.written_bits(addr, width) & low_bits(width);
            let uninit = log.sanitize
                && (0..width)
                    .any(|i| external >> i & 1 != 0 && !self.init.is_init(addr as usize + i));
            if uninit {
                let message = format!(
                    "global load of {width} B at 0x{addr:x} (buffer @0x{:x}, +{} B) reads bytes \
                     never written by the host or a kernel",
                    buf.addr(),
                    buf.len()
                );
                log.lanes[l].push(LaneEvent::Hit(Box::new(Hit {
                    kind: CheckKind::Initcheck,
                    space: Space::Global,
                    loc,
                    addr,
                    width,
                    external,
                    message,
                })));
            } else if log.dataflow {
                log.lanes[l].push(LaneEvent::Load { addr, external });
            }
        }
    }

    /// One global store instruction of width `W`.
    #[inline]
    fn st_global<const W: usize>(
        &mut self,
        loc: &'static Location<'static>,
        buf: Buffer,
        idx: &Lanes<usize>,
        vals: &Lanes<[u8; W]>,
    ) {
        let (run, valid, addrs) = self.global_lanes(loc, buf, idx, W, true);
        if valid == 0 {
            return;
        }
        self.rec
            .mem(loc, Space::Global, true, valid, &addrs, W as u8);
        match run {
            Some(base) => self.writes.store_bytes(base, vals.as_flattened()),
            None => self.writes.store_lanes(valid, &addrs, vals),
        }
    }

    /// Loads an `f64` per active lane from element `idx[l]` of `buf`.
    #[track_caller]
    #[inline]
    pub fn ld_f64(&mut self, buf: Buffer, idx: &Lanes<usize>) -> Lanes<f64> {
        let raw = self.ld_global::<8>(Location::caller(), buf, idx);
        lanes(|l| f64::from_le_bytes(raw[l]))
    }

    /// Stores `v[l]` to element `idx[l]` of `buf` per active lane.
    #[track_caller]
    #[inline]
    pub fn st_f64(&mut self, buf: Buffer, idx: &Lanes<usize>, v: &Lanes<f64>) {
        let bytes = lanes(|l| v[l].to_le_bytes());
        self.st_global(Location::caller(), buf, idx, &bytes);
    }

    /// Loads an `f32` per active lane.
    #[track_caller]
    #[inline]
    pub fn ld_f32(&mut self, buf: Buffer, idx: &Lanes<usize>) -> Lanes<f32> {
        let raw = self.ld_global::<4>(Location::caller(), buf, idx);
        lanes(|l| f32::from_le_bytes(raw[l]))
    }

    /// Stores an `f32` per active lane.
    #[track_caller]
    #[inline]
    pub fn st_f32(&mut self, buf: Buffer, idx: &Lanes<usize>, v: &Lanes<f32>) {
        let bytes = lanes(|l| v[l].to_le_bytes());
        self.st_global(Location::caller(), buf, idx, &bytes);
    }

    /// Loads a `u8` per active lane.
    #[track_caller]
    #[inline]
    pub fn ld_u8(&mut self, buf: Buffer, idx: &Lanes<usize>) -> Lanes<u8> {
        let raw = self.ld_global::<1>(Location::caller(), buf, idx);
        lanes(|l| raw[l][0])
    }

    /// Stores a `u8` per active lane.
    #[track_caller]
    #[inline]
    pub fn st_u8(&mut self, buf: Buffer, idx: &Lanes<usize>, v: &Lanes<u8>) {
        let bytes = lanes(|l| [v[l]]);
        self.st_global(Location::caller(), buf, idx, &bytes);
    }

    // ---- local (spill) memory ----

    /// Bounds-checks the active lanes' local slots: the lanes whose slot
    /// is declared; a panic, or a memcheck finding per absorbed lane.
    fn check_local(
        &mut self,
        loc: &'static Location<'static>,
        slot: &Lanes<usize>,
        store: bool,
    ) -> Mask {
        let valid = self.active & mask_of(|l| slot[l] < self.local_slots as usize);
        for l in lanes_in(self.active & !valid) {
            let dir = if store { "store" } else { "load" };
            let message = format!(
                "local {dir} of slot {} is out of bounds for the kernel's {} declared f64 \
                 spill slots",
                slot[l], self.local_slots
            );
            self.out_of_bounds(loc, l, Space::Local, slot[l] as u64, 8, message);
        }
        valid
    }

    /// Each lane's interleaved local address of its copy of `slot[l]`.
    /// Fermi interleaves local memory so that the 32 lanes' copies of one
    /// slot are contiguous: uniform slot accesses coalesce. The address
    /// stays far below `u64::MAX`: `global_warp_id < 2^37` (u32 blocks x
    /// <= 32 warps per block), and slots and lanes are small.
    #[inline]
    fn local_addrs(&self, slot: &Lanes<usize>) -> Lanes<u64> {
        let slots = self.local_slots as u64;
        lanes(|l| {
            LOCAL_BASE
                + ((self.global_warp_id * slots + slot[l] as u64) * WARP_LANES as u64 + l as u64)
                    * 8
        })
    }

    /// Loads each active lane's local (spill) slot `slot[l]`.
    #[track_caller]
    #[inline]
    pub fn ld_local(&mut self, slot: &Lanes<usize>) -> Lanes<f64> {
        let loc = Location::caller();
        let valid = self.check_local(loc, slot, false);
        let mut out = [0.0; WARP_LANES];
        if valid != 0 {
            let addrs = self.local_addrs(slot);
            self.rec.mem(loc, Space::Local, false, valid, &addrs, 8);
            for l in lanes_in(valid) {
                out[l] = self.local[slot[l] * WARP_LANES + l];
            }
        }
        out
    }

    /// Stores `v[l]` to each active lane's local slot `slot[l]`.
    #[track_caller]
    #[inline]
    pub fn st_local(&mut self, slot: &Lanes<usize>, v: &Lanes<f64>) {
        let loc = Location::caller();
        let valid = self.check_local(loc, slot, true);
        if valid != 0 {
            let addrs = self.local_addrs(slot);
            self.rec.mem(loc, Space::Local, true, valid, &addrs, 8);
            for l in lanes_in(valid) {
                self.local[slot[l] * WARP_LANES + l] = v[l];
            }
        }
    }

    // ---- shared memory ----

    /// Bounds-checks the active lanes' shared accesses against the
    /// block's allocation.
    fn check_shared(
        &mut self,
        loc: &'static Location<'static>,
        off: &Lanes<usize>,
        width: usize,
        store: bool,
    ) -> Mask {
        let len = self.shared.len();
        let valid = self.active & mask_of(|l| off[l].checked_add(width).is_some_and(|e| e <= len));
        for l in lanes_in(self.active & !valid) {
            let dir = if store { "store" } else { "load" };
            let message = format!(
                "shared {dir} of {width} B at byte offset {} exceeds the block's {len} B shared \
                 allocation",
                off[l]
            );
            self.out_of_bounds(loc, l, Space::Shared, off[l] as u64, width, message);
        }
        valid
    }

    #[inline]
    fn sh_ld<const W: usize>(
        &mut self,
        loc: &'static Location<'static>,
        off: &Lanes<usize>,
    ) -> Lanes<[u8; W]> {
        let mut out = [[0u8; W]; WARP_LANES];
        let valid = self.check_shared(loc, off, W, false);
        if valid == 0 {
            return out;
        }
        let addrs = lanes(|l| off[l] as u64);
        self.rec
            .mem(loc, Space::Shared, false, valid, &addrs, W as u8);
        for l in lanes_in(valid) {
            if let Some(log) = self.san_log() {
                log.lanes[l].push(LaneEvent::SharedRead {
                    loc,
                    off: off[l],
                    width: W,
                });
            }
            out[l].copy_from_slice(&self.shared[off[l]..off[l] + W]);
        }
        out
    }

    #[inline]
    fn sh_st<const W: usize>(
        &mut self,
        loc: &'static Location<'static>,
        off: &Lanes<usize>,
        vals: &Lanes<[u8; W]>,
    ) {
        let valid = self.check_shared(loc, off, W, true);
        if valid == 0 {
            return;
        }
        let addrs = lanes(|l| off[l] as u64);
        self.rec
            .mem(loc, Space::Shared, true, valid, &addrs, W as u8);
        for l in lanes_in(valid) {
            if let Some(log) = self.san_log() {
                log.lanes[l].push(LaneEvent::SharedWrite {
                    loc,
                    off: off[l],
                    width: W,
                });
            }
            self.shared[off[l]..off[l] + W].copy_from_slice(&vals[l]);
        }
    }

    /// Loads an `f64` per active lane from shared byte offset `off[l]`.
    #[track_caller]
    #[inline]
    pub fn sh_ld_f64(&mut self, off: &Lanes<usize>) -> Lanes<f64> {
        let raw = self.sh_ld::<8>(Location::caller(), off);
        lanes(|l| f64::from_le_bytes(raw[l]))
    }

    /// Stores `v[l]` per active lane at shared byte offset `off[l]`.
    #[track_caller]
    #[inline]
    pub fn sh_st_f64(&mut self, off: &Lanes<usize>, v: &Lanes<f64>) {
        let bytes = lanes(|l| v[l].to_le_bytes());
        self.sh_st(Location::caller(), off, &bytes);
    }

    /// Loads an `f32` per active lane from shared memory.
    #[track_caller]
    #[inline]
    pub fn sh_ld_f32(&mut self, off: &Lanes<usize>) -> Lanes<f32> {
        let raw = self.sh_ld::<4>(Location::caller(), off);
        lanes(|l| f32::from_le_bytes(raw[l]))
    }

    /// Stores an `f32` per active lane to shared memory.
    #[track_caller]
    #[inline]
    pub fn sh_st_f32(&mut self, off: &Lanes<usize>, v: &Lanes<f32>) {
        let bytes = lanes(|l| v[l].to_le_bytes());
        self.sh_st(Location::caller(), off, &bytes);
    }

    /// Loads a `u8` per active lane from shared memory.
    #[track_caller]
    #[inline]
    pub fn sh_ld_u8(&mut self, off: &Lanes<usize>) -> Lanes<u8> {
        let raw = self.sh_ld::<1>(Location::caller(), off);
        lanes(|l| raw[l][0])
    }

    /// Stores a `u8` per active lane to shared memory.
    #[track_caller]
    #[inline]
    pub fn sh_st_u8(&mut self, off: &Lanes<usize>, v: &Lanes<u8>) {
        let bytes = lanes(|l| [v[l]]);
        self.sh_st(Location::caller(), off, &bytes);
    }
}

/// Per dense site, for the current warp: the lanes grouped by their
/// occurrence count of the site, and the site's slots by occurrence.
#[derive(Debug)]
struct SiteRow {
    /// Warp epoch the row's contents belong to; a row from an earlier
    /// warp is reset on its first touch.
    epoch: u32,
    /// `(count, lanes)`: disjoint, nonempty lane sets covering every
    /// lane, at most one per count. Lanes that ran the same masked
    /// regions share a count, so there are usually one or two.
    groups: [(u32, Mask); WARP_LANES],
    ngroups: usize,
    /// Occurrence `k` → index into `LockstepRecorder::slots`.
    slots: Vec<u32>,
}

impl Default for SiteRow {
    fn default() -> Self {
        SiteRow {
            epoch: 0,
            groups: [(0, 0); WARP_LANES],
            ngroups: 0,
            slots: Vec::new(),
        }
    }
}

impl SiteRow {
    /// Splits the lanes of `mask` off their groups, returning the
    /// `(count, lanes)` pieces that execute this occurrence, and moves
    /// those lanes one count on.
    #[inline(always)]
    fn advance(&mut self, mask: Mask, hits: &mut [(u32, Mask); WARP_LANES]) -> usize {
        let mut nh = 0;
        for g in &mut self.groups[..self.ngroups] {
            let hit = g.1 & mask;
            if hit != 0 {
                hits[nh] = (g.0, hit);
                nh += 1;
                g.1 &= !hit;
            }
        }
        for &(count, hit) in &hits[..nh] {
            let next = count + 1;
            match self.groups[..self.ngroups].iter_mut().find(|g| g.0 == next) {
                Some(g) => g.1 |= hit,
                None => {
                    self.groups[self.ngroups] = (next, hit);
                    self.ngroups += 1;
                }
            }
        }
        let mut kept = 0;
        for g in 0..self.ngroups {
            if self.groups[g].1 != 0 {
                self.groups[kept] = self.groups[g];
                kept += 1;
            }
        }
        self.ngroups = kept;
        nh
    }
}

/// One warp slot under construction.
#[derive(Debug)]
struct WarpSlot {
    site: Site,
    dense: u32,
    /// Fold-order key: `lane << 32 | instruction`, the lowest lane that
    /// touched the slot and the index of the instruction it did so in.
    order: u64,
    kind: WarpSlotKind,
}

#[derive(Debug)]
enum WarpSlotKind {
    Op {
        class: OpClass,
        max_count: u32,
        lanes: u32,
    },
    Mem {
        slot: MemSlot,
        /// Lanes whose access `accesses[arena]` holds.
        lanes: Mask,
        arena: u32,
    },
    Branch {
        taken: u32,
        not_taken: u32,
    },
    Sync {
        lanes: u32,
    },
}

/// Each lane's access of one memory slot.
#[derive(Debug, Clone)]
struct LaneAccesses {
    addr: Lanes<u64>,
    width: Lanes<u8>,
}

/// The keys of a memory slot: lane after lane, each access's segments
/// (or shared bank words) pushed unless equal to the key pushed last —
/// [`SegmentGeometry::key_range`] per lane. An access's own keys ascend,
/// so only its first can repeat the last one.
#[inline]
fn lane_keys(
    segment: SegmentGeometry,
    space: Space,
    acc: &LaneAccesses,
    lanes: Mask,
    keys: &mut Vec<u64>,
) {
    keys.clear();
    keys.reserve(2 * WARP_LANES);
    // Every access of up to 8 bytes spans at most two keys unless the
    // segment is tinier than that; write those branch-free into the
    // spare capacity and fall back to the general loop otherwise.
    let buf = &mut keys.spare_capacity_mut()[..2 * WARP_LANES];
    let mut n = 0;
    let mut last = u64::MAX; // no real key: keys are addresses / >= 1 B
    for l in lanes_in(lanes) {
        let (first, end) = segment.key_range(space, acc.addr[l], acc.width[l]);
        if end - first > 1 {
            return lane_keys_general(segment, space, acc, lanes, keys);
        }
        // `n <= 2 * lanes so far`, so both writes stay inside `buf`.
        buf[n].write(first);
        n += (first != last) as usize;
        buf[n].write(end);
        n += (end != first) as usize;
        last = end;
    }
    // SAFETY: every index below `n` was written above (`n` only grows
    // past an index just written), and `n <= 2 * WARP_LANES <= capacity`.
    unsafe { keys.set_len(n) };
}

/// The first and last key of a memory slot whose lanes are one run:
/// consecutive lanes of one width whose addresses step by a constant
/// `0 <= stride <= width + key bytes - 1`. Each lane then starts at or
/// after the one before it, and no gap between two lanes holds a whole
/// key, so the slot touches exactly the keys `first..=last`, first
/// reached in ascending order — what [`lane_keys`] and the fold's dedupe
/// make of it, without building the list.
#[inline]
fn run_keys(
    segment: SegmentGeometry,
    space: Space,
    acc: &LaneAccesses,
    lanes: Mask,
) -> Option<(u64, u64)> {
    let lo = lanes.trailing_zeros() as usize;
    let n = lanes.count_ones() as usize;
    if lanes >> lo != Mask::MAX >> (WARP_LANES - n) {
        return None;
    }
    let (addr, width) = (&acc.addr[lo..lo + n], &acc.width[lo..lo + n]);
    let w = width[0];
    let stride = addr.get(1).map_or(0, |&a| a.wrapping_sub(addr[0]));
    if stride > w.max(1) as u64 + segment.key_bytes(space) - 1 {
        return None;
    }
    let mut run = true;
    let mut next = addr[0];
    for (&a, &aw) in addr.iter().zip(width) {
        run &= (a == next) & (aw == w);
        next = next.wrapping_add(stride);
    }
    run.then(|| {
        let (first, _) = segment.key_range(space, addr[0], w);
        let (_, last) = segment.key_range(space, addr[n - 1], w);
        (first, last)
    })
}

/// [`lane_keys`] for accesses spanning any number of keys.
#[cold]
fn lane_keys_general(
    segment: SegmentGeometry,
    space: Space,
    acc: &LaneAccesses,
    lanes: Mask,
    keys: &mut Vec<u64>,
) {
    keys.clear();
    let mut last = u64::MAX;
    for l in lanes_in(lanes) {
        let (first, end) = segment.key_range(space, acc.addr[l], acc.width[l]);
        if first != last {
            keys.push(first);
        }
        keys.extend(first + 1..=end);
        last = end;
    }
}

/// No slot arena entry assigned yet.
const NO_ARENA: u32 = u32::MAX;

/// Records one warp's instructions into `(site, occurrence)` slots and
/// folds them, in per-lane first-touch order, through a [`SlotFold`].
#[derive(Debug)]
pub(crate) struct LockstepRecorder {
    interner: SiteInterner,
    /// Per dense site: occurrence counts and slots of the current warp.
    rows: Vec<SiteRow>,
    /// The current warp's slots, in creation order.
    slots: Vec<WarpSlot>,
    /// Lane accesses of the current warp's memory slots; entries past
    /// `accesses_used` are spare capacity from earlier warps.
    accesses: Vec<LaneAccesses>,
    accesses_used: u32,
    /// The current warp's epoch; never 0.
    epoch: u32,
    /// Index of the next instruction of the current warp.
    seq: u32,
    fold: SlotFold,
    /// Fold scratch: one memory slot's keys.
    keys: Vec<u64>,
    /// Fold scratch: `(order, slot)` in fold order.
    order: Vec<(u64, u32)>,
}

impl Default for LockstepRecorder {
    fn default() -> Self {
        LockstepRecorder {
            interner: SiteInterner::new(),
            rows: Vec::new(),
            slots: Vec::new(),
            accesses: Vec::new(),
            accesses_used: 0,
            epoch: 1,
            seq: 0,
            fold: SlotFold::new(),
            keys: Vec::with_capacity(64),
            order: Vec::new(),
        }
    }
}

impl LockstepRecorder {
    /// See [`SlotFold::set_profiling`].
    pub(crate) fn set_profiling(&mut self, on: bool) {
        self.fold.set_profiling(on);
    }

    /// See [`SlotFold::set_geometry`].
    pub(crate) fn set_geometry(&mut self, cfg: &GpuConfig) {
        debug_assert!(self.slots.is_empty(), "geometry changed mid-warp");
        self.fold.set_geometry(cfg);
    }

    /// See [`SlotFold::take_site_profile`].
    pub(crate) fn take_site_profile(&mut self) -> Option<SiteProfile> {
        self.fold.take_site_profile(&self.interner)
    }

    /// Dense index of `site`, with its row reset if an earlier warp
    /// left it.
    #[inline]
    fn row(&mut self, site: Site) -> usize {
        let dense = self.interner.intern(site) as usize;
        if dense >= self.rows.len() {
            self.rows.resize_with(dense + 1, SiteRow::default);
        }
        let row = &mut self.rows[dense];
        if row.epoch != self.epoch {
            row.epoch = self.epoch;
            row.groups[0] = (0, Mask::MAX);
            row.ngroups = 1;
            row.slots.clear();
        }
        dense
    }

    /// Routes one instruction at `loc` executed by `mask` (nonzero) to
    /// its slots: the lanes are grouped by their occurrence count of the
    /// site, and `apply` runs once per group on that occurrence's slot
    /// (created with `fresh` on the warp's first touch).
    #[inline(always)]
    fn record(
        &mut self,
        loc: &'static Location<'static>,
        mask: Mask,
        fresh: impl Fn() -> WarpSlotKind,
        mut apply: impl FnMut(&mut WarpSlotKind, Mask, &mut Vec<LaneAccesses>, &mut u32),
    ) {
        debug_assert_ne!(mask, 0, "an instruction no lane executes records nothing");
        let site = loc as *const _ as usize;
        let dense = self.row(site);
        let seq = self.seq;
        self.seq += 1;
        let row = &mut self.rows[dense];
        if row.ngroups == 1 && row.groups[0].1 == mask {
            // Every lane executing it is at the same occurrence.
            let k = row.groups[0].0;
            row.groups[0].0 += 1;
            self.touch(site, dense, k, mask, seq, &fresh, &mut apply);
            return;
        }
        let mut hits = [(0, 0); WARP_LANES];
        let n = row.advance(mask, &mut hits);
        for &(k, group) in &hits[..n] {
            self.touch(site, dense, k, group, seq, &fresh, &mut apply);
        }
    }

    /// Applies instruction `seq`'s lanes `group`, all at occurrence `k`
    /// of `site`, to that occurrence's slot.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn touch(
        &mut self,
        site: Site,
        dense: usize,
        k: u32,
        group: Mask,
        seq: u32,
        fresh: &impl Fn() -> WarpSlotKind,
        apply: &mut impl FnMut(&mut WarpSlotKind, Mask, &mut Vec<LaneAccesses>, &mut u32),
    ) {
        let row = &mut self.rows[dense];
        let ix = match row.slots.get(k as usize) {
            Some(&ix) => ix as usize,
            None => {
                // Slots exist for every occurrence below the highest count
                // any lane reached, so only that count can be new, and it
                // appends in order.
                let ix = self.slots.len();
                row.slots.push(ix as u32);
                self.slots.push(WarpSlot {
                    site,
                    dense: dense as u32,
                    order: u64::MAX,
                    kind: fresh(),
                });
                ix
            }
        };
        let slot = &mut self.slots[ix];
        slot.order = slot
            .order
            .min((group.trailing_zeros() as u64) << 32 | seq as u64);
        apply(
            &mut slot.kind,
            group,
            &mut self.accesses,
            &mut self.accesses_used,
        );
    }

    /// An arithmetic instruction charging `count` on every lane of `mask`.
    #[inline]
    pub(crate) fn op(
        &mut self,
        loc: &'static Location<'static>,
        class: OpClass,
        mask: Mask,
        count: u32,
    ) {
        self.record(
            loc,
            mask,
            || WarpSlotKind::Op {
                class,
                max_count: 0,
                lanes: 0,
            },
            |kind, group, _, _| {
                if let WarpSlotKind::Op {
                    max_count, lanes, ..
                } = kind
                {
                    *max_count = (*max_count).max(count);
                    *lanes += group.count_ones();
                }
            },
        );
    }

    /// An arithmetic instruction charging `counts[l]` on each lane `l`.
    pub(crate) fn op_lanes(
        &mut self,
        loc: &'static Location<'static>,
        class: OpClass,
        mask: Mask,
        counts: &Lanes<u32>,
    ) {
        self.record(
            loc,
            mask,
            || WarpSlotKind::Op {
                class,
                max_count: 0,
                lanes: 0,
            },
            |kind, group, _, _| {
                if let WarpSlotKind::Op {
                    max_count, lanes, ..
                } = kind
                {
                    for l in lanes_in(group) {
                        *max_count = (*max_count).max(counts[l]);
                    }
                    *lanes += group.count_ones();
                }
            },
        );
    }

    /// A memory instruction: lane `l` of `mask` accesses `width` bytes at
    /// `addrs[l]` in `space`.
    #[inline]
    pub(crate) fn mem(
        &mut self,
        loc: &'static Location<'static>,
        space: Space,
        write: bool,
        mask: Mask,
        addrs: &Lanes<u64>,
        width: u8,
    ) {
        self.record(
            loc,
            mask,
            || WarpSlotKind::Mem {
                slot: MemSlot {
                    space,
                    write,
                    bytes_requested: 0,
                    accesses: 0,
                },
                lanes: 0,
                arena: NO_ARENA,
            },
            |kind, group, accesses, used| {
                if let WarpSlotKind::Mem { slot, lanes, arena } = kind {
                    let n = group.count_ones();
                    slot.bytes_requested += n as u64 * width as u64;
                    slot.accesses += n;
                    *lanes |= group;
                    if *arena == NO_ARENA {
                        *arena = *used;
                        *used += 1;
                        if accesses.len() < *used as usize {
                            accesses.push(LaneAccesses {
                                addr: [0; WARP_LANES],
                                width: [0; WARP_LANES],
                            });
                        }
                    }
                    let entry = &mut accesses[*arena as usize];
                    if group == u32::MAX {
                        entry.addr = *addrs;
                        entry.width = [width; WARP_LANES];
                    } else {
                        for l in lanes_in(group) {
                            entry.addr[l] = addrs[l];
                            entry.width[l] = width;
                        }
                    }
                }
            },
        );
    }

    /// A branch instruction: the lanes of `mask` in `taken` take it.
    #[inline]
    pub(crate) fn branch(&mut self, loc: &'static Location<'static>, mask: Mask, taken: Mask) {
        self.record(
            loc,
            mask,
            || WarpSlotKind::Branch {
                taken: 0,
                not_taken: 0,
            },
            |kind, group, _, _| {
                if let WarpSlotKind::Branch {
                    taken: t,
                    not_taken: n,
                } = kind
                {
                    *t += (group & taken).count_ones();
                    *n += (group & !taken).count_ones();
                }
            },
        );
    }

    /// A barrier reached by the lanes of `mask`.
    #[inline]
    pub(crate) fn sync(&mut self, loc: &'static Location<'static>, mask: Mask) {
        self.record(
            loc,
            mask,
            || WarpSlotKind::Sync { lanes: 0 },
            |kind, group, _, _| {
                if let WarpSlotKind::Sync { lanes } = kind {
                    *lanes += group.count_ones();
                }
            },
        );
    }

    /// Folds the warp's slots into `stats` (through an optional L2
    /// slice) and opens the next warp; `lanes` is the warp's thread
    /// count.
    pub(crate) fn end_warp(
        &mut self,
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        cache: Option<&mut crate::cache::CacheModel>,
        lanes: u32,
    ) {
        if self.fold.profiling() {
            self.end_warp_impl::<true>(cfg, stats, cache, lanes);
        } else {
            self.end_warp_impl::<false>(cfg, stats, cache, lanes);
        }
    }

    fn end_warp_impl<const PROFILE: bool>(
        &mut self,
        cfg: &GpuConfig,
        stats: &mut KernelStats,
        mut cache: Option<&mut crate::cache::CacheModel>,
        lanes: u32,
    ) {
        self.fold.begin(cfg);
        // Per-lane first-touch order. Slots are created in instruction
        // order, which already is that order unless a lower lane first
        // reached a slot after a higher one did.
        self.order.clear();
        self.order.extend(
            self.slots
                .iter()
                .enumerate()
                .map(|(ix, s)| (s.order, ix as u32)),
        );
        if !self.order.is_sorted() {
            self.order.sort_unstable();
        }
        let segment = self.fold.segment;
        for &(_, ix) in &self.order {
            let slot = &self.slots[ix as usize];
            let delta = match slot.kind {
                WarpSlotKind::Op {
                    class,
                    max_count,
                    lanes,
                } => SlotFold::op::<PROFILE>(cfg, stats, class, max_count, lanes),
                WarpSlotKind::Mem {
                    slot: mem,
                    lanes,
                    arena,
                } => {
                    let acc = &self.accesses[arena as usize];
                    let keys = match run_keys(segment, mem.space, acc, lanes) {
                        Some((first, last)) => SlotKeys::Range(first, last),
                        None => {
                            lane_keys(segment, mem.space, acc, lanes, &mut self.keys);
                            SlotKeys::List(&mut self.keys)
                        }
                    };
                    self.fold
                        .mem::<PROFILE>(cfg, stats, cache.as_deref_mut(), mem, keys)
                }
                WarpSlotKind::Branch { taken, not_taken } => {
                    SlotFold::branch::<PROFILE>(stats, taken, not_taken)
                }
                WarpSlotKind::Sync { .. } => SlotFold::sync::<PROFILE>(stats),
            };
            if PROFILE {
                self.fold.attribute(slot.site, slot.dense, &delta);
            }
        }
        stats.warp_slots += self.slots.len() as u64;
        stats.warps += 1;
        stats.lanes += lanes as u64;
        self.slots.clear();
        self.accesses_used = 0;
        self.seq = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for row in &mut self.rows {
                row.epoch = 0;
            }
            self.epoch = 1;
        }
    }
}
