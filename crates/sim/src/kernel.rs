//! Kernel trait, per-lane execution context, and the launch machinery.
//!
//! Kernels are Rust types implementing [`Kernel`]; their `run` method is
//! the CUDA `__global__` body, executed once per thread with a
//! [`ThreadCtx`] standing in for the hardware: it performs *functional*
//! loads/stores against simulated device memory while recording the events
//! that drive the architectural analysis (see [`crate::warp`]).
//!
//! Like a CUDA kernel, `run` is invoked for every thread of every block of
//! the launch grid; threads past the problem size must guard themselves
//! (`if ctx.global_thread_id() >= n { return; }`).

use crate::config::GpuConfig;
use crate::dataflow::{IntervalCollector, IntervalSet, LaunchAccess};
use crate::memory::{Buffer, DeviceMemory, InitMask};
use crate::occupancy::{occupancy, Occupancy};
use crate::profile::SiteProfile;
use crate::sancheck::{BlockSan, SanReport};
use crate::stats::KernelStats;
use crate::timing::{kernel_time, KernelTiming};
use crate::trace::{OpClass, Space};
use crate::warp::WarpAccumulator;
use rayon::prelude::*;
use std::panic::Location;

/// Static resource footprint of a kernel, as `nvcc --ptxas-options=-v`
/// would report it.
///
/// Register counts cannot be derived from Rust source (there is no CUDA
/// compiler in the loop), so kernels *declare* them; the MoG kernels use
/// the per-variant values the paper reports from the CUDA 4.2 toolchain.
/// Occupancy is then derived from the declaration exactly as the CUDA
/// occupancy calculator does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// 32-bit registers per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per block, in bytes.
    pub shared_bytes_per_block: usize,
    /// Per-thread local-memory (spill) slots of 8 bytes each.
    pub local_f64_slots: usize,
}

/// Grid geometry of a launch (1-D, which is all MoG needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// Grid covering `threads` total threads with the given block size
    /// (rounding the block count up, CUDA-style).
    ///
    /// # Panics
    /// When the required block count exceeds `u32::MAX` (the 1-D grid
    /// limit of the `blocks` field). The old cast silently truncated
    /// here, launching a grid that covered almost none of the requested
    /// threads.
    pub fn cover(threads: usize, threads_per_block: u32) -> Self {
        let blocks = (threads as u64).div_ceil(threads_per_block.max(1) as u64);
        LaunchConfig {
            blocks: u32::try_from(blocks).unwrap_or_else(|_| {
                panic!("grid of {blocks} blocks ({threads} threads / {threads_per_block} per block) exceeds the u32 grid limit")
            }),
            threads_per_block,
        }
    }
}

/// A GPU kernel.
pub trait Kernel: Sync {
    /// Declared resource footprint (registers / shared memory / spill).
    fn resources(&self) -> KernelResources;
    /// Per-thread body.
    fn run(&self, ctx: &mut ThreadCtx<'_>);
}

/// Errors rejecting a launch, mirroring CUDA launch failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Block or grid dimension is zero or exceeds hardware limits.
    InvalidConfig(String),
    /// The kernel's register or shared-memory footprint leaves no room for
    /// even one resident block.
    ResourcesExceeded(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::InvalidConfig(m) => write!(f, "invalid launch configuration: {m}"),
            LaunchError::ResourcesExceeded(m) => write!(f, "kernel resources exceeded: {m}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Optional launch behaviours; [`Default`] is the plain fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchOptions {
    /// Aggregate counters per source site and resolve `file:line` for the
    /// hotspot table. Off by default: the plain path allocates no site map
    /// and records events exactly as if profiling did not exist.
    pub profile_sites: bool,
    /// Run the compute-sanitizer-style checks (memcheck / racecheck /
    /// synccheck / initcheck, see [`crate::sancheck`]) and attach a
    /// [`SanReport`] to the launch report. Off by default; when on,
    /// out-of-bounds accesses are recorded and absorbed instead of
    /// panicking.
    pub sanitize: bool,
    /// Capture the launch's global-memory byte-interval read/write sets
    /// and attach a [`LaunchAccess`] to the report (see
    /// [`crate::dataflow`]). Off by default; purely observational — the
    /// functional results and counters are bit-identical either way.
    pub dataflow: bool,
}

/// Everything a launch produces: the profiler counters, the occupancy, and
/// the modelled execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Raw counters.
    pub stats: KernelStats,
    /// Occupancy of the kernel under this configuration.
    pub occupancy: Occupancy,
    /// Analytic execution-time estimate.
    pub timing: KernelTiming,
    /// Per-site counters, present when
    /// [`LaunchOptions::profile_sites`] was set.
    pub sites: Option<SiteProfile>,
    /// Sanitizer findings, present when [`LaunchOptions::sanitize`] was
    /// set (empty report = clean launch).
    pub sanitizer: Option<SanReport>,
    /// Global-memory access summary, present when
    /// [`LaunchOptions::dataflow`] was set.
    pub access: Option<LaunchAccess>,
}

/// Byte-granular read-your-writes overlay for one block's global stores.
///
/// Keyed by 8-byte-aligned cell address; each cell holds a validity mask
/// and the written bytes, so stores and loads of *different* widths over
/// the same address compose correctly. (Regression: the overlay used to
/// be keyed by exact `(address, width)`, so an 8-byte store read back
/// through a 4-byte load silently fell through to the stale pre-launch
/// snapshot. Byte granularity also makes publishing order-independent
/// within a block — cells are disjoint, so applying them in any order
/// produces the same memory.)
///
/// The map is a purpose-built open-addressing table (multiply-shift hash,
/// linear probing) over an insertion-ordered cell vector: the per-access
/// lookup on the interpreter's hot path is one multiply and usually one
/// probe, and [`WriteOverlay::clear`] recycles the allocation across
/// blocks and launches.
#[derive(Debug)]
pub(crate) struct WriteOverlay {
    /// Bucket → cell base address, or [`EMPTY_KEY`].
    keys: Vec<u64>,
    /// Bucket → index into `cells` (valid where `keys` is occupied).
    slots: Vec<u32>,
    /// `(base, cell)` in first-store order.
    cells: Vec<(u64, OverlayCell)>,
    /// `64 - log2(capacity)`.
    shift: u32,
}

/// Sentinel for an empty overlay bucket. Cell bases are 8-byte-aligned
/// device addresses, so the all-ones pattern can never collide.
const EMPTY_KEY: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, Default)]
struct OverlayCell {
    mask: u8,
    bytes: [u8; 8],
}

impl Default for WriteOverlay {
    fn default() -> Self {
        let cap = 1024usize;
        WriteOverlay {
            keys: vec![EMPTY_KEY; cap],
            slots: vec![0; cap],
            cells: Vec::new(),
            shift: 64 - cap.trailing_zeros(),
        }
    }
}

impl WriteOverlay {
    #[inline]
    fn bucket(&self, base: u64) -> usize {
        (base.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Index of `base`'s cell, or `None` if the block has not stored into
    /// that cell.
    #[inline]
    fn find(&self, base: u64) -> Option<usize> {
        let mask = self.keys.len() - 1;
        let mut b = self.bucket(base);
        loop {
            let k = self.keys[b];
            if k == base {
                return Some(self.slots[b] as usize);
            }
            if k == EMPTY_KEY {
                return None;
            }
            b = (b + 1) & mask;
        }
    }

    /// Index of `base`'s cell, appending a fresh one on first store.
    #[inline]
    fn find_or_insert(&mut self, base: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut b = self.bucket(base);
        loop {
            let k = self.keys[b];
            if k == base {
                return self.slots[b] as usize;
            }
            if k == EMPTY_KEY {
                let ix = self.cells.len();
                self.keys[b] = base;
                self.slots[b] = ix as u32;
                self.cells.push((base, OverlayCell::default()));
                if self.cells.len() * 2 > self.keys.len() {
                    self.grow();
                }
                return ix;
            }
            b = (b + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        self.keys = vec![EMPTY_KEY; cap];
        self.slots = vec![0; cap];
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for (ix, &(base, _)) in self.cells.iter().enumerate() {
            let mut b = (base.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
            while self.keys[b] != EMPTY_KEY {
                b = (b + 1) & mask;
            }
            self.keys[b] = base;
            self.slots[b] = ix as u32;
        }
    }

    /// Records a store of `val` (little-endian access bytes) at `addr`.
    /// An access of width <= 8 touches at most two cells.
    fn store(&mut self, addr: u64, val: &[u8]) {
        let mut i = 0;
        while i < val.len() {
            let a = addr + i as u64;
            let base = a & !7;
            let off = (a - base) as usize;
            let n = (8 - off).min(val.len() - i);
            let ix = self.find_or_insert(base);
            let cell = &mut self.cells[ix].1;
            cell.mask |= (((1u16 << n) - 1) as u8) << off;
            cell.bytes[off..off + n].copy_from_slice(&val[i..i + n]);
            i += n;
        }
    }

    /// Loads `width` bytes at `addr`: the pre-launch snapshot patched
    /// with any bytes this block has stored.
    fn load(&self, snapshot: &[u8], addr: u64, width: usize) -> u64 {
        let a = addr as usize;
        let mut out = [0u8; 8];
        out[..width].copy_from_slice(&snapshot[a..a + width]);
        let mut i = 0;
        while i < width {
            let a = addr + i as u64;
            let base = a & !7;
            let off = (a - base) as usize;
            let n = (8 - off).min(width - i);
            if let Some(ix) = self.find(base) {
                let cell = &self.cells[ix].1;
                if cell.mask == 0xFF {
                    out[i..i + n].copy_from_slice(&cell.bytes[off..off + n]);
                } else {
                    for j in 0..n {
                        if cell.mask & (1 << (off + j)) != 0 {
                            out[i + j] = cell.bytes[off + j];
                        }
                    }
                }
            }
            i += n;
        }
        u64::from_le_bytes(out)
    }

    /// Which bytes of the 8-byte cell at `base` this block has stored
    /// (bit `i` = byte `base + i`).
    #[inline]
    fn written_mask(&self, base: u64) -> u8 {
        self.find(base).map_or(0, |ix| self.cells[ix].1.mask)
    }

    /// Whether this block has stored the byte at `addr` (initcheck
    /// treats block-local stores as defining).
    pub(crate) fn is_written(&self, addr: u64) -> bool {
        let base = addr & !7;
        self.written_mask(base) & (1 << (addr - base)) != 0
    }

    /// Takes the block's cells for publication (in first-store order,
    /// which is deterministic; cells are disjoint so application order
    /// within a block cannot matter anyway) and resets the table so the
    /// overlay is ready for the next block. The replacement vector comes
    /// from the publish-side recycling pool, so on the launching thread
    /// the cell storage never re-grows from zero; elsewhere it is sized
    /// like this block's cells, since a grid's blocks store alike.
    fn take_cells(&mut self) -> Vec<(u64, OverlayCell)> {
        self.keys.fill(EMPTY_KEY);
        let fresh = CELL_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_else(|| Vec::with_capacity(self.cells.len()));
        std::mem::replace(&mut self.cells, fresh)
    }
}

thread_local! {
    /// Emptied overlay cell vectors, recycled from the publish loop back
    /// to `take_cells`. Both run on the launching thread when the block
    /// fan-out is sequential (the common case on small machines), so the
    /// per-block cell storage round-trips instead of reallocating.
    static CELL_POOL: std::cell::RefCell<Vec<Vec<(u64, OverlayCell)>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Per-block interpreter scratch, pooled per rayon worker so the overlay
/// table, the shared/local arenas, and — most importantly — the warp
/// accumulator's interner and slot tables keep their capacity across
/// blocks *and* launches instead of being re-allocated per block.
#[derive(Default)]
struct BlockScratch {
    writes: WriteOverlay,
    shared: Vec<u8>,
    local: Vec<f64>,
    acc: WarpAccumulator,
    reads: IntervalCollector,
}

thread_local! {
    static SCRATCH_POOL: std::cell::RefCell<Vec<BlockScratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII handle returning its scratch to the worker-local pool when the
/// rayon split that borrowed it ends.
struct PooledScratch(BlockScratch);

impl PooledScratch {
    fn take() -> Self {
        PooledScratch(
            SCRATCH_POOL
                .with(|p| p.borrow_mut().pop())
                .unwrap_or_default(),
        )
    }
}

impl Drop for PooledScratch {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.0);
        SCRATCH_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < 8 {
                pool.push(scratch);
            }
        });
    }
}

/// Virtual base address of the per-thread local (spill) space; far above
/// any global allocation so segment sets never collide.
const LOCAL_BASE: u64 = 1 << 40;

/// Per-thread execution context: thread identity, memory access, and event
/// recording.
///
/// Lane-private interpreter state is stored structure-of-arrays per warp:
/// `local` is the whole warp's spill arena (slot-major, lane-minor, so one
/// slot's 32 lane copies are contiguous — the same interleaving Fermi uses
/// for local memory), zeroed once per warp instead of once per lane.
pub struct ThreadCtx<'a> {
    block_idx: u32,
    thread_idx: u32,
    threads_per_block: u32,
    blocks: u32,
    lane: u32,
    warp_lanes: u32,
    local_slots: u32,
    global_warp_id: u64,
    snapshot: &'a [u8],
    init: &'a InitMask,
    writes: &'a mut WriteOverlay,
    shared: &'a mut [u8],
    local: &'a mut [f64],
    acc: &'a mut WarpAccumulator,
    san: Option<&'a mut BlockSan>,
    reads: Option<&'a mut IntervalCollector>,
}

impl ThreadCtx<'_> {
    /// Index of this thread's block in the grid.
    pub fn block_idx(&self) -> usize {
        self.block_idx as usize
    }

    /// Thread index within the block (`threadIdx.x`).
    pub fn thread_idx(&self) -> usize {
        self.thread_idx as usize
    }

    /// Block size (`blockDim.x`).
    pub fn block_dim(&self) -> usize {
        self.threads_per_block as usize
    }

    /// Grid size in blocks (`gridDim.x`).
    pub fn grid_dim(&self) -> usize {
        self.blocks as usize
    }

    /// Global linear thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    pub fn global_thread_id(&self) -> usize {
        self.block_idx as usize * self.threads_per_block as usize + self.thread_idx as usize
    }

    /// Lane index within the warp.
    pub fn lane(&self) -> usize {
        self.lane as usize
    }

    // ---- arithmetic ----

    /// Charges `n` double-precision floating-point operations.
    #[track_caller]
    #[inline]
    pub fn flop64(&mut self, n: u32) {
        self.acc.record_op(Location::caller(), OpClass::F64, n);
    }

    /// Charges `n` single-precision floating-point operations.
    #[track_caller]
    #[inline]
    pub fn flop32(&mut self, n: u32) {
        self.acc.record_op(Location::caller(), OpClass::F32, n);
    }

    /// Charges `n` integer/address operations.
    #[track_caller]
    #[inline]
    pub fn int_op(&mut self, n: u32) {
        self.acc.record_op(Location::caller(), OpClass::Int, n);
    }

    /// Records a data-dependent branch and returns the condition, so
    /// kernels write `if ctx.branch(cond) { ... }`.
    #[track_caller]
    #[inline]
    pub fn branch(&mut self, cond: bool) -> bool {
        self.acc.record_branch(Location::caller(), cond);
        cond
    }

    /// Records a block barrier (`__syncthreads()`).
    ///
    /// Lanes execute sequentially to completion, so functionally the
    /// barrier is a no-op — but it is *semantically* load-bearing: it
    /// separates the sync epochs the sanitizer's racecheck orders
    /// shared-memory accesses by, and it is the event synccheck audits
    /// for barrier divergence. Kernels with cross-lane data flow through
    /// shared memory should be validated once under
    /// [`LaunchOptions::sanitize`], which reports both genuine races and
    /// barrier-ordered flows the sequential-lane model cannot reproduce
    /// (see [`crate::sancheck`]).
    #[track_caller]
    #[inline]
    pub fn sync(&mut self) {
        let loc = Location::caller();
        self.acc.record_sync(loc);
        if let Some(san) = self.san.as_deref_mut() {
            san.on_sync(loc);
        }
    }

    // ---- global memory ----

    /// Bounds-checks a global access of `width` bytes at element `idx`
    /// of `buf` and resolves its device byte address.
    ///
    /// Out of bounds: panics at the kernel call site with the buffer
    /// identity on the plain path; under [`LaunchOptions::sanitize`]
    /// records a memcheck finding and returns `None` so the caller
    /// absorbs the access. Either way an overrun can never silently
    /// reach a neighboring allocation (the kernel-side mirror of the
    /// `DeviceMemory` typed-accessor checks).
    #[track_caller]
    #[inline]
    fn check_global(&mut self, buf: Buffer, idx: usize, width: usize, store: bool) -> Option<u64> {
        let end = idx
            .checked_mul(width)
            .and_then(|o| o.checked_add(width))
            .unwrap_or(usize::MAX);
        if end <= buf.len() {
            return Some(buf.addr() + (idx * width) as u64);
        }
        let dir = if store { "store" } else { "load" };
        let loc = Location::caller();
        let detail = format!(
            "global {dir} of {width} B at element {idx} is out of bounds for buffer @0x{:x} \
             (+{} B, {} elements)",
            buf.addr(),
            buf.len(),
            buf.len() / width.max(1)
        );
        match self.san.as_deref_mut() {
            Some(san) => {
                let addr = buf
                    .addr()
                    .saturating_add((idx as u64).saturating_mul(width as u64));
                san.oob(loc, Space::Global, addr, width, detail);
                None
            }
            None => panic!("kernel {}:{}: {detail}", loc.file(), loc.line()),
        }
    }

    /// initcheck hook for a bounds-valid global load: every byte must be
    /// initialized by the host, an upload, or a store of this block.
    #[inline]
    fn check_global_init(
        &mut self,
        loc: &'static Location<'static>,
        buf: Buffer,
        addr: u64,
        width: usize,
    ) {
        if self.san.is_none() {
            return;
        }
        for b in addr..addr + width as u64 {
            if !self.init.is_init(b as usize) && !self.writes.is_written(b) {
                if let Some(san) = self.san.as_deref_mut() {
                    san.uninit_global(loc, buf, addr, width);
                }
                return;
            }
        }
    }

    #[inline]
    fn read_bytes(&self, addr: u64, width: usize) -> u64 {
        self.writes.load(self.snapshot, addr, width)
    }

    /// Dataflow hook for a bounds-valid global load: records the byte
    /// runs this block reads from *outside* its own stores — exactly
    /// the launch's RAW demand on earlier producers. Bytes the block
    /// already stored are read-your-writes, not cross-launch flow.
    #[inline]
    fn record_external_read(&mut self, addr: u64, width: usize) {
        let Some(reads) = self.reads.as_deref_mut() else {
            return;
        };
        let end = addr + width as u64;
        let mut start = None;
        let mut a = addr;
        // One overlay probe per 8-byte cell, not per byte.
        while a < end {
            let base = a & !7;
            let cell_end = (base + 8).min(end);
            let mask = self.writes.written_mask(base);
            if mask == 0 {
                start.get_or_insert(a);
            } else {
                for b in a..cell_end {
                    if mask & (1 << (b - base)) != 0 {
                        if let Some(s) = start.take() {
                            reads.record_run(s, b);
                        }
                    } else {
                        start.get_or_insert(b);
                    }
                }
            }
            a = cell_end;
        }
        if let Some(s) = start {
            reads.record_run(s, end);
        }
    }

    /// Loads an `f64` from global memory at element index `idx` of `buf`.
    #[track_caller]
    #[inline]
    pub fn ld_f64(&mut self, buf: Buffer, idx: usize) -> f64 {
        let Some(addr) = self.check_global(buf, idx, 8, false) else {
            return 0.0;
        };
        let loc = Location::caller();
        self.acc.record_mem(loc, Space::Global, false, addr, 8);
        self.check_global_init(loc, buf, addr, 8);
        self.record_external_read(addr, 8);
        f64::from_le_bytes(self.read_bytes(addr, 8).to_le_bytes())
    }

    /// Stores an `f64` to global memory at element index `idx` of `buf`.
    #[track_caller]
    #[inline]
    pub fn st_f64(&mut self, buf: Buffer, idx: usize, v: f64) {
        let Some(addr) = self.check_global(buf, idx, 8, true) else {
            return;
        };
        self.acc
            .record_mem(Location::caller(), Space::Global, true, addr, 8);
        self.writes.store(addr, &v.to_le_bytes());
    }

    /// Loads an `f32` from global memory.
    #[track_caller]
    #[inline]
    pub fn ld_f32(&mut self, buf: Buffer, idx: usize) -> f32 {
        let Some(addr) = self.check_global(buf, idx, 4, false) else {
            return 0.0;
        };
        let loc = Location::caller();
        self.acc.record_mem(loc, Space::Global, false, addr, 4);
        self.check_global_init(loc, buf, addr, 4);
        self.record_external_read(addr, 4);
        f32::from_le_bytes((self.read_bytes(addr, 4) as u32).to_le_bytes())
    }

    /// Stores an `f32` to global memory.
    #[track_caller]
    #[inline]
    pub fn st_f32(&mut self, buf: Buffer, idx: usize, v: f32) {
        let Some(addr) = self.check_global(buf, idx, 4, true) else {
            return;
        };
        self.acc
            .record_mem(Location::caller(), Space::Global, true, addr, 4);
        self.writes.store(addr, &v.to_le_bytes());
    }

    /// Loads a `u8` from global memory.
    #[track_caller]
    #[inline]
    pub fn ld_u8(&mut self, buf: Buffer, idx: usize) -> u8 {
        let Some(addr) = self.check_global(buf, idx, 1, false) else {
            return 0;
        };
        let loc = Location::caller();
        self.acc.record_mem(loc, Space::Global, false, addr, 1);
        self.check_global_init(loc, buf, addr, 1);
        self.record_external_read(addr, 1);
        self.read_bytes(addr, 1) as u8
    }

    /// Stores a `u8` to global memory.
    #[track_caller]
    #[inline]
    pub fn st_u8(&mut self, buf: Buffer, idx: usize, v: u8) {
        let Some(addr) = self.check_global(buf, idx, 1, true) else {
            return;
        };
        self.acc
            .record_mem(Location::caller(), Space::Global, true, addr, 1);
        self.writes.store(addr, &[v]);
    }

    // ---- local (spill) memory ----

    /// Bounds-checks a local (spill) slot access: panic on the plain
    /// path, memcheck finding + absorbed access under sanitize.
    #[track_caller]
    #[inline]
    fn check_local(&mut self, slot: usize, store: bool) -> bool {
        if slot < self.local_slots as usize {
            return true;
        }
        let dir = if store { "store" } else { "load" };
        let loc = Location::caller();
        let detail = format!(
            "local {dir} of slot {slot} is out of bounds for the kernel's {} declared f64 \
             spill slots",
            self.local_slots
        );
        match self.san.as_deref_mut() {
            Some(san) => {
                san.oob(loc, Space::Local, slot as u64, 8, detail);
                false
            }
            None => panic!("kernel {}:{}: {detail}", loc.file(), loc.line()),
        }
    }

    #[inline]
    fn local_addr(&self, slot: usize) -> u64 {
        // Fermi interleaves local memory so that the 32 lanes' copies of
        // one slot are contiguous: uniform slot accesses coalesce. The
        // product stays far below u64::MAX: global_warp_id < 2^37 (u32
        // blocks x <=32 warps/block), slots and lane are small, so the
        // address tops out around 2^50 above LOCAL_BASE.
        let slots = self.local_slots as u64;
        LOCAL_BASE + ((self.global_warp_id * slots + slot as u64) * 32 + self.lane as u64) * 8
    }

    /// The warp-SoA arena index of this lane's copy of `slot`.
    #[inline]
    fn local_ix(&self, slot: usize) -> usize {
        slot * self.warp_lanes as usize + self.lane as usize
    }

    /// Loads a per-thread local (spill) `f64` slot.
    #[track_caller]
    #[inline]
    pub fn ld_local(&mut self, slot: usize) -> f64 {
        if !self.check_local(slot, false) {
            return 0.0;
        }
        let addr = self.local_addr(slot);
        self.acc
            .record_mem(Location::caller(), Space::Local, false, addr, 8);
        self.local[self.local_ix(slot)]
    }

    /// Stores a per-thread local (spill) `f64` slot.
    #[track_caller]
    #[inline]
    pub fn st_local(&mut self, slot: usize, v: f64) {
        if !self.check_local(slot, true) {
            return;
        }
        let addr = self.local_addr(slot);
        self.acc
            .record_mem(Location::caller(), Space::Local, true, addr, 8);
        let ix = self.local_ix(slot);
        self.local[ix] = v;
    }

    // ---- shared memory ----

    /// Bounds-checks a shared-memory access against the block's declared
    /// allocation: panic on the plain path, memcheck finding + absorbed
    /// access under sanitize.
    #[track_caller]
    #[inline]
    fn check_shared(&mut self, off: usize, width: usize, store: bool) -> bool {
        if off
            .checked_add(width)
            .is_some_and(|end| end <= self.shared.len())
        {
            return true;
        }
        let dir = if store { "store" } else { "load" };
        let loc = Location::caller();
        let detail = format!(
            "shared {dir} of {width} B at byte offset {off} exceeds the block's {} B shared \
             allocation",
            self.shared.len()
        );
        match self.san.as_deref_mut() {
            Some(san) => {
                san.oob(loc, Space::Shared, off as u64, width, detail);
                false
            }
            None => panic!("kernel {}:{}: {detail}", loc.file(), loc.line()),
        }
    }

    /// Loads an `f64` from block shared memory at byte offset `off`.
    #[track_caller]
    #[inline]
    pub fn sh_ld_f64(&mut self, off: usize) -> f64 {
        if !self.check_shared(off, 8, false) {
            return 0.0;
        }
        let loc = Location::caller();
        self.acc
            .record_mem(loc, Space::Shared, false, off as u64, 8);
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_read(loc, off, 8);
        }
        f64::from_le_bytes(self.shared[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Stores an `f64` to block shared memory at byte offset `off`.
    #[track_caller]
    #[inline]
    pub fn sh_st_f64(&mut self, off: usize, v: f64) {
        if !self.check_shared(off, 8, true) {
            return;
        }
        let loc = Location::caller();
        self.acc.record_mem(loc, Space::Shared, true, off as u64, 8);
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_write(loc, off, 8);
        }
        self.shared[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Loads an `f32` from block shared memory at byte offset `off`.
    #[track_caller]
    #[inline]
    pub fn sh_ld_f32(&mut self, off: usize) -> f32 {
        if !self.check_shared(off, 4, false) {
            return 0.0;
        }
        let loc = Location::caller();
        self.acc
            .record_mem(loc, Space::Shared, false, off as u64, 4);
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_read(loc, off, 4);
        }
        f32::from_le_bytes(self.shared[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Stores an `f32` to block shared memory at byte offset `off`.
    #[track_caller]
    #[inline]
    pub fn sh_st_f32(&mut self, off: usize, v: f32) {
        if !self.check_shared(off, 4, true) {
            return;
        }
        let loc = Location::caller();
        self.acc.record_mem(loc, Space::Shared, true, off as u64, 4);
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_write(loc, off, 4);
        }
        self.shared[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Loads a `u8` from block shared memory.
    #[track_caller]
    #[inline]
    pub fn sh_ld_u8(&mut self, off: usize) -> u8 {
        if !self.check_shared(off, 1, false) {
            return 0;
        }
        let loc = Location::caller();
        self.acc
            .record_mem(loc, Space::Shared, false, off as u64, 1);
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_read(loc, off, 1);
        }
        self.shared[off]
    }

    /// Stores a `u8` to block shared memory.
    #[track_caller]
    #[inline]
    pub fn sh_st_u8(&mut self, off: usize, v: u8) {
        if !self.check_shared(off, 1, true) {
            return;
        }
        let loc = Location::caller();
        self.acc.record_mem(loc, Space::Shared, true, off as u64, 1);
        if let Some(san) = self.san.as_deref_mut() {
            san.shared_write(loc, off, 1);
        }
        self.shared[off] = v;
    }
}

/// Launches `kernel` over `lc` on the device, returning profiler counters,
/// occupancy, and a modelled execution time.
///
/// Blocks run in parallel on host threads; global stores become visible to
/// other blocks only after the launch (see crate docs).
///
/// # Errors
/// [`LaunchError::InvalidConfig`] for malformed grids,
/// [`LaunchError::ResourcesExceeded`] when no block can be resident.
pub fn launch(
    mem: &mut DeviceMemory,
    cfg: &GpuConfig,
    lc: LaunchConfig,
    kernel: &dyn Kernel,
) -> Result<LaunchReport, LaunchError> {
    launch_with(mem, cfg, lc, kernel, LaunchOptions::default())
}

/// [`launch`] with explicit [`LaunchOptions`] — in particular per-site
/// hotspot profiling.
///
/// # Errors
/// Same as [`launch`].
pub fn launch_with(
    mem: &mut DeviceMemory,
    cfg: &GpuConfig,
    lc: LaunchConfig,
    kernel: &dyn Kernel,
    opts: LaunchOptions,
) -> Result<LaunchReport, LaunchError> {
    Ok(BatchLauncher::new(cfg, lc, kernel.resources())?.launch(mem, cfg, kernel, opts))
}

/// A pre-validated launch plan for a fixed grid and resource declaration.
///
/// [`launch_with`] re-checks the grid and re-derives occupancy on every
/// call. A host loop that launches the same kernel shape once per frame —
/// the paper's pipeline, where every frame is one more launch of an
/// identical kernel over an identical grid — pays that setup per frame
/// for no reason. `BatchLauncher::new` does the validation and occupancy
/// derivation once; [`BatchLauncher::launch`] then runs any number of
/// kernels that declare the same [`KernelResources`], infallibly.
///
/// The plan is only meaningful for the `cfg` it was validated against;
/// launching under a different device configuration is a logic error
/// (caught by `debug_assert` on the resource declaration, not the
/// config).
#[derive(Debug, Clone, Copy)]
pub struct BatchLauncher {
    lc: LaunchConfig,
    res: KernelResources,
    occ: Occupancy,
    local_slots: u32,
}

impl BatchLauncher {
    /// Validates `lc` against `cfg` and derives occupancy for a kernel
    /// declaring `res`, returning a reusable plan.
    ///
    /// # Errors
    /// [`LaunchError::InvalidConfig`] for malformed grids,
    /// [`LaunchError::ResourcesExceeded`] when no block can be resident.
    pub fn new(
        cfg: &GpuConfig,
        lc: LaunchConfig,
        res: KernelResources,
    ) -> Result<Self, LaunchError> {
        if lc.blocks == 0 || lc.threads_per_block == 0 {
            return Err(LaunchError::InvalidConfig(format!(
                "grid {}x{} has a zero dimension",
                lc.blocks, lc.threads_per_block
            )));
        }
        if lc.threads_per_block > cfg.max_threads_per_block {
            return Err(LaunchError::InvalidConfig(format!(
                "{} threads/block exceeds the device limit of {}",
                lc.threads_per_block, cfg.max_threads_per_block
            )));
        }
        let occ = occupancy(cfg, &lc, &res).ok_or_else(|| {
            LaunchError::ResourcesExceeded(format!(
                "{} regs/thread and {} B shared leave no resident block",
                res.regs_per_thread, res.shared_bytes_per_block
            ))
        })?;
        let local_slots = u32::try_from(res.local_f64_slots).map_err(|_| {
            LaunchError::ResourcesExceeded(format!(
                "{} local f64 slots per thread exceed the addressable limit",
                res.local_f64_slots
            ))
        })?;
        Ok(BatchLauncher {
            lc,
            res,
            occ,
            local_slots,
        })
    }

    /// The grid this plan was validated for.
    pub fn launch_config(&self) -> LaunchConfig {
        self.lc
    }

    /// The occupancy every launch of this plan will report.
    pub fn occupancy(&self) -> Occupancy {
        self.occ
    }

    /// Runs one pre-validated launch. `kernel` must declare the same
    /// [`KernelResources`] the plan was built with.
    pub fn launch(
        &self,
        mem: &mut DeviceMemory,
        cfg: &GpuConfig,
        kernel: &dyn Kernel,
        opts: LaunchOptions,
    ) -> LaunchReport {
        debug_assert_eq!(
            kernel.resources(),
            self.res,
            "kernel resources changed since BatchLauncher::new"
        );
        launch_prepared(mem, cfg, self, kernel, opts)
    }
}

/// Shared launch body: executes the grid described by a validated plan.
fn launch_prepared(
    mem: &mut DeviceMemory,
    cfg: &GpuConfig,
    plan: &BatchLauncher,
    kernel: &dyn Kernel,
    opts: LaunchOptions,
) -> LaunchReport {
    let lc = plan.lc;
    let res = plan.res;
    let occ = plan.occ;
    let local_slots = plan.local_slots;

    let tpb = lc.threads_per_block;
    let warps_per_block = tpb.div_ceil(cfg.warp_size) as u64;
    let local_arena = res.local_f64_slots * cfg.warp_size as usize;
    let snapshot: &[u8] = mem.raw();
    let init: &InitMask = mem.init_mask();

    type BlockResult = (
        Vec<(u64, OverlayCell)>,
        KernelStats,
        Option<SiteProfile>,
        Option<SanReport>,
        Option<IntervalSet>,
    );
    let results: Vec<BlockResult> = (0..lc.blocks)
        .into_par_iter()
        .map_init(PooledScratch::take, |scratch, b| {
            let BlockScratch {
                writes,
                shared,
                local,
                acc,
                reads,
            } = &mut scratch.0;
            shared.clear();
            shared.resize(res.shared_bytes_per_block, 0);
            if opts.dataflow {
                reads.clear();
            }
            acc.set_profiling(opts.profile_sites);
            let mut stats = KernelStats::default();
            let mut san = opts
                .sanitize
                .then(|| BlockSan::new(b, tpb, res.shared_bytes_per_block));
            // Optional L2: each block simulates a private slice of the
            // shared cache (see crate::cache for the approximation).
            let mut cache = if cfg.l2_bytes > 0 {
                let resident = (cfg.num_sms * occ.resident_blocks).max(1) as usize;
                Some(crate::cache::CacheModel::new(
                    cfg.l2_bytes / resident,
                    cfg.l2_assoc,
                    cfg.segment_bytes,
                ))
            } else {
                None
            };
            let mut w = 0u32;
            while w * cfg.warp_size < tpb {
                let first = w * cfg.warp_size;
                let last = (first + cfg.warp_size).min(tpb);
                // The warp's whole spill arena is zeroed once here instead
                // of per lane; lanes index it slot-major via `local_ix`.
                local.clear();
                local.resize(local_arena, 0.0);
                for t in first..last {
                    acc.begin_lane();
                    if let Some(s) = san.as_mut() {
                        s.begin_thread(t);
                    }
                    let mut ctx = ThreadCtx {
                        block_idx: b,
                        thread_idx: t,
                        threads_per_block: tpb,
                        blocks: lc.blocks,
                        lane: t - first,
                        warp_lanes: cfg.warp_size,
                        local_slots,
                        global_warp_id: b as u64 * warps_per_block + w as u64,
                        snapshot,
                        init,
                        writes: &mut *writes,
                        shared: shared.as_mut_slice(),
                        local: local.as_mut_slice(),
                        acc: &mut *acc,
                        san: san.as_mut(),
                        reads: if opts.dataflow {
                            Some(&mut *reads)
                        } else {
                            None
                        },
                    };
                    kernel.run(&mut ctx);
                }
                acc.end_warp_cached(cfg, &mut stats, cache.as_mut());
                w += 1;
            }
            stats.blocks = 1;
            let sites = acc.take_site_profile();
            let block_reads = opts.dataflow.then(|| reads.take_set());
            (
                writes.take_cells(),
                stats,
                sites,
                san.map(BlockSan::into_report),
                block_reads,
            )
        })
        .collect();

    let mut stats = KernelStats::default();
    let mut sites = opts.profile_sites.then(SiteProfile::new);
    let mut sanitizer = opts.sanitize.then(SanReport::new);
    for (_, s, block_sites, block_san, _) in &results {
        stats.merge(s);
        if let (Some(total), Some(block)) = (&mut sites, block_sites) {
            total.merge(block);
        }
        if let (Some(total), Some(block)) = (&mut sanitizer, block_san) {
            total.merge(block);
        }
    }
    // Publish in block order: byte-granular cells are disjoint within a
    // block, and cross-block collisions resolve last-block-wins,
    // deterministically. Emptied cell vectors go back to the pool for
    // the next block's `take_cells`. The dataflow write set is read off
    // the same cells, so it is exactly the published bytes.
    let mut access_cols = opts
        .dataflow
        .then(|| (IntervalCollector::default(), IntervalCollector::default()));
    for (mut cells, _, _, _, block_reads) in results {
        if let Some((rcol, wcol)) = access_cols.as_mut() {
            if let Some(r) = &block_reads {
                rcol.extend_set(r);
            }
            for &(base, cell) in &cells {
                wcol.record_cell(base, cell.mask);
            }
        }
        for &(base, cell) in &cells {
            mem.apply_masked(base, cell.mask, cell.bytes);
        }
        cells.clear();
        CELL_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < 16 {
                pool.push(cells);
            }
        });
    }
    let access = access_cols.map(|(mut rcol, mut wcol)| LaunchAccess {
        reads: rcol.take_set(),
        writes: wcol.take_set(),
    });

    let timing = kernel_time(&stats, &occ, cfg);
    LaunchReport {
        stats,
        occupancy: occ,
        timing,
        sites,
        sanitizer,
        access,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles every f64 element: out[i] = 2 * in[i].
    struct DoubleKernel {
        input: Buffer,
        output: Buffer,
        n: usize,
    }

    impl Kernel for DoubleKernel {
        fn resources(&self) -> KernelResources {
            KernelResources {
                regs_per_thread: 16,
                shared_bytes_per_block: 0,
                local_f64_slots: 0,
            }
        }

        fn run(&self, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.global_thread_id();
            if i >= self.n {
                return;
            }
            let v = ctx.ld_f64(self.input, i);
            ctx.flop64(1);
            ctx.st_f64(self.output, i, 2.0 * v);
        }
    }

    fn setup(n: usize) -> (DeviceMemory, Buffer, Buffer) {
        let mut mem = DeviceMemory::new(1 << 24);
        let input = mem.alloc_array::<f64>(n).unwrap();
        let output = mem.alloc_array::<f64>(n).unwrap();
        for i in 0..n {
            mem.write_f64(input, i, i as f64);
        }
        (mem, input, output)
    }

    #[test]
    fn functional_output_is_correct() {
        let n = 1000;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let report = launch(&mut mem, &cfg, LaunchConfig::cover(n, 128), &k).unwrap();
        for i in 0..n {
            assert_eq!(mem.read_f64(output, i), 2.0 * i as f64);
        }
        assert_eq!(report.stats.lanes, 1024); // 8 blocks x 128
        assert_eq!(report.stats.flops_f64, 1000); // guarded threads do no work
    }

    #[test]
    fn coalesced_kernel_is_fully_efficient() {
        let n = 4096;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let report = launch(&mut mem, &cfg, LaunchConfig::cover(n, 128), &k).unwrap();
        assert!((report.stats.gld_efficiency(&cfg) - 1.0).abs() < 1e-9);
        assert!((report.stats.gst_efficiency(&cfg) - 1.0).abs() < 1e-9);
        // 4096 f64 loads = 4096*8/128 = 256 transactions.
        assert_eq!(report.stats.global_load_tx, 256);
    }

    #[test]
    fn read_your_own_writes_within_block() {
        /// st then ld the same location in one thread.
        struct Rw {
            buf: Buffer,
        }
        impl Kernel for Rw {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let i = ctx.global_thread_id();
                ctx.st_f64(self.buf, i, 41.0);
                let v = ctx.ld_f64(self.buf, i);
                ctx.st_f64(self.buf, i, v + 1.0);
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc_array::<f64>(64).unwrap();
        let cfg = GpuConfig::default();
        launch(&mut mem, &cfg, LaunchConfig::cover(64, 32), &Rw { buf }).unwrap();
        for i in 0..64 {
            assert_eq!(mem.read_f64(buf, i), 42.0);
        }
    }

    /// Regression for the silent `as u32` truncation in
    /// [`LaunchConfig::cover`]: a thread count needing more than
    /// `u32::MAX` blocks used to wrap around into a tiny grid that
    /// covered almost none of the requested threads. It must panic.
    #[test]
    fn cover_panics_instead_of_truncating_huge_grids() {
        let r = std::panic::catch_unwind(|| LaunchConfig::cover(usize::MAX, 1));
        assert!(r.is_err(), "overflowing grid must panic, not truncate");
        // The largest expressible grid still works at the boundary.
        let lc = LaunchConfig::cover(u32::MAX as usize, 1);
        assert_eq!(lc.blocks, u32::MAX);
    }

    #[test]
    fn zero_grid_rejected() {
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc_array::<f64>(1).unwrap();
        let k = DoubleKernel {
            input: buf,
            output: buf,
            n: 0,
        };
        let cfg = GpuConfig::default();
        let err = launch(
            &mut mem,
            &cfg,
            LaunchConfig {
                blocks: 0,
                threads_per_block: 128,
            },
            &k,
        );
        assert!(matches!(err, Err(LaunchError::InvalidConfig(_))));
    }

    #[test]
    fn oversized_block_rejected() {
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc_array::<f64>(1).unwrap();
        let k = DoubleKernel {
            input: buf,
            output: buf,
            n: 1,
        };
        let cfg = GpuConfig::default();
        let err = launch(
            &mut mem,
            &cfg,
            LaunchConfig {
                blocks: 1,
                threads_per_block: 4096,
            },
            &k,
        );
        assert!(matches!(err, Err(LaunchError::InvalidConfig(_))));
    }

    #[test]
    fn excessive_shared_memory_rejected() {
        struct Fat;
        impl Kernel for Fat {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 1 << 20,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, _ctx: &mut ThreadCtx<'_>) {}
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let cfg = GpuConfig::default();
        let err = launch(
            &mut mem,
            &cfg,
            LaunchConfig {
                blocks: 1,
                threads_per_block: 32,
            },
            &Fat,
        );
        assert!(matches!(err, Err(LaunchError::ResourcesExceeded(_))));
    }

    #[test]
    fn divergent_kernel_reports_low_branch_efficiency() {
        /// Every other lane takes a different path.
        struct Diverge {
            out: Buffer,
        }
        impl Kernel for Diverge {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let i = ctx.global_thread_id();
                if ctx.branch(i.is_multiple_of(2)) {
                    ctx.flop64(10);
                    ctx.st_f64(self.out, i, 1.0);
                } else {
                    ctx.flop64(10);
                    ctx.st_f64(self.out, i, 2.0);
                }
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let out = mem.alloc_array::<f64>(128).unwrap();
        let cfg = GpuConfig::default();
        let report = launch(
            &mut mem,
            &cfg,
            LaunchConfig::cover(128, 128),
            &Diverge { out },
        )
        .unwrap();
        assert_eq!(report.stats.branch_efficiency(), 0.0);
        // Serialization: both sides' flop slots issued in every warp.
        // 4 warps x 2 paths x 10 f64-flops x cost 2 = 160 cycles of flops
        // + 4 branch slots + mem slots.
        assert!(report.stats.issue_cycles >= 160.0);
        for i in 0..128usize {
            let expect = if i.is_multiple_of(2) { 1.0 } else { 2.0 };
            assert_eq!(mem.read_f64(out, i), expect);
        }
    }

    #[test]
    fn shared_memory_round_trips_within_block() {
        /// Each thread stages its value in shared memory and reads it back.
        struct Stage {
            out: Buffer,
        }
        impl Kernel for Stage {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 128 * 8,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let t = ctx.thread_idx();
                let g = ctx.global_thread_id();
                ctx.sh_st_f64(t * 8, g as f64 * 3.0);
                ctx.sync();
                let v = ctx.sh_ld_f64(t * 8);
                ctx.st_f64(self.out, g, v);
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let out = mem.alloc_array::<f64>(256).unwrap();
        let cfg = GpuConfig::default();
        let report = launch(
            &mut mem,
            &cfg,
            LaunchConfig::cover(256, 128),
            &Stage { out },
        )
        .unwrap();
        for i in 0..256 {
            assert_eq!(mem.read_f64(out, i), i as f64 * 3.0);
        }
        // Stride-2 f64 word pattern: lane i touches words 2i, 2i+1 — no
        // two lanes share a bank word pair => conflict-free two-word
        // access... the analyzer reports replays for the 8-byte span.
        assert_eq!(report.stats.shared_accesses, 512);
        assert_eq!(report.stats.sync_slots, 8);
    }

    #[test]
    fn local_memory_is_private_per_thread() {
        struct Spill {
            out: Buffer,
        }
        impl Kernel for Spill {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 4,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let g = ctx.global_thread_id();
                ctx.st_local(2, g as f64);
                let v = ctx.ld_local(2);
                ctx.st_f64(self.out, g, v);
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let out = mem.alloc_array::<f64>(96).unwrap();
        let cfg = GpuConfig::default();
        let report = launch(&mut mem, &cfg, LaunchConfig::cover(96, 32), &Spill { out }).unwrap();
        for i in 0..96 {
            assert_eq!(mem.read_f64(out, i), i as f64);
        }
        // Uniform slot access coalesces: 32 lanes x 8 B = 2 segments per
        // warp; 3 warps; loads and stores each.
        assert_eq!(report.stats.local_store_tx, 6);
        assert_eq!(report.stats.local_load_tx, 6);
        assert_eq!(report.stats.global_store_tx, 6);
    }

    #[test]
    fn default_launch_has_no_site_profile() {
        let n = 256;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let report = launch(&mut mem, &cfg, LaunchConfig::cover(n, 128), &k).unwrap();
        assert!(report.sites.is_none());
    }

    #[test]
    fn profiled_launch_attributes_sites_to_source_lines() {
        let n = 1024;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let opts = LaunchOptions {
            profile_sites: true,
            ..Default::default()
        };
        let report = launch_with(&mut mem, &cfg, LaunchConfig::cover(n, 128), &k, opts).unwrap();
        // Functional output must be unaffected by profiling.
        for i in 0..n {
            assert_eq!(mem.read_f64(output, i), 2.0 * i as f64);
        }
        let sites = report.sites.expect("profiled launch returns sites");
        // DoubleKernel::run has three distinct instrumented call sites
        // (ld_f64, flop64, st_f64) plus warp-divergence-free guards.
        assert!(sites.len() >= 3, "expected >=3 sites, got {}", sites.len());
        let rows = sites.ranked_rows();
        let resolved: Vec<&str> = rows.iter().filter_map(|r| r.source.as_deref()).collect();
        assert!(
            resolved.len() >= 3,
            "all real sites must resolve: {resolved:?}"
        );
        for src in &resolved {
            assert!(src.contains("kernel.rs"), "unexpected site file: {src}");
        }
        // Site-level counters must agree with the launch-level totals.
        let site_tx: u64 = rows.iter().map(|r| r.stats.transactions).sum();
        assert_eq!(site_tx, report.stats.total_tx());
        let site_cycles: f64 = rows.iter().map(|r| r.stats.issue_cycles).sum();
        assert!((site_cycles - report.stats.issue_cycles).abs() < 1e-9);
        // And the rendered table shows source positions, not placeholders.
        let table = sites.hotspot_table(10);
        assert!(table.contains("kernel.rs:"), "table:\n{table}");
    }

    /// Regression for the mixed-width aliasing bug: the write overlay was
    /// keyed by `(addr, width)`, so an 8-byte store read back through a
    /// 4-byte or 1-byte load missed the overlay and returned the stale
    /// pre-launch snapshot. The byte-granular overlay must return the
    /// stored bytes at any width.
    #[test]
    fn mixed_width_store_is_visible_to_narrower_loads() {
        struct MixedWidth {
            data: Buffer,
            out32: Buffer,
            out8: Buffer,
        }
        impl Kernel for MixedWidth {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let i = ctx.global_thread_id();
                // Store a full f64 whose byte pattern is distinguishable,
                // then immediately read it back at narrower widths.
                let v = f64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]);
                ctx.st_f64(self.data, i, v);
                let lo = ctx.ld_f32(self.data, 2 * i); // low 4 bytes
                let b6 = ctx.ld_u8(self.data, 8 * i + 6); // byte 6
                ctx.st_f32(self.out32, i, lo);
                ctx.st_u8(self.out8, i, b6);
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let data = mem.alloc_array::<f64>(64).unwrap();
        let out32 = mem.alloc_array::<f32>(64).unwrap();
        let out8 = mem.alloc_array::<u8>(64).unwrap();
        for i in 0..64 {
            mem.write_f64(data, i, 0.0); // stale snapshot the bug exposed
        }
        let cfg = GpuConfig::default();
        let k = MixedWidth { data, out32, out8 };
        launch(&mut mem, &cfg, LaunchConfig::cover(64, 32), &k).unwrap();
        for i in 0..64 {
            assert_eq!(
                mem.read_f32(out32, i),
                f32::from_le_bytes([1, 2, 3, 4]),
                "narrow f32 load must see the f64 store"
            );
            assert_eq!(mem.read_u8(out8, i), 7, "u8 load must see byte 6");
        }
    }

    /// Narrow stores followed by a wide load must compose overlay bytes
    /// with snapshot bytes.
    #[test]
    fn narrow_stores_compose_into_wider_load() {
        struct Compose {
            data: Buffer,
            out: Buffer,
        }
        impl Kernel for Compose {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let i = ctx.global_thread_id();
                ctx.st_u8(self.data, 8 * i, 0xAA); // patch one byte
                let v = ctx.ld_f64(self.data, i); // rest from snapshot
                ctx.st_f64(self.out, i, v);
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let data = mem.alloc_array::<f64>(32).unwrap();
        let out = mem.alloc_array::<f64>(32).unwrap();
        for i in 0..32 {
            mem.write_f64(data, i, f64::from_le_bytes([0x11; 8]));
        }
        let cfg = GpuConfig::default();
        launch(
            &mut mem,
            &cfg,
            LaunchConfig::cover(32, 32),
            &Compose { data, out },
        )
        .unwrap();
        let expect = f64::from_le_bytes([0xAA, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11]);
        for i in 0..32 {
            assert_eq!(mem.read_f64(out, i), expect);
        }
    }

    /// Kernel-side global accesses are bounds-checked against their
    /// buffer on the plain path (mirror of the `DeviceMemory` typed
    /// accessors): an off-by-one panics instead of touching the
    /// neighboring allocation.
    #[test]
    fn out_of_bounds_global_store_panics_without_sanitizer() {
        struct Oob {
            buf: Buffer,
        }
        impl Kernel for Oob {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                ctx.st_f64(self.buf, ctx.global_thread_id() + 4, 1.0);
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc_array::<f64>(4).unwrap();
        let cfg = GpuConfig::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launch(
                &mut mem,
                &cfg,
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                &Oob { buf },
            )
        }));
        assert!(r.is_err(), "OOB global store must panic on the plain path");
    }

    /// The same out-of-bounds access under `sanitize` is absorbed and
    /// reported as a memcheck finding with a resolved source site.
    #[test]
    fn sanitized_launch_reports_oob_instead_of_panicking() {
        struct Oob {
            buf: Buffer,
            out: Buffer,
        }
        impl Kernel for Oob {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let i = ctx.global_thread_id();
                ctx.st_f64(self.buf, i + 4, 1.0); // OOB for every thread
                ctx.st_f64(self.out, i, 2.0); // rest of the kernel still runs
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc_array::<f64>(4).unwrap();
        let out = mem.alloc_array::<f64>(32).unwrap();
        let cfg = GpuConfig::default();
        let report = launch_with(
            &mut mem,
            &cfg,
            LaunchConfig {
                blocks: 1,
                threads_per_block: 32,
            },
            &Oob { buf, out },
            LaunchOptions {
                sanitize: true,
                ..Default::default()
            },
        )
        .unwrap();
        let san = report.sanitizer.expect("sanitized launch returns a report");
        assert_eq!(san.len(), 1, "one deduplicated finding: {san:?}");
        let f = &san.findings()[0];
        assert_eq!(f.occurrences, 32);
        assert!(f.source.as_deref().unwrap().contains("kernel.rs"));
        // The absorbed stores must not have corrupted the neighbor.
        for i in 0..32 {
            assert_eq!(mem.read_f64(out, i), 2.0);
        }
    }

    /// A clean kernel under `sanitize` yields an empty report and
    /// identical functional output and counters.
    #[test]
    fn sanitize_is_transparent_for_clean_kernels() {
        let n = 1000;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let plain = launch(&mut mem, &cfg, LaunchConfig::cover(n, 128), &k).unwrap();
        let plain_out = mem.download(output);

        let (mut mem2, input2, output2) = setup(n);
        let k2 = DoubleKernel {
            input: input2,
            output: output2,
            n,
        };
        let report = launch_with(
            &mut mem2,
            &cfg,
            LaunchConfig::cover(n, 128),
            &k2,
            LaunchOptions {
                sanitize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.sanitizer.as_ref().unwrap().is_clean());
        assert_eq!(report.stats, plain.stats);
        assert_eq!(mem2.download(output2), plain_out);
    }

    /// Dataflow capture is purely observational: counters and functional
    /// output are bit-identical to a plain launch, and the attached
    /// access summary is the exact byte span of the kernel's external
    /// loads and published stores.
    #[test]
    fn dataflow_capture_is_exact_and_transparent() {
        let n = 1000;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let plain = launch(&mut mem, &cfg, LaunchConfig::cover(n, 128), &k).unwrap();
        let plain_out = mem.download(output);
        assert!(plain.access.is_none(), "plain launches attach no summary");

        let (mut mem2, input2, output2) = setup(n);
        let k2 = DoubleKernel {
            input: input2,
            output: output2,
            n,
        };
        let report = launch_with(
            &mut mem2,
            &cfg,
            LaunchConfig::cover(n, 128),
            &k2,
            LaunchOptions {
                dataflow: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.stats, plain.stats);
        assert_eq!(mem2.download(output2), plain_out);
        let access = report.access.expect("dataflow was requested");
        let bytes = (8 * n) as u64;
        assert_eq!(
            access.reads.runs(),
            &[(input2.addr(), input2.addr() + bytes)]
        );
        assert_eq!(
            access.writes.runs(),
            &[(output2.addr(), output2.addr() + bytes)]
        );
    }

    /// External-read capture at byte granularity inside one overlay
    /// cell: a block that stored part of a cell and then loads `u8`,
    /// `f32` and `f64` over that cell and its neighbours reports exactly
    /// the bytes it did not store — no more, no fewer.
    #[test]
    fn dataflow_capture_is_exact_within_a_partly_stored_cell() {
        /// One thread stores byte 9 and bytes 12..16 of a 32-byte
        /// buffer (cell 1 is partly written), then issues `loads`.
        struct PartialCell {
            buf: Buffer,
            loads: Vec<(usize, usize)>,
        }
        impl Kernel for PartialCell {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                ctx.st_u8(self.buf, 9, 1);
                ctx.st_f32(self.buf, 3, 2.0);
                for &(width, idx) in &self.loads {
                    match width {
                        1 => {
                            ctx.ld_u8(self.buf, idx);
                        }
                        4 => {
                            ctx.ld_f32(self.buf, idx);
                        }
                        _ => {
                            ctx.ld_f64(self.buf, idx);
                        }
                    }
                }
            }
        }
        // (width, element index) loads → expected external runs as byte
        // offsets into the buffer.
        type Loads = &'static [(usize, usize)];
        type Runs = &'static [(u64, u64)];
        let cases: [(Loads, Runs); 9] = [
            (&[(1, 8)], &[(8, 9)]),
            (&[(1, 9)], &[]),
            (&[(1, 10)], &[(10, 11)]),
            (&[(4, 2)], &[(8, 9), (10, 12)]),
            (&[(4, 3)], &[]),
            (&[(8, 1)], &[(8, 9), (10, 12)]),
            (&[(8, 0)], &[(0, 8)]),
            (&[(4, 4), (8, 2)], &[(16, 24)]),
            (
                &[(1, 7), (8, 1), (1, 16), (4, 1)],
                &[(4, 9), (10, 12), (16, 17)],
            ),
        ];
        let cfg = GpuConfig::default();
        for (loads, want) in cases {
            let mut mem = DeviceMemory::new(1 << 16);
            let buf = mem.alloc_array::<f64>(4).unwrap();
            let k = PartialCell {
                buf,
                loads: loads.to_vec(),
            };
            let lc = LaunchConfig {
                blocks: 1,
                threads_per_block: 1,
            };
            let opts = LaunchOptions {
                dataflow: true,
                ..Default::default()
            };
            let access = launch_with(&mut mem, &cfg, lc, &k, opts)
                .unwrap()
                .access
                .expect("dataflow was requested");
            let base = buf.addr();
            let rel = |set: &IntervalSet| -> Vec<(u64, u64)> {
                set.runs()
                    .iter()
                    .map(|&(s, e)| (s - base, e - base))
                    .collect()
            };
            assert_eq!(rel(&access.reads), want, "loads {loads:?}");
            assert_eq!(rel(&access.writes), [(9, 10), (12, 16)]);
        }
    }

    #[test]
    fn default_launch_has_no_sanitizer_report() {
        let n = 64;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let report = launch(&mut mem, &cfg, LaunchConfig::cover(n, 64), &k).unwrap();
        assert!(report.sanitizer.is_none());
    }

    #[test]
    fn report_includes_timing_and_occupancy() {
        let n = 4096;
        let (mut mem, input, output) = setup(n);
        let k = DoubleKernel { input, output, n };
        let cfg = GpuConfig::default();
        let report = launch(&mut mem, &cfg, LaunchConfig::cover(n, 128), &k).unwrap();
        assert!(report.timing.total > 0.0);
        assert!(report.occupancy.occupancy > 0.5);
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;

    /// Launches are bit-deterministic: same inputs, same stats, same
    /// memory — across the rayon-parallel block execution.
    #[test]
    fn identical_launches_are_bit_identical() {
        struct Mixed {
            a: Buffer,
            b: Buffer,
            n: usize,
        }
        impl Kernel for Mixed {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 16,
                    shared_bytes_per_block: 64,
                    local_f64_slots: 2,
                }
            }
            fn run(&self, ctx: &mut ThreadCtx<'_>) {
                let i = ctx.global_thread_id();
                if !ctx.branch(i < self.n) {
                    return;
                }
                let v = ctx.ld_f64(self.a, i);
                ctx.st_local(0, v * 2.0);
                ctx.flop64(3);
                let t = ctx.thread_idx() % 8;
                ctx.sh_st_f64(t * 8, v);
                let w = ctx.sh_ld_f64(t * 8);
                if ctx.branch(i.is_multiple_of(3)) {
                    let spilled = ctx.ld_local(0);
                    ctx.st_f64(self.b, i, w + spilled);
                } else {
                    ctx.st_f64(self.b, i, w);
                }
            }
        }
        let run = || {
            let mut mem = DeviceMemory::new(1 << 22);
            let a = mem.alloc_array::<f64>(5000).unwrap();
            let b = mem.alloc_array::<f64>(5000).unwrap();
            for i in 0..5000 {
                mem.write_f64(a, i, (i as f64).sin());
            }
            let k = Mixed { a, b, n: 5000 };
            let cfg = GpuConfig::default();
            let report = launch(&mut mem, &cfg, LaunchConfig::cover(5000, 128), &k).unwrap();
            (report.stats, mem.download(b))
        };
        let (s1, m1) = run();
        let (s2, m2) = run();
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
    }
}
