//! Kernel resources, the launch machinery and the block write overlay.
//!
//! A kernel is a Rust type implementing [`WarpKernel`]. Its body is the
//! CUDA `__global__` function, run once per warp of every block of the
//! launch grid on a [`WarpCtx`] that holds the warp's 32-lane values under
//! an active mask (see [`crate::lockstep`]). The context performs
//! *functional* loads/stores against simulated device memory while
//! recording the warp instructions that drive the architectural analysis
//! (see [`crate::lockstep`]).
//!
//! Like a CUDA kernel, the body covers every thread of the grid; lanes
//! past the problem size must retire themselves
//! (`if !w.keep(mask_of(|l| i[l] < n)) { return; }`).

use crate::config::GpuConfig;
use crate::dataflow::{IntervalCollector, LaunchAccess};
use crate::lockstep::{
    lanes_in, LaneLog, Lanes, LockstepRecorder, Mask, WarpCtx, WarpKernel, WARP_LANES,
};
use crate::memory::{DeviceMemory, InitMask, PublishRange, LINE_BYTES, PAGE_BYTES, PAGE_LINES};
use crate::occupancy::{occupancy, Occupancy};
use crate::profile::SiteProfile;
use crate::sancheck::{BlockSan, SanReport};
use crate::stats::KernelStats;
use crate::timing::{kernel_time, KernelTiming};
use rayon::prelude::*;
use std::ops::Range;

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

impl LaunchReport {
    /// Folds in `other`, which ran after this one: counters add, and each
    /// observer output both carry merges. Launches fold their blocks in
    /// block order, pipeline calls their launches in launch order.
    /// Occupancy and timing stay this report's.
    pub fn merge(&mut self, other: &LaunchReport) {
        self.stats.merge(&other.stats);
        if let (Some(total), Some(more)) = (&mut self.sites, &other.sites) {
            total.merge(more);
        }
        if let (Some(total), Some(more)) = (&mut self.sanitizer, &other.sanitizer) {
            total.merge(more);
        }
        if let (Some(total), Some(more)) = (&mut self.access, &other.access) {
            total.reads.union_in_place(&more.reads);
            total.writes.union_in_place(&more.writes);
        }
    }
}

/// Byte-granular read-your-writes overlay for one block's global stores.
///
/// Stores land in [`PAGE_BYTES`]-byte, size-aligned pages. Each page
/// holds the stored bytes plus one 64-bit written-byte mask word per
/// 64-byte line, so stores and loads of *different* widths over the same
/// address compose correctly and a store is one copy plus one shift-or.
/// (Regression: the overlay used to be keyed by exact `(address,
/// width)`, so an 8-byte store read back through a 4-byte load silently
/// fell through to the stale pre-launch snapshot.)
///
/// The mask words are the overlay's whole view of "written": loads merge
/// page bytes only where they are set, initcheck and dataflow read them
/// through [`WriteOverlay::written_bits`], and publication copies fully
/// written lines whole and ORs each word into the device's [`InitMask`],
/// whose words line up with page lines.
///
/// Pages are found through a purpose-built open-addressing table
/// (multiply-shift hash on the page number, linear probing) over an
/// insertion-ordered page vector: the per-access lookup on the
/// interpreter's hot path is one multiply and usually one probe, and
/// [`WriteOverlay::take_pages`] recycles the allocation across blocks
/// and launches.
#[derive(Debug)]
pub(crate) struct WriteOverlay {
    /// Bucket → page number, or [`EMPTY_KEY`].
    keys: Vec<u64>,
    /// Bucket → index into `pages` (valid where `keys` is occupied).
    slots: Vec<u32>,
    /// Pages in first-store order.
    pages: Vec<OverlayPage>,
    /// `64 - log2(capacity)`.
    shift: u32,
}

/// Sentinel for an empty overlay bucket. Page numbers are device
/// addresses divided by [`PAGE_BYTES`], so the all-ones pattern can
/// never collide.
const EMPTY_KEY: u64 = u64::MAX;

/// One [`PAGE_BYTES`]-aligned page of a block's stores.
#[derive(Debug)]
struct OverlayPage {
    /// Device address of the page's first byte.
    base: u64,
    /// Bit `i` of word `l`: byte `64 * l + i` was stored.
    mask: [u64; PAGE_LINES],
    bytes: [u8; PAGE_BYTES],
}

/// Mask of the low `n` bits, `1 <= n <= 64`.
#[inline]
pub(crate) fn low_bits(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

impl OverlayPage {
    fn new(base: u64) -> Self {
        OverlayPage {
            base,
            mask: [0; PAGE_LINES],
            bytes: [0; PAGE_BYTES],
        }
    }

    /// Stores `val` at page offset `off` (`val` must fit in the page).
    #[inline(always)]
    fn write(&mut self, off: usize, val: &[u8]) {
        let n = val.len();
        self.bytes[off..off + n].copy_from_slice(val);
        let (line, bit) = (off / LINE_BYTES, off % LINE_BYTES);
        self.mask[line] |= low_bits(n) << bit;
        if bit + n > LINE_BYTES {
            self.mask[line + 1] |= low_bits(bit + n - LINE_BYTES);
        }
    }

    /// [`OverlayPage::write`] for any `val` that fits the page: one copy,
    /// then one shift-or per line it covers.
    fn write_run(&mut self, off: usize, val: &[u8]) {
        self.bytes[off..off + val.len()].copy_from_slice(val);
        for (at, n) in line_pieces(off, val.len()) {
            self.mask[at / LINE_BYTES] |= low_bits(n) << (at % LINE_BYTES);
        }
    }

    /// [`OverlayPage::patch`] for any `out` that fits the page, line by
    /// line.
    fn patch_run(&self, off: usize, out: &mut [u8]) {
        for (at, n) in line_pieces(off, out.len()) {
            let from = at - off;
            self.patch(at, &mut out[from..from + n]);
        }
    }

    /// Which of the `n <= 64` bytes at page offset `off` were stored
    /// (bit `i` = byte `off + i`).
    #[inline]
    fn written(&self, off: usize, n: usize) -> u64 {
        let (line, bit) = (off / LINE_BYTES, off % LINE_BYTES);
        let mut m = self.mask[line] >> bit;
        if bit + n > LINE_BYTES {
            m |= self.mask[line + 1] << (LINE_BYTES - bit);
        }
        m & low_bits(n)
    }

    /// Overwrites `out` (the bytes at page offset `off`) with the bytes
    /// this page stored there.
    #[inline(always)]
    fn patch(&self, off: usize, out: &mut [u8]) {
        let m = self.written(off, out.len());
        if m == low_bits(out.len()) {
            out.copy_from_slice(&self.bytes[off..off + out.len()]);
        } else if m != 0 {
            for (j, o) in out.iter_mut().enumerate() {
                if m & (1 << j) != 0 {
                    *o = self.bytes[off + j];
                }
            }
        }
    }
}

/// The `len` bytes at page offset `off` cut at line boundaries:
/// `(offset, bytes)` per line, in ascending order.
fn line_pieces(off: usize, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = off + len;
    let mut at = off;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let n = (LINE_BYTES - at % LINE_BYTES).min(end - at);
            at += n;
            (at - n, n)
        })
    })
}

impl Default for WriteOverlay {
    fn default() -> Self {
        let cap = 256usize;
        WriteOverlay {
            keys: vec![EMPTY_KEY; cap],
            slots: vec![0; cap],
            pages: Vec::new(),
            shift: 64 - cap.trailing_zeros(),
        }
    }
}

impl WriteOverlay {
    #[inline]
    fn bucket(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Index of page number `page`, or `None` if the block has not
    /// stored into it.
    #[inline]
    fn find(&self, page: u64) -> Option<usize> {
        let mask = self.keys.len() - 1;
        let mut b = self.bucket(page);
        loop {
            let k = self.keys[b];
            if k == page {
                return Some(self.slots[b] as usize);
            }
            if k == EMPTY_KEY {
                return None;
            }
            b = (b + 1) & mask;
        }
    }

    /// Index of page number `page`, appending a fresh page on first
    /// store.
    #[inline]
    fn find_or_insert(&mut self, page: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut b = self.bucket(page);
        loop {
            let k = self.keys[b];
            if k == page {
                return self.slots[b] as usize;
            }
            if k == EMPTY_KEY {
                let ix = self.pages.len();
                self.keys[b] = page;
                self.slots[b] = ix as u32;
                self.pages.push(OverlayPage::new(page * PAGE_BYTES as u64));
                if self.pages.len() * 2 > self.keys.len() {
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
        for (ix, p) in self.pages.iter().enumerate() {
            let page = p.base / PAGE_BYTES as u64;
            let mut b = (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
            while self.keys[b] != EMPTY_KEY {
                b = (b + 1) & mask;
            }
            self.keys[b] = page;
            self.slots[b] = ix as u32;
        }
    }

    /// Splits the `width` bytes at `addr` at the page boundary they may
    /// straddle: `(page number, offset in page, bytes in this page)`.
    #[inline]
    fn split(addr: u64, width: usize) -> (u64, usize, usize) {
        let off = (addr % PAGE_BYTES as u64) as usize;
        (addr / PAGE_BYTES as u64, off, width.min(PAGE_BYTES - off))
    }

    /// The `len` bytes at `addr` cut at page boundaries: `(page number,
    /// offset in page, range of the bytes)` per page, in ascending order.
    fn page_pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
        let mut at = 0;
        std::iter::from_fn(move || {
            (at < len).then(|| {
                let (page, off, n) = Self::split(addr + at as u64, len - at);
                at += n;
                (page, off, at - n..at)
            })
        })
    }

    /// Stores `val` at `addr` page by page, in ascending order: a run
    /// (lane `l` at `addr + l * W`, so pages are created in lane order,
    /// as [`WriteOverlay::store_lanes`] would create them), or one lane's
    /// access across a page boundary. Kept out of line, so the lane loops
    /// it is rare in stay small.
    #[inline(never)]
    pub(crate) fn store_bytes(&mut self, addr: u64, val: &[u8]) {
        for (page, off, range) in Self::page_pieces(addr, val.len()) {
            let ix = self.find_or_insert(page);
            self.pages[ix].write_run(off, &val[range]);
        }
    }

    /// Overwrites `out` (the bytes at `addr`) with the bytes this block
    /// stored there, page by page; out of line like
    /// [`WriteOverlay::store_bytes`].
    #[inline(never)]
    fn patch_bytes(&self, addr: u64, out: &mut [u8]) {
        for (page, off, range) in Self::page_pieces(addr, out.len()) {
            if let Some(ix) = self.find(page) {
                self.pages[ix].patch_run(off, &mut out[range]);
            }
        }
    }

    /// Loads the `W` bytes at `addrs[l]` for the lanes of `valid` of one
    /// warp instruction into `out[l]`: the pre-launch snapshot patched
    /// with any bytes this block has stored. `W` is a constant of each
    /// typed accessor, so the copies are fixed-size moves; an access of
    /// width <= 8 touches at most two pages. Neighbouring lanes mostly
    /// hit the same page, so the page lookup is repeated only when it
    /// changes.
    #[inline]
    pub(crate) fn load_lanes<const W: usize>(
        &self,
        snapshot: &[u8],
        valid: Mask,
        addrs: &Lanes<u64>,
        out: &mut Lanes<[u8; W]>,
    ) {
        let mut cached: (u64, Option<usize>) = (EMPTY_KEY, None);
        for l in lanes_in(valid) {
            let a = addrs[l] as usize;
            out[l].copy_from_slice(&snapshot[a..a + W]);
            if self.pages.is_empty() {
                continue;
            }
            let (page, off, n) = Self::split(addrs[l], W);
            if n == W {
                if page != cached.0 {
                    cached = (page, self.find(page));
                }
                if let Some(ix) = cached.1 {
                    self.pages[ix].patch(off, &mut out[l]);
                }
            } else {
                self.patch_bytes(addrs[l], &mut out[l]);
            }
        }
    }

    /// Stores `vals[l]` (little-endian access bytes) at `addrs[l]` for the
    /// lanes of `valid`, in lane order, with the page lookup repeated
    /// only when the page changes.
    #[inline]
    pub(crate) fn store_lanes<const W: usize>(
        &mut self,
        valid: Mask,
        addrs: &Lanes<u64>,
        vals: &Lanes<[u8; W]>,
    ) {
        let mut cached = (EMPTY_KEY, 0usize);
        for l in lanes_in(valid) {
            let (page, off, n) = Self::split(addrs[l], W);
            if n == W {
                if page != cached.0 {
                    cached = (page, self.find_or_insert(page));
                }
                self.pages[cached.1].write(off, &vals[l]);
            } else {
                self.store_bytes(addrs[l], &vals[l]);
            }
        }
    }

    /// [`WriteOverlay::load_lanes`] for a run, lane `l` at
    /// `base + l * W`: one copy of the snapshot, then each page the run
    /// covers patched line by line.
    #[inline]
    pub(crate) fn load_run<const W: usize>(
        &self,
        snapshot: &[u8],
        base: u64,
        out: &mut Lanes<[u8; W]>,
    ) {
        let out = out.as_flattened_mut();
        let a = base as usize;
        out.copy_from_slice(&snapshot[a..a + out.len()]);
        if !self.pages.is_empty() {
            self.patch_bytes(base, out);
        }
    }

    /// Which of the `width <= 64` bytes at `addr` this block has stored
    /// (bit `i` = byte `addr + i`). Initcheck treats block-local stores
    /// as defining; dataflow counts only the other bytes as external
    /// reads.
    #[inline]
    pub(crate) fn written_bits(&self, addr: u64, width: usize) -> u64 {
        if self.pages.is_empty() {
            return 0;
        }
        let (page, off, n) = Self::split(addr, width);
        let mut m = self
            .find(page)
            .map_or(0, |ix| self.pages[ix].written(off, n));
        if n < width {
            if let Some(ix) = self.find(page + 1) {
                m |= self.pages[ix].written(0, width - n) << n;
            }
        }
        m
    }

    /// Takes the block's pages for publication (in first-store order,
    /// which is deterministic) and resets the table so the overlay is
    /// ready for the next block. The replacement vector comes from the
    /// publish-side recycling pool when that pool is this thread's: on
    /// the launching thread, which publishes, the page storage round-trips
    /// across blocks and launches. Elsewhere the pool is empty and the
    /// vector is sized like this block's pages, since a grid's blocks
    /// store alike.
    fn take_pages(&mut self) -> Vec<OverlayPage> {
        self.keys.fill(EMPTY_KEY);
        let fresh = PAGE_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_else(|| Vec::with_capacity(self.pages.len()));
        std::mem::replace(&mut self.pages, fresh)
    }
}

thread_local! {
    /// Emptied overlay page vectors, recycled from the publish loop back
    /// to `take_pages`. Only the launching thread refills it: the block
    /// fan-out runs its other workers on threads spawned for that launch
    /// (`vendor/rayon` scopes fresh threads on every call), whose pools
    /// start empty and die with them. The vectors therefore round-trip
    /// only for the blocks the launching thread runs itself.
    static PAGE_POOL: std::cell::RefCell<Vec<Vec<OverlayPage>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Per-block interpreter scratch, taken once per launch worker so the
/// overlay table, the shared/local arenas and the recorder's interner
/// and slot tables keep their capacity across the blocks a worker runs.
/// Across launches it survives only on the launching thread: the block
/// fan-out spawns its other workers afresh for every launch (see
/// `PAGE_POOL`), so their scratch starts empty each time, and nothing in
/// it may be needed for more than warm capacity.
#[derive(Default)]
struct BlockScratch {
    writes: WriteOverlay,
    shared: Vec<u8>,
    local: Vec<f64>,
    rec: LockstepRecorder,
    log: LaneLog,
    collector: IntervalCollector,
}

thread_local! {
    static SCRATCH_POOL: std::cell::RefCell<Vec<BlockScratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII handle returning its scratch to the thread-local pool when the
/// worker that borrowed it finishes its share of the launch.
struct PooledScratch(BlockScratch);

impl PooledScratch {
    /// Takes a worker's scratch for one launch.
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
        // A kernel that panicked left the scratch mid-warp.
        if std::thread::panicking() {
            return;
        }
        let scratch = std::mem::take(&mut self.0);
        SCRATCH_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < 8 {
                pool.push(scratch);
            }
        });
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
    kernel: &dyn WarpKernel,
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
    kernel: &dyn WarpKernel,
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
    /// [`LaunchError::InvalidConfig`] for malformed grids or a warp size
    /// other than [`WARP_LANES`],
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
        if cfg.warp_size as usize != WARP_LANES {
            return Err(LaunchError::InvalidConfig(format!(
                "warp size {} is not supported: the simulator runs {WARP_LANES}-lane warps",
                cfg.warp_size
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
        kernel: &dyn WarpKernel,
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

/// What one block hands back to the launch: its overlay pages, and its
/// counters and observer outputs as a one-block report (the launch
/// derives its own timing from the merged counters).
struct BlockResult {
    pages: Vec<OverlayPage>,
    report: LaunchReport,
}

/// Shared launch body: executes the grid described by a validated plan.
fn launch_prepared(
    mem: &mut DeviceMemory,
    cfg: &GpuConfig,
    plan: &BatchLauncher,
    kernel: &dyn WarpKernel,
    opts: LaunchOptions,
) -> LaunchReport {
    let snapshot: &[u8] = mem.raw();
    let init: &InitMask = mem.init_mask();
    let results: Vec<BlockResult> = (0..plan.lc.blocks)
        .into_par_iter()
        .map_init(PooledScratch::take, |scratch, b| {
            run_block(&mut scratch.0, cfg, plan, kernel, opts, snapshot, init, b)
        })
        .collect();

    let mut pages = Vec::with_capacity(results.len());
    let mut report: Option<LaunchReport> = None;
    for block in results {
        pages.push(block.pages);
        match report.as_mut() {
            Some(total) => total.merge(&block.report),
            None => report = Some(block.report),
        }
    }
    let mut report = report.expect("a validated grid has a block");
    report.timing = kernel_time(&report.stats, &plan.occ, cfg);
    publish(mem, &pages);
    // Emptied page vectors go back to the pool for the next block's
    // `take_pages` on this thread.
    PAGE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        for mut block in pages {
            if pool.len() >= 16 {
                break;
            }
            block.clear();
            pool.push(block);
        }
    });
    report
}

/// Runs block `b` of the launch on one worker's scratch: warp after
/// warp, each warp's body once over its lanes, then the warp's lane log
/// replayed into the block's observers.
#[allow(clippy::too_many_arguments)]
fn run_block(
    scratch: &mut BlockScratch,
    cfg: &GpuConfig,
    plan: &BatchLauncher,
    kernel: &dyn WarpKernel,
    opts: LaunchOptions,
    snapshot: &[u8],
    init: &InitMask,
    b: u32,
) -> BlockResult {
    let (lc, res, occ) = (plan.lc, plan.res, plan.occ);
    let tpb = lc.threads_per_block;
    let warps_per_block = tpb.div_ceil(WARP_LANES as u32);
    let local_arena = res.local_f64_slots * WARP_LANES;
    let BlockScratch {
        writes,
        shared,
        local,
        rec,
        log,
        collector,
    } = scratch;
    shared.clear();
    shared.resize(res.shared_bytes_per_block, 0);
    rec.set_profiling(opts.profile_sites);
    rec.set_geometry(cfg);
    log.sanitize = opts.sanitize;
    log.dataflow = opts.dataflow;
    let mut log = (opts.sanitize || opts.dataflow).then_some(log);
    let mut san = opts
        .sanitize
        .then(|| BlockSan::new(b, tpb, res.shared_bytes_per_block));
    let mut reads = opts.dataflow.then(|| {
        collector.clear();
        &mut *collector
    });
    let mut stats = KernelStats::default();
    // Optional L2: each block simulates a private slice of the shared
    // cache (see crate::cache for the approximation).
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
    for w in 0..warps_per_block {
        let first = w * WARP_LANES as u32;
        let lanes = (tpb - first).min(WARP_LANES as u32);
        let global_warp_id = b as u64 * warps_per_block as u64 + w as u64;
        // Lanes index the warp's spill arena slot-major.
        local.clear();
        local.resize(local_arena, 0.0);
        let mut ctx = WarpCtx {
            block_idx: b,
            first_thread: first,
            threads_per_block: tpb,
            local_slots: plan.local_slots,
            global_warp_id,
            active: low_bits(lanes as usize) as Mask,
            snapshot,
            init,
            writes: &mut *writes,
            shared: shared.as_mut_slice(),
            local: local.as_mut_slice(),
            rec: &mut *rec,
            log: log.as_deref_mut(),
        };
        kernel.run_warp(&mut ctx);
        rec.end_warp(cfg, &mut stats, cache.as_mut(), lanes);
        if let Some(log) = log.as_deref_mut() {
            log.replay(san.as_mut(), reads.as_deref_mut(), first, lanes);
        }
    }
    stats.blocks = 1;
    // The dataflow write set is read off the same mask words that
    // publication applies, so it is exactly the published bytes.
    let access = reads.map(|collector| {
        let reads = collector.take_set();
        for p in &writes.pages {
            for (l, &m) in p.mask.iter().enumerate() {
                collector.record_mask(p.base + (l * LINE_BYTES) as u64, m);
            }
        }
        LaunchAccess {
            reads,
            writes: collector.take_set(),
        }
    });
    BlockResult {
        pages: writes.take_pages(),
        report: LaunchReport {
            timing: kernel_time(&stats, &occ, cfg),
            stats,
            occupancy: occ,
            sites: rec.take_site_profile(),
            sanitizer: san.map(BlockSan::into_report),
            access,
        },
    }
}

/// Overlay pages each publish worker gets at least. A helper thread
/// costs 80–120 µs to spawn on a 2-vCPU Xeon VM: timed around the
/// publish of the perfbench workloads there, 150-page morphology
/// launches took 41–67 µs on the calling thread and 117–185 µs split in
/// two, while 2850-, 3900- and 11 400-page kernel launches took the same
/// or up to 15 % less split in two.
const PUBLISH_PAGES_PER_WORKER: usize = 1024;

/// Publishes the blocks' overlay pages to device memory. Pages are
/// disjoint within a block, and cross-block collisions resolve
/// last-block-wins byte by byte. Device memory is cut into page-aligned
/// address ranges, one per core but no more than
/// [`PUBLISH_PAGES_PER_WORKER`] allows, and each worker applies the
/// pages of its range in block order, so every byte ends as the serial
/// block-order publish leaves it.
fn publish(mem: &mut DeviceMemory, blocks: &[Vec<OverlayPage>]) {
    let total: usize = blocks.iter().map(Vec::len).sum();
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    publish_split(
        mem,
        blocks,
        (total / PUBLISH_PAGES_PER_WORKER).clamp(1, workers),
    );
}

/// [`publish`] over `parts` address ranges: the first on the calling
/// thread, each other one on a scoped helper.
fn publish_split(mem: &mut DeviceMemory, blocks: &[Vec<OverlayPage>], parts: usize) {
    let apply = |range: &mut PublishRange<'_>| {
        for p in blocks.iter().flatten() {
            if range.contains(p.base) {
                range.apply_page(p.base, &p.mask, &p.bytes);
            }
        }
    };
    let mut ranges = mem.split_for_publish(parts, PAGE_BYTES);
    let Some((first, rest)) = ranges.split_first_mut() else {
        return;
    };
    std::thread::scope(|s| {
        for range in rest {
            s.spawn(|| apply(range));
        }
        apply(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::IntervalSet;
    use crate::lockstep::{lanes, mask_of};
    use crate::memory::Buffer;

    /// A footprint of `regs` registers, `shared` bytes and `local` slots.
    fn small(regs: u32, shared: usize, local: usize) -> KernelResources {
        KernelResources {
            regs_per_thread: regs,
            shared_bytes_per_block: shared,
            local_f64_slots: local,
        }
    }

    /// Doubles every f64 element: out[i] = 2 * in[i].
    struct DoubleKernel {
        input: Buffer,
        output: Buffer,
        n: usize,
    }

    impl WarpKernel for DoubleKernel {
        fn resources(&self) -> KernelResources {
            small(16, 0, 0)
        }

        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let i = w.global_thread_id();
            if !w.keep(mask_of(|l| i[l] < self.n)) {
                return;
            }
            let v = w.ld_f64(self.input, &i);
            w.flop64(1);
            w.st_f64(self.output, &i, &lanes(|l| 2.0 * v[l]));
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
        impl WarpKernel for Rw {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                w.st_f64(self.buf, &i, &[41.0; WARP_LANES]);
                let v = w.ld_f64(self.buf, &i);
                w.st_f64(self.buf, &i, &lanes(|l| v[l] + 1.0));
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

    /// `GpuConfig`'s fields are public, so a caller can ask for warps of
    /// another width; the launch refuses the config instead of panicking.
    #[test]
    fn warp_size_other_than_32_is_rejected() {
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc_array::<f64>(16).unwrap();
        let k = DoubleKernel {
            input: buf,
            output: buf,
            n: 16,
        };
        let cfg = GpuConfig {
            warp_size: 16,
            ..GpuConfig::default()
        };
        let err = launch(&mut mem, &cfg, LaunchConfig::cover(16, 16), &k).unwrap_err();
        match err {
            LaunchError::InvalidConfig(m) => assert!(m.contains("warp size 16"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert!(BatchLauncher::new(&cfg, LaunchConfig::cover(16, 16), k.resources()).is_err());
    }

    #[test]
    fn excessive_shared_memory_rejected() {
        struct Fat;
        impl WarpKernel for Fat {
            fn resources(&self) -> KernelResources {
                small(8, 1 << 20, 0)
            }
            fn run_warp(&self, _w: &mut WarpCtx<'_>) {}
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
        impl WarpKernel for Diverge {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                let even = w.branch(mask_of(|l| i[l].is_multiple_of(2)));
                let odd = w.active() & !even;
                w.when(even, |w| {
                    w.flop64(10);
                    w.st_f64(self.out, &i, &[1.0; WARP_LANES]);
                });
                w.when(odd, |w| {
                    w.flop64(10);
                    w.st_f64(self.out, &i, &[2.0; WARP_LANES]);
                });
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
        impl WarpKernel for Stage {
            fn resources(&self) -> KernelResources {
                small(8, 128 * 8, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let t = w.thread_idx();
                let g = w.global_thread_id();
                let off = lanes(|l| t[l] * 8);
                w.sh_st_f64(&off, &lanes(|l| g[l] as f64 * 3.0));
                w.sync();
                let v = w.sh_ld_f64(&off);
                w.st_f64(self.out, &g, &v);
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
        impl WarpKernel for Spill {
            fn resources(&self) -> KernelResources {
                small(8, 0, 4)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let g = w.global_thread_id();
                w.st_local(&[2; WARP_LANES], &lanes(|l| g[l] as f64));
                let v = w.ld_local(&[2; WARP_LANES]);
                w.st_f64(self.out, &g, &v);
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
        impl WarpKernel for MixedWidth {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                // Store a full f64 whose byte pattern is distinguishable,
                // then immediately read it back at narrower widths.
                let v = f64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]);
                w.st_f64(self.data, &i, &[v; WARP_LANES]);
                let lo = w.ld_f32(self.data, &lanes(|l| 2 * i[l])); // low 4 bytes
                let b6 = w.ld_u8(self.data, &lanes(|l| 8 * i[l] + 6)); // byte 6
                w.st_f32(self.out32, &i, &lo);
                w.st_u8(self.out8, &i, &b6);
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
        impl WarpKernel for Compose {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                w.st_u8(self.data, &lanes(|l| 8 * i[l]), &[0xAA; WARP_LANES]); // patch one byte
                let v = w.ld_f64(self.data, &i); // rest from snapshot
                w.st_f64(self.out, &i, &v);
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
        impl WarpKernel for Oob {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                w.st_f64(self.buf, &lanes(|l| i[l] + 4), &[1.0; WARP_LANES]);
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

    /// A 64-block launch whose last block stores one past the end panics
    /// with the kernel's `file:line` however the blocks fall on workers:
    /// a helper thread's panic reaches the caller with its own message.
    /// The last warp's store is a run that leaves the buffer, so it goes
    /// lane by lane and only its last lane is out of bounds.
    #[test]
    fn out_of_bounds_store_in_a_late_block_names_the_kernel_site() {
        struct ShiftByOne {
            buf: Buffer,
        }
        impl WarpKernel for ShiftByOne {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                w.st_f64(self.buf, &lanes(|l| i[l] + 1), &[1.0; WARP_LANES]);
            }
        }
        let lc = LaunchConfig {
            blocks: 64,
            threads_per_block: 32,
        };
        let cfg = GpuConfig::default();
        for _ in 0..8 {
            let mut mem = DeviceMemory::new(1 << 20);
            let buf = mem.alloc_array::<f64>(64 * 32).unwrap();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                launch(&mut mem, &cfg, lc, &ShiftByOne { buf })
            }));
            let payload = r.expect_err("the last lane's store is out of bounds");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                msg.starts_with(&format!("kernel {}:", file!())),
                "panic does not name the kernel site: {msg}"
            );
            assert!(msg.contains("global store of 8 B at element 2048"), "{msg}");
        }
    }

    /// The same out-of-bounds access under `sanitize` is absorbed and
    /// reported as a memcheck finding with a resolved source site.
    #[test]
    fn sanitized_launch_reports_oob_instead_of_panicking() {
        struct Oob {
            buf: Buffer,
            out: Buffer,
        }
        impl WarpKernel for Oob {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                // Out of bounds for every thread.
                w.st_f64(self.buf, &lanes(|l| i[l] + 4), &[1.0; WARP_LANES]);
                // The rest of the kernel still runs.
                w.st_f64(self.out, &i, &[2.0; WARP_LANES]);
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
        impl WarpKernel for PartialCell {
            fn resources(&self) -> KernelResources {
                small(8, 0, 0)
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                w.st_u8(self.buf, &[9; WARP_LANES], &[1; WARP_LANES]);
                w.st_f32(self.buf, &[3; WARP_LANES], &[2.0; WARP_LANES]);
                for &(width, idx) in &self.loads {
                    let idx = [idx; WARP_LANES];
                    match width {
                        1 => {
                            w.ld_u8(self.buf, &idx);
                        }
                        4 => {
                            w.ld_f32(self.buf, &idx);
                        }
                        _ => {
                            w.ld_f64(self.buf, &idx);
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
    use crate::lockstep::{lanes, mask_of};
    use crate::memory::Buffer;

    /// Launches are bit-deterministic: same inputs, same stats, same
    /// memory — across the rayon-parallel block execution.
    #[test]
    fn identical_launches_are_bit_identical() {
        struct Mixed {
            a: Buffer,
            b: Buffer,
            n: usize,
        }
        impl WarpKernel for Mixed {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 16,
                    shared_bytes_per_block: 64,
                    local_f64_slots: 2,
                }
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                let inside = w.branch(mask_of(|l| i[l] < self.n));
                if !w.keep(inside) {
                    return;
                }
                let v = w.ld_f64(self.a, &i);
                w.st_local(&[0; WARP_LANES], &lanes(|l| v[l] * 2.0));
                w.flop64(3);
                let t = w.thread_idx();
                let off = lanes(|l| t[l] % 8 * 8);
                w.sh_st_f64(&off, &v);
                let s = w.sh_ld_f64(&off);
                let third = w.branch(mask_of(|l| i[l].is_multiple_of(3)));
                let rest = w.active() & !third;
                w.when(third, |w| {
                    let spilled = w.ld_local(&[0; WARP_LANES]);
                    w.st_f64(self.b, &i, &lanes(|l| s[l] + spilled[l]));
                });
                w.when(rest, |w| w.st_f64(self.b, &i, &s));
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

#[cfg(test)]
mod overlay_tests {
    use super::*;
    use crate::lockstep::{lanes, mask_of};
    use crate::memory::Buffer;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Device bytes the oracle streams address: four overlay pages.
    const WINDOW: usize = 4 * PAGE_BYTES;

    /// One overlay operation of the oracle stream.
    #[derive(Debug, Clone)]
    enum Op {
        Store { addr: u64, width: usize, val: u64 },
        Load { addr: u64, width: usize },
    }

    /// Stores and loads of width 1/2/4/8 at aligned addresses, anywhere
    /// in the window, or across a page boundary.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..3, 0u8..4, 0u8..3, any::<u64>(), any::<u64>()).prop_map(
            |(kind, w, placement, a, val)| {
                let width = 1usize << w;
                let addr = match placement {
                    // Naturally aligned, as kernel stores are.
                    0 => (a % (WINDOW / width) as u64) * width as u64,
                    // Any byte.
                    1 => a % (WINDOW - 8) as u64,
                    // Straddling (or ending at) a page boundary.
                    _ => {
                        let page = 1 + a % (WINDOW / PAGE_BYTES - 1) as u64;
                        page * PAGE_BYTES as u64 - 1 - (a >> 32) % width as u64
                    }
                };
                if kind == 0 {
                    Op::Load { addr, width }
                } else {
                    Op::Store { addr, width, val }
                }
            },
        )
    }

    /// A store of `val`'s low `W` bytes at `addr` on lane 0, as the
    /// typed `st_*` accessors issue it.
    fn store_one<const W: usize>(overlay: &mut WriteOverlay, addr: u64, val: u64) {
        let mut addrs = [0; WARP_LANES];
        let mut vals = [[0; W]; WARP_LANES];
        addrs[0] = addr;
        vals[0].copy_from_slice(&val.to_le_bytes()[..W]);
        overlay.store_lanes(1, &addrs, &vals);
    }

    /// Stores the low `width` bytes of `val` through the accessor of
    /// that constant width.
    fn store_width(overlay: &mut WriteOverlay, addr: u64, width: usize, val: u64) {
        match width {
            1 => store_one::<1>(overlay, addr, val),
            2 => store_one::<2>(overlay, addr, val),
            4 => store_one::<4>(overlay, addr, val),
            _ => store_one::<8>(overlay, addr, val),
        }
    }

    /// A load of `W` bytes at `addr` on lane 0, zero-extended.
    fn load_one<const W: usize>(overlay: &WriteOverlay, snap: &[u8], addr: u64) -> u64 {
        let mut addrs = [0; WARP_LANES];
        let mut out = [[0; W]; WARP_LANES];
        addrs[0] = addr;
        overlay.load_lanes(snap, 1, &addrs, &mut out);
        let mut bytes = [0u8; 8];
        bytes[..W].copy_from_slice(&out[0]);
        u64::from_le_bytes(bytes)
    }

    /// Loads `width` bytes through the accessor of that constant width.
    fn load_width(overlay: &WriteOverlay, snap: &[u8], addr: u64, width: usize) -> u64 {
        match width {
            1 => load_one::<1>(overlay, snap, addr),
            2 => load_one::<2>(overlay, snap, addr),
            4 => load_one::<4>(overlay, snap, addr),
            _ => load_one::<8>(overlay, snap, addr),
        }
    }

    /// The pre-launch device image the loads fall back to.
    fn snapshot() -> Vec<u8> {
        (0..WINDOW).map(|i| (i * 7 % 251) as u8).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The page overlay agrees with a plain byte map: every load
        /// returns the snapshot patched with exactly the stored bytes,
        /// `written_bits` names exactly the stored bytes, and publishing
        /// the pages writes and marks exactly them.
        #[test]
        fn page_overlay_matches_a_byte_map(ops in proptest::collection::vec(arb_op(), 0..200)) {
            let snap = snapshot();
            let mut overlay = WriteOverlay::default();
            let mut model: BTreeMap<u64, u8> = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Store { addr, width, val } => {
                        let bytes = val.to_le_bytes();
                        store_width(&mut overlay, addr, width, val);
                        for (i, &b) in bytes[..width].iter().enumerate() {
                            model.insert(addr + i as u64, b);
                        }
                    }
                    Op::Load { addr, width } => {
                        let mut want = [0u8; 8];
                        let mut want_bits = 0u64;
                        for (i, w) in want[..width].iter_mut().enumerate() {
                            let a = addr + i as u64;
                            *w = model.get(&a).copied().unwrap_or(snap[a as usize]);
                            if model.contains_key(&a) {
                                want_bits |= 1 << i;
                            }
                        }
                        prop_assert_eq!(load_width(&overlay, &snap, addr, width), u64::from_le_bytes(want));
                        prop_assert_eq!(overlay.written_bits(addr, width), want_bits);
                    }
                }
            }
            // Publish onto a device whose first half is defined.
            let mut mem = DeviceMemory::new(WINDOW);
            let buf = mem.alloc(WINDOW).unwrap();
            mem.upload(buf, &snap);
            mem.reset();
            let buf = mem.alloc(WINDOW).unwrap();
            mem.upload(buf.slice(0, WINDOW / 2), &snap[..WINDOW / 2]);
            for p in overlay.take_pages() {
                mem.apply_page(p.base, &p.mask, &p.bytes);
            }
            let image = mem.download(buf);
            for a in 0..WINDOW {
                let stored = model.get(&(a as u64));
                prop_assert_eq!(image[a], stored.copied().unwrap_or(snap[a]), "byte {}", a);
                let init = stored.is_some() || a < WINDOW / 2;
                prop_assert_eq!(mem.init_mask().is_init(a), init, "init {}", a);
            }
            // The overlay is empty again for the next block.
            prop_assert_eq!(overlay.written_bits(0, 8), 0);
            prop_assert_eq!(load_width(&overlay, &snap, 0, 8), u64::from_le_bytes(snap[..8].try_into().unwrap()));
        }
    }

    // ---- runs against lanes ----

    /// The overlay's pages as `(base, mask, bytes)`, in first-store order.
    fn pages_of(overlay: &WriteOverlay) -> Vec<(u64, [u64; PAGE_LINES], Vec<u8>)> {
        overlay
            .pages
            .iter()
            .map(|p| (p.base, p.mask, p.bytes.to_vec()))
            .collect()
    }

    /// An overlay holding the stores of `ops`, each on lane 0.
    fn overlay_after(ops: &[Op]) -> WriteOverlay {
        let mut overlay = WriteOverlay::default();
        for op in ops {
            if let Op::Store { addr, width, val } = *op {
                store_width(&mut overlay, addr, width, val);
            }
        }
        overlay
    }

    /// On two overlays holding `prior`'s stores, the run path and the
    /// lane path agree for a warp of `W`-byte lanes at `base`: a load,
    /// then a store (same bytes, masks and page order), then a load of
    /// the run at `reload`, which sees the store.
    fn run_matches_lanes<const W: usize>(
        prior: &[Op],
        base: u64,
        reload: u64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let snap = snapshot();
        let (mut by_run, mut by_lanes) = (overlay_after(prior), overlay_after(prior));
        let addrs = |b: u64| lanes(|l| b + (l * W) as u64);
        let loads_agree = |run: &WriteOverlay, per_lane: &WriteOverlay, b: u64| {
            let (mut got, mut want) = ([[0u8; W]; WARP_LANES], [[0u8; W]; WARP_LANES]);
            run.load_run(&snap, b, &mut got);
            per_lane.load_lanes(&snap, Mask::MAX, &addrs(b), &mut want);
            prop_assert_eq!(got, want, "load of the run at {}", b);
            Ok(())
        };
        loads_agree(&by_run, &by_lanes, base)?;
        let vals: Lanes<[u8; W]> =
            lanes(|l| std::array::from_fn(|i| (seed >> (8 * ((l + i) % 8))) as u8 ^ l as u8));
        by_run.store_bytes(base, vals.as_flattened());
        by_lanes.store_lanes(Mask::MAX, &addrs(base), &vals);
        prop_assert_eq!(
            pages_of(&by_run),
            pages_of(&by_lanes),
            "store of the run at {}",
            base
        );
        loads_agree(&by_run, &by_lanes, reload)
    }

    /// A run's first byte for lanes of `width` bytes: just before or at
    /// a line or page boundary, or anywhere, with room for the run.
    fn arb_base(width: usize) -> impl Strategy<Value = u64> {
        let room = (WINDOW - WARP_LANES * width) as u64;
        (0u8..3, any::<u64>()).prop_map(move |(placement, a)| {
            let before = (a >> 32) % (width as u64 + 1);
            let base = match placement {
                0 => (1 + a % (WINDOW / LINE_BYTES - 1) as u64) * LINE_BYTES as u64 - before,
                1 => (1 + a % (WINDOW / PAGE_BYTES - 1) as u64) * PAGE_BYTES as u64 - before,
                _ => a % (room + 1),
            };
            base.min(room)
        })
    }

    /// Prior lane-0 stores of every width leave lines fully, partly and
    /// not written.
    fn arb_prior() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(arb_op(), 0..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn u8_runs_match_lanes(prior in arb_prior(), base in arb_base(1), reload in arb_base(1), seed in any::<u64>()) {
            run_matches_lanes::<1>(&prior, base, reload, seed)?;
        }

        #[test]
        fn f32_runs_match_lanes(prior in arb_prior(), base in arb_base(4), reload in arb_base(4), seed in any::<u64>()) {
            run_matches_lanes::<4>(&prior, base, reload, seed)?;
        }

        #[test]
        fn f64_runs_match_lanes(prior in arb_prior(), base in arb_base(8), reload in arb_base(8), seed in any::<u64>()) {
            run_matches_lanes::<8>(&prior, base, reload, seed)?;
        }
    }

    /// The named run shapes: within one line, across line boundaries
    /// and across a page boundary, over a partly written line, a fully
    /// written line and an empty overlay, each followed by a load of the
    /// same run or of one shifted into unstored bytes.
    #[test]
    fn runs_over_lines_pages_and_partial_masks_match_lanes() {
        let page = PAGE_BYTES as u64;
        let mut prior = Vec::new();
        // Every third byte of line 0 of page 1; all of line 2 of page 1.
        for a in (page..page + 64).step_by(3) {
            prior.push(Op::Store {
                addr: a,
                width: 1,
                val: a,
            });
        }
        for a in (page + 128..page + 192).step_by(8) {
            prior.push(Op::Store {
                addr: a,
                width: 8,
                val: !a,
            });
        }
        let seed = 0x0123_4567_89AB_CDEF;
        for base in [
            page + 8,
            page + 60,
            page - 8,
            page - 4,
            page + 120,
            2 * page - 1,
        ] {
            run_matches_lanes::<1>(&prior, base, base + 3, seed).unwrap();
            run_matches_lanes::<4>(&prior, base, base + 64, seed).unwrap();
            run_matches_lanes::<8>(&prior, base, base, seed).unwrap();
            run_matches_lanes::<8>(&prior, base, base + 100, seed).unwrap();
            run_matches_lanes::<8>(&[], base, base + 4, seed).unwrap();
        }
    }

    /// Block 0 stores whole f64s over a buffer; block 1 then stores
    /// scattered bytes and f32s over the same bytes. Publication in
    /// block order makes block 1 win exactly the bytes it stored and
    /// leaves block 0's bytes everywhere else, line by line.
    #[test]
    fn later_block_wins_overlapping_bytes_one_by_one() {
        struct Overlap {
            buf: Buffer,
        }
        impl WarpKernel for Overlap {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let t = w.thread_idx();
                // One 32-thread warp per block: block 0 is global threads 0..32.
                let block0 = mask_of(|l| w.global_thread_id()[l] < 32);
                w.when(block0, |w| {
                    let v = lanes(|l| f64::from_bits(0x0101_0101_0101_0101 * (t[l] as u64 + 1)));
                    w.st_f64(self.buf, &t, &v);
                });
                w.when(!block0, |w| {
                    w.when(mask_of(|l| t[l].is_multiple_of(3)), |w| {
                        let idx = lanes(|l| 8 * t[l] + t[l] % 8);
                        w.st_u8(self.buf, &idx, &lanes(|l| 0xE0 | t[l] as u8));
                    });
                    w.when(mask_of(|l| t[l].is_multiple_of(5)), |w| {
                        let v = [f32::from_bits(0xA0B0_C0D0); WARP_LANES];
                        w.st_f32(self.buf, &lanes(|l| 2 * t[l] + 1), &v);
                    });
                });
            }
        }
        let mut mem = DeviceMemory::new(1 << 16);
        let buf = mem.alloc_array::<f64>(32).unwrap();
        let cfg = GpuConfig::default();
        let lc = LaunchConfig {
            blocks: 2,
            threads_per_block: 32,
        };
        launch(&mut mem, &cfg, lc, &Overlap { buf }).unwrap();
        let mut want: Vec<u8> = (0..256).map(|i| (i / 8 + 1) as u8).collect();
        for t in 0..32usize {
            if t.is_multiple_of(3) {
                want[8 * t + t % 8] = 0xE0 | t as u8;
            }
            if t.is_multiple_of(5) {
                want[8 * t + 4..8 * t + 8].copy_from_slice(&0xA0B0_C0D0u32.to_le_bytes());
            }
        }
        assert_eq!(mem.download(buf), want);
    }

    /// Publishing over any number of address ranges leaves every byte
    /// and initialization mark as applying the blocks' pages one after
    /// another does, colliding pages included (last block wins).
    #[test]
    fn split_publish_matches_block_order() {
        const PAGES: usize = 16;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            seed >> 11
        };
        let blocks: Vec<Vec<OverlayPage>> = (0..4)
            .map(|_| {
                let mut pages: Vec<usize> = (0..PAGES).filter(|_| next() % 3 == 0).collect();
                pages.dedup();
                pages
                    .into_iter()
                    .map(|page| OverlayPage {
                        base: (page * PAGE_BYTES) as u64,
                        mask: std::array::from_fn(|_| match next() % 3 {
                            0 => 0,
                            1 => !0,
                            _ => next(),
                        }),
                        bytes: std::array::from_fn(|_| next() as u8),
                    })
                    .collect()
            })
            .collect();
        let fresh = || {
            let mut mem = DeviceMemory::new(PAGES * PAGE_BYTES);
            let buf = mem.alloc(PAGES * PAGE_BYTES).unwrap();
            let half = PAGES * PAGE_BYTES / 2;
            mem.upload(buf.slice(0, half), &vec![7; half]);
            (mem, buf)
        };
        let (mut want, buf) = fresh();
        for p in blocks.iter().flatten() {
            want.apply_page(p.base, &p.mask, &p.bytes);
        }
        for parts in 1..=5 {
            let (mut mem, _) = fresh();
            publish_split(&mut mem, &blocks, parts);
            assert_eq!(mem.download(buf), want.download(buf), "{parts} ranges");
            for a in 0..PAGES * PAGE_BYTES {
                assert_eq!(
                    mem.init_mask().is_init(a),
                    want.init_mask().is_init(a),
                    "{parts} ranges, init {a}"
                );
            }
        }
    }

    /// Publication marks exactly the bytes a launch stored in the
    /// device's initialization map: sparse bytes, whole f64s and f32s,
    /// and nothing around them.
    #[test]
    fn publish_marks_exactly_the_stored_bytes() {
        /// Thread t stores a byte at 37t, and thread t < 8 an f64 at
        /// element 100 + 3t and an f32 at element 300 + t.
        struct Sparse {
            buf: Buffer,
        }
        impl WarpKernel for Sparse {
            fn resources(&self) -> KernelResources {
                KernelResources {
                    regs_per_thread: 8,
                    shared_bytes_per_block: 0,
                    local_f64_slots: 0,
                }
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let t = w.global_thread_id();
                w.st_u8(self.buf, &lanes(|l| 37 * t[l]), &[1; WARP_LANES]);
                w.when(mask_of(|l| t[l] < 8), |w| {
                    w.st_f64(self.buf, &lanes(|l| 100 + 3 * t[l]), &[2.0; WARP_LANES]);
                    w.st_f32(self.buf, &lanes(|l| 300 + t[l]), &[3.0; WARP_LANES]);
                });
            }
        }
        let mut mem = DeviceMemory::new(1 << 16);
        let before = mem.alloc(256).unwrap();
        let buf = mem.alloc(64 * 37).unwrap();
        let after = mem.alloc(256).unwrap();
        let cfg = GpuConfig::default();
        launch(&mut mem, &cfg, LaunchConfig::cover(64, 32), &Sparse { buf }).unwrap();
        let mut want = vec![false; buf.len()];
        for t in 0..64 {
            want[37 * t] = true;
        }
        for t in 0..8 {
            want[8 * (100 + 3 * t)..8 * (101 + 3 * t)].fill(true);
            want[4 * (300 + t)..4 * (301 + t)].fill(true);
        }
        let base = buf.addr() as usize;
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(mem.init_mask().is_init(base + i), w, "byte {i}");
        }
        for b in [before, after] {
            let a = b.addr() as usize;
            assert!((a..a + b.len()).all(|i| !mem.init_mask().is_init(i)));
        }
    }
}
