//! Simulated device (GPU global) memory: a flat byte store with a bump
//! allocator and typed host-side accessors.
//!
//! Kernel-side accesses go through [`crate::lockstep::WarpCtx`], which
//! also records trace events; the accessors here are the host's view (used when
//! initializing Gaussian parameters or reading back results without a DMA
//! timing model — for timed transfers see [`crate::dma`]).

/// A handle to an allocation in [`DeviceMemory`].
///
/// Buffers are plain offset/length pairs: copying one does not alias
/// ownership, it just names the same region (like a raw device pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl Buffer {
    /// Byte length of the allocation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Device byte address of the start of the buffer.
    pub fn addr(&self) -> u64 {
        self.offset as u64
    }

    /// A sub-buffer covering `[byte_off, byte_off + len)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the buffer (including when
    /// `byte_off + len` overflows `usize`).
    pub fn slice(&self, byte_off: usize, len: usize) -> Buffer {
        let end = byte_off
            .checked_add(len)
            .unwrap_or_else(|| panic!("sub-buffer range {byte_off}+{len} overflows usize"));
        assert!(
            end <= self.len,
            "sub-buffer [{byte_off}, {end}) out of range for buffer of {} bytes",
            self.len
        );
        Buffer {
            offset: self.offset + byte_off,
            len,
        }
    }

    /// Byte offset of element `idx` of width `width`, bounds-checked
    /// against this buffer so a mis-sized index can never silently reach
    /// a neighboring allocation.
    #[track_caller]
    fn element_range(&self, idx: usize, width: usize, what: &str) -> usize {
        let end = idx
            .checked_mul(width)
            .and_then(|o| o.checked_add(width))
            .unwrap_or(usize::MAX);
        assert!(
            end <= self.len,
            "{what}: element index {idx} out of bounds for buffer of {} elements ({} bytes)",
            self.len / width,
            self.len
        );
        self.offset + idx * width
    }
}

/// Errors from device memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Allocation would exceed device capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B, {available} B available"
                )
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Bytes per write-overlay page: the unit a block's global stores are
/// buffered and published in (see [`crate::kernel`]). Pages are aligned
/// to their size, so each page covers whole [`InitMask`] words.
pub(crate) const PAGE_BYTES: usize = 512;

/// Bytes per page line: one 64-bit written-byte mask word, and one
/// [`InitMask`] word.
pub(crate) const LINE_BYTES: usize = 64;

/// Lines per overlay page.
pub(crate) const PAGE_LINES: usize = PAGE_BYTES / LINE_BYTES;

/// Bit-per-byte map of device bytes that hold defined data — written by a
/// host typed accessor, covered by an H2D [`DeviceMemory::upload`], or
/// published by a kernel store. The sanitizer's initcheck reads loads
/// against it; allocation alone does *not* mark bytes (fresh device memory
/// is zeroed by the simulator but semantically undefined, as on real
/// hardware).
#[derive(Debug, Default)]
pub(crate) struct InitMask {
    bits: Vec<u64>,
}

impl InitMask {
    /// Marks `len` bytes starting at `start` as initialized.
    ///
    /// Word-granular: the span is split into a partial head word, full
    /// `!0` middle words, and a partial tail word, instead of setting one
    /// bit per byte — uploads and kernel-store publication mark whole
    /// frames, so the per-byte loop was a measurable share of launch
    /// overhead.
    #[inline]
    pub(crate) fn mark(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let need = end.div_ceil(64);
        if self.bits.len() < need {
            self.bits.resize(need, 0);
        }
        let first = start / 64;
        let last = (end - 1) / 64;
        let head = !0u64 << (start % 64);
        // Bits of the exclusive end position, as a mask of everything
        // strictly below it (`end % 64 == 0` means the last word is full).
        let tail = match end % 64 {
            0 => !0u64,
            b => (1u64 << b) - 1,
        };
        if first == last {
            self.bits[first] |= head & tail;
        } else {
            self.bits[first] |= head;
            self.bits[first + 1..last].fill(!0);
            self.bits[last] |= tail;
        }
    }

    /// Whether `byte` has ever been initialized.
    #[inline]
    pub(crate) fn is_init(&self, byte: usize) -> bool {
        self.bits
            .get(byte / 64)
            .is_some_and(|w| w & (1 << (byte % 64)) != 0)
    }

    /// Forgets all marks (keeps the backing storage).
    pub(crate) fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }
}

/// A contiguous piece of device memory that kernel-store publication
/// writes: its bytes and their [`InitMask`] words.
#[derive(Debug)]
pub(crate) struct PublishRange<'a> {
    /// Device address of `data[0]`; a multiple of 64.
    start: usize,
    data: &'a mut [u8],
    /// Initialization word `i` covers `data[64 * i..64 * i + 64]`.
    init: &'a mut [u64],
}

impl PublishRange<'_> {
    /// Whether device address `addr` falls in the range.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        (self.start as u64..(self.start + self.data.len()) as u64).contains(&addr)
    }

    /// Applies one write-overlay page at [`PAGE_BYTES`]-aligned `base`:
    /// byte `64 * l + i` of `bytes` is written where bit `i` of
    /// `mask[l]` is set, and exactly those bytes are marked initialized.
    /// A fully written line is one 64-byte copy; any other line is
    /// copied byte by byte under its mask, so bytes this page did not
    /// store keep whatever an earlier page wrote. Only masked bytes are
    /// touched, so a page reaching past the end of the backing store is
    /// safe as long as its masked bytes came from bounds-checked kernel
    /// stores, and the range must hold every masked byte.
    pub(crate) fn apply_page(
        &mut self,
        base: u64,
        mask: &[u64; PAGE_LINES],
        bytes: &[u8; PAGE_BYTES],
    ) {
        debug_assert_eq!(base as usize % PAGE_BYTES, 0, "unaligned overlay page");
        let base = base as usize - self.start;
        for (l, (&m, src)) in mask.iter().zip(bytes.chunks_exact(LINE_BYTES)).enumerate() {
            if m == 0 {
                continue;
            }
            let at = base + l * LINE_BYTES;
            if m == !0 {
                self.data[at..at + LINE_BYTES].copy_from_slice(src);
            } else {
                let mut rest = m;
                while rest != 0 {
                    let j = rest.trailing_zeros() as usize;
                    self.data[at + j] = src[j];
                    rest &= rest - 1;
                }
            }
            self.init[at / LINE_BYTES] |= m;
        }
    }
}

/// Simulated GPU global memory.
///
/// Backed by a host `Vec<u8>` that grows lazily up to the configured device
/// capacity; allocation is a bump allocator with 256-byte alignment
/// (matching `cudaMalloc`'s alignment guarantee, which is what makes the
/// coalescing analysis of aligned structures faithful).
#[derive(Debug)]
pub struct DeviceMemory {
    data: Vec<u8>,
    capacity: usize,
    cursor: usize,
    init: InitMask,
}

const ALLOC_ALIGN: usize = 256;

impl DeviceMemory {
    /// Creates a device memory of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        DeviceMemory {
            data: Vec::new(),
            capacity,
            cursor: 0,
            init: InitMask::default(),
        }
    }

    /// Creates a device memory with the capacity from `cfg`.
    pub fn with_config(cfg: &crate::config::GpuConfig) -> Self {
        Self::new(cfg.device_mem_bytes)
    }

    /// Allocates `bytes` bytes, 256-byte aligned.
    ///
    /// # Errors
    /// [`MemoryError::OutOfMemory`] if capacity would be exceeded.
    pub fn alloc(&mut self, bytes: usize) -> Result<Buffer, MemoryError> {
        let start = self.cursor.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        // `available` is measured from the *aligned* start: alignment
        // padding is unusable, so reporting it as available would
        // overstate what a retry could get.
        let end = start.checked_add(bytes).ok_or(MemoryError::OutOfMemory {
            requested: bytes,
            available: self.capacity.saturating_sub(start.min(self.capacity)),
        })?;
        if end > self.capacity {
            return Err(MemoryError::OutOfMemory {
                requested: bytes,
                available: self.capacity.saturating_sub(start.min(self.capacity)),
            });
        }
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.cursor = end;
        Ok(Buffer {
            offset: start,
            len: bytes,
        })
    }

    /// Allocates room for `n` elements of `T` (sized by `size_of::<T>()`).
    pub fn alloc_array<T>(&mut self, n: usize) -> Result<Buffer, MemoryError> {
        self.alloc(n * std::mem::size_of::<T>())
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> usize {
        self.cursor
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Releases every allocation (buffers become dangling; the backing
    /// store is kept so re-allocation is cheap). Initialization marks are
    /// dropped with the allocations: re-allocated regions are undefined
    /// again.
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.init.clear();
    }

    pub(crate) fn raw(&self) -> &[u8] {
        &self.data
    }

    /// The initialized-byte map (consulted by the sanitizer's initcheck).
    pub(crate) fn init_mask(&self) -> &InitMask {
        &self.init
    }

    /// Applies one write-overlay page at [`PAGE_BYTES`]-aligned `base`;
    /// see [`PublishRange::apply_page`].
    #[cfg(test)]
    pub(crate) fn apply_page(
        &mut self,
        base: u64,
        mask: &[u64; PAGE_LINES],
        bytes: &[u8; PAGE_BYTES],
    ) {
        for mut whole in self.split_for_publish(1, PAGE_BYTES) {
            whole.apply_page(base, mask, bytes);
        }
    }

    /// Cuts the backing store into at most `parts` disjoint ranges whose
    /// starts are multiples of `align` (itself a multiple of 64), so that
    /// each `align`-aligned page falls in exactly one of them.
    pub(crate) fn split_for_publish(
        &mut self,
        parts: usize,
        align: usize,
    ) -> Vec<PublishRange<'_>> {
        debug_assert_eq!(align % LINE_BYTES, 0, "publish ranges split mid-line");
        let len = self.data.len();
        let words = len.div_ceil(LINE_BYTES);
        if self.init.bits.len() < words {
            self.init.bits.resize(words, 0);
        }
        let step = len.div_ceil(parts.max(1)).div_ceil(align).max(1) * align;
        let mut out = Vec::with_capacity(parts);
        let (mut data, mut init) = (&mut self.data[..], &mut self.init.bits[..words]);
        let mut start = 0;
        while start < len {
            let n = step.min(len - start);
            let (head, tail) = data.split_at_mut(n);
            let (ihead, itail) = init.split_at_mut(n.div_ceil(LINE_BYTES));
            out.push(PublishRange {
                start,
                data: head,
                init: ihead,
            });
            (data, init) = (tail, itail);
            start += n;
        }
        out
    }

    // ---- host-side typed access (untimed, untraced) ----
    //
    // All accessors bounds-check `idx` against the buffer's length: a
    // mis-sized buffer panics with a clear message instead of silently
    // reading or corrupting a neighboring allocation (the bump allocator
    // packs allocations contiguously, so an unchecked overrun would
    // land in valid — but foreign — memory).

    /// Host-side read of an `f64` at element index `idx`.
    ///
    /// # Panics
    /// If `idx` is out of bounds for the buffer.
    #[track_caller]
    pub fn read_f64(&self, buf: Buffer, idx: usize) -> f64 {
        let o = buf.element_range(idx, 8, "read_f64");
        f64::from_le_bytes(self.data[o..o + 8].try_into().expect("8 bytes"))
    }

    /// Host-side write of an `f64` at element index `idx`.
    ///
    /// # Panics
    /// If `idx` is out of bounds for the buffer.
    #[track_caller]
    pub fn write_f64(&mut self, buf: Buffer, idx: usize, v: f64) {
        let o = buf.element_range(idx, 8, "write_f64");
        self.data[o..o + 8].copy_from_slice(&v.to_le_bytes());
        self.init.mark(o, 8);
    }

    /// Host-side read of an `f32` at element index `idx`.
    ///
    /// # Panics
    /// If `idx` is out of bounds for the buffer.
    #[track_caller]
    pub fn read_f32(&self, buf: Buffer, idx: usize) -> f32 {
        let o = buf.element_range(idx, 4, "read_f32");
        f32::from_le_bytes(self.data[o..o + 4].try_into().expect("4 bytes"))
    }

    /// Host-side write of an `f32` at element index `idx`.
    ///
    /// # Panics
    /// If `idx` is out of bounds for the buffer.
    #[track_caller]
    pub fn write_f32(&mut self, buf: Buffer, idx: usize, v: f32) {
        let o = buf.element_range(idx, 4, "write_f32");
        self.data[o..o + 4].copy_from_slice(&v.to_le_bytes());
        self.init.mark(o, 4);
    }

    /// Host-side read of a `u8` at element index `idx`.
    ///
    /// # Panics
    /// If `idx` is out of bounds for the buffer.
    #[track_caller]
    pub fn read_u8(&self, buf: Buffer, idx: usize) -> u8 {
        let o = buf.element_range(idx, 1, "read_u8");
        self.data[o]
    }

    /// Host-side write of a `u8` at element index `idx`.
    ///
    /// # Panics
    /// If `idx` is out of bounds for the buffer.
    #[track_caller]
    pub fn write_u8(&mut self, buf: Buffer, idx: usize, v: u8) {
        let o = buf.element_range(idx, 1, "write_u8");
        self.data[o] = v;
        self.init.mark(o, 1);
    }

    /// Copies a host byte slice into the buffer (untimed; for timed
    /// transfers use [`crate::dma`]).
    ///
    /// # Panics
    /// Panics if `src.len() != buf.len()`.
    pub fn upload(&mut self, buf: Buffer, src: &[u8]) {
        assert_eq!(src.len(), buf.len, "upload size mismatch");
        self.data[buf.offset..buf.offset + buf.len].copy_from_slice(src);
        self.init.mark(buf.offset, buf.len);
    }

    /// Copies the buffer out to a host vector (untimed).
    pub fn download(&self, buf: Buffer) -> Vec<u8> {
        self.data[buf.offset..buf.offset + buf.len].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = DeviceMemory::new(1 << 20);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a.addr() % 256, 0);
        assert_eq!(b.addr() % 256, 0);
        assert!(b.addr() >= a.addr() + 100);
    }

    #[test]
    fn alloc_out_of_memory() {
        let mut m = DeviceMemory::new(1000);
        assert!(m.alloc(512).is_ok());
        let err = m.alloc(512).unwrap_err();
        match err {
            MemoryError::OutOfMemory { requested, .. } => assert_eq!(requested, 512),
        }
    }

    #[test]
    fn typed_round_trips() {
        let mut m = DeviceMemory::new(1 << 16);
        let f = m.alloc_array::<f64>(4).unwrap();
        m.write_f64(f, 2, 3.25);
        assert_eq!(m.read_f64(f, 2), 3.25);
        let g = m.alloc_array::<f32>(4).unwrap();
        m.write_f32(g, 0, -1.5);
        assert_eq!(m.read_f32(g, 0), -1.5);
        let b = m.alloc_array::<u8>(4).unwrap();
        m.write_u8(b, 3, 200);
        assert_eq!(m.read_u8(b, 3), 200);
    }

    #[test]
    fn upload_download_round_trip() {
        let mut m = DeviceMemory::new(1 << 16);
        let buf = m.alloc(5).unwrap();
        m.upload(buf, &[1, 2, 3, 4, 5]);
        assert_eq!(m.download(buf), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn reset_reclaims_space() {
        let mut m = DeviceMemory::new(1024);
        m.alloc(512).unwrap();
        m.reset();
        assert!(m.alloc(512).is_ok());
    }

    #[test]
    fn sub_buffer_addresses() {
        let mut m = DeviceMemory::new(1 << 16);
        let buf = m.alloc(100).unwrap();
        let sub = buf.slice(40, 20);
        assert_eq!(sub.addr(), buf.addr() + 40);
        assert_eq!(sub.len(), 20);
    }

    /// Regression: typed accessors used to index straight into the flat
    /// store, so an out-of-range index silently read the *next*
    /// allocation instead of failing.
    #[test]
    fn typed_access_cannot_reach_neighbor_allocation() {
        let mut m = DeviceMemory::new(1 << 16);
        let a = m.alloc_array::<f64>(4).unwrap();
        let b = m.alloc_array::<f64>(4).unwrap();
        m.write_f64(b, 0, 42.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Index 4 of `a` would land inside the alignment gap / `b`.
            m.read_f64(a, 4)
        }));
        assert!(r.is_err(), "out-of-bounds read must panic, not alias");
    }

    #[test]
    #[should_panic(expected = "write_f32: element index 8 out of bounds")]
    fn typed_write_out_of_bounds_panics() {
        let mut m = DeviceMemory::new(1 << 16);
        let f = m.alloc_array::<f32>(8).unwrap();
        m.write_f32(f, 8, 1.0);
    }

    #[test]
    #[should_panic(expected = "read_u8: element index")]
    fn u8_read_out_of_bounds_panics() {
        let mut m = DeviceMemory::new(1 << 16);
        let b = m.alloc(3).unwrap();
        m.read_u8(b, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn typed_index_overflow_panics() {
        let mut m = DeviceMemory::new(1 << 16);
        let f = m.alloc_array::<f64>(4).unwrap();
        // idx * 8 overflows usize; must panic cleanly, not wrap around.
        m.read_f64(f, usize::MAX / 4);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn slice_overflow_panics() {
        let mut m = DeviceMemory::new(1 << 16);
        let buf = m.alloc(100).unwrap();
        buf.slice(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let mut m = DeviceMemory::new(1 << 16);
        let buf = m.alloc(100).unwrap();
        buf.slice(90, 20);
    }

    #[test]
    fn init_mask_tracks_host_writes_uploads_and_reset() {
        let mut m = DeviceMemory::new(1 << 16);
        let a = m.alloc_array::<f64>(4).unwrap();
        let o = a.addr() as usize;
        // Allocation alone leaves bytes undefined.
        assert!(!m.init_mask().is_init(o));
        m.write_f64(a, 1, 7.0);
        assert!(!m.init_mask().is_init(o));
        for b in o + 8..o + 16 {
            assert!(m.init_mask().is_init(b));
        }
        let u = m.alloc(5).unwrap();
        m.upload(u, &[1, 2, 3, 4, 5]);
        for b in 0..5 {
            assert!(m.init_mask().is_init(u.addr() as usize + b));
        }
        m.reset();
        assert!(!m.init_mask().is_init(o + 8));
        assert!(!m.init_mask().is_init(u.addr() as usize));
    }

    /// A page with one full line, one partial line and six empty ones
    /// writes and marks exactly its masked bytes: the untouched bytes
    /// keep their old values and stay undefined where they were.
    #[test]
    fn apply_page_writes_only_masked_bytes_and_marks_them() {
        let mut m = DeviceMemory::new(1 << 16);
        let a = m.alloc(2 * PAGE_BYTES).unwrap();
        let base = a.addr() + PAGE_BYTES as u64;
        assert_eq!(base % PAGE_BYTES as u64, 0);
        // Only the first page is defined before the publish.
        m.upload(a.slice(0, PAGE_BYTES), &[9; PAGE_BYTES]);
        let bytes: [u8; PAGE_BYTES] = std::array::from_fn(|i| (i % 251) as u8 + 1);
        let mut mask = [0u64; PAGE_LINES];
        mask[1] = !0;
        mask[6] = 0b0110 | 1 << 63;
        m.apply_page(base, &mask, &bytes);
        let page = &m.download(a)[PAGE_BYTES..];
        for (i, (&got, &src)) in page.iter().zip(&bytes).enumerate() {
            let written = mask[i / LINE_BYTES] & (1 << (i % LINE_BYTES)) != 0;
            assert_eq!(got, if written { src } else { 0 }, "byte {i}");
            assert_eq!(
                m.init_mask().is_init(base as usize + i),
                written,
                "byte {i}"
            );
        }
        // The defined page before it is untouched.
        assert!(m.download(a)[..PAGE_BYTES].iter().all(|&b| b == 9));
        assert!((0..PAGE_BYTES).all(|i| m.init_mask().is_init(a.addr() as usize + i)));
    }

    #[test]
    fn init_mask_out_of_range_is_uninitialized() {
        let m = InitMask::default();
        assert!(!m.is_init(0));
        assert!(!m.is_init(1 << 30));
    }

    /// Regression: `OutOfMemory::available` must be measured from the
    /// 256-byte-aligned allocation start, not the raw cursor — the
    /// alignment padding cannot be allocated, so counting it promises
    /// space a retry can never get.
    #[test]
    fn out_of_memory_reports_aligned_available() {
        let mut m = DeviceMemory::new(1000);
        m.alloc(100).unwrap(); // cursor = 100; next aligned start = 256
        match m.alloc(1000).unwrap_err() {
            MemoryError::OutOfMemory {
                requested,
                available,
            } => {
                assert_eq!(requested, 1000);
                assert_eq!(available, 1000 - 256, "available must discount padding");
            }
        }
        // Overflowing request: same aligned accounting.
        match m.alloc(usize::MAX).unwrap_err() {
            MemoryError::OutOfMemory { available, .. } => {
                assert_eq!(available, 1000 - 256);
            }
        }
    }
}
