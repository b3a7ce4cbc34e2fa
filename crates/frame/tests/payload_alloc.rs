//! A header that declares a frame larger than the input must not
//! allocate the declared frame: the readers grow their buffers only as
//! payload bytes arrive. A counting global allocator measures the bytes
//! each read requests on this thread.

use mogpu_frame::{read_pgm, read_y4m, IoError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only a thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested on this thread while `f` runs.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

const MIB: usize = 1 << 20;

#[test]
fn headers_without_payload_fail_before_allocating_the_frame() {
    // 8192 x 8192 is the largest frame the readers accept: 64 MiB.
    let (pgm, bytes) = requested_by(|| read_pgm(&b"P5\n8192 8192 255\n"[..]));
    assert!(matches!(pgm, Err(IoError::Io(_))), "{pgm:?}");
    assert!(
        bytes < MIB,
        "PGM header with no payload requested {bytes} bytes"
    );

    for header in [
        &b"YUV4MPEG2 W8192 H8192 Cmono\nFRAME\n"[..],
        &b"YUV4MPEG2 W8192 H8192 C420\nFRAME\n"[..],
    ] {
        let (y4m, bytes) = requested_by(|| read_y4m(header));
        assert!(matches!(y4m, Err(IoError::Io(_))), "{y4m:?}");
        assert!(
            bytes < MIB,
            "Y4M FRAME with no payload requested {bytes} bytes"
        );
    }
}

#[test]
fn a_short_payload_costs_about_twice_what_is_present() {
    let mut pgm = b"P5\n8192 8192 255\n".to_vec();
    pgm.resize(pgm.len() + 300_000, 7);
    let (out, bytes) = requested_by(|| read_pgm(pgm.as_slice()));
    assert!(matches!(out, Err(IoError::Io(_))), "{out:?}");
    assert!(bytes < 2 * MIB, "300 kB payload requested {bytes} bytes");
}
