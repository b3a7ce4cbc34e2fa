//! Precision-generic device memory access.
//!
//! [`DeviceReal`] extends the algorithm-side [`Real`] trait with typed
//! loads/stores through a [`WarpCtx`], over [`Lanes`] of operands, so
//! every kernel exists for both the paper's default double precision and
//! the single-precision study of Section V-C.
//!
//! All methods are `#[track_caller]` so the simulator's slot analysis
//! attributes each access to the *kernel* source line, keeping warp-slot
//! alignment correct through this dispatch layer.

use mogpu_mog::Real;
use mogpu_sim::{Buffer, Lanes, WarpCtx};

/// A [`Real`] that can be moved between device memory and registers.
pub trait DeviceReal: Real {
    /// Loads element `idx[l]` of `buf` on each active lane.
    #[track_caller]
    fn ld_warp(w: &mut WarpCtx<'_>, buf: Buffer, idx: &Lanes<usize>) -> Lanes<Self>;

    /// Stores `v[l]` to element `idx[l]` of `buf` on each active lane.
    #[track_caller]
    fn st_warp(w: &mut WarpCtx<'_>, buf: Buffer, idx: &Lanes<usize>, v: &Lanes<Self>);

    /// Loads from shared byte offset `off[l]` on each active lane.
    #[track_caller]
    fn sh_ld_warp(w: &mut WarpCtx<'_>, off: &Lanes<usize>) -> Lanes<Self>;

    /// Stores `v[l]` at shared byte offset `off[l]` on each active lane.
    #[track_caller]
    fn sh_st_warp(w: &mut WarpCtx<'_>, off: &Lanes<usize>, v: &Lanes<Self>);

    /// Charges `n` floating-point operations at this type's precision on
    /// every active lane.
    #[track_caller]
    fn flop_warp(w: &mut WarpCtx<'_>, n: u32);
}

/// Implements [`DeviceReal`] through the [`WarpCtx`] accessors of one
/// width.
macro_rules! warp_forms {
    ($ld:ident, $st:ident, $sh_ld:ident, $sh_st:ident, $flop:ident) => {
        #[track_caller]
        #[inline]
        fn ld_warp(w: &mut WarpCtx<'_>, buf: Buffer, idx: &Lanes<usize>) -> Lanes<Self> {
            w.$ld(buf, idx)
        }

        #[track_caller]
        #[inline]
        fn st_warp(w: &mut WarpCtx<'_>, buf: Buffer, idx: &Lanes<usize>, v: &Lanes<Self>) {
            w.$st(buf, idx, v)
        }

        #[track_caller]
        #[inline]
        fn sh_ld_warp(w: &mut WarpCtx<'_>, off: &Lanes<usize>) -> Lanes<Self> {
            w.$sh_ld(off)
        }

        #[track_caller]
        #[inline]
        fn sh_st_warp(w: &mut WarpCtx<'_>, off: &Lanes<usize>, v: &Lanes<Self>) {
            w.$sh_st(off, v)
        }

        #[track_caller]
        #[inline]
        fn flop_warp(w: &mut WarpCtx<'_>, n: u32) {
            w.$flop(n)
        }
    };
}

impl DeviceReal for f64 {
    warp_forms!(ld_f64, st_f64, sh_ld_f64, sh_st_f64, flop64);
}

impl DeviceReal for f32 {
    warp_forms!(ld_f32, st_f32, sh_ld_f32, sh_st_f32, flop32);
}
