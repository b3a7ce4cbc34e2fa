//! Levels D–F: the algorithm-specific optimizations — no-sort scanning
//! (D), source-level predication (E), and register reduction (F).

use super::{update_branchy, update_predicated, FramePass};
use crate::device::DeviceReal;
use mogpu_sim::{
    blend, lanes, lanes_of, mask_of, uniform, KernelResources, WarpCtx, WarpKernel, WARP_LANES,
};

/// The unconditional-scan MoG kernel (Algorithm 3), configurable through
/// the two algorithm-specific optimizations of Table III:
///
/// * `predicated` — parameter updates use the single-path predicated
///   formulation of Algorithm 5 (level E) instead of branches (level D);
/// * `recompute_diff` — classification recomputes `|m − p|` from the
///   updated mean instead of holding `diff[]` live across the phases
///   (level F, the register-reduction transformation; the recomputed
///   value differs slightly because the mean has moved, the source of the
///   paper's 97% -> 95% foreground-quality delta).
#[derive(Debug, Clone, Copy)]
pub struct ScanKernel<T: DeviceReal> {
    /// Frame I/O and parameters.
    pub pass: FramePass<T>,
    /// Use Algorithm 5's predicated update.
    pub predicated: bool,
    /// Recompute `diff` during classification (level F).
    pub recompute_diff: bool,
}

impl<T: DeviceReal> WarpKernel for ScanKernel<T> {
    fn resources(&self) -> KernelResources {
        self.pass.resources
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let pass = &self.pass;
        let i = w.global_thread_id();
        w.int_op(2);
        let inside = w.branch(mask_of(|l| i[l] < pass.pixels));
        if !w.keep(inside) {
            return;
        }
        let prm = &pass.prm;
        let k = prm.k;
        let p = lanes_of(w.ld_u8(pass.frame, &i), T::from_u8);
        w.int_op(1);

        let c = if self.predicated {
            update_predicated(w, &pass.model, &i, &p, prm)
        } else {
            update_branchy(w, &pass.model, &i, &p, prm)
        };

        // Unconditional scan of all components in index order (no rank,
        // no sort). The early exit of Algorithm 3 line 4 remains — it is
        // cheap and its divergence is minor compared to the sort's.
        let mut fgv = [1u8; WARP_LANES];
        let mut live = w.active();
        for ki in 0..k {
            w.when(live, |w| {
                w.int_op(1);
                w.branch(uniform(ki < k)); // uniform loop branch
                let d = if self.recompute_diff {
                    // Level F: |m - p| recomputed against the updated mean.
                    let d = lanes(|l| (c.m[ki][l] - p[l]).abs());
                    T::flop(w, 2);
                    d
                } else {
                    c.diff[ki]
                };
                let bg = mask_of(|l| {
                    c.w[ki][l] >= prm.bg_weight && d[l] / c.sd[ki][l] < prm.bg_sigma_ratio
                });
                T::flop(w, 6);
                let hit = w.branch(bg);
                blend(hit, &mut fgv, &[0; WARP_LANES]);
                live &= !hit;
            });
            if live == 0 {
                break;
            }
        }
        w.st_u8(pass.fg, &i, &lanes(|l| if fgv[l] == 1 { 255 } else { 0 }));
    }
}
