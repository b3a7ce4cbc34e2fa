//! Levels A–C: the direct translation of the serial algorithm — branchy
//! updates plus rank/sort/early-exit classification.
//!
//! The dynamically indexed rank, diff and sort arrays spill to **local
//! memory** under CUDA 4.2 (explicit `ld_local`/`st_local`, 2·K slots);
//! dropping the sort in level D frees them and the 4 registers the paper
//! reports.

use super::{update_branchy, FramePass};
use crate::device::DeviceReal;
use mogpu_mog::update::MAX_K;
use mogpu_sim::{
    blend, lanes, lanes_in, lanes_of, mask_of, uniform, KernelResources, Lanes, WarpCtx,
    WarpKernel, WARP_LANES,
};

impl<T: DeviceReal> WarpKernel for SortedKernel<T> {
    fn resources(&self) -> KernelResources {
        self.pass.resources
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let pass = &self.pass;
        let i = w.global_thread_id();
        w.int_op(2); // blockIdx*blockDim+threadIdx
        let inside = w.branch(mask_of(|l| i[l] < pass.pixels));
        if !w.keep(inside) {
            return;
        }
        let (prm, k) = (&pass.prm, pass.prm.k);
        let p = lanes_of(w.ld_u8(pass.frame, &i), T::from_u8);
        w.int_op(1); // u8 -> float convert

        // Phase 1: match & update (branchy), keeping register copies.
        let c = update_branchy(w, &pass.model, &i, &p, prm);

        // Spill diff[] to local memory (dynamically indexed later).
        for ki in 0..k {
            w.st_local(&[ki; WARP_LANES], &lanes(|l| c.diff[ki][l].to_f64()));
        }

        // Phase 2a: rank = w/sd, spilled for the sort; `order[l]` is lane l's.
        let mut order: Lanes<[usize; MAX_K]> = [std::array::from_fn(|ki| ki); WARP_LANES];
        for ki in 0..k {
            w.int_op(1);
            w.branch(uniform(ki < k)); // uniform loop branch
            let rank: Lanes<T> = lanes(|l| c.w[ki][l] / c.sd[ki][l]);
            T::flop_warp(w, 4);
            w.st_local(&[k + ki; WARP_LANES], &lanes(|l| rank[l].to_f64()));
        }

        // Phase 2b: insertion sort of component indices by descending rank;
        // data-dependent comparison counts diverge (level D drops the sort).
        for ii in 1..k {
            let mut j = [ii; WARP_LANES];
            let mut live = w.active();
            loop {
                let mut cont = 0;
                let deeper = live & mask_of(|l| j[l] > 0);
                w.when(deeper, |w| {
                    let at = |d: usize| lanes(|l| k + order[l][j[l].saturating_sub(d)]);
                    let a = w.ld_local(&at(1));
                    let b = w.ld_local(&at(0));
                    T::flop_warp(w, 1); // compare
                    cont = mask_of(|l| a[l] < b[l]);
                });
                w.when(live, |w| live = w.branch(cont));
                if live == 0 {
                    break;
                }
                for l in lanes_in(live) {
                    order[l].swap(j[l] - 1, j[l]);
                    j[l] -= 1;
                }
                w.when(live, |w| w.int_op(2));
            }
        }

        // Phase 2c: scan in rank order with early exit (Algorithm 2).
        let mut fgv = [1u8; WARP_LANES];
        let mut live = w.active();
        for idx in 0..k {
            w.when(live, |w| {
                let ci: Lanes<usize> = lanes(|l| order[l][idx]);
                w.int_op(1); // order[] indexing
                let d = lanes_of(w.ld_local(&ci), T::from_f64);
                let bg = mask_of(|l| {
                    c.w[ci[l]][l] >= prm.bg_weight && d[l] / c.sd[ci[l]][l] < prm.bg_sigma_ratio
                });
                T::flop_warp(w, 6); // cmp + div + cmp + and
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

/// Sorted/branchy MoG kernel (levels A and B/C differ only in the
/// [`crate::layout::Layout`] of the [`FramePass::model`] and in the host
/// pipeline's overlap mode).
#[derive(Debug, Clone, Copy)]
pub struct SortedKernel<T: DeviceReal> {
    /// Frame I/O and parameters.
    pub pass: FramePass<T>,
}
