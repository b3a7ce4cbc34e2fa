//! GPU kernel for the **adaptive component-count** MoG of the paper's
//! Section II (\[18\]) — implemented to *validate the paper's argument
//! against it*: in lockstep SIMT execution every warp pays for its most
//! complex pixel, so the large average-work reduction adaptivity buys on
//! a CPU mostly evaporates on the GPU (`exp_adaptive` quantifies this).
//!
//! The per-pixel logic mirrors `mogpu_mog::adaptive::step_pixel_adaptive`
//! exactly; the component loop bound is the pixel's own `active` count, so
//! lanes genuinely execute different trip counts — the slot model then
//! charges the warp for the maximum, exactly as Fermi would.

use super::{Components, FramePass};
use crate::device::DeviceReal;
use mogpu_mog::adaptive::PRUNE_WEIGHT;
use mogpu_sim::{lanes, lanes_in, lanes_of, mask_of, Buffer, KernelResources, Lanes, Mask};
use mogpu_sim::{WarpCtx, WarpKernel, WARP_LANES};

/// Adaptive-K MoG kernel (related-work comparator).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveKernel<T: DeviceReal> {
    /// Frame I/O and parameters (`pass.prm.k` is `k_max`).
    pub pass: FramePass<T>,
    /// Per-pixel active component counts (u8, `pixels` entries).
    pub active: Buffer,
}

impl<T: DeviceReal> WarpKernel for AdaptiveKernel<T> {
    fn resources(&self) -> KernelResources {
        self.pass.resources
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let (pass, prm) = (&self.pass, &self.pass.prm);
        let i = w.global_thread_id();
        w.int_op(2);
        let inside = w.branch(mask_of(|l| i[l] < pass.pixels));
        if !w.keep(inside) {
            return;
        }
        let k_max = prm.k;
        let p = lanes_of(w.ld_u8(pass.frame, &i), T::from_u8);
        w.int_op(1);
        let mut active = lanes_of(w.ld_u8(self.active, &i), usize::from);
        w.int_op(1);
        let mut c = Components::<T>::new();
        // Data-dependent trip count: this is where warps diverge.
        per_lane_loop(w, &active, |w, ki, live| {
            let kis = [ki; WARP_LANES];
            w.int_op(1);
            w.branch(live); // divergent loop branch across lanes
            c.w[ki] = pass.model.ld_w(w, &i, &kis);
            c.m[ki] = pass.model.ld_m(w, &i, &kis);
            c.sd[ki] = pass.model.ld_sd(w, &i, &kis);
            let d: Lanes<T> = lanes(|l| (c.m[ki][l] - p[l]).abs());
            T::flop(w, 2);
            c.diff[ki] = d;
            T::flop(w, 1);
            let hit = w.branch(mask_of(|l| d[l] < prm.match_threshold));
            w.when(hit, |w| {
                update(hit, &mut c.w[ki], |_, x| {
                    prm.alpha * x + prm.one_minus_alpha
                });
                T::flop(w, 2);
                let tmp: Lanes<T> = lanes(|l| prm.one_minus_alpha / c.w[ki][l]);
                T::flop(w, 4);
                update(hit, &mut c.m[ki], |l, m| m + tmp[l] * (p[l] - m));
                T::flop(w, 3);
                let dm: Lanes<T> = lanes(|l| p[l] - c.m[ki][l]);
                T::flop(w, 1);
                let sd = c.sd[ki];
                let var: Lanes<T> =
                    lanes(|l| sd[l] * sd[l] + tmp[l] * (dm[l] * dm[l] - sd[l] * sd[l]));
                T::flop(w, 5);
                update(hit, &mut c.sd[ki], |l, _| var[l].max(prm.min_var).sqrt());
                T::flop(w, 5);
                c.matched |= hit;
            });
            w.when(live & !hit, |w| {
                update(live & !hit, &mut c.w[ki], |_, x| prm.alpha * x);
                T::flop(w, 1);
            });
        });

        let unmatched = w.branch(!c.matched);
        w.when(unmatched, |w| {
            let grow = w.branch(mask_of(|l| active[l] < k_max));
            w.when(grow, |w| {
                // Grow.
                for l in lanes_in(grow) {
                    c.set(active[l], l, prm.initial_weight, p[l], prm.initial_sd);
                    active[l] += 1;
                }
                w.int_op(1);
            });
            w.when(unmatched & !grow, |w| {
                // Replace the weakest.
                let mut weakest = [0usize; WARP_LANES];
                per_lane_loop(w, &lanes(|l| active[l].saturating_sub(1)), |w, j, _| {
                    T::flop(w, 1);
                    w.int_op(1);
                    let ki = j + 1;
                    for l in lanes_in(w.active()) {
                        if c.w[ki][l] < c.w[weakest[l]][l] {
                            weakest[l] = ki;
                        }
                    }
                });
                for l in lanes_in(w.active()) {
                    c.set(weakest[l], l, prm.initial_weight, p[l], prm.initial_sd);
                }
            });
        });

        // Prune (mirrors the CPU: backwards swap-removal, keep >= 1).
        let prune = T::from_f64(PRUNE_WEIGHT);
        let trips = active;
        per_lane_loop(w, &trips, |w, j, _| {
            // Each lane walks its components from the last down.
            let ki = lanes(|l| trips[l].saturating_sub(j + 1));
            w.int_op(1);
            T::flop(w, 1);
            let drop = w.branch(mask_of(|l| active[l] > 1 && c.w[ki[l]][l] < prune));
            w.when(drop, |w| {
                for l in lanes_in(drop) {
                    active[l] -= 1;
                    c.swap(ki[l], active[l], l);
                }
                w.int_op(4);
            });
        });

        // Store the active prefix and the new count. (Inactive slots keep
        // stale device values; the CPU reference's inactive slots differ —
        // only the active prefix is semantically meaningful.)
        per_lane_loop(w, &active, |w, ki, live| {
            let kis = [ki; WARP_LANES];
            w.int_op(1);
            w.branch(live); // divergent loop branch
            pass.model.st_w(w, &i, &kis, &c.w[ki]);
            pass.model.st_m(w, &i, &kis, &c.m[ki]);
            pass.model.st_sd(w, &i, &kis, &c.sd[ki]);
        });
        w.st_u8(self.active, &i, &lanes(|l| active[l] as u8));

        // Classify over the active components (no-sort decision).
        let mut fg = w.active();
        per_lane_loop(w, &active, |w, ki, live| {
            w.int_op(1);
            w.branch(live); // divergent loop branch
            let (wk, dk, sdk) = (&c.w[ki], &c.diff[ki], &c.sd[ki]);
            let bg = mask_of(|l| wk[l] >= prm.bg_weight && dk[l] / sdk[l] < prm.bg_sigma_ratio);
            T::flop(w, 6);
            fg &= !(bg & live);
        });
        let out = lanes(|l| if fg >> l & 1 != 0 { 255 } else { 0 });
        w.st_u8(pass.fg, &i, &out);
    }
}

/// Runs `body(w, k, live)` for `k = 0, 1, …` while any lane is live,
/// under `live`: the active lanes with `k < trips[l]`. A loop whose trip
/// count differs per lane.
fn per_lane_loop(
    w: &mut WarpCtx<'_>,
    trips: &Lanes<usize>,
    mut body: impl FnMut(&mut WarpCtx<'_>, usize, Mask),
) {
    for k in 0.. {
        let live = w.active() & mask_of(|l| k < trips[l]);
        if live == 0 {
            return;
        }
        w.when(live, |w| body(w, k, live));
    }
}

/// `v[l] = f(l, v[l])` for the lanes of `mask`.
fn update<T: Copy>(mask: Mask, v: &mut Lanes<T>, f: impl Fn(usize, T) -> T) {
    for l in lanes_in(mask) {
        v[l] = f(l, v[l]);
    }
}
