//! Level W: the windowed/tiled MoG of Section IV-D.
//!
//! Frames are processed in **groups**: each block stages the Gaussian
//! parameters of its 128-pixel tile from global memory into shared
//! memory once, processes the tile across every frame of the group
//! (updating parameters in shared memory), and writes the parameters back
//! once — cutting the dominant Gaussian-parameter DRAM traffic by the
//! group size, at the cost of shared-memory-limited occupancy
//! (~42% instead of 67%).
//!
//! Shared layout is pixel-major ("AoS in shared"): thread `t`'s component
//! `ki` parameter `param` sits at byte `((t*K + ki)*3 + param) *
//! size_of::<T>()`. For f64 this strides 18 words per thread — gcd(18,32)
//! = 2 banks — the mild bank conflict a straightforward port exhibits.
//! [`TiledKernel::record_stride`] exposes the stride for the padding
//! ablation (`exp_ablation`).

use super::{virtual_replace_shared, FramePass};
use crate::device::DeviceReal;
use mogpu_mog::update::MAX_K;
use mogpu_sim::{
    blend, lanes, lanes_of, mask_of, uniform, Buffer, KernelResources, Lanes, Mask, WarpCtx,
    WarpKernel, WARP_LANES,
};

/// Windowed MoG kernel processing `frames.len()` frames per launch.
#[derive(Debug, Clone)]
pub struct TiledKernel<T: DeviceReal> {
    /// Model / parameters / resources (the `frame` and `fg` buffers of
    /// the pass are unused; the group buffers below supersede them).
    pub pass: FramePass<T>,
    /// Input frames of the group, in presentation order.
    pub frames: Vec<Buffer>,
    /// Output masks of the group.
    pub fgs: Vec<Buffer>,
    /// Per-thread record stride in shared memory, in elements of `T`.
    /// `None` packs records tightly (`K*3` elements — the paper-faithful
    /// port; for K=3/f64 the 18-word stride costs only a 2-way bank
    /// conflict). `Some(16)` reproduces the classic pitfall of padding
    /// records to a power of two "for alignment": a 32-word stride maps
    /// every lane to the same bank — quantified by `exp_ablation`.
    pub record_stride: Option<usize>,
}

impl<T: DeviceReal> WarpKernel for TiledKernel<T> {
    fn resources(&self) -> KernelResources {
        self.pass.resources
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let pass = &self.pass;
        let i = w.global_thread_id();
        let t = w.thread_idx();
        w.int_op(2);
        let inside = w.branch(mask_of(|l| i[l] < pass.pixels));
        if !w.keep(inside) {
            return;
        }
        let prm = pass.prm;
        let k = prm.k;
        // Each lane's shared byte offset of parameter `param` of component
        // `ki`: thread `t`'s record starts `t * stride` elements in, so the
        // lanes of one access stride the banks as the module docs
        // describe.
        let off =
            |ki: usize, param: usize| -> Lanes<usize> { lanes(|l| self.sh_off(t[l], ki, param)) };

        // Stage this thread's components into shared memory.
        for ki in 0..k {
            let kis = [ki; WARP_LANES];
            w.int_op(1);
            w.branch(uniform(ki < k)); // uniform loop branch
            let wv = pass.model.ld_w(w, &i, &kis);
            let m = pass.model.ld_m(w, &i, &kis);
            let sd = pass.model.ld_sd(w, &i, &kis);
            T::sh_st(w, &off(ki, 0), &wv);
            T::sh_st(w, &off(ki, 1), &m);
            T::sh_st(w, &off(ki, 2), &sd);
        }
        w.sync();

        // Process every frame of the group against the staged model.
        // Per-frame math is the level-F formulation (predicated update +
        // recomputed diff) operating on shared memory.
        for (f, (frame, fg)) in self.frames.iter().zip(&self.fgs).enumerate() {
            w.int_op(1);
            w.branch(uniform(f < self.frames.len())); // uniform group-loop branch
            let p = lanes_of(w.ld_u8(*frame, &i), T::from_u8);
            w.int_op(1);

            let mut matched: Mask = 0;
            let mut w_reg = [[T::zero(); WARP_LANES]; MAX_K];
            for ki in 0..k {
                w.int_op(1);
                w.branch(uniform(ki < k)); // uniform loop branch
                let mut wv = T::sh_ld(w, &off(ki, 0));
                let mut m = T::sh_ld(w, &off(ki, 1));
                let mut sd = T::sh_ld(w, &off(ki, 2));
                let d: Lanes<T> = lanes(|l| (m[l] - p[l]).abs());
                T::flop(w, 2);
                let is_match = mask_of(|l| d[l] < prm.match_threshold);
                T::flop(w, 1);
                matched |= is_match;
                w.int_op(1);
                let mk: Lanes<T> = lanes(|l| {
                    if is_match >> l & 1 != 0 {
                        T::one()
                    } else {
                        T::zero()
                    }
                });
                T::flop(w, 1);
                wv = lanes(|l| prm.alpha * wv[l] + mk[l] * prm.one_minus_alpha);
                T::flop(w, 3);
                let tmp: Lanes<T> = lanes(|l| prm.one_minus_alpha / wv[l].max(T::from_f64(1e-30)));
                T::flop(w, 5);
                let m_new: Lanes<T> = lanes(|l| m[l] + tmp[l] * (p[l] - m[l]));
                T::flop(w, 3);
                m = lanes(|l| (T::one() - mk[l]) * m[l] + mk[l] * m_new[l]);
                T::flop(w, 4);
                let dm: Lanes<T> = lanes(|l| p[l] - m[l]);
                T::flop(w, 1);
                let var: Lanes<T> =
                    lanes(|l| sd[l] * sd[l] + tmp[l] * (dm[l] * dm[l] - sd[l] * sd[l]));
                T::flop(w, 5);
                let sd_new = lanes(|l| var[l].max(prm.min_var).sqrt());
                T::flop(w, 5);
                sd = lanes(|l| (T::one() - mk[l]) * sd[l] + mk[l] * sd_new[l]);
                T::flop(w, 4);
                T::sh_st(w, &off(ki, 0), &wv);
                T::sh_st(w, &off(ki, 1), &m);
                T::sh_st(w, &off(ki, 2), &sd);
                w_reg[ki] = wv;
            }
            let replace = w.branch(!matched);
            w.when(replace, |w| virtual_replace_shared(w, self, &t, &p, &w_reg));

            // Classification (level-F style, from shared memory).
            let mut fgv = [1u8; WARP_LANES];
            let mut live = w.active();
            for ki in 0..k {
                w.when(live, |w| {
                    w.int_op(1);
                    w.branch(uniform(ki < k)); // uniform loop branch
                    let wv = T::sh_ld(w, &off(ki, 0));
                    let m = T::sh_ld(w, &off(ki, 1));
                    let sd = T::sh_ld(w, &off(ki, 2));
                    let d: Lanes<T> = lanes(|l| (m[l] - p[l]).abs());
                    T::flop(w, 2);
                    let bg =
                        mask_of(|l| wv[l] >= prm.bg_weight && d[l] / sd[l] < prm.bg_sigma_ratio);
                    T::flop(w, 6);
                    let hit = w.branch(bg);
                    blend(hit, &mut fgv, &[0; WARP_LANES]);
                    live &= !hit;
                });
                if live == 0 {
                    break;
                }
            }
            w.st_u8(*fg, &i, &lanes(|l| if fgv[l] == 1 { 255 } else { 0 }));
        }
        w.sync();

        // Write the tile's parameters back to global memory.
        for ki in 0..k {
            let kis = [ki; WARP_LANES];
            w.int_op(1);
            w.branch(uniform(ki < k)); // uniform loop branch
            let wv = T::sh_ld(w, &off(ki, 0));
            let m = T::sh_ld(w, &off(ki, 1));
            let sd = T::sh_ld(w, &off(ki, 2));
            pass.model.st_w(w, &i, &kis, &wv);
            pass.model.st_m(w, &i, &kis, &m);
            pass.model.st_sd(w, &i, &kis, &sd);
        }
    }
}

impl<T: DeviceReal> TiledKernel<T> {
    /// Effective record stride in elements.
    pub fn stride(&self) -> usize {
        self.record_stride.unwrap_or(self.pass.prm.k * 3)
    }

    #[inline]
    pub(crate) fn sh_off(&self, t: usize, ki: usize, param: usize) -> usize {
        (t * self.stride() + ki * 3 + param) * T::BYTES
    }
}
