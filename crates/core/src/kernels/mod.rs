//! GPU MoG kernels, one per optimization family.
//!
//! Kernels deliberately use CUDA-style indexed loops (`for ki in 0..k`),
//! mirroring the device code they model, rather than iterator chains.
#![allow(clippy::needless_range_loop)]
//!
//! The per-component arithmetic mirrors `mogpu_mog::update` operation for
//! operation, so kernel outputs are bit-identical to the CPU reference at
//! matching optimization levels (asserted by the integration tests). Every
//! arithmetic expression is accompanied by a `flop` charge and every
//! data-dependent conditional goes through `branch`, which is what gives
//! the simulator its branch-efficiency and issue-cycle counters.
//!
//! Every kernel is written in warp form: its body runs once per warp,
//! on [`WarpCtx`] over [`Lanes`] of per-lane values,
//! and a data-dependent `if`/`else` becomes two masked regions
//! ([`WarpCtx::when`]) that the lanes taking each side execute. Registers
//! are `[Lanes<T>; MAX_K]` arrays, component-major. A region computes all
//! 32 lanes and [`blend`]s the results into the lanes that execute it, so
//! the arithmetic is straight 32-wide loops. Values of lanes outside the
//! active mask are computed but never stored, so they may be anything.
//! The adaptive kernel's loops over a per-pixel component count run
//! while any lane of the warp has components left.
//!
//! FLOP charging convention: add/sub/mul/compare/select = 1, division = 4,
//! square root = 4 (SFU-assisted on Fermi).

pub mod adaptive;
pub mod morph;
pub mod scan;
pub mod sorted;
pub mod tiled;

pub use adaptive::AdaptiveKernel;
pub use morph::{gpu_morph, gpu_morph_with, MorphKernel, MorphOp};
pub use scan::ScanKernel;
pub use sorted::SortedKernel;
pub use tiled::TiledKernel;

use crate::device::DeviceReal;
use crate::layout::DeviceModel;
use mogpu_mog::update::MAX_K;
use mogpu_mog::ResolvedParams;
use mogpu_sim::{
    blend, lanes, lanes_in, mask_of, uniform, Buffer, KernelResources, Lanes, Mask, WarpCtx,
    WARP_LANES,
};

/// Branchy match-and-update (Algorithm 1 lines 3–11 / Algorithm 4):
/// loads components, updates them with per-component `if match` branches,
/// and stores back — weights always, mean/sd only on the matched path
/// (which is why levels A–D show reduced store efficiency under
/// divergence). Returns the lanes' register copies.
pub(crate) fn update_branchy<T: DeviceReal>(
    w: &mut WarpCtx<'_>,
    model: &DeviceModel<T>,
    i: &Lanes<usize>,
    p: &Lanes<T>,
    prm: &ResolvedParams<T>,
) -> Components<T> {
    let k = prm.k;
    let mut c = Components::new();
    for ki in 0..k {
        let kis = [ki; WARP_LANES];
        w.int_op(1); // loop counter
        w.branch(uniform(ki < k)); // uniform loop branch
        c.w[ki] = model.ld_w_warp(w, i, &kis);
        c.m[ki] = model.ld_m_warp(w, i, &kis);
        c.sd[ki] = model.ld_sd_warp(w, i, &kis);
        let d: Lanes<T> = lanes(|l| (c.m[ki][l] - p[l]).abs());
        T::flop_warp(w, 2);
        c.diff[ki] = d;
        T::flop_warp(w, 1); // compare
        let hit = w.branch(mask_of(|l| d[l] < prm.match_threshold));
        let miss = w.active() & !hit;
        w.when(hit, |w| {
            let wk = lanes(|l| prm.alpha * c.w[ki][l] + prm.one_minus_alpha);
            T::flop_warp(w, 2);
            let tmp: Lanes<T> = lanes(|l| prm.one_minus_alpha / wk[l]);
            T::flop_warp(w, 4);
            let mk = lanes(|l| c.m[ki][l] + tmp[l] * (p[l] - c.m[ki][l]));
            T::flop_warp(w, 3);
            let dm: Lanes<T> = lanes(|l| p[l] - mk[l]);
            T::flop_warp(w, 1);
            let sd = &c.sd[ki];
            let var: Lanes<T> = lanes(|l| sd[l] * sd[l] + tmp[l] * (dm[l] * dm[l] - sd[l] * sd[l]));
            T::flop_warp(w, 5);
            let sdk = lanes(|l| var[l].max(prm.min_var).sqrt());
            T::flop_warp(w, 5);
            blend(hit, &mut c.w[ki], &wk);
            blend(hit, &mut c.m[ki], &mk);
            blend(hit, &mut c.sd[ki], &sdk);
            c.matched |= hit;
            model.st_w_warp(w, i, &kis, &c.w[ki]);
            model.st_m_warp(w, i, &kis, &c.m[ki]);
            model.st_sd_warp(w, i, &kis, &c.sd[ki]);
        });
        w.when(miss, |w| {
            let wk = lanes(|l| prm.alpha * c.w[ki][l]);
            T::flop_warp(w, 1);
            blend(miss, &mut c.w[ki], &wk);
            model.st_w_warp(w, i, &kis, &c.w[ki]);
        });
    }
    let replace = w.branch(!c.matched);
    w.when(replace, |w| virtual_replace(w, model, i, p, &mut c, prm));
    c
}

/// Source-level predicated match-and-update (Algorithm 5, levels E–W):
/// one execution path, all stores unconditional. Bit-identical parameter
/// results to [`update_branchy`] (the predicate multiplies by exactly 0 or
/// 1; the division guard never perturbs the selected path).
pub(crate) fn update_predicated<T: DeviceReal>(
    w: &mut WarpCtx<'_>,
    model: &DeviceModel<T>,
    i: &Lanes<usize>,
    p: &Lanes<T>,
    prm: &ResolvedParams<T>,
) -> Components<T> {
    let k = prm.k;
    let mut c = Components::new();
    for ki in 0..k {
        let kis = [ki; WARP_LANES];
        w.int_op(1);
        w.branch(uniform(ki < k)); // uniform loop branch
        c.w[ki] = model.ld_w_warp(w, i, &kis);
        c.m[ki] = model.ld_m_warp(w, i, &kis);
        c.sd[ki] = model.ld_sd_warp(w, i, &kis);
        let d: Lanes<T> = lanes(|l| (c.m[ki][l] - p[l]).abs());
        T::flop_warp(w, 2);
        c.diff[ki] = d;
        let is_match = mask_of(|l| d[l] < prm.match_threshold);
        T::flop_warp(w, 1); // setp, no branch
        c.matched |= is_match;
        w.int_op(1);
        let mk: Lanes<T> = lanes(|l| {
            if is_match >> l & 1 != 0 {
                T::one()
            } else {
                T::zero()
            }
        });
        T::flop_warp(w, 1); // select
        c.w[ki] = lanes(|l| prm.alpha * c.w[ki][l] + mk[l] * prm.one_minus_alpha);
        T::flop_warp(w, 3);
        let tmp: Lanes<T> = lanes(|l| prm.one_minus_alpha / c.w[ki][l].max(T::from_f64(1e-30)));
        T::flop_warp(w, 5);
        let m_new: Lanes<T> = lanes(|l| c.m[ki][l] + tmp[l] * (p[l] - c.m[ki][l]));
        T::flop_warp(w, 3);
        c.m[ki] = lanes(|l| (T::one() - mk[l]) * c.m[ki][l] + mk[l] * m_new[l]);
        T::flop_warp(w, 4);
        let dm: Lanes<T> = lanes(|l| p[l] - c.m[ki][l]);
        T::flop_warp(w, 1);
        let sd = &c.sd[ki];
        let var: Lanes<T> = lanes(|l| sd[l] * sd[l] + tmp[l] * (dm[l] * dm[l] - sd[l] * sd[l]));
        T::flop_warp(w, 5);
        let sd_new = lanes(|l| var[l].max(prm.min_var).sqrt());
        T::flop_warp(w, 5);
        c.sd[ki] = lanes(|l| (T::one() - mk[l]) * c.sd[ki][l] + mk[l] * sd_new[l]);
        T::flop_warp(w, 4);
        model.st_w_warp(w, i, &kis, &c.w[ki]);
        model.st_m_warp(w, i, &kis, &c.m[ki]);
        model.st_sd_warp(w, i, &kis, &c.sd[ki]);
    }
    let replace = w.branch(!c.matched);
    w.when(replace, |w| virtual_replace(w, model, i, p, &mut c, prm));
    c
}

/// Shared-memory counterpart of [`virtual_replace`] for the tiled kernel:
/// the weakest component (by the register copies `wr` of the
/// just-updated weights) is overwritten in shared memory.
pub(crate) fn virtual_replace_shared<T: DeviceReal>(
    w: &mut WarpCtx<'_>,
    kernel: &tiled::TiledKernel<T>,
    t: &Lanes<usize>,
    p: &Lanes<T>,
    wr: &[Lanes<T>; MAX_K],
) {
    let prm = &kernel.pass.prm;
    let k = prm.k;
    let mut weakest = [0usize; WARP_LANES];
    for ki in 1..k {
        T::flop_warp(w, 1);
        w.int_op(1);
        weakest = lanes(|l| {
            if wr[ki][l] < wr[weakest[l]][l] {
                ki
            } else {
                weakest[l]
            }
        });
    }
    let off = |param| lanes(|l| kernel.sh_off(t[l], weakest[l], param));
    T::sh_st_warp(w, &off(0), &[prm.initial_weight; WARP_LANES]);
    T::sh_st_warp(w, &off(1), p);
    T::sh_st_warp(w, &off(2), &[prm.initial_sd; WARP_LANES]);
}

/// Algorithm 1 lines 12–15: replace the smallest-weight component with a
/// virtual component centred on the pixel. Mirrors
/// `mogpu_mog::update::replace_weakest`; executed only by mismatching
/// lanes (callers branch).
pub(crate) fn virtual_replace<T: DeviceReal>(
    w: &mut WarpCtx<'_>,
    model: &DeviceModel<T>,
    i: &Lanes<usize>,
    p: &Lanes<T>,
    c: &mut Components<T>,
    prm: &ResolvedParams<T>,
) {
    let k = prm.k;
    let mut weakest = [0usize; WARP_LANES];
    for ki in 1..k {
        T::flop_warp(w, 1); // compare
        w.int_op(1); // select index
        weakest = lanes(|l| {
            if c.w[ki][l] < c.w[weakest[l]][l] {
                ki
            } else {
                weakest[l]
            }
        });
    }
    for l in lanes_in(w.active()) {
        let wk = weakest[l];
        c.w[wk][l] = prm.initial_weight;
        c.m[wk][l] = p[l];
        c.sd[wk][l] = prm.initial_sd;
        c.diff[wk][l] = T::zero();
    }
    model.st_w_warp(w, i, &weakest, &lanes(|l| c.w[weakest[l]][l]));
    model.st_m_warp(w, i, &weakest, &lanes(|l| c.m[weakest[l]][l]));
    model.st_sd_warp(w, i, &weakest, &lanes(|l| c.sd[weakest[l]][l]));
}

/// The lanes' register copies of their K components after an update:
/// `w[ki][l]` is lane `l`'s weight of component `ki`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Components<T> {
    pub w: [Lanes<T>; MAX_K],
    pub m: [Lanes<T>; MAX_K],
    pub sd: [Lanes<T>; MAX_K],
    /// `|m - p|` against the pre-update mean.
    pub diff: [Lanes<T>; MAX_K],
    /// The lanes some component matched.
    pub matched: Mask,
}

impl<T: DeviceReal> Components<T> {
    fn new() -> Self {
        let zero = [[T::zero(); WARP_LANES]; MAX_K];
        Components {
            w: zero,
            m: zero,
            sd: zero,
            diff: zero,
            matched: 0,
        }
    }

    /// Lane `l`'s component `ki` becomes a fresh one of weight `w`, mean
    /// `m` and deviation `sd`.
    fn set(&mut self, ki: usize, l: usize, w: T, m: T, sd: T) {
        self.w[ki][l] = w;
        self.m[ki][l] = m;
        self.sd[ki][l] = sd;
        self.diff[ki][l] = T::zero();
    }

    /// Swaps lane `l`'s components `a` and `b`.
    fn swap(&mut self, a: usize, b: usize, l: usize) {
        for v in [&mut self.w, &mut self.m, &mut self.sd, &mut self.diff] {
            let t = v[a][l];
            v[a][l] = v[b][l];
            v[b][l] = t;
        }
    }
}

/// The per-frame I/O every MoG kernel shares.
#[derive(Debug, Clone, Copy)]
pub struct FramePass<T: DeviceReal> {
    /// Gaussian parameters resident in device global memory.
    pub model: DeviceModel<T>,
    /// Input frame (u8 luma, `pixels` bytes).
    pub frame: Buffer,
    /// Output foreground mask (u8, `pixels` bytes).
    pub fg: Buffer,
    /// Problem size.
    pub pixels: usize,
    /// Resolved algorithm parameters.
    pub prm: ResolvedParams<T>,
    /// Declared register/shared/local footprint for this variant.
    pub resources: KernelResources,
}
