//! GPU 3x3 binary morphology — the foreground-validation post-pass of the
//! paper's MoG reference \[20\], as a device kernel.
//!
//! Unlike the MoG kernels (one thread = one pixel, purely element-wise),
//! morphology reads a 2-D neighbourhood: each thread loads nine bytes
//! from three rows. Each of the nine warp-level loads coalesces into one
//! or two 128-byte segments, but consecutive loads *re-touch* the same
//! rows — traffic a real GPU's cache hierarchy absorbs. The unit tests
//! quantify both behaviours (cache off: ~10 transactions/warp; L2 model
//! on: rows collapse), making this kernel the simulator's spatial-stencil
//! counterpoint to MoG's element-wise streams.

use mogpu_sim::{Buffer, Kernel, KernelResources, ThreadCtx};

/// Which 3x3 operation the kernel applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphOp {
    /// Survive only if all 9 neighbours are foreground.
    Erode,
    /// Become foreground if any of the 9 neighbours is.
    Dilate,
}

/// 3x3 morphology kernel over a binary mask.
#[derive(Debug, Clone, Copy)]
pub struct MorphKernel {
    /// Input mask (u8, `width * height`).
    pub input: Buffer,
    /// Output mask.
    pub output: Buffer,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Operation.
    pub op: MorphOp,
}

impl MorphKernel {
    /// Declared footprint of every morphology launch: a handful of
    /// address registers and the accumulator, measured from comparable
    /// CUDA stencils.
    pub(crate) const RESOURCES: KernelResources = KernelResources {
        regs_per_thread: 14,
        shared_bytes_per_block: 0,
        local_f64_slots: 0,
    };
}

impl Kernel for MorphKernel {
    fn resources(&self) -> KernelResources {
        Self::RESOURCES
    }

    fn run(&self, ctx: &mut ThreadCtx<'_>) {
        let i = ctx.global_thread_id();
        ctx.int_op(2);
        let n = self.width * self.height;
        if !ctx.branch(i < n) {
            return;
        }
        let x = (i % self.width) as isize;
        let y = (i / self.width) as isize;
        ctx.int_op(2);
        let (w, h) = (self.width as isize, self.height as isize);

        // Predicated accumulation over the window: out-of-bounds pixels
        // count as background (erode fails, dilate ignores).
        let mut all = true;
        let mut any = false;
        for dy in -1..=1isize {
            for dx in -1..=1isize {
                ctx.int_op(2);
                let (nx, ny) = (x + dx, y + dy);
                let inside = nx >= 0 && ny >= 0 && nx < w && ny < h;
                ctx.int_op(1);
                if ctx.branch(inside) {
                    let v = ctx.ld_u8(self.input, (ny * w + nx) as usize);
                    ctx.int_op(2);
                    all &= v != 0;
                    any |= v != 0;
                } else {
                    all = false;
                }
            }
        }
        let fg = match self.op {
            MorphOp::Erode => all,
            MorphOp::Dilate => any,
        };
        ctx.st_u8(self.output, i, if fg { 255 } else { 0 });
    }
}

/// Runs one morphology pass on the device, returning the output mask
/// bytes and the launch report.
///
/// # Errors
/// Device allocation / launch failures.
pub fn gpu_morph(
    mask: &mogpu_frame::Mask,
    op: MorphOp,
    cfg: &mogpu_sim::GpuConfig,
) -> Result<(mogpu_frame::Mask, mogpu_sim::kernel::LaunchReport), mogpu_sim::LaunchError> {
    gpu_morph_with(mask, op, cfg, mogpu_sim::LaunchOptions::default())
}

/// [`gpu_morph`] with explicit [`mogpu_sim::LaunchOptions`] — used by
/// `mogpu check` to run the stencil kernel under the sanitizer.
///
/// # Errors
/// Device allocation / launch failures.
pub fn gpu_morph_with(
    mask: &mogpu_frame::Mask,
    op: MorphOp,
    cfg: &mogpu_sim::GpuConfig,
    opts: mogpu_sim::LaunchOptions,
) -> Result<(mogpu_frame::Mask, mogpu_sim::kernel::LaunchReport), mogpu_sim::LaunchError> {
    let res = mask.resolution();
    let n = res.pixels();
    let mut mem = mogpu_sim::DeviceMemory::with_config(cfg);
    let input = mem.alloc(n).expect("device capacity");
    let output = mem.alloc(n).expect("device capacity");
    mem.upload(input, mask.as_slice());
    let kernel = MorphKernel {
        input,
        output,
        width: res.width,
        height: res.height,
        op,
    };
    let report = mogpu_sim::launch_with(
        &mut mem,
        cfg,
        mogpu_sim::LaunchConfig::cover(n, crate::pipeline::THREADS_PER_BLOCK),
        &kernel,
        opts,
    )?;
    let out = mogpu_frame::Mask::from_vec(res, mem.download(output)).expect("mask size");
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogpu_frame::{dilate3, erode3, Mask, Resolution, SceneBuilder};
    use mogpu_sim::GpuConfig;

    fn test_mask() -> Mask {
        let scene = SceneBuilder::new(Resolution::TINY)
            .seed(31)
            .walkers(3)
            .build();
        let (_, mask) = scene.render(5);
        mask
    }

    #[test]
    fn gpu_erode_matches_cpu() {
        let m = test_mask();
        let (gpu, _) = gpu_morph(&m, MorphOp::Erode, &GpuConfig::tesla_c2075()).unwrap();
        assert_eq!(gpu, erode3(&m));
    }

    #[test]
    fn gpu_dilate_matches_cpu() {
        let m = test_mask();
        let (gpu, _) = gpu_morph(&m, MorphOp::Dilate, &GpuConfig::tesla_c2075()).unwrap();
        assert_eq!(gpu, dilate3(&m));
    }

    #[test]
    fn stencil_coalescing_with_and_without_cache() {
        // Each of the 9 loads is one warp instruction touching one or two
        // 128 B segments: ~10 transactions per warp without a cache. The
        // three rows are *re-touched* by neighbouring slots and warps, so
        // enabling the L2 model collapses most of them.
        let m = Mask::filled(Resolution::new(128, 64), 255);
        let (_, no_cache) = gpu_morph(&m, MorphOp::Erode, &GpuConfig::tesla_c2075()).unwrap();
        let lanes = no_cache.stats.lanes as f64;
        let tx_per_lane = no_cache.stats.global_load_tx as f64 / lanes;
        assert!(
            (0.25..0.40).contains(&tx_per_lane),
            "expected ~10 tx per 32-lane warp over 9 loads, got {tx_per_lane:.3}/lane"
        );
        let (_, cached) = gpu_morph(&m, MorphOp::Erode, &GpuConfig::tesla_c2075_with_l2()).unwrap();
        assert!(
            cached.stats.global_load_tx < no_cache.stats.global_load_tx / 4,
            "L2 must absorb the row re-touches: {} vs {}",
            cached.stats.global_load_tx,
            no_cache.stats.global_load_tx
        );
        // u8 stores: each 32-lane warp writes 32 consecutive bytes into
        // one 128 B segment — one transaction per warp (the model does
        // not merge stores across warps), i.e. 25% store efficiency.
        assert_eq!(no_cache.stats.global_store_tx, no_cache.stats.lanes / 32);
    }

    #[test]
    fn border_handling_matches_cpu_clamping() {
        // A full-foreground frame: erosion must clear exactly the border.
        let m = Mask::filled(Resolution::new(16, 8), 255);
        let (gpu, _) = gpu_morph(&m, MorphOp::Erode, &GpuConfig::tesla_c2075()).unwrap();
        assert_eq!(gpu, erode3(&m));
        assert_eq!(*gpu.get(0, 0), 0);
        assert_eq!(*gpu.get(1, 1), 255);
    }
}
