//! Frozen direct-form reference for SSIM and MS-SSIM.
//!
//! This is the original `mogpu::metrics` implementation, kept as a test
//! oracle: every valid window is evaluated as a direct 2-D convolution
//! with the `window*window` Gaussian (121 taps at the default setting),
//! with the variances clamped at zero, and MS-SSIM downsamples with
//! per-pixel `get`. The production code streams a separable window one
//! row at a time; `tests/ssim.rs` requires both to agree within 1e-12.
//! Do not optimize or "fix" this file — its value is that it does not
//! change.

use mogpu::metrics::{SsimConfig, MS_SSIM_WEIGHTS};
use mogpu::prelude::{Frame, Resolution};

/// The normalized 2-D Gaussian window as a flat `window*window` array.
fn kernel(cfg: &SsimConfig) -> Vec<f64> {
    let n = cfg.window;
    let half = (n / 2) as isize;
    let mut k = Vec::with_capacity(n * n);
    let two_s2 = 2.0 * cfg.sigma * cfg.sigma;
    for y in -half..=half {
        for x in -half..=half {
            k.push((-((x * x + y * y) as f64) / two_s2).exp());
        }
    }
    let sum: f64 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// `(l, cs, ssim)` of every valid window in row-major order.
fn direct_windows(a: &Frame<f64>, b: &Frame<f64>, cfg: &SsimConfig) -> Vec<(f64, f64, f64)> {
    let w = a.width();
    let h = a.height();
    let n = cfg.window;
    let kernel = kernel(cfg);
    let c1 = (cfg.k1 * cfg.dynamic_range).powi(2);
    let c2 = (cfg.k2 * cfg.dynamic_range).powi(2);
    let pa = a.as_slice();
    let pb = b.as_slice();

    let mut out = Vec::new();
    for wy in 0..=(h - n) {
        for wx in 0..=(w - n) {
            let mut mu_a = 0.0;
            let mut mu_b = 0.0;
            let mut aa = 0.0;
            let mut bb = 0.0;
            let mut ab = 0.0;
            let mut ki = 0;
            for dy in 0..n {
                let row = (wy + dy) * w + wx;
                for dx in 0..n {
                    let kv = kernel[ki];
                    ki += 1;
                    let x = pa[row + dx];
                    let y = pb[row + dx];
                    mu_a += kv * x;
                    mu_b += kv * y;
                    aa += kv * x * x;
                    bb += kv * y * y;
                    ab += kv * x * y;
                }
            }
            let var_a = (aa - mu_a * mu_a).max(0.0);
            let var_b = (bb - mu_b * mu_b).max(0.0);
            let cov = ab - mu_a * mu_b;
            let l = (2.0 * mu_a * mu_b + c1) / (mu_a * mu_a + mu_b * mu_b + c1);
            let cs = (2.0 * cov + c2) / (var_a + var_b + c2);
            let ssim = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2));
            out.push((l, cs, ssim));
        }
    }
    out
}

/// `(mean_ssim, mean_l, mean_cs)`, or `None` if the window does not fit.
pub fn ssim_components_f64(
    a: &Frame<f64>,
    b: &Frame<f64>,
    cfg: &SsimConfig,
) -> Option<(f64, f64, f64)> {
    if a.width() < cfg.window || a.height() < cfg.window {
        return None;
    }
    let mut sum_ssim = 0.0;
    let mut sum_l = 0.0;
    let mut sum_cs = 0.0;
    let mut count = 0usize;
    for (l, cs, _) in direct_windows(a, b, cfg) {
        sum_ssim += l * cs;
        sum_l += l;
        sum_cs += cs;
        count += 1;
    }
    let c = count as f64;
    Some((sum_ssim / c, sum_l / c, sum_cs / c))
}

/// Valid-mode per-window SSIM map.
pub fn ssim_map(a: &Frame<u8>, b: &Frame<u8>, cfg: &SsimConfig) -> Frame<f64> {
    let n = cfg.window;
    let res = Resolution::new(a.width() - n + 1, a.height() - n + 1);
    let map = direct_windows(&a.to_f64(), &b.to_f64(), cfg);
    Frame::from_vec(res, map.into_iter().map(|(_, _, s)| s).collect()).unwrap()
}

/// 2x2 box downsampling (dimensions floor-halved).
fn downsample(f: &Frame<f64>) -> Frame<f64> {
    let w = f.width() / 2;
    let h = f.height() / 2;
    let mut out = Frame::<f64>::new(Resolution::new(w, h));
    for y in 0..h {
        for x in 0..w {
            let s = f.get(2 * x, 2 * y)
                + f.get(2 * x + 1, 2 * y)
                + f.get(2 * x, 2 * y + 1)
                + f.get(2 * x + 1, 2 * y + 1);
            *out.get_mut(x, y) = s / 4.0;
        }
    }
    out
}

/// MS-SSIM over as many of the five scales as fit.
pub fn ms_ssim(a: &Frame<u8>, b: &Frame<u8>, cfg: &SsimConfig) -> Option<f64> {
    let scales = mogpu::metrics::ms_ssim_scales(a.resolution(), cfg);
    if scales == 0 {
        return None;
    }
    let weight_sum: f64 = MS_SSIM_WEIGHTS[..scales].iter().sum();
    let mut fa = a.to_f64();
    let mut fb = b.to_f64();
    let mut result = 1.0f64;
    for (j, &wj) in MS_SSIM_WEIGHTS[..scales].iter().enumerate() {
        let (_, l, cs) = ssim_components_f64(&fa, &fb, cfg)?;
        let cs = cs.max(1e-10);
        let exponent = wj / weight_sum;
        if j + 1 == scales {
            let l = l.max(1e-10);
            result *= l.powf(exponent) * cs.powf(exponent);
        } else {
            result *= cs.powf(exponent);
            fa = downsample(&fa);
            fb = downsample(&fb);
        }
    }
    Some(result)
}
