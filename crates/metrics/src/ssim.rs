//! Single-scale Structural Similarity (SSIM), Wang et al. 2004.
//!
//! The reference formulation: local statistics under an 11x11 Gaussian
//! window (sigma = 1.5), stabilizers `C1 = (0.01 L)^2`, `C2 = (0.03 L)^2`
//! with dynamic range `L = 255`, and 'valid'-mode windowing (borders where
//! the window does not fit are skipped, as in the authors' MATLAB code).
//!
//! The Gaussian window is separable, so the windowed moments are computed
//! as a vertical 1-D pass followed by a horizontal one, streamed one output
//! row at a time.

use mogpu_frame::{Frame, Resolution};

/// SSIM configuration; [`SsimConfig::default`] is the reference setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimConfig {
    /// Window side length (odd).
    pub window: usize,
    /// Gaussian sigma of the window.
    pub sigma: f64,
    /// Dynamic range of pixel values.
    pub dynamic_range: f64,
    /// Luminance stabilizer coefficient (0.01 in the paper).
    pub k1: f64,
    /// Contrast stabilizer coefficient (0.03 in the paper).
    pub k2: f64,
}

impl Default for SsimConfig {
    fn default() -> Self {
        SsimConfig {
            window: 11,
            sigma: 1.5,
            dynamic_range: 255.0,
            k1: 0.01,
            k2: 0.03,
        }
    }
}

impl SsimConfig {
    /// Whether the configuration describes a usable window: `window` odd
    /// (hence at least 1), and `sigma`, `dynamic_range`, `k1` and `k2`
    /// finite and positive. An even window has no centre tap, a zero sigma
    /// gives a NaN window, and a zero stabilizer makes flat black windows
    /// score 0/0.
    pub fn is_valid(&self) -> bool {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        self.window % 2 == 1
            && positive(self.sigma)
            && positive(self.dynamic_range)
            && positive(self.k1)
            && positive(self.k2)
    }

    fn c1(&self) -> f64 {
        (self.k1 * self.dynamic_range).powi(2)
    }

    fn c2(&self) -> f64 {
        (self.k2 * self.dynamic_range).powi(2)
    }

    /// The normalized 1-D Gaussian of `window` taps.
    fn taps(&self) -> Vec<f64> {
        let half = (self.window / 2) as f64;
        let two_s2 = 2.0 * self.sigma * self.sigma;
        let mut g: Vec<f64> = (0..self.window)
            .map(|i| {
                let x = i as f64 - half;
                (-(x * x) / two_s2).exp()
            })
            .collect();
        let sum: f64 = g.iter().sum();
        for v in &mut g {
            *v /= sum;
        }
        g
    }

    /// The normalized 2-D Gaussian window as a flat `window*window` array:
    /// the outer product of the 1-D taps the SSIM kernel applies
    /// separably.
    pub fn kernel(&self) -> Vec<f64> {
        let g = self.taps();
        g.iter()
            .flat_map(|&gy| g.iter().map(move |&gx| gy * gx))
            .collect()
    }
}

/// Computes mean SSIM plus the per-window luminance*contrast-structure
/// decomposition needed by MS-SSIM.
///
/// Returns `(mean_ssim, mean_luminance_term, mean_cs_term)` over all valid
/// windows, or `None` if the configuration is not
/// [valid](SsimConfig::is_valid) or the image is smaller than the window.
///
/// # Panics
/// Panics if the resolutions differ.
pub fn ssim_components(a: &Frame<u8>, b: &Frame<u8>, cfg: &SsimConfig) -> Option<(f64, f64, f64)> {
    ssim_components_f64(&a.to_f64(), &b.to_f64(), cfg)
}

pub(crate) fn ssim_components_f64(
    a: &Frame<f64>,
    b: &Frame<f64>,
    cfg: &SsimConfig,
) -> Option<(f64, f64, f64)> {
    assert_eq!(a.resolution(), b.resolution(), "resolution mismatch");
    if !cfg.is_valid() || a.width() < cfg.window || a.height() < cfg.window {
        return None;
    }
    let mut sum_ssim = 0.0;
    let mut sum_l = 0.0;
    let mut sum_cs = 0.0;
    let mut count = 0usize;
    for_each_window(a, b, cfg, |l, cs| {
        sum_ssim += l * cs;
        sum_l += l;
        sum_cs += cs;
        count += 1;
    });
    let c = count as f64;
    Some((sum_ssim / c, sum_l / c, sum_cs / c))
}

/// Calls `f(l, cs)` with the luminance and contrast-structure terms of
/// every valid window of the pair, in row-major window order.
///
/// Each output row is a vertical `window`-tap pass over the five moment
/// rows (a, b, a², b², ab) into column sums, then a horizontal pass over
/// those; both inner loops run along x over contiguous slices, and the
/// working set is ten rows rather than full-frame planes. The contrast
/// term uses the unclamped second moments on both sides (as Wang's
/// reference code does), so a frame scored against itself gives
/// `l == cs == 1.0` exactly in every window.
///
/// The caller guarantees a valid `cfg`, equal resolutions and a frame at
/// least one window in each dimension.
fn for_each_window(a: &Frame<f64>, b: &Frame<f64>, cfg: &SsimConfig, mut f: impl FnMut(f64, f64)) {
    let (w, h, n) = (a.width(), a.height(), cfg.window);
    let out_w = w - n + 1;
    let g = cfg.taps();
    let (c1, c2) = (cfg.c1(), cfg.c2());
    let (pa, pb) = (a.as_slice(), b.as_slice());
    // Column sums of mu_a, mu_b, E[a²], E[b²], E[ab] over the window's rows,
    // then the same five moments over the full window.
    let mut cols: [Vec<f64>; 5] = std::array::from_fn(|_| vec![0.0; w]);
    let mut win: [Vec<f64>; 5] = std::array::from_fn(|_| vec![0.0; out_w]);
    for wy in 0..=(h - n) {
        cols.iter_mut().for_each(|c| c.fill(0.0));
        for (dy, &k) in g.iter().enumerate() {
            let ra = &pa[(wy + dy) * w..][..w];
            let rb = &pb[(wy + dy) * w..][..w];
            let [ma, mb, aa, bb, ab] = &mut cols;
            axpy(ma, k, ra.iter().copied());
            axpy(mb, k, rb.iter().copied());
            axpy(aa, k, ra.iter().map(|x| x * x));
            axpy(bb, k, rb.iter().map(|y| y * y));
            axpy(ab, k, ra.iter().zip(rb).map(|(x, y)| x * y));
        }
        win.iter_mut().for_each(|m| m.fill(0.0));
        for (dx, &k) in g.iter().enumerate() {
            for (m, c) in win.iter_mut().zip(&cols) {
                axpy(m, k, c[dx..].iter().copied());
            }
        }
        let [ma, mb, aa, bb, ab] = &win;
        for x in 0..out_w {
            let (mu_a, mu_b) = (ma[x], mb[x]);
            let var_a = aa[x] - mu_a * mu_a;
            let var_b = bb[x] - mu_b * mu_b;
            let cov = ab[x] - mu_a * mu_b;
            let l = (2.0 * mu_a * mu_b + c1) / (mu_a * mu_a + mu_b * mu_b + c1);
            let cs = (2.0 * cov + c2) / (var_a + var_b + c2);
            f(l, cs);
        }
    }
}

/// `acc[i] += k * src[i]` over the shorter of the two.
fn axpy(acc: &mut [f64], k: f64, src: impl Iterator<Item = f64>) {
    for (o, v) in acc.iter_mut().zip(src) {
        *o += k * v;
    }
}

/// Mean SSIM of two frames under the default configuration.
///
/// # Panics
/// Panics if the resolutions differ or the frames are smaller than the
/// window.
pub fn ssim(a: &Frame<u8>, b: &Frame<u8>) -> f64 {
    ssim_components(a, b, &SsimConfig::default())
        .expect("image smaller than SSIM window")
        .0
}

/// Per-window SSIM map (valid-mode: `(w-window+1) x (h-window+1)`).
///
/// # Panics
/// Panics with "invalid SsimConfig" if `cfg` is not
/// [valid](SsimConfig::is_valid), and panics if the resolutions differ or
/// the frames are smaller than the window.
pub fn ssim_map(a: &Frame<u8>, b: &Frame<u8>, cfg: &SsimConfig) -> Frame<f64> {
    assert!(cfg.is_valid(), "invalid SsimConfig: {cfg:?}");
    assert_eq!(a.resolution(), b.resolution(), "resolution mismatch");
    let n = cfg.window;
    assert!(
        a.width() >= n && a.height() >= n,
        "image smaller than SSIM window"
    );
    let out_res = Resolution::new(a.width() - n + 1, a.height() - n + 1);
    let mut out = Vec::with_capacity(out_res.pixels());
    for_each_window(&a.to_f64(), &b.to_f64(), cfg, |l, cs| out.push(l * cs));
    Frame::from_vec(out_res, out).expect("one value per valid window")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogpu_frame::Resolution;

    fn noise_frame(seed: u64, res: Resolution) -> Frame<u8> {
        // Small deterministic LCG so the crate needs no rand dependency
        // in unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        let data: Vec<u8> = (0..res.pixels()).map(|_| next()).collect();
        Frame::from_vec(res, data).unwrap()
    }

    #[test]
    fn self_similarity_is_one() {
        let f = noise_frame(1, Resolution::new(32, 24));
        let s = ssim(&f, &f);
        assert!((s - 1.0).abs() < 1e-9, "self SSIM = {s}");
    }

    #[test]
    fn independent_noise_scores_low() {
        let a = noise_frame(1, Resolution::new(48, 48));
        let b = noise_frame(2, Resolution::new(48, 48));
        let s = ssim(&a, &b);
        assert!(s < 0.1, "independent noise SSIM = {s}");
    }

    #[test]
    fn small_perturbation_scores_high() {
        let a = noise_frame(3, Resolution::new(48, 48));
        let mut b = a.clone();
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            if i % 17 == 0 {
                *v = v.saturating_add(2);
            }
        }
        let s = ssim(&a, &b);
        assert!(s > 0.95, "perturbed SSIM = {s}");
    }

    #[test]
    fn symmetric() {
        let a = noise_frame(5, Resolution::new(32, 32));
        let b = noise_frame(6, Resolution::new(32, 32));
        assert!((ssim(&a, &b) - ssim(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn bounded_in_unit_interval_for_nonneg_cov() {
        let a = noise_frame(7, Resolution::new(32, 32));
        let b = noise_frame(8, Resolution::new(32, 32));
        let s = ssim(&a, &b);
        assert!((-1.0..=1.0 + 1e-12).contains(&s));
    }

    #[test]
    fn constant_images_with_same_value_are_identical() {
        let a = Frame::filled(Resolution::new(16, 16), 128u8);
        let s = ssim(&a, &a.clone());
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_normalized() {
        let k = SsimConfig::default().kernel();
        assert_eq!(k.len(), 121);
        let sum: f64 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Centre dominates.
        assert!(k[60] > k[0] * 100.0);
    }

    #[test]
    fn map_has_valid_mode_dimensions() {
        let a = noise_frame(9, Resolution::new(30, 20));
        let m = ssim_map(&a, &a, &SsimConfig::default());
        assert_eq!(m.resolution(), Resolution::new(20, 10));
        assert!(m.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn too_small_image_returns_none() {
        let a = Frame::filled(Resolution::new(8, 8), 0u8);
        assert!(ssim_components(&a, &a, &SsimConfig::default()).is_none());
    }

    #[test]
    fn mask_like_inputs_behave() {
        // Binary masks (the paper's actual comparison target).
        let res = Resolution::new(32, 32);
        let mut a = Frame::filled(res, 0u8);
        for y in 10..20 {
            for x in 10..20 {
                *a.get_mut(x, y) = 255;
            }
        }
        let mut b = a.clone();
        *b.get_mut(15, 15) = 0; // one-pixel disagreement
        let s = ssim(&a, &b);
        assert!(s > 0.8 && s < 1.0, "mask SSIM = {s}");
    }
}
