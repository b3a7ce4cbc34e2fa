//! Multi-Scale Structural Similarity (MS-SSIM), Wang, Simoncelli & Bovik,
//! Asilomar 2003 — the quality metric of the paper's Table IV.
//!
//! The image pair is evaluated at 5 dyadic scales; contrast-structure
//! terms from every scale and the luminance term from the coarsest scale
//! combine as
//!
//! ```text
//! MS-SSIM = l_M^{w_M} * prod_{j=1..M} cs_j^{w_j}
//! ```
//!
//! with the published exponents [`MS_SSIM_WEIGHTS`]. Downsampling is a 2x2
//! box average (the low-pass + decimate of the reference implementation).
//! When the image is too small for all 5 scales, the scale count is
//! reduced and the weights renormalized — necessary because background
//! masks in the test suite are evaluated at reduced resolutions.

use crate::ssim::{ssim_components_f64, SsimConfig};
use mogpu_frame::{Frame, Resolution};

/// The five scale exponents of the MS-SSIM paper.
pub const MS_SSIM_WEIGHTS: [f64; 5] = [0.0448, 0.2856, 0.3001, 0.2363, 0.1333];

/// 2x2 box downsampling (dimensions floor-halved).
fn downsample(f: &Frame<f64>) -> Frame<f64> {
    let fw = f.width();
    let data = f
        .as_slice()
        .chunks_exact(2 * fw)
        .flat_map(|rows| {
            let (top, bottom) = rows.split_at(fw);
            top.chunks_exact(2)
                .zip(bottom.chunks_exact(2))
                .map(|(t, b)| (t[0] + t[1] + b[0] + b[1]) / 4.0)
        })
        .collect();
    Frame::from_vec(Resolution::new(fw / 2, f.height() / 2), data).expect("floor-halved frame")
}

/// Number of scales usable for a given resolution (window must fit at the
/// coarsest scale), capped at 5.
pub fn ms_ssim_scales(res: Resolution, cfg: &SsimConfig) -> usize {
    let mut scales = 0usize;
    let mut w = res.width;
    let mut h = res.height;
    while scales < 5 && w >= cfg.window && h >= cfg.window {
        scales += 1;
        w /= 2;
        h /= 2;
    }
    scales
}

/// MS-SSIM of two frames under the default SSIM configuration.
///
/// Returns `None` if even one scale does not fit the image.
///
/// # Panics
/// Panics if the resolutions differ.
pub fn ms_ssim(a: &Frame<u8>, b: &Frame<u8>) -> Option<f64> {
    ms_ssim_with(a, b, &SsimConfig::default())
}

/// MS-SSIM with an explicit SSIM configuration.
///
/// Returns `None` if the configuration is not
/// [valid](SsimConfig::is_valid) or even one scale does not fit the image.
///
/// # Panics
/// Panics if the resolutions differ.
pub fn ms_ssim_with(a: &Frame<u8>, b: &Frame<u8>, cfg: &SsimConfig) -> Option<f64> {
    assert_eq!(a.resolution(), b.resolution(), "resolution mismatch");
    let scales = ms_ssim_scales(a.resolution(), cfg);
    if scales == 0 {
        return None;
    }
    let weight_sum: f64 = MS_SSIM_WEIGHTS[..scales].iter().sum();

    let mut fa = a.to_f64();
    let mut fb = b.to_f64();
    let mut result = 1.0f64;
    for (j, &wj) in MS_SSIM_WEIGHTS[..scales].iter().enumerate() {
        let (_, l, cs) = ssim_components_f64(&fa, &fb, cfg)?;
        // Negative structure terms cannot be exponentiated; clamp as the
        // reference implementation does.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn noise_frame(seed: u64, res: Resolution) -> Frame<u8> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
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
        let f = noise_frame(1, Resolution::QVGA);
        let s = ms_ssim(&f, &f).unwrap();
        assert!((s - 1.0).abs() < 1e-6, "self MS-SSIM = {s}");
    }

    #[test]
    fn qvga_supports_all_five_scales() {
        assert_eq!(ms_ssim_scales(Resolution::QVGA, &SsimConfig::default()), 5);
        assert_eq!(
            ms_ssim_scales(Resolution::FULL_HD, &SsimConfig::default()),
            5
        );
    }

    #[test]
    fn tiny_images_use_fewer_scales() {
        assert_eq!(ms_ssim_scales(Resolution::TINY, &SsimConfig::default()), 3);
        assert_eq!(
            ms_ssim_scales(Resolution::new(8, 8), &SsimConfig::default()),
            0
        );
        let f = Frame::filled(Resolution::new(8, 8), 0u8);
        assert!(ms_ssim(&f, &f).is_none());
    }

    #[test]
    fn independent_noise_scores_low() {
        let a = noise_frame(1, Resolution::QVGA);
        let b = noise_frame(2, Resolution::QVGA);
        let s = ms_ssim(&a, &b).unwrap();
        assert!(s < 0.35, "independent-noise MS-SSIM = {s}");
    }

    #[test]
    fn ranks_degradations_sensibly() {
        let a = noise_frame(3, Resolution::QVGA);
        let mut slightly = a.clone();
        let mut badly = a.clone();
        for (i, v) in slightly.as_mut_slice().iter_mut().enumerate() {
            if i % 31 == 0 {
                *v ^= 0x08;
            }
        }
        for (i, v) in badly.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = v.wrapping_add(97);
            }
        }
        let s_slight = ms_ssim(&a, &slightly).unwrap();
        let s_bad = ms_ssim(&a, &badly).unwrap();
        assert!(s_slight > s_bad, "slight {s_slight} vs bad {s_bad}");
        assert!(s_slight > 0.95);
    }

    #[test]
    fn symmetric() {
        let a = noise_frame(5, Resolution::QVGA);
        let b = noise_frame(6, Resolution::QVGA);
        let ab = ms_ssim(&a, &b).unwrap();
        let ba = ms_ssim(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn bounded_by_one() {
        let a = noise_frame(7, Resolution::QVGA);
        let b = noise_frame(8, Resolution::QVGA);
        let s = ms_ssim(&a, &b).unwrap();
        assert!((0.0..=1.0 + 1e-12).contains(&s));
    }

    #[test]
    fn downsample_halves_and_averages() {
        let f = Frame::from_vec(
            Resolution::new(4, 2),
            vec![0.0, 4.0, 8.0, 12.0, 4.0, 8.0, 12.0, 16.0],
        )
        .unwrap();
        let d = downsample(&f);
        assert_eq!(d.resolution(), Resolution::new(2, 1));
        assert_eq!(*d.get(0, 0), 4.0);
        assert_eq!(*d.get(1, 0), 12.0);
    }

    #[test]
    fn binary_mask_comparison_behaves_like_table_iv() {
        // Two nearly identical foreground masks should score in the
        // 95%+ region the paper reports; grossly different ones lower.
        let res = Resolution::QVGA;
        let mut truth = Frame::filled(res, 0u8);
        for y in 100..140 {
            for x in 100..160 {
                *truth.get_mut(x, y) = 255;
            }
        }
        let mut close = truth.clone();
        for y in 100..140 {
            // shift one column
            *close.get_mut(160, y) = 255;
            *close.get_mut(100, y) = 0;
        }
        let mut far = Frame::filled(res, 0u8);
        for y in 30..70 {
            for x in 200..260 {
                *far.get_mut(x, y) = 255;
            }
        }
        let s_close = ms_ssim(&truth, &close).unwrap();
        let s_far = ms_ssim(&truth, &far).unwrap();
        assert!(s_close > 0.95, "close masks scored {s_close}");
        assert!(s_far < s_close);
    }
}
