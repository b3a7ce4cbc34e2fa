//! SSIM / MS-SSIM against the frozen direct-form oracle, exact
//! self-identity on the Table IV inputs, and `SsimConfig` validation.

#[path = "support/ssim_reference.rs"]
mod ssim_reference;

use mogpu::metrics::msssim::ms_ssim_with;
use mogpu::metrics::ssim::ssim_components;
use mogpu::metrics::{ssim_map, SsimConfig};
use mogpu::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WINDOWS: [usize; 3] = [7, 11, 15];
const SIGMAS: [f64; 3] = [1.0, 1.5, 2.5];

/// Per-window bound for the SSIM map. The means and MS-SSIM are held to
/// 1e-12, but a single window of the direct form carries the rounding of
/// 49- to 225-term serial sums in `E[x²] - μ²`: on bright, nearly flat
/// windows of a masked background image it is itself up to ~1e-12 off a
/// centred two-pass evaluation (where the streamed form is ~1e-13 off),
/// and the two forms differ by up to 5.2e-12 over 120 QVGA mask and
/// background pairs.
const MAP_TOL: f64 = 2e-11;

/// Window-sized, odd, non-square, or QVGA (all five scales at every
/// window in [`WINDOWS`]).
fn size(kind: usize, n: usize) -> Resolution {
    match kind {
        0 => Resolution::new(n, n),
        1 => Resolution::new(3 * n + 2, 2 * n + 1),
        2 => Resolution::new(5 * n + 1, n + 3),
        _ => Resolution::QVGA,
    }
}

/// The frame with its foreground pixels blacked out.
fn background(frame: &Frame<u8>, mask: &Mask) -> Frame<u8> {
    let mut out = frame.clone();
    for (o, &m) in out.as_mut_slice().iter_mut().zip(mask.as_slice()) {
        if m != 0 {
            *o = 0;
        }
    }
    out
}

/// A binary mask of a few random rectangles.
fn rect_mask(rng: &mut SmallRng, res: Resolution) -> Mask {
    let mut m = Frame::filled(res, 0u8);
    for _ in 0..rng.gen_range(1..5usize) {
        let (x0, y0) = (rng.gen_range(0..res.width), rng.gen_range(0..res.height));
        let (x1, y1) = (
            rng.gen_range(x0..=res.width),
            rng.gen_range(y0..=res.height),
        );
        for y in y0..y1 {
            for x in x0..x1 {
                *m.get_mut(x, y) = 255;
            }
        }
    }
    m
}

/// `m` with each pixel flipped with probability `p`.
fn flip(rng: &mut SmallRng, m: &Mask, p: f64) -> Mask {
    m.map(|&v| if rng.gen_bool(p) { 255 - v } else { v })
}

/// A correlated frame pair: noise, binary masks, or masked background
/// images (a rendered frame blacked out under two nearby masks, as in
/// the Table IV background comparison).
fn pair(kind: usize, res: Resolution, seed: u64) -> (Frame<u8>, Frame<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind {
        0 => {
            let a = Frame::from_vec(
                res,
                (0..res.pixels())
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect(),
            )
            .unwrap();
            let p = rng.gen_range(0.0..1.0);
            let b = a.map(|&v| {
                if rng.gen_bool(p) {
                    rng.gen_range(0..=255u8)
                } else {
                    v
                }
            });
            (a, b)
        }
        1 => {
            let a = rect_mask(&mut rng, res);
            let b = flip(&mut rng, &a, 0.02);
            (a, b)
        }
        _ => {
            let scene = SceneBuilder::new(res).seed(seed).walkers(2).build();
            let (frame, _) = scene.render(rng.gen_range(0..8usize));
            let mask = rect_mask(&mut rng, res);
            let nearby = flip(&mut rng, &mask, 0.02);
            (background(&frame, &mask), background(&frame, &nearby))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streamed separable window agrees with the direct 2-D form:
    /// the SSIM / luminance / contrast-structure means and MS-SSIM within
    /// 1e-12, every window of the SSIM map within [`MAP_TOL`].
    #[test]
    fn ssim_matches_direct_reference(
        seed in any::<u64>(),
        size_kind in 0usize..4,
        input_kind in 0usize..3,
        w in 0usize..3,
        s in 0usize..3,
    ) {
        let cfg = SsimConfig { window: WINDOWS[w], sigma: SIGMAS[s], ..SsimConfig::default() };
        let res = size(size_kind, cfg.window);
        let (a, b) = pair(input_kind, res, seed);

        let got = ssim_components(&a, &b, &cfg).unwrap();
        let want = ssim_reference::ssim_components_f64(&a.to_f64(), &b.to_f64(), &cfg).unwrap();
        for (g, r) in [(got.0, want.0), (got.1, want.1), (got.2, want.2)] {
            prop_assert!((g - r).abs() <= 1e-12, "{res} {cfg:?}: components {got:?} vs {want:?}");
        }

        let map = ssim_map(&a, &b, &cfg);
        let want_map = ssim_reference::ssim_map(&a, &b, &cfg);
        prop_assert_eq!(map.resolution(), want_map.resolution());
        let worst = map
            .as_slice()
            .iter()
            .zip(want_map.as_slice())
            .map(|(g, r)| (g - r).abs())
            .fold(0.0, f64::max);
        prop_assert!(worst <= MAP_TOL, "{res} {cfg:?}: map differs by {worst:e}");

        let got = ms_ssim_with(&a, &b, &cfg).unwrap();
        let want = ssim_reference::ms_ssim(&a, &b, &cfg).unwrap();
        prop_assert!((got - want).abs() <= 1e-12, "{res} {cfg:?}: ms-ssim {got} vs {want}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A frame scored against itself is exactly 1.0: rendered frames,
    /// serial-MoG masks and their background images, at QQVGA and QVGA.
    #[test]
    fn ms_ssim_self_identity_is_exact(seed in any::<u64>(), qvga in any::<bool>()) {
        let res = if qvga { Resolution::QVGA } else { Resolution::QQVGA };
        let scene = SceneBuilder::new(res).seed(seed).walkers(3).bimodal_fraction(0.05).build();
        let (frames, _) = scene.render_sequence(6);
        let frames = frames.into_frames();
        let mut mog = SerialMog::<f64>::new(res, MogParams::default(), Variant::Sorted, frames[0].as_slice());
        let masks = mog.process_all(&frames[1..]);
        for (frame, mask) in frames[1..].iter().zip(&masks) {
            for f in [frame, mask, &background(frame, mask)] {
                prop_assert_eq!(ms_ssim(f, f), Some(1.0));
                prop_assert!(ssim_map(f, f, &SsimConfig::default()).as_slice().iter().all(|&v| v == 1.0));
            }
        }
    }
}

/// Flat frames are where `E[x²] - μ²` rounds below zero; clamping only
/// the variances there (and not the covariance) left about half of all
/// grey levels scoring just under 1.0 against themselves.
#[test]
fn flat_frames_score_exactly_one() {
    for v in 0..=255u8 {
        let f = Frame::filled(Resolution::new(24, 24), v);
        assert_eq!(ms_ssim(&f, &f), Some(1.0), "grey level {v}");
    }
}

fn invalid_configs() -> Vec<SsimConfig> {
    let base = SsimConfig::default();
    let mut out = vec![
        SsimConfig { window: 0, ..base },
        SsimConfig { window: 10, ..base },
        SsimConfig { window: 2, ..base },
    ];
    for bad in [0.0, -1.5, f64::NAN, f64::INFINITY] {
        out.push(SsimConfig { sigma: bad, ..base });
        out.push(SsimConfig {
            dynamic_range: bad,
            ..base
        });
        out.push(SsimConfig { k1: bad, ..base });
        out.push(SsimConfig { k2: bad, ..base });
    }
    out
}

/// An even window, a zero-sized window or a non-positive / non-finite
/// sigma, dynamic range or stabilizer is rejected rather than read with
/// the wrong weights, scored 1.0, or turned into NaN.
#[test]
fn invalid_ssim_config_is_rejected() {
    let (a, b) = pair(0, Resolution::new(64, 48), 7);
    let window_one = SsimConfig {
        window: 1,
        ..SsimConfig::default()
    };
    for good in [SsimConfig::default(), window_one] {
        assert!(good.is_valid());
        assert!(ssim_components(&a, &b, &good).is_some());
        assert!(ms_ssim_with(&a, &b, &good).is_some());
    }
    for cfg in invalid_configs() {
        assert!(!cfg.is_valid(), "{cfg:?}");
        assert_eq!(ssim_components(&a, &b, &cfg), None, "{cfg:?}");
        assert_eq!(ms_ssim_with(&a, &b, &cfg), None, "{cfg:?}");
        let panic = std::panic::catch_unwind(|| ssim_map(&a, &b, &cfg))
            .expect_err("ssim_map accepted an invalid config");
        let msg = panic
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.starts_with("invalid SsimConfig"), "{msg}");
    }
}
