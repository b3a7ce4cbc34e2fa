//! Property-based tests (proptest) on the core invariants of the
//! workspace: MoG model health under arbitrary pixel streams, equivalence
//! of the algorithm variants, coalescing-analysis bounds, occupancy
//! bounds, and scene determinism.

use mogpu::mog::update::{
    classify_nosort, classify_sorted, match_update_branchy, match_update_predicated, step_pixel,
    MAX_K,
};
use mogpu::prelude::*;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = MogParams> {
    (1usize..=5, 0.80f64..0.99, 5.0f64..40.0, 0.05f64..0.5).prop_map(
        |(k, alpha, match_threshold, bg_weight)| {
            let mut p = MogParams::new(k);
            p.alpha = alpha;
            p.match_threshold = match_threshold;
            p.bg_weight = bg_weight;
            p
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weights stay in [0,1], sds stay >= floor and finite, means stay
    /// finite, for any pixel stream, any variant, any valid parameters.
    #[test]
    fn model_invariants_under_arbitrary_streams(
        params in arb_params(),
        pixels in proptest::collection::vec(0u8..=255, 1..120),
        variant_idx in 0usize..4,
    ) {
        let variant = Variant::ALL[variant_idx];
        let prm = params.resolve::<f64>();
        let k = params.k;
        let mut w = vec![0.0f64; k];
        w[0] = 1.0;
        let mut m = vec![pixels[0] as f64; k];
        let mut sd = vec![params.initial_sd; k];
        for &px in &pixels {
            step_pixel(variant, px as f64, &mut w, &mut m, &mut sd, &prm);
            for &x in &w {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&x), "weight {x}");
            }
            for &x in &sd {
                prop_assert!(x.is_finite() && x >= params.min_sd - 1e-9, "sd {x}");
            }
            for &x in &m {
                prop_assert!(x.is_finite(), "mean {x}");
            }
        }
    }

    /// The predicated update is bit-identical to the branchy update for
    /// every reachable state and pixel.
    #[test]
    fn predicated_equals_branchy_everywhere(
        params in arb_params(),
        pixels in proptest::collection::vec(0u8..=255, 1..80),
    ) {
        let prm = params.resolve::<f64>();
        let k = params.k;
        let mut w1 = vec![0.0f64; k]; w1[0] = 1.0;
        let mut m1 = vec![pixels[0] as f64; k];
        let mut sd1 = vec![params.initial_sd; k];
        let (mut w2, mut m2, mut sd2) = (w1.clone(), m1.clone(), sd1.clone());
        for &px in &pixels {
            let d1 = match_update_branchy(px as f64, &mut w1, &mut m1, &mut sd1, &prm);
            let d2 = match_update_predicated(px as f64, &mut w2, &mut m2, &mut sd2, &prm);
            prop_assert_eq!(d1, d2);
            prop_assert_eq!(&w1, &w2);
            prop_assert_eq!(&m1, &m2);
            prop_assert_eq!(&sd1, &sd2);
        }
    }

    /// The background decision is order-independent: sorted and no-sort
    /// classification agree on arbitrary component states.
    #[test]
    fn classification_is_order_independent(
        params in arb_params(),
        seed_vals in proptest::collection::vec((0.0f64..1.0, 0.0f64..255.0, 4.0f64..40.0, 0.0f64..80.0), 5),
    ) {
        let prm = params.resolve::<f64>();
        let k = params.k;
        let mut w = vec![0.0; k];
        let mut sd = vec![1.0; k];
        let mut diff = [0.0f64; MAX_K];
        for i in 0..k {
            let (wv, _mv, sdv, dv) = seed_vals[i];
            w[i] = wv;
            sd[i] = sdv;
            diff[i] = dv;
        }
        let a = classify_sorted(&diff, &w, &sd, &prm);
        let b = classify_nosort(&diff, &w, &sd, &prm);
        prop_assert_eq!(a, b);
    }

    /// f32 and f64 runs of the same stream make identical decisions for
    /// pixels far from the thresholds (coarse agreement check).
    #[test]
    fn precision_agreement_on_stable_streams(
        base in 40u8..200,
        n in 5usize..40,
    ) {
        let params = MogParams::default();
        let p64 = params.resolve::<f64>();
        let p32 = params.resolve::<f32>();
        let k = params.k;
        let mut w64 = vec![0.0f64; k]; w64[0] = 1.0;
        let mut m64 = vec![base as f64; k];
        let mut sd64 = vec![params.initial_sd; k];
        let mut w32 = vec![0.0f32; k]; w32[0] = 1.0;
        let mut m32 = vec![base as f32; k];
        let mut sd32 = vec![params.initial_sd as f32; k];
        for i in 0..n {
            let px = base.saturating_add((i % 3) as u8);
            let a = step_pixel(Variant::Predicated, px as f64, &mut w64, &mut m64, &mut sd64, &p64);
            let b = step_pixel(Variant::Predicated, px as f32, &mut w32, &mut m32, &mut sd32, &p32);
            prop_assert_eq!(a, b, "diverged at step {}", i);
        }
    }

    /// Scene rendering is a pure function of (seed, frame index).
    #[test]
    fn scene_rendering_is_deterministic(seed in any::<u64>(), idx in 0usize..50) {
        let build = || SceneBuilder::new(Resolution::TINY).seed(seed).walkers(2).build();
        let (a, ma) = build().render(idx);
        let (b, mb) = build().render(idx);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ma, mb);
    }

    /// MS-SSIM is symmetric, bounded by 1, and 1 for identical frames.
    #[test]
    fn msssim_axioms(seed in any::<u64>()) {
        let scene = SceneBuilder::new(Resolution::QVGA).seed(seed).walkers(1).build();
        let (a, _) = scene.render(0);
        let (b, _) = scene.render(1);
        let s_ab = ms_ssim(&a, &b).unwrap();
        let s_ba = ms_ssim(&b, &a).unwrap();
        prop_assert!((s_ab - s_ba).abs() < 1e-9);
        prop_assert!(s_ab <= 1.0 + 1e-9);
        let s_aa = ms_ssim(&a, &a).unwrap();
        prop_assert!((s_aa - 1.0).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Occupancy is in (0, 1] and monotone non-increasing in register
    /// pressure.
    #[test]
    fn occupancy_bounds_and_monotonicity(
        regs in 8u32..64,
        tpb_exp in 5u32..10,
        shared in 0usize..16384,
    ) {
        use mogpu::sim::{occupancy, KernelResources, LaunchConfig};
        let cfg = GpuConfig::tesla_c2075();
        let tpb = 1u32 << tpb_exp;
        let lc = LaunchConfig { blocks: 100, threads_per_block: tpb };
        let res = KernelResources { regs_per_thread: regs, shared_bytes_per_block: shared, local_f64_slots: 0 };
        if let Some(o) = occupancy(&cfg, &lc, &res) {
            prop_assert!(o.occupancy > 0.0 && o.occupancy <= 1.0);
            prop_assert_eq!(o.resident_warps, o.resident_blocks * tpb.div_ceil(32));
            // More registers can never increase occupancy.
            let res2 = KernelResources { regs_per_thread: regs + 8, ..res };
            if let Some(o2) = occupancy(&cfg, &lc, &res2) {
                prop_assert!(o2.resident_warps <= o.resident_warps);
            }
        }
    }

    /// Coalescing analysis: a warp memory slot produces between 1 and
    /// `lanes` transactions for word-aligned accesses, and requested bytes
    /// never exceed transacted bytes.
    #[test]
    fn transaction_count_bounds(
        base in 0u64..10_000,
        stride in 1u64..96,
        width_sel in 0usize..3,
    ) {
        use mogpu::sim::KernelStats;
        // Reach the warp analyzer through a micro-kernel run.
        use mogpu::sim::{lanes, launch, DeviceMemory, KernelResources, LaunchConfig, WarpCtx, WarpKernel};
        let width = [1usize, 4, 8][width_sel];
        struct Strided { buf: mogpu::sim::Buffer, base: u64, stride: u64, width: usize }
        impl WarpKernel for Strided {
            fn resources(&self) -> KernelResources {
                KernelResources { regs_per_thread: 8, shared_bytes_per_block: 0, local_f64_slots: 0 }
            }
            fn run_warp(&self, w: &mut WarpCtx<'_>) {
                let i = w.global_thread_id();
                let elem = lanes(|l| (self.base + i[l] as u64 * self.stride) as usize);
                match self.width {
                    1 => { w.ld_u8(self.buf, &elem); }
                    4 => { w.ld_f32(self.buf, &elem); }
                    _ => { w.ld_f64(self.buf, &elem); }
                }
            }
        }
        let mut mem = DeviceMemory::new(1 << 24);
        let buf = mem.alloc((10_000 + 32 * 96) * 8 + 64).unwrap();
        let cfg = GpuConfig::tesla_c2075();
        let k = Strided { buf, base, stride, width };
        let report = launch(&mut mem, &cfg, LaunchConfig { blocks: 1, threads_per_block: 32 }, &k).unwrap();
        let s: &KernelStats = &report.stats;
        prop_assert!(s.global_load_tx >= 1);
        // A 32-lane access of `width` bytes can touch at most
        // 32 * ceil(width/seg + 1) segments; with width <= 8 that is 64.
        prop_assert!(s.global_load_tx <= 64, "tx = {}", s.global_load_tx);
        prop_assert!(s.bytes_requested() <= s.bytes_transacted(&cfg));
        prop_assert_eq!(s.bytes_requested(), 32 * width as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adaptive-K invariants: active count stays in 1..=k_max and the
    /// active-prefix parameters stay healthy under arbitrary streams.
    #[test]
    fn adaptive_invariants_under_arbitrary_streams(
        k_max in 1usize..=6,
        pixels in proptest::collection::vec(0u8..=255, 1..100),
    ) {
        use mogpu::mog::adaptive::step_pixel_adaptive;
        let params = MogParams::new(k_max);
        let prm = params.resolve::<f64>();
        let mut w = vec![0.0f64; k_max];
        w[0] = 1.0;
        let mut m = vec![pixels[0] as f64; k_max];
        let mut sd = vec![params.initial_sd; k_max];
        let mut active = 1usize;
        for &px in &pixels {
            let (_, a) =
                step_pixel_adaptive(px as f64, active, &mut w, &mut m, &mut sd, &prm, k_max);
            active = a;
            prop_assert!(active >= 1 && active <= k_max, "active = {active}");
            for i in 0..active {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&w[i]), "w[{i}] = {}", w[i]);
                prop_assert!(sd[i].is_finite() && sd[i] > 0.0);
                prop_assert!(m[i].is_finite());
            }
        }
    }

    /// Cache model axioms: hits + misses equals accesses; a repeated
    /// access within capacity always hits; hit rate is within [0, 1].
    #[test]
    fn cache_model_axioms(
        capacity_lines in 1usize..64,
        assoc in 1usize..8,
        accesses in proptest::collection::vec(0u64..256, 1..200),
    ) {
        use mogpu::sim::cache::CacheModel;
        let mut c = CacheModel::new(capacity_lines * 128, assoc, 128);
        for &a in &accesses {
            c.access_segment(a);
        }
        prop_assert_eq!(c.hits + c.misses, accesses.len() as u64);
        prop_assert!((0.0..=1.0).contains(&c.hit_rate()));
        // Immediate re-access always hits (MRU).
        let last = *accesses.last().unwrap();
        prop_assert!(c.access_segment(last));
    }

    /// PGM round trip is lossless for arbitrary frames.
    #[test]
    fn pgm_round_trip_lossless(
        w in 1usize..40,
        h in 1usize..30,
        seed in any::<u64>(),
    ) {
        use mogpu::frame::{read_pgm, write_pgm};
        let res = Resolution::new(w, h);
        let mut state = seed;
        let data: Vec<u8> = (0..res.pixels())
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let f = Frame::from_vec(res, data).unwrap();
        let mut buf = Vec::new();
        write_pgm(&f, &mut buf).unwrap();
        prop_assert_eq!(read_pgm(buf.as_slice()).unwrap(), f);
    }

    /// Y4M luma round trip is lossless for even-dimension frames.
    #[test]
    fn y4m_round_trip_lossless(
        w in 1usize..20,
        h in 1usize..15,
        n in 1usize..4,
        seed in any::<u64>(),
    ) {
        use mogpu::frame::{read_y4m, write_y4m, FrameSequence};
        let res = Resolution::new(w * 2, h * 2);
        let mut state = seed;
        let mut seq = FrameSequence::new(res);
        for _ in 0..n {
            let data: Vec<u8> = (0..res.pixels())
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                    (state >> 33) as u8
                })
                .collect();
            seq.push(Frame::from_vec(res, data).unwrap()).unwrap();
        }
        let mut buf = Vec::new();
        write_y4m(&seq, 30, &mut buf).unwrap();
        let back = read_y4m(buf.as_slice()).unwrap();
        prop_assert_eq!(back, seq);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Morphology axioms on arbitrary masks: erosion shrinks, dilation
    /// grows, opening is contained in the input, the input is contained
    /// in its closing, and blob areas sum to the mask's support.
    #[test]
    fn morphology_axioms(seed in any::<u64>(), density in 0.05f64..0.6) {
        use mogpu::frame::{connected_components, close3, dilate3, erode3, open3};
        let res = Resolution::new(24, 18);
        let mut state = seed | 1;
        let data: Vec<u8> = (0..res.pixels())
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                if ((state >> 33) as f64 / u32::MAX as f64) < density { 255 } else { 0 }
            })
            .collect();
        let m = Frame::from_vec(res, data).unwrap();
        let eroded = erode3(&m);
        let dilated = dilate3(&m);
        let opened = open3(&m);
        let closed = close3(&m);
        for i in 0..m.len() {
            let (orig, er, di, op) = (
                m.as_slice()[i],
                eroded.as_slice()[i],
                dilated.as_slice()[i],
                opened.as_slice()[i],
            );
            prop_assert!(er <= orig, "erosion must shrink");
            prop_assert!(di >= orig, "dilation must grow");
            prop_assert!(op <= orig, "opening ⊆ input");
        }
        // Closing is extensive only away from the clamped border (the
        // final erosion truncates frame-edge pixels).
        for y in 1..res.height - 1 {
            for x in 1..res.width - 1 {
                prop_assert!(
                    closed.get(x, y) >= m.get(x, y),
                    "input ⊆ closing in the interior"
                );
            }
        }
        let (_, blobs) = connected_components(&m);
        let support = m.as_slice().iter().filter(|&&p| p != 0).count();
        let total_area: usize = blobs.iter().map(|b| b.area).sum();
        prop_assert_eq!(total_area, support);
        for b in &blobs {
            prop_assert!(b.area <= b.width() * b.height());
            prop_assert!(b.bbox.0 <= b.centroid.0 && b.centroid.0 <= b.bbox.2);
            prop_assert!(b.bbox.1 <= b.centroid.1 && b.centroid.1 <= b.bbox.3);
        }
    }
}
