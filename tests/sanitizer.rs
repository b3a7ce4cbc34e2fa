//! End-to-end tests for the `sancheck` sanitizer: one deliberately buggy
//! miniature kernel per defect class, each asserted to produce exactly
//! one finding attributed to the right `file:line`, plus clean-run
//! assertions over every shipped kernel.

use mogpu::prelude::*;
use mogpu::sim::{
    lanes, launch_with, mask_of, Buffer, DeviceMemory, KernelResources, LaunchConfig,
    LaunchOptions, SanReport, WarpCtx, WarpKernel, WARP_LANES,
};
use std::sync::atomic::{AtomicU32, Ordering};

fn sanitized() -> LaunchOptions {
    LaunchOptions {
        sanitize: true,
        ..Default::default()
    }
}

fn run_sanitized<K: WarpKernel>(
    mem: &mut DeviceMemory,
    blocks: u32,
    threads_per_block: u32,
    kernel: &K,
) -> SanReport {
    let cfg = GpuConfig::tesla_c2075();
    let lc = LaunchConfig {
        blocks,
        threads_per_block,
    };
    launch_with(mem, &cfg, lc, kernel, sanitized())
        .expect("launch")
        .sanitizer
        .expect("sanitize was requested")
}

/// The single finding of a seeded-bug run, checked against the line the
/// kernel recorded for its buggy access.
fn sole_finding(report: &SanReport, line: &AtomicU32) -> mogpu::sim::Finding {
    assert_eq!(
        report.len(),
        1,
        "expected exactly one finding, got: {report:?}"
    );
    let f = report.findings()[0].clone();
    let expect = format!("sanitizer.rs:{}", line.load(Ordering::Relaxed));
    let src = f.source.as_deref().expect("finding has a resolved source");
    assert!(
        src.ends_with(&expect),
        "finding attributed to {src}, expected ...{expect}"
    );
    f
}

const SMALL: KernelResources = KernelResources {
    regs_per_thread: 8,
    shared_bytes_per_block: 0,
    local_f64_slots: 0,
};

// ---------------------------------------------------------------- memcheck

#[test]
fn memcheck_catches_oob_global_store_at_site() {
    static BUG_LINE: AtomicU32 = AtomicU32::new(0);
    struct OobStore {
        buf: Buffer,
    }
    impl WarpKernel for OobStore {
        fn resources(&self) -> KernelResources {
            SMALL
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let first = mask_of(|l| w.global_thread_id()[l] == 0);
            w.when(first, |w| {
                BUG_LINE.store(line!() + 1, Ordering::Relaxed);
                w.st_f64(self.buf, &[16; WARP_LANES], &[1.0; WARP_LANES]); // buffer holds 16 elements
            });
        }
    }
    let mut mem = DeviceMemory::new(1 << 20);
    let buf = mem.alloc_array::<f64>(16).unwrap();
    let report = run_sanitized(&mut mem, 1, 32, &OobStore { buf });
    let f = sole_finding(&report, &BUG_LINE);
    assert_eq!(f.kind, mogpu::sim::CheckKind::Memcheck);
    assert_eq!(f.occurrences, 1);
    assert!(
        f.message.contains("out of bounds"),
        "message: {}",
        f.message
    );
}

// --------------------------------------------------------------- racecheck

#[test]
fn racecheck_catches_unsynced_cross_lane_read_at_site() {
    static BUG_LINE: AtomicU32 = AtomicU32::new(0);
    struct Race {
        out: Buffer,
    }
    impl WarpKernel for Race {
        fn resources(&self) -> KernelResources {
            KernelResources {
                regs_per_thread: 8,
                shared_bytes_per_block: 64,
                local_f64_slots: 0,
            }
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let t = w.thread_idx();
            w.sh_st_u8(&t, &lanes(|l| t[l] as u8));
            // Threads t > 0 read their neighbor's byte with no barrier in
            // between: a write-read race. Thread 0 re-reads its own byte
            // (no conflict, and never an uninitialized one).
            let peer = lanes(|l| t[l].saturating_sub(1));
            BUG_LINE.store(line!() + 1, Ordering::Relaxed);
            let v = w.sh_ld_u8(&peer);
            w.st_u8(self.out, &t, &v);
        }
    }
    let mut mem = DeviceMemory::new(1 << 20);
    let out = mem.alloc_array::<u8>(64).unwrap();
    let report = run_sanitized(&mut mem, 1, 64, &Race { out });
    let f = sole_finding(&report, &BUG_LINE);
    assert_eq!(f.kind, mogpu::sim::CheckKind::Racecheck);
    assert_eq!(f.occurrences, 63, "threads 1..64 each race once");
    assert!(
        f.message.contains("same barrier interval"),
        "message: {}",
        f.message
    );
}

#[test]
fn racecheck_stays_quiet_when_a_barrier_separates_the_lanes() {
    struct Synced {
        out: Buffer,
    }
    impl WarpKernel for Synced {
        fn resources(&self) -> KernelResources {
            KernelResources {
                regs_per_thread: 8,
                shared_bytes_per_block: 64,
                local_f64_slots: 0,
            }
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let t = w.thread_idx();
            w.sh_st_u8(&t, &lanes(|l| t[l] as u8));
            w.sync();
            let v = w.sh_ld_u8(&lanes(|l| t[l].saturating_sub(1)));
            w.st_u8(self.out, &t, &v);
        }
    }
    let mut mem = DeviceMemory::new(1 << 20);
    let out = mem.alloc_array::<u8>(64).unwrap();
    let report = run_sanitized(&mut mem, 1, 64, &Synced { out });
    assert!(
        report.is_clean(),
        "barrier-ordered flow is clean: {report:?}"
    );
}

// --------------------------------------------------------------- synccheck

#[test]
fn synccheck_catches_divergent_barrier_at_minority_site() {
    static BUG_LINE: AtomicU32 = AtomicU32::new(0);
    struct Divergent {
        out: Buffer,
    }
    impl WarpKernel for Divergent {
        fn resources(&self) -> KernelResources {
            KernelResources {
                regs_per_thread: 8,
                shared_bytes_per_block: 8,
                local_f64_slots: 0,
            }
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let t = w.thread_idx();
            let zero = mask_of(|l| t[l] == 0);
            w.when(zero, |w| {
                // Only thread 0 syncs here — the minority site the
                // finding must be attributed to.
                BUG_LINE.store(line!() + 1, Ordering::Relaxed);
                w.sync();
            });
            w.when(!zero, |w| w.sync());
            w.st_u8(self.out, &t, &lanes(|l| t[l] as u8));
        }
    }
    let mut mem = DeviceMemory::new(1 << 20);
    let out = mem.alloc_array::<u8>(32).unwrap();
    let report = run_sanitized(&mut mem, 1, 32, &Divergent { out });
    let f = sole_finding(&report, &BUG_LINE);
    assert_eq!(f.kind, mogpu::sim::CheckKind::Synccheck);
    assert!(
        f.message.contains("distinct sync() sites"),
        "message: {}",
        f.message
    );
}

#[test]
fn synccheck_allows_early_exit_before_a_barrier() {
    // CUDA semantics: threads that returned before the barrier don't
    // participate; the remaining threads all sync at one site.
    struct EarlyExit {
        out: Buffer,
    }
    impl WarpKernel for EarlyExit {
        fn resources(&self) -> KernelResources {
            KernelResources {
                regs_per_thread: 8,
                shared_bytes_per_block: 8,
                local_f64_slots: 0,
            }
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let t = w.thread_idx();
            if !w.keep(mask_of(|l| t[l] < 16)) {
                return;
            }
            w.sync();
            w.st_u8(self.out, &t, &[1; WARP_LANES]);
        }
    }
    let mut mem = DeviceMemory::new(1 << 20);
    let out = mem.alloc_array::<u8>(32).unwrap();
    let report = run_sanitized(&mut mem, 1, 32, &EarlyExit { out });
    assert!(
        report.is_clean(),
        "early exit is not divergence: {report:?}"
    );
}

// --------------------------------------------------------------- initcheck

#[test]
fn initcheck_catches_uninitialized_shared_read_at_site() {
    static BUG_LINE: AtomicU32 = AtomicU32::new(0);
    struct UninitShared {
        out: Buffer,
    }
    impl WarpKernel for UninitShared {
        fn resources(&self) -> KernelResources {
            KernelResources {
                regs_per_thread: 8,
                shared_bytes_per_block: 64,
                local_f64_slots: 0,
            }
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let t = w.thread_idx();
            w.when(mask_of(|l| t[l] == 0), |w| {
                // No thread has written shared memory: its contents are
                // undefined at block start.
                BUG_LINE.store(line!() + 1, Ordering::Relaxed);
                let v = w.sh_ld_f64(&[0; WARP_LANES]);
                w.st_f64(self.out, &[0; WARP_LANES], &v);
            });
        }
    }
    let mut mem = DeviceMemory::new(1 << 20);
    let out = mem.alloc_array::<f64>(32).unwrap();
    let report = run_sanitized(&mut mem, 1, 32, &UninitShared { out });
    let f = sole_finding(&report, &BUG_LINE);
    assert_eq!(f.kind, mogpu::sim::CheckKind::Initcheck);
    assert!(
        f.message.contains("no thread has written"),
        "message: {}",
        f.message
    );
}

#[test]
fn initcheck_catches_never_written_global_read() {
    static BUG_LINE: AtomicU32 = AtomicU32::new(0);
    struct UninitGlobal {
        scratch: Buffer,
        out: Buffer,
    }
    impl WarpKernel for UninitGlobal {
        fn resources(&self) -> KernelResources {
            SMALL
        }
        fn run_warp(&self, w: &mut WarpCtx<'_>) {
            let first = mask_of(|l| w.global_thread_id()[l] == 0);
            w.when(first, |w| {
                // `scratch` was allocated but never uploaded or stored to.
                BUG_LINE.store(line!() + 1, Ordering::Relaxed);
                let v = w.ld_f64(self.scratch, &[3; WARP_LANES]);
                w.st_f64(self.out, &[0; WARP_LANES], &v);
            });
        }
    }
    let mut mem = DeviceMemory::new(1 << 20);
    let scratch = mem.alloc_array::<f64>(8).unwrap();
    let out = mem.alloc_array::<f64>(8).unwrap();
    let report = run_sanitized(&mut mem, 1, 32, &UninitGlobal { scratch, out });
    let f = sole_finding(&report, &BUG_LINE);
    assert_eq!(f.kind, mogpu::sim::CheckKind::Initcheck);
}

// ------------------------------------------------- shipped kernels: clean

#[test]
fn every_shipped_kernel_runs_clean_under_the_sanitizer() {
    let res = Resolution::TINY;
    let scene = SceneBuilder::new(res).seed(11).walkers(2).build();
    let frames = scene.render_sequence(5).0.into_frames();

    for level in mogpu::core::OptLevel::LADDER
        .into_iter()
        .chain([mogpu::core::OptLevel::Windowed { group: 4 }])
    {
        let mut gpu = GpuMog::<f64>::new(
            res,
            MogParams::default(),
            level,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        gpu.set_sanitize(true);
        gpu.process_all(&frames[1..]).unwrap();
        let report = gpu.take_san_report().expect("sanitize was on");
        assert!(
            report.is_clean(),
            "level {} is not clean:\n{}",
            level.name(),
            report.table()
        );
    }

    let mut adaptive = mogpu::core::AdaptiveGpuMog::<f64>::new(
        res,
        MogParams::default(),
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    adaptive.set_sanitize(true);
    adaptive.process_all(&frames[1..]).unwrap();
    let report = adaptive.take_san_report().expect("sanitize was on");
    assert!(report.is_clean(), "adaptive:\n{}", report.table());

    let (_, truth) = scene.render(3);
    for op in [
        mogpu::core::kernels::MorphOp::Erode,
        mogpu::core::kernels::MorphOp::Dilate,
    ] {
        let (_, launch_report) = mogpu::core::kernels::gpu_morph_with(
            &truth,
            op,
            &GpuConfig::tesla_c2075(),
            sanitized(),
        )
        .unwrap();
        let report = launch_report.sanitizer.expect("sanitize was requested");
        assert!(report.is_clean(), "morph {op:?}:\n{}", report.table());
    }
}

#[test]
fn sanitize_does_not_change_shipped_kernel_output() {
    let res = Resolution::TINY;
    let frames = SceneBuilder::new(res)
        .seed(12)
        .walkers(2)
        .build()
        .render_sequence(4)
        .0
        .into_frames();
    let mut plain = GpuMog::<f64>::new(
        res,
        MogParams::default(),
        mogpu::core::OptLevel::F,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    let expect = plain.process_all(&frames[1..]).unwrap();
    let mut checked = GpuMog::<f64>::new(
        res,
        MogParams::default(),
        mogpu::core::OptLevel::F,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    checked.set_sanitize(true);
    let got = checked.process_all(&frames[1..]).unwrap();
    assert_eq!(expect.masks, got.masks);
    assert_eq!(expect.stats, got.stats);
}
