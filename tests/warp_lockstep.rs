//! Differential test of the two executors: test kernels written once per
//! thread ([`Kernel`]) and once per warp ([`WarpKernel`]) run on the lane
//! and the warp executor with profiling, the sanitizer and dataflow
//! capture on, and must agree on everything a launch reports — the
//! [`KernelStats`], every site's counters, the sanitizer findings, the
//! dataflow access sets — and on the memory they leave behind.
//!
//! The two forms of a kernel sit at different source lines, so sites are
//! paired by order: the k-th site of the lane form (by line) is the k-th
//! of the warp form, and findings are compared with the warp form's
//! `file:line` strings rewritten to the lane form's.
//!
//! `Mixed` covers uniform code, a divergent `if`/`else`, nested loops
//! whose inner trip count depends on the outer index (lanes reach one
//! site's k-th occurrence in different warp instructions, so an
//! instruction splits across slots), a per-lane op count, a loop left by
//! an early `break`, a spill slot chosen per lane, 8-byte shared stores
//! four lanes to a bank, a same-word write race, barrier-ordered reads
//! of a neighbour's shared slot, reads of never-written global and
//! shared bytes and, optionally, out-of-bounds stores.

use mogpu::prelude::*;
use mogpu::sim::kernel::{launch_with, Kernel, KernelRef, KernelResources, LaunchConfig};
use mogpu::sim::profile::SiteProfile;
use mogpu::sim::stats::KernelStats;
use mogpu::sim::trace::OpClass;
use mogpu::sim::{
    blend, lanes, mask_of, site_source, Buffer, DeviceMemory, LaunchAccess, LaunchOptions,
    SanReport, ThreadCtx, WarpCtx, WarpKernel, WARP_LANES,
};
use proptest::prelude::*;

/// Buffers and shape shared by both forms of [`Mixed`].
#[derive(Debug, Clone, Copy)]
struct MixedArgs {
    /// Per-thread control byte (trip counts and branch parity).
    trips: Buffer,
    data: Buffer,
    out: Buffer,
    /// Threads past `n` return at the guard.
    n: usize,
    threads_per_block: usize,
    /// Adds a store past the end of `out` on every lane (sanitizer only).
    oob: bool,
}

impl MixedArgs {
    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 20,
            shared_bytes_per_block: self.race_off() + 1,
            local_f64_slots: 4,
        }
    }

    /// Shared byte every thread writes without a barrier.
    fn race_off(&self) -> usize {
        self.threads_per_block * 16
    }
}

/// The lane form.
struct MixedLane(MixedArgs);

/// The warp form.
struct MixedWarp(MixedArgs);

impl Kernel for MixedLane {
    fn resources(&self) -> KernelResources {
        self.0.resources()
    }

    fn run(&self, ctx: &mut ThreadCtx<'_>) {
        let a = &self.0;
        let i = ctx.global_thread_id();
        let t = ctx.thread_idx();
        ctx.int_op(2);
        if !ctx.branch(i < a.n) {
            return;
        }
        let trips = ctx.ld_u8(a.trips, i) as usize;
        let mut acc = ctx.ld_f64(a.data, i);
        let stale = ctx.ld_f64(a.out, i);
        ctx.flop64(1);
        if ctx.branch(trips.is_multiple_of(2)) {
            ctx.flop64(3);
            acc = acc * 2.0 + stale;
            ctx.st_f64(a.out, i, acc);
        } else {
            ctx.int_op(1);
            acc += 1.0;
            ctx.st_local(trips % 4, acc);
        }
        for o in 0..trips % 4 {
            ctx.int_op(1);
            for b in 0..(trips / 4) % 3 + o {
                ctx.flop64(2);
                acc += (o * b) as f64;
                ctx.st_local(b % 4, acc);
            }
            let spill = ctx.ld_local(o % 4);
            acc += spill * 0.5;
        }
        ctx.int_op(trips as u32 % 5 + 1);
        for k in 0..4 {
            ctx.int_op(1);
            if ctx.branch(acc < (k * trips) as f64) {
                break;
            }
            acc -= 0.25;
        }
        ctx.sh_st_f64(t * 16, acc);
        ctx.sh_st_u8(a.race_off(), 1);
        ctx.sync();
        let prev = if t > 0 {
            ctx.sh_ld_f64((t - 1) * 16)
        } else {
            0.0
        };
        ctx.flop64(1);
        if a.oob {
            ctx.st_f64(a.out, i + a.n, 0.0);
        }
        ctx.st_f64(a.out, i, acc + prev);
    }
}

impl WarpKernel for MixedWarp {
    fn resources(&self) -> KernelResources {
        self.0.resources()
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        let a = &self.0;
        let i = w.global_thread_id();
        let t = w.thread_idx();
        w.int_op(2);
        let inside = w.branch(mask_of(|l| i[l] < a.n));
        if !w.keep(inside) {
            return;
        }
        let bytes = w.ld_u8(a.trips, &i);
        let trips = lanes(|l| bytes[l] as usize);
        let mut acc = w.ld_f64(a.data, &i);
        let stale = w.ld_f64(a.out, &i);
        w.flop64(1);
        let even = w.branch(mask_of(|l| trips[l].is_multiple_of(2)));
        let odd = w.active() & !even;
        w.when(even, |w| {
            w.flop64(3);
            let next = lanes(|l| acc[l] * 2.0 + stale[l]);
            blend(even, &mut acc, &next);
            w.st_f64(a.out, &i, &acc);
        });
        w.when(odd, |w| {
            w.int_op(1);
            let next = lanes(|l| acc[l] + 1.0);
            blend(odd, &mut acc, &next);
            w.st_local(&lanes(|l| trips[l] % 4), &acc);
        });
        for o in 0..3 {
            let outer = mask_of(|l| o < trips[l] % 4);
            w.when(outer, |w| {
                w.int_op(1);
                for b in 0.. {
                    let inner = w.active() & mask_of(|l| b < (trips[l] / 4) % 3 + o);
                    if inner == 0 {
                        break;
                    }
                    w.when(inner, |w| {
                        w.flop64(2);
                        let next = lanes(|l| acc[l] + (o * b) as f64);
                        blend(inner, &mut acc, &next);
                        w.st_local(&[b % 4; WARP_LANES], &acc);
                    });
                }
                let spill = w.ld_local(&[o % 4; WARP_LANES]);
                let next = lanes(|l| acc[l] + spill[l] * 0.5);
                blend(w.active(), &mut acc, &next);
            });
        }
        w.ops(OpClass::Int, &lanes(|l| trips[l] as u32 % 5 + 1));
        let mut live = w.active();
        for k in 0..4 {
            w.when(live, |w| {
                w.int_op(1);
                let stop = w.branch(mask_of(|l| acc[l] < (k * trips[l]) as f64));
                let go = w.active() & !stop;
                let next = lanes(|l| acc[l] - 0.25);
                blend(go, &mut acc, &next);
                live &= !stop;
            });
            if live == 0 {
                break;
            }
        }
        w.sh_st_f64(&lanes(|l| t[l] * 16), &acc);
        w.sh_st_u8(&[a.race_off(); WARP_LANES], &[1; WARP_LANES]);
        w.sync();
        let mut prev = [0.0; WARP_LANES];
        w.when(mask_of(|l| t[l] > 0), |w| {
            prev = w.sh_ld_f64(&lanes(|l| t[l].saturating_sub(1) * 16));
        });
        w.flop64(1);
        if a.oob {
            w.st_f64(a.out, &lanes(|l| i[l] + a.n), &[0.0; WARP_LANES]);
        }
        w.st_f64(a.out, &i, &lanes(|l| acc[l] + prev[l]));
    }
}

/// Everything one launch reports, plus the output buffer.
struct Outcome {
    stats: KernelStats,
    sites: SiteProfile,
    san: SanReport,
    access: LaunchAccess,
    out: Vec<u8>,
}

/// One launch of `Mixed` in the form `warp` picks, on fresh memory.
fn run(warp: bool, cfg: &GpuConfig, trips: &[u8], n: usize, tpb: u32, sanitize: bool) -> Outcome {
    let threads = trips.len();
    let mut mem = DeviceMemory::new(1 << 22);
    let trips_buf = mem.alloc(threads).unwrap();
    let data = mem.alloc_array::<f64>(threads).unwrap();
    let out = mem.alloc_array::<f64>(threads).unwrap();
    mem.upload(trips_buf, trips);
    for j in 0..threads {
        mem.write_f64(data, j, (j as f64 * 0.37).sin() * 8.0);
    }
    let args = MixedArgs {
        trips: trips_buf,
        data,
        out,
        n,
        threads_per_block: tpb as usize,
        oob: sanitize,
    };
    let (lane, warp_form) = (MixedLane(args), MixedWarp(args));
    let kernel: KernelRef<'_> = if warp {
        KernelRef::Warp(&warp_form)
    } else {
        KernelRef::Lane(&lane)
    };
    let opts = LaunchOptions {
        profile_sites: true,
        sanitize,
        dataflow: true,
    };
    let lc = LaunchConfig::cover(threads, tpb);
    let report = launch_with(&mut mem, cfg, lc, kernel, opts).unwrap();
    Outcome {
        stats: report.stats,
        sites: report.sites.unwrap(),
        san: report.sanitizer.unwrap_or_default(),
        access: report.access.unwrap(),
        out: mem.download(out),
    }
}

/// The profile's sites as `(line, counters)` in line order.
fn site_rows(sites: &SiteProfile) -> Vec<(u32, mogpu::sim::SiteStats)> {
    let mut rows: Vec<_> = sites
        .iter()
        .map(|(site, stats)| (site_source(site).expect("resolved site").line, *stats))
        .collect();
    rows.sort_by_key(|r| r.0);
    rows
}

/// Runs both forms and asserts they agree on everything.
fn assert_forms_agree(cfg: &GpuConfig, trips: &[u8], n: usize, tpb: u32, sanitize: bool) {
    let lane = run(false, cfg, trips, n, tpb, sanitize);
    let warp = run(true, cfg, trips, n, tpb, sanitize);
    assert_eq!(lane.stats, warp.stats, "kernel counters");
    assert_eq!(lane.out, warp.out, "output bytes");
    assert_eq!(lane.access, warp.access, "dataflow access sets");
    let (lane_rows, warp_rows) = (site_rows(&lane.sites), site_rows(&warp.sites));
    assert_eq!(lane_rows.len(), warp_rows.len(), "site count");
    for ((ll, ls), (wl, ws)) in lane_rows.iter().zip(&warp_rows) {
        assert_eq!(ls, ws, "site counters of lane line {ll} / warp line {wl}");
    }
    // Findings name sites as file:line; read the warp form's through
    // the pairing (longest line numbers first, so 123 is not hit by 12).
    let mut pairs: Vec<(u32, u32)> = warp_rows
        .iter()
        .zip(&lane_rows)
        .map(|(w, l)| (w.0, l.0))
        .collect();
    pairs.sort_by_key(|p| std::cmp::Reverse(p.0.to_string().len()));
    let mut warp_san = format!("{:?}", mogpu::json::to_value(&warp.san).unwrap());
    for (wl, ll) in pairs {
        warp_san = warp_san.replace(
            &format!("warp_lockstep.rs:{wl}\""),
            &format!("warp_lockstep.rs:{ll}\""),
        );
        warp_san = warp_san.replace(
            &format!("warp_lockstep.rs:{wl} "),
            &format!("warp_lockstep.rs:{ll} "),
        );
    }
    let lane_san = format!("{:?}", mogpu::json::to_value(&lane.san).unwrap());
    assert_eq!(lane_san, warp_san, "sanitizer findings");
    assert_eq!(lane.san.len(), warp.san.len());
}

/// Control bytes that spread lanes over every trip count and parity.
fn spread(threads: usize) -> Vec<u8> {
    (0..threads).map(|j| (j * 7 + j / 5) as u8).collect()
}

#[test]
fn forms_agree_on_divergent_nested_code() {
    let cfg = GpuConfig::tesla_c2075();
    assert_forms_agree(&cfg, &spread(256), 250, 128, false);
    assert_forms_agree(&cfg, &spread(256), 250, 128, true);
}

#[test]
fn forms_agree_on_partial_warps() {
    // 48 threads per block: every block's second warp has 16 lanes.
    let cfg = GpuConfig::tesla_c2075();
    assert_forms_agree(&cfg, &spread(144), 140, 48, true);
    assert_forms_agree(&cfg, &spread(96), 96, 48, false);
}

#[test]
fn forms_agree_under_an_l2_where_segment_order_matters() {
    let cfg = GpuConfig::tesla_c2075_with_l2();
    assert_forms_agree(&cfg, &spread(320), 300, 64, true);
    assert_forms_agree(&cfg, &spread(192), 192, 96, false);
}

/// The test kernel really does exercise what the module docs promise:
/// divergence, bank replays, spills, an L2 and findings of every check
/// except synccheck.
#[test]
fn mixed_kernel_covers_the_interesting_cases() {
    let cfg = GpuConfig::tesla_c2075_with_l2();
    let o = run(true, &cfg, &spread(256), 250, 128, true);
    assert!(o.stats.divergent_branch_slots > 0);
    assert!(o.stats.shared_replays > 0);
    assert!(o.stats.local_load_tx > 0 && o.stats.local_store_tx > 0);
    assert!(o.stats.l2_hits > 0);
    let kinds: Vec<&str> = o.san.findings().iter().map(|f| f.kind.name()).collect();
    for kind in ["memcheck", "racecheck", "initcheck"] {
        assert!(kinds.contains(&kind), "no {kind} finding in {kinds:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random per-lane trip counts, problem sizes and block shapes.
    #[test]
    fn forms_agree_on_random_trip_counts(
        trips in proptest::collection::vec(any::<u8>(), 1..200),
        cut in 0usize..40,
        tpb_ix in 0usize..4,
        l2 in any::<bool>(),
        sanitize in any::<bool>(),
    ) {
        let cfg = if l2 { GpuConfig::tesla_c2075_with_l2() } else { GpuConfig::tesla_c2075() };
        let tpb = [32, 48, 64, 96][tpb_ix];
        let n = trips.len().saturating_sub(cut).max(1);
        assert_forms_agree(&cfg, &trips, n, tpb, sanitize);
    }
}
