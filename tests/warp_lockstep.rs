//! The kernel executor against the answers of the per-lane executor it
//! replaced. `tests/data/lane_executor_golden.json` holds what that
//! executor reported — the [`KernelStats`], every site's counters, the
//! sanitizer findings, the dataflow access sets and a digest of the
//! memory left behind — for the `Mixed` test kernel below and for the
//! morphology kernel, with profiling, the sanitizer and dataflow capture
//! on. It was written once, from the per-thread forms of both kernels,
//! and is never regenerated; the warp forms must reproduce it exactly.
//!
//! The golden names sites by their rank among the lines of the kernel's
//! file that the launch mentions, so the comparison survives line moves
//! as long as each form keeps its sites in the same order.
//!
//! `Mixed` covers uniform code, a divergent `if`/`else`, nested loops
//! whose inner trip count depends on the outer index (lanes reach one
//! site's k-th occurrence in different warp instructions, so an
//! instruction splits across slots), a per-lane op count, a loop left by
//! an early `break`, a spill slot chosen per lane, 8-byte shared stores
//! four lanes to a bank, a same-word write race, barrier-ordered reads
//! of a neighbour's shared slot, reads of never-written global and
//! shared bytes and, optionally, out-of-bounds stores.

#[path = "support/site_rank.rs"]
mod site_rank;

use mogpu::core::kernels::{gpu_morph_with, MorphOp};
use mogpu::json::Value;
use mogpu::prelude::*;
use mogpu::sim::kernel::{launch_with, KernelResources, LaunchConfig, LaunchReport};
use mogpu::sim::profile::SiteProfile;
use mogpu::sim::stats::KernelStats;
use mogpu::sim::trace::OpClass;
use mogpu::sim::{
    blend, lanes, mask_of, site_source, Buffer, DeviceMemory, LaunchAccess, LaunchOptions,
    SanReport, WarpCtx, WarpKernel, WARP_LANES,
};

/// Buffers and shape of [`Mixed`].
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

/// The test kernel.
struct Mixed(MixedArgs);

impl WarpKernel for Mixed {
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

/// One launch of `Mixed` on fresh memory with profiling and dataflow
/// capture on; the sanitizer and the out-of-bounds store go together.
fn run(cfg: &GpuConfig, trips: &[u8], n: usize, tpb: u32, sanitize: bool) -> Outcome {
    let opts = LaunchOptions {
        profile_sites: true,
        sanitize,
        dataflow: true,
    };
    let (report, out) = launch_mixed(cfg, trips, n, tpb, sanitize, opts);
    Outcome {
        stats: report.stats,
        sites: report.sites.unwrap(),
        san: report.sanitizer.unwrap_or_default(),
        access: report.access.unwrap(),
        out,
    }
}

/// One launch of `Mixed` on fresh memory under `opts`: the report and
/// the output buffer.
fn launch_mixed(
    cfg: &GpuConfig,
    trips: &[u8],
    n: usize,
    tpb: u32,
    oob: bool,
    opts: LaunchOptions,
) -> (LaunchReport, Vec<u8>) {
    let threads = trips.len();
    let mut mem = DeviceMemory::new(1 << 22);
    let trips_buf = mem.alloc(threads).unwrap();
    let data = mem.alloc_array::<f64>(threads).unwrap();
    let out = mem.alloc_array::<f64>(threads).unwrap();
    mem.upload(trips_buf, trips);
    for j in 0..threads {
        mem.write_f64(data, j, (j as f64 * 0.37).sin() * 8.0);
    }
    let kernel = Mixed(MixedArgs {
        trips: trips_buf,
        data,
        out,
        n,
        threads_per_block: tpb as usize,
        oob,
    });
    let lc = LaunchConfig::cover(threads, tpb);
    let report = launch_with(&mut mem, cfg, lc, &kernel, opts).unwrap();
    (report, mem.download(out))
}

/// Control bytes that spread lanes over every trip count and parity.
fn spread(threads: usize) -> Vec<u8> {
    (0..threads).map(|j| (j * 7 + j / 5) as u8).collect()
}

/// The test kernel really does exercise what the module docs promise:
/// divergence, bank replays, spills, an L2 and findings of every check
/// except synccheck.
#[test]
fn mixed_kernel_covers_the_interesting_cases() {
    let cfg = GpuConfig::tesla_c2075_with_l2();
    let o = run(&cfg, &spread(256), 250, 128, true);
    assert!(o.stats.divergent_branch_slots > 0);
    assert!(o.stats.shared_replays > 0);
    assert!(o.stats.local_load_tx > 0 && o.stats.local_store_tx > 0);
    assert!(o.stats.l2_hits > 0);
    let kinds: Vec<&str> = o.san.findings().iter().map(|f| f.kind.name()).collect();
    for kind in ["memcheck", "racecheck", "initcheck"] {
        assert!(kinds.contains(&kind), "no {kind} finding in {kinds:?}");
    }
}

// ---- the golden ----

const GOLDEN: &str = include_str!("data/lane_executor_golden.json");
/// The source files of the two golden kernels, whose sites are ranked.
const MIXED_FILE: &str = "tests/warp_lockstep.rs";
const MORPH_FILE: &str = "crates/core/src/kernels/morph.rs";

/// FNV-1a 64-bit over `bytes`.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Everything a launch reported, with each site of the kernel at `file`
/// named by its rank among the lines the outcome mentions.
fn outcome_value(o: &Outcome, file: &str) -> Value {
    let san = mogpu::json::to_string_canonical(&o.san).unwrap();
    let (dir, stem) = file.strip_suffix(".rs").unwrap().rsplit_once('/').unwrap();
    let dir = format!("{dir}/");
    let site_line = |site| {
        let src = site_source(site).expect("resolved site");
        assert!(src.file.ends_with(file), "site outside {file}: {src}");
        src.line
    };
    let mut lines = site_rank::lines_named(&san, &dir);
    for (s, _) in o.sites.iter() {
        lines.insert((stem.to_string(), site_line(s)));
    }
    let rank = |s| site_rank::rank(&lines, stem, site_line(s));
    let mut sites: Vec<(usize, Value)> = o
        .sites
        .iter()
        .map(|(s, st)| (rank(s), mogpu::json::to_value(st).unwrap()))
        .collect();
    sites.sort_by_key(|s| s.0);
    let named = site_rank::rank_among(&san, &dir, &lines);
    let runs = |set: &mogpu::sim::IntervalSet| {
        Value::Array(
            set.runs()
                .iter()
                .map(|&(s, e)| Value::Array(vec![Value::U64(s), Value::U64(e)]))
                .collect(),
        )
    };
    Value::Object(vec![
        ("stats".into(), mogpu::json::to_value(&o.stats).unwrap()),
        (
            "sites".into(),
            Value::Array(
                sites
                    .into_iter()
                    .map(|(k, v)| Value::Array(vec![Value::U64(k as u64), v]))
                    .collect(),
            ),
        ),
        ("sanitizer".into(), mogpu::json::from_str(&named).unwrap()),
        (
            "access".into(),
            Value::Object(vec![
                ("reads".into(), runs(&o.access.reads)),
                ("writes".into(), runs(&o.access.writes)),
            ]),
        ),
        ("out".into(), Value::String(digest(&o.out))),
    ])
}

/// One `Mixed` launch the golden pins.
struct MixedCase {
    name: String,
    l2: bool,
    trips: Vec<u8>,
    n: usize,
    tpb: u32,
    sanitize: bool,
}

impl MixedCase {
    /// The case's inputs, pinned beside its outcome.
    fn input(&self) -> Value {
        Value::Object(vec![
            ("l2".into(), Value::Bool(self.l2)),
            ("trips".into(), Value::String(digest(&self.trips))),
            ("threads".into(), Value::U64(self.trips.len() as u64)),
            ("n".into(), Value::U64(self.n as u64)),
            ("tpb".into(), Value::U64(self.tpb as u64)),
            ("sanitize".into(), Value::Bool(self.sanitize)),
        ])
    }

    fn cfg(&self) -> GpuConfig {
        if self.l2 {
            GpuConfig::tesla_c2075_with_l2()
        } else {
            GpuConfig::tesla_c2075()
        }
    }
}

/// Six fixed cases, then 48 seeded draws of random shape: 1..200 random control bytes, a problem size cut by
/// 0..40 threads, one of four block sizes, with or without an L2 and
/// the sanitizer.
fn mixed_cases() -> Vec<MixedCase> {
    let fixed = |name: &str, l2, threads, n, tpb, sanitize| MixedCase {
        name: name.to_string(),
        l2,
        trips: spread(threads),
        n,
        tpb,
        sanitize,
    };
    let mut cases = vec![
        fixed("divergent", false, 256, 250, 128, false),
        fixed("divergent_sanitized", false, 256, 250, 128, true),
        fixed("partial_sanitized", false, 144, 140, 48, true),
        fixed("partial", false, 96, 96, 48, false),
        fixed("l2_sanitized", true, 320, 300, 64, true),
        fixed("l2", true, 192, 192, 96, false),
    ];
    let mut state = 0x1CC_2014_u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    for seed in 0..48 {
        let len = 1 + next(199) as usize;
        let trips: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
        let n = len.saturating_sub(next(40) as usize).max(1);
        let tpb = [32, 48, 64, 96][next(4) as usize];
        cases.push(MixedCase {
            name: format!("seeded_{seed}"),
            l2: next(2) == 1,
            trips,
            n,
            tpb,
            sanitize: next(2) == 1,
        });
    }
    cases
}

/// One morphology launch the golden pins: a mask of `width x height`
/// (both cover border pixels; 37 x 23 = 851 pixels end in a 19-lane
/// warp) with profiling, the sanitizer and dataflow capture on.
fn morph_outcome(width: usize, height: usize, op: MorphOp, l2: bool) -> (Value, Outcome) {
    let res = Resolution::new(width, height);
    let mask = if (width, height) == (37, 23) {
        let mut state = 0x5EED_u64;
        let bits: Vec<u8> = (0..res.pixels())
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                if (state >> 60) < 9 {
                    255
                } else {
                    0
                }
            })
            .collect();
        Mask::from_vec(res, bits).unwrap()
    } else {
        SceneBuilder::new(res)
            .seed(31)
            .walkers(3)
            .build()
            .render(5)
            .1
    };
    let cfg = if l2 {
        GpuConfig::tesla_c2075_with_l2()
    } else {
        GpuConfig::tesla_c2075()
    };
    let opts = LaunchOptions {
        profile_sites: true,
        sanitize: true,
        dataflow: true,
    };
    let (out, report) = gpu_morph_with(&mask, op, &cfg, opts).unwrap();
    let input = Value::Object(vec![
        ("mask".into(), Value::String(digest(mask.as_slice()))),
        ("l2".into(), Value::Bool(l2)),
    ]);
    let outcome = Outcome {
        stats: report.stats,
        sites: report.sites.unwrap(),
        san: report.sanitizer.unwrap(),
        access: report.access.unwrap(),
        out: out.as_slice().to_vec(),
    };
    (input, outcome)
}

/// The morphology cases: both operations, with and without an L2, on a
/// random 37 x 23 mask and a rendered 64 x 48 one.
fn morph_cases() -> Vec<(String, usize, usize, MorphOp, bool)> {
    let mut cases = Vec::new();
    for (w, h) in [(37, 23), (64, 48)] {
        for op in [MorphOp::Erode, MorphOp::Dilate] {
            for l2 in [false, true] {
                let name = format!("{op:?}_{w}x{h}{}", if l2 { "_l2" } else { "" });
                cases.push((name, w, h, op, l2));
            }
        }
    }
    cases
}

/// Field `key` of object `v`.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(f) => f.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The golden's `section`.
fn golden_entry_section<'a>(golden: &'a Value, section: &str) -> &'a Value {
    field(golden, section).unwrap_or_else(|| panic!("golden has no {section}"))
}

/// The golden entry `name` of `section`.
fn golden_entry<'a>(golden: &'a Value, section: &str, name: &str) -> &'a Value {
    field(golden_entry_section(golden, section), name)
        .unwrap_or_else(|| panic!("golden has no {section}.{name}"))
}

fn canonical(v: &Value) -> String {
    mogpu::json::to_string_canonical(v).unwrap()
}

/// A golden entry: the inputs and what the launch reported.
fn entry(input: Value, o: &Outcome, file: &str) -> Value {
    Value::Object(vec![
        ("input".into(), input),
        ("outcome".into(), outcome_value(o, file)),
    ])
}

/// Asserts that `o`, launched on `input`, is what the lane executor
/// reported for `section.name`.
fn assert_golden(golden: &Value, section: &str, name: &str, input: Value, o: &Outcome, file: &str) {
    assert_eq!(
        canonical(&entry(input, o, file)),
        canonical(golden_entry(golden, section, name)),
        "{section}.{name} differs from the lane executor's answer"
    );
}

/// Asserts the `Mixed` cases whose names `pick` selects (at least one)
/// reproduce the golden.
fn assert_mixed(pick: impl Fn(&str) -> bool) {
    let golden: Value = mogpu::json::from_str(GOLDEN).unwrap();
    let cases: Vec<MixedCase> = mixed_cases()
        .into_iter()
        .filter(|c| pick(&c.name))
        .collect();
    assert!(!cases.is_empty());
    for c in cases {
        let o = run(&c.cfg(), &c.trips, c.n, c.tpb, c.sanitize);
        assert_golden(&golden, "mixed", &c.name, c.input(), &o, MIXED_FILE);
    }
}

#[test]
fn forms_agree_on_divergent_nested_code() {
    assert_mixed(|name| name.starts_with("divergent"));
}

#[test]
fn forms_agree_on_partial_warps() {
    // 48 threads per block: every block's second warp has 16 lanes.
    assert_mixed(|name| name.starts_with("partial"));
}

#[test]
fn forms_agree_under_an_l2_where_segment_order_matters() {
    assert_mixed(|name| name.starts_with("l2"));
}

#[test]
fn forms_agree_on_random_trip_counts() {
    assert_mixed(|name| name.starts_with("seeded_"));
}

#[test]
fn morphology_matches_the_lane_executor() {
    let golden: Value = mogpu::json::from_str(GOLDEN).unwrap();
    for (name, w, h, op, l2) in morph_cases() {
        let (input, o) = morph_outcome(w, h, op, l2);
        assert_golden(&golden, "morph", &name, input, &o, MORPH_FILE);
    }
}

/// Every golden entry is one of the cases the tests above run.
#[test]
fn golden_holds_exactly_the_tested_cases() {
    let golden: Value = mogpu::json::from_str(GOLDEN).unwrap();
    let names = |section: &str| -> Vec<String> {
        match golden_entry_section(&golden, section) {
            Value::Object(f) => {
                let mut keys: Vec<String> = f.iter().map(|(k, _)| k.clone()).collect();
                keys.sort();
                keys
            }
            other => panic!("{section} is not an object: {other:?}"),
        }
    };
    let mut mixed: Vec<String> = mixed_cases().into_iter().map(|c| c.name).collect();
    mixed.sort();
    assert_eq!(names("mixed"), mixed);
    let mut morph: Vec<String> = morph_cases().into_iter().map(|c| c.0).collect();
    morph.sort();
    assert_eq!(names("morph"), morph);
}

// ---- observer independence ----

/// Every subset of the three launch options.
fn all_options() -> impl Iterator<Item = LaunchOptions> {
    (0..8).map(|bits| LaunchOptions {
        profile_sites: bits & 1 != 0,
        sanitize: bits & 2 != 0,
        dataflow: bits & 4 != 0,
    })
}

/// Asserts that the observers of `runs` (launches of one kernel on one
/// input under different options) leave each other alone: counters and
/// output agree across all of them, and each observer's output is
/// present exactly when its option is on and agrees wherever it is.
fn assert_independent(case: &str, runs: &[(LaunchOptions, LaunchReport, Vec<u8>)]) {
    let (_, first, first_out) = &runs[0];
    let first_with = |on: fn(&LaunchOptions) -> bool| {
        &runs
            .iter()
            .find(|r| on(&r.0))
            .unwrap_or_else(|| panic!("{case}: no run with that option"))
            .1
    };
    let sites = &first_with(|o| o.profile_sites).sites;
    let sanitizer = &first_with(|o| o.sanitize).sanitizer;
    let access = &first_with(|o| o.dataflow).access;
    for (opts, report, out) in runs {
        assert_eq!(report.stats, first.stats, "{case}: stats under {opts:?}");
        assert_eq!(out, first_out, "{case}: output under {opts:?}");
        assert_eq!(
            report.sites.is_some(),
            opts.profile_sites,
            "{case}: {opts:?}"
        );
        assert_eq!(
            report.sanitizer.is_some(),
            opts.sanitize,
            "{case}: {opts:?}"
        );
        assert_eq!(report.access.is_some(), opts.dataflow, "{case}: {opts:?}");
        if opts.profile_sites {
            assert_eq!(&report.sites, sites, "{case}: sites under {opts:?}");
        }
        if opts.sanitize {
            assert_eq!(
                &report.sanitizer, sanitizer,
                "{case}: findings under {opts:?}"
            );
        }
        if opts.dataflow {
            assert_eq!(&report.access, access, "{case}: access under {opts:?}");
        }
    }
}

/// No observer perturbs another, or the counters and memory, through the
/// lane log they share: `Mixed` (without its out-of-bounds store under
/// every option set, with it under every sanitized one) and both
/// morphology operations agree across option sets.
#[test]
fn observers_are_independent_of_each_other() {
    let cfg = GpuConfig::tesla_c2075_with_l2();
    let trips = spread(256);
    for oob in [false, true] {
        let runs: Vec<_> = all_options()
            .filter(|o| o.sanitize || !oob)
            .map(|o| {
                let (report, out) = launch_mixed(&cfg, &trips, 250, 128, oob, o);
                (o, report, out)
            })
            .collect();
        assert_independent(&format!("mixed (oob {oob})"), &runs);
    }
    let res = Resolution::new(64, 48);
    let mask = SceneBuilder::new(res)
        .seed(31)
        .walkers(3)
        .build()
        .render(5)
        .1;
    for op in [MorphOp::Erode, MorphOp::Dilate] {
        let runs: Vec<_> = all_options()
            .map(|o| {
                let (out, report) = gpu_morph_with(&mask, op, &cfg, o).unwrap();
                (o, report, out.as_slice().to_vec())
            })
            .collect();
        assert_independent(&format!("{op:?}"), &runs);
    }
}

/// Dataflow capture alone does not absorb an out-of-bounds store: the
/// launch panics at the kernel's `file:line`, as a plain launch does.
/// The second launch runs on the thread the first one panicked on, so it
/// also checks that a panicked block's scratch is not reused.
#[test]
fn dataflow_alone_does_not_absorb_out_of_bounds_stores() {
    let cfg = GpuConfig::tesla_c2075();
    for profile_sites in [false, true] {
        let opts = LaunchOptions {
            profile_sites,
            sanitize: false,
            dataflow: true,
        };
        // One block, so the launching thread runs it and keeps the
        // kernel's panic message.
        let r = std::panic::catch_unwind(|| launch_mixed(&cfg, &spread(32), 32, 32, true, opts));
        let payload = r.expect_err("an out-of-bounds store must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.starts_with("kernel ") && message.contains("warp_lockstep.rs:"),
            "{message}"
        );
        assert!(message.contains("out of bounds"), "{message}");
    }
}
