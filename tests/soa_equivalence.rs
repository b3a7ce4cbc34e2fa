//! Bit-identity pin for the SoA interpreter rewrite.
//!
//! `tests/data/soa_golden.json` was captured from the pre-rewrite
//! (hash-map slot) interpreter and is committed; these tests re-run the
//! same workloads on the current interpreter and require *identical*
//! mask digests and warp statistics — not approximately equal: the SoA
//! restructuring is a pure representation change, so every counter and
//! every output byte must survive it untouched.
//!
//! A proptest additionally drives the production
//! [`mogpu::sim::warp::WarpAccumulator`] and the frozen
//! [`warp_reference::ReferenceAccumulator`] with identical
//! random event streams and asserts the folded [`KernelStats`] agree
//! exactly, covering slot shapes no real kernel happens to produce.

use mogpu::bench::harness::{default_params, run_level, standard_frames, SIM_RESOLUTION};
use mogpu::core::{AdaptiveGpuMog, GpuMog, OptLevel, RunReport};
use mogpu::prelude::*;
use mogpu::sim::stats::KernelStats;
use mogpu::sim::trace::{OpClass, Space};
use mogpu::sim::warp::WarpAccumulator;
#[path = "support/warp_reference.rs"]
mod warp_reference;
use proptest::prelude::*;
use serde_json::Value;
use std::panic::Location;
use warp_reference::ReferenceAccumulator;

/// Frames per golden run; must match `soa_golden.rs`.
const FRAMES: usize = 9;

const GOLDEN: &str = include_str!("data/soa_golden.json");

fn golden() -> Value {
    serde_json::from_str(GOLDEN).expect("golden file parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("golden file is missing key {key:?}")),
        other => panic!("expected an object at {key:?}, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// FNV-1a 64-bit over all mask bytes in frame order; must match
/// `soa_golden.rs`.
fn mask_digest(report: &RunReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for mask in &report.masks {
        for &b in mask.as_slice() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Asserts a run matches its golden entry: same functional output
/// (digest) and the same statistics, field for field. Stats are compared
/// through canonical JSON so the golden file's parsed number variants
/// (I64 vs U64) cannot produce spurious mismatches.
fn assert_matches_golden(name: &str, report: &RunReport, entry: &Value) {
    assert_eq!(
        mask_digest(report),
        as_str(field(entry, "mask_digest")),
        "{name}: mask bytes diverged from the pre-SoA interpreter"
    );
    let got =
        serde_json::to_string_canonical(&serde_json::to_value(&report.stats).unwrap()).unwrap();
    let want = serde_json::to_string_canonical(field(entry, "stats")).unwrap();
    assert_eq!(
        got, want,
        "{name}: warp statistics diverged from the pre-SoA interpreter"
    );
}

#[test]
fn ladder_and_windowed_stats_and_masks_are_bit_identical_to_seed() {
    let g = golden();
    assert_eq!(
        as_str(field(&g, "resolution")),
        format!("{SIM_RESOLUTION}"),
        "golden was captured at a different resolution"
    );
    let frames = standard_frames(FRAMES);
    let levels = field(&g, "levels");
    for level in OptLevel::LADDER
        .into_iter()
        .chain([OptLevel::Windowed { group: 8 }])
    {
        let report = run_level::<f64>(level, default_params(3), &frames);
        assert_matches_golden(&level.name(), &report, field(levels, &level.name()));
    }
}

#[test]
fn f32_level_f_is_bit_identical_to_seed() {
    let g = golden();
    let frames = standard_frames(FRAMES);
    let report = run_level::<f32>(OptLevel::F, default_params(3), &frames);
    assert_matches_golden("f32_f", &report, field(&g, "f32_f"));
}

#[test]
fn sanitized_level_f_is_bit_identical_to_seed() {
    let g = golden();
    let frames = standard_frames(FRAMES);
    let mut gpu = GpuMog::<f64>::new(
        SIM_RESOLUTION,
        default_params(3),
        OptLevel::F,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .expect("pipeline");
    gpu.set_sanitize(true);
    let report = gpu.process_all(&frames[1..]).expect("processing");
    let san = gpu.take_san_report().expect("sanitizer report");
    let entry = field(&g, "sanitized_f");
    assert_matches_golden("sanitized_f", &report, entry);
    assert_eq!(
        Value::U64(san.findings().len() as u64),
        *field(entry, "findings"),
        "sanitizer finding count diverged from the pre-SoA interpreter"
    );
}

#[test]
fn adaptive_path_is_bit_identical_to_seed() {
    let g = golden();
    let frames = SceneBuilder::new(SIM_RESOLUTION)
        .seed(0x1CC_2014)
        .walkers(3)
        .bimodal_fraction(0.25)
        .bimodal_contrast(60.0)
        .noise_sd(2.0)
        .build()
        .render_sequence(FRAMES)
        .0
        .into_frames();
    let mut adaptive = AdaptiveGpuMog::<f64>::new(
        SIM_RESOLUTION,
        default_params(5),
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .expect("pipeline");
    let report = adaptive.process_all(&frames[1..]).expect("processing");
    assert_matches_golden("adaptive", &report, field(&g, "adaptive"));
}

// ---- randomized accumulator equivalence ----

/// A synthetic warp event applied identically to both accumulators.
/// Site indices select from a fixed pool of genuinely `'static`
/// locations; each site keeps one event kind so slot kinds stay
/// consistent (mixing kinds at one (site, occurrence) is a kernel bug
/// both accumulators only debug-assert on).
#[derive(Debug, Clone)]
enum Ev {
    /// `begin_lane` on both.
    Lane,
    /// `end_warp` (fold + reset) on both.
    Warp,
    Op {
        site: usize,
        class: u8,
        count: u32,
    },
    Mem {
        site: usize,
        space: u8,
        write: bool,
        addr: u64,
        width: u8,
    },
    Branch {
        site: usize,
        taken: bool,
    },
    Sync {
        site: usize,
    },
}

/// Distinct static source locations standing in for kernel call sites.
/// Each `Location::caller()` expression resolves to its own line, so the
/// pool entries are distinct non-null `&'static Location`s exactly like
/// the `#[track_caller]` sites real kernels record.
fn site_pool() -> [&'static Location<'static>; 8] {
    [
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
    ]
}

fn arb_event() -> impl Strategy<Value = Ev> {
    (0u8..=6, 0usize..8, any::<u64>(), any::<u8>(), any::<bool>()).prop_map(
        |(kind, site, a, b, flag)| match kind {
            0 => Ev::Lane,
            1 => Ev::Warp,
            2 => Ev::Op {
                site,
                class: b % 3,
                count: (a % 65) as u32,
            },
            3 | 4 => Ev::Mem {
                site,
                space: b % 3,
                write: flag,
                // Keep addresses below 2^40 so `addr + width` cannot
                // overflow in either implementation.
                addr: a % (1 << 40),
                width: (b % 8) + 1,
            },
            5 => Ev::Branch { site, taken: flag },
            _ => Ev::Sync { site },
        },
    )
}

fn space_of(ix: u8) -> Space {
    match ix {
        0 => Space::Shared,
        1 => Space::Global,
        _ => Space::Local,
    }
}

fn class_of(ix: u8) -> OpClass {
    match ix {
        0 => OpClass::Int,
        1 => OpClass::F32,
        _ => OpClass::F64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any event stream, the SoA accumulator folds exactly the same
    /// statistics as the frozen reference accumulator — including exact
    /// f64 issue-cycle equality.
    #[test]
    fn soa_accumulator_matches_reference_on_random_event_streams(
        events in proptest::collection::vec(arb_event(), 0..400),
    ) {
        let sites = site_pool();
        let cfg = GpuConfig::tesla_c2075();
        let mut soa = WarpAccumulator::new();
        let mut reference = ReferenceAccumulator::new();
        let mut soa_stats = KernelStats::default();
        let mut ref_stats = KernelStats::default();
        soa.begin_lane();
        reference.begin_lane();
        for ev in &events {
            match *ev {
                Ev::Lane => {
                    soa.begin_lane();
                    reference.begin_lane();
                }
                Ev::Warp => {
                    soa.end_warp(&cfg, &mut soa_stats);
                    reference.end_warp(&cfg, &mut ref_stats);
                    prop_assert_eq!(&soa_stats, &ref_stats);
                }
                Ev::Op { site, class, count } => {
                    // One kind per site: ops use the low half of the pool.
                    let loc = sites[site % 4];
                    soa.record_op(loc, class_of(class), count);
                    reference.record_op(loc, class_of(class), count);
                }
                Ev::Mem { site, space, write, addr, width } => {
                    let loc = sites[4 + site % 2];
                    soa.record_mem(loc, space_of(space), write, addr, width);
                    reference.record_mem(loc, space_of(space), write, addr, width);
                }
                Ev::Branch { site, taken } => {
                    let _ = site;
                    soa.record_branch(sites[6], taken);
                    reference.record_branch(sites[6], taken);
                }
                Ev::Sync { site } => {
                    let _ = site;
                    soa.record_sync(sites[7]);
                    reference.record_sync(sites[7]);
                }
            }
        }
        soa.end_warp(&cfg, &mut soa_stats);
        reference.end_warp(&cfg, &mut ref_stats);
        prop_assert_eq!(&soa_stats, &ref_stats);
    }
}
