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
//! exactly, covering slot shapes no real kernel happens to produce. The
//! streams mix free events with lanes that run one of a few fixed
//! branchy programs, so successive warps touch the production
//! accumulator's retained slot template in different orders and leave
//! parts of it untouched, and their addresses cluster on a few segments
//! and bank-sharing shared words, so slots revisit keys non-adjacently.

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
    /// `begin_lane`, then the events of lane program `path` with its
    /// counts, outcomes and addresses drawn from `data`.
    Path {
        path: u8,
        data: u64,
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
    (0u8..16, 0usize..8, any::<u64>(), any::<u8>(), any::<bool>()).prop_map(
        |(kind, site, a, b, flag)| match kind {
            0 => Ev::Warp,
            1 => Ev::Lane,
            2 | 3 => Ev::Op {
                site,
                class: b % 3,
                count: (a % 65) as u32,
            },
            4..=6 => Ev::Mem {
                site,
                space: b % 3,
                write: flag,
                addr: clustered_addr(a),
                width: (b % 8) + 1,
            },
            7 => Ev::Branch { site, taken: flag },
            8 => Ev::Sync { site },
            _ => Ev::Path {
                path: b % 4,
                data: a,
            },
        },
    )
}

/// An access address: mostly within four 128-byte segments (an access
/// may run into the next one) or on shared words 0-3, 32-35 and 64-67,
/// which fall on the same four banks, so one slot's lanes come back to a
/// segment or word after touching others; now and then anywhere below
/// 2^40, which keeps `addr + width` from overflowing in either
/// implementation.
fn clustered_addr(a: u64) -> u64 {
    let r = a >> 3;
    match a % 8 {
        0 => r % (1 << 40),
        1..=4 => r % 4 * 128 + (r >> 2) % 136,
        _ => (r % 3 * 32 + (r >> 2) % 4) * 4 + (r >> 4) % 4,
    }
}

/// The events of one lane running program `path`: each starts alike
/// and branches, then the programs touch the shared sites in different
/// orders and counts, like the arms of a divergent kernel.
fn path_events(path: u8, data: u64) -> Vec<Ev> {
    let word = |i: u32| data.rotate_left(11 * i);
    let op = |site: usize, i: u32| Ev::Op {
        site,
        class: site as u8 % 3,
        count: (word(i) % 9) as u32,
    };
    let global = |i: u32, write: bool| Ev::Mem {
        site: 0,
        space: 1,
        write,
        addr: clustered_addr(word(i)),
        width: 1 << ((word(i) >> 60) % 4),
    };
    let shared = |i: u32| Ev::Mem {
        site: 1,
        space: 0,
        write: false,
        addr: clustered_addr(word(i)),
        width: 4,
    };
    let branch = Ev::Branch {
        site: 0,
        taken: data & 1 == 1,
    };
    let mut events = vec![Ev::Lane];
    match path {
        0 => events.extend([
            op(0, 1),
            branch,
            global(2, false),
            op(1, 3),
            global(4, true),
        ]),
        1 => events.extend([op(0, 1), branch, op(2, 2), op(2, 3), shared(4), op(1, 5)]),
        2 => events.extend([
            shared(1),
            op(0, 2),
            op(3, 3),
            branch,
            op(0, 4),
            global(5, false),
        ]),
        _ => {
            events.extend([op(0, 1), branch, Ev::Sync { site: 0 }]);
            events.extend((0..1 + data % 3).map(|i| op(1, 2 + i as u32)));
            events.push(global(6, false));
        }
    }
    events
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
        let expanded = events.iter().flat_map(|ev| match *ev {
            Ev::Path { path, data } => path_events(path, data),
            ref other => vec![other.clone()],
        });
        for ev in expanded {
            match ev {
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
                Ev::Path { .. } => unreachable!("paths are expanded above"),
            }
        }
        soa.end_warp(&cfg, &mut soa_stats);
        reference.end_warp(&cfg, &mut ref_stats);
        prop_assert_eq!(&soa_stats, &ref_stats);
    }
}
