//! Bit-identity pin for the SoA interpreter rewrite.
//!
//! `tests/data/soa_golden.json` was captured from the pre-rewrite
//! (hash-map slot) interpreter and is committed; these tests re-run the
//! same workloads on the current interpreter and require *identical*
//! mask digests and warp statistics — not approximately equal: the SoA
//! restructuring is a pure representation change, so every counter and
//! every output byte must survive it untouched.
//!
//! A proptest additionally runs random warp programs through a test
//! kernel on the public launch path and feeds each lane's share of the
//! same program to the frozen [`warp_reference::ReferenceAccumulator`],
//! asserting the folded [`KernelStats`] agree exactly, covering slot
//! shapes no real kernel happens to produce. An instruction runs on a
//! random lane mask; some send the lanes down one of a few fixed
//! branchy programs, so lanes reach a site's occurrences in different
//! instructions and slots split, and the addresses cluster on a few
//! segments and bank-sharing shared words, so slots revisit keys
//! non-adjacently. Others are runs — lane `l` at `base + l * stride`
//! under a full, contiguous or scattered mask, next to line, segment and
//! page boundaries or at the end of the buffer — so the fold's range path
//! and the loads' and stores' run path meet the oracle too, on both sides
//! of the stride that still touches every key.

use mogpu::bench::harness::{default_params, run_level, standard_frames, SIM_RESOLUTION};
use mogpu::core::{AdaptiveGpuMog, GpuMog, OptLevel, RunReport};
use mogpu::prelude::*;
use mogpu::sim::kernel::{launch_with, KernelResources, LaunchConfig, LaunchOptions};
use mogpu::sim::stats::KernelStats;
use mogpu::sim::trace::{OpClass, Space};
use mogpu::sim::{lanes, mask_of, Buffer, DeviceMemory, Lanes, WarpCtx, WarpKernel, WARP_LANES};
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

// ---- randomized fold equivalence ----

/// One memory accessor of [`WarpCtx`]: space, width and direction.
const ACCESSORS: [(Space, u8, bool); 14] = [
    (Space::Global, 1, false),
    (Space::Global, 4, false),
    (Space::Global, 8, false),
    (Space::Global, 1, true),
    (Space::Global, 4, true),
    (Space::Global, 8, true),
    (Space::Shared, 1, false),
    (Space::Shared, 4, false),
    (Space::Shared, 8, false),
    (Space::Shared, 1, true),
    (Space::Shared, 4, true),
    (Space::Shared, 8, true),
    (Space::Local, 8, false),
    (Space::Local, 8, true),
];

/// Spill slots the test kernel declares.
const LOCAL_SLOTS: u64 = 4;

/// Bytes of shared memory the test kernel declares.
const SHARED_BYTES: usize = 512;

/// Bytes of the global buffer the test kernel addresses.
const GLOBAL_BYTES: usize = 1 << 16;

/// What one warp instruction of a random program does.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Operations at op site `site`, of class `class_of(site)`: one
    /// call site always charges one class.
    Ops {
        site: usize,
    },
    /// One access through `ACCESSORS[access]`.
    Mem {
        access: usize,
    },
    Branch,
    Sync,
}

/// One instruction of a generated program: the lanes that execute it
/// and each lane's operand — an op count, an element index, a shared
/// byte offset, a spill slot or a branch outcome.
#[derive(Debug, Clone, Copy)]
struct Step {
    mask: u32,
    op: Op,
    vals: [u64; 32],
}

/// A generated instruction before expansion: `paths` runs the lanes
/// through one of four fixed divergent programs.
#[derive(Debug, Clone, Copy)]
enum Instr {
    Step {
        mask: u32,
        op: Op,
        data: u64,
    },
    Paths {
        mask: u32,
        data: u64,
    },
    /// One access through `ACCESSORS[access]` whose lanes form a run
    /// ([`run_step`]).
    Run {
        access: usize,
        data: u64,
    },
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    (0u8..19, 0usize..4, any::<u64>(), any::<u64>(), 0usize..14).prop_map(
        |(kind, site, data, m, access)| {
            // Mostly every lane, else a random subset.
            let mask = if m % 3 == 0 { u32::MAX } else { m as u32 };
            let op = match kind {
                0..=3 => Op::Ops { site },
                4..=8 => Op::Mem { access },
                9 => Op::Branch,
                10 => Op::Sync,
                11..=15 => return Instr::Paths { mask, data },
                _ => return Instr::Run { access, data },
            };
            Instr::Step { mask, op, data }
        },
    )
}

/// Lane `l`'s `i`-th pseudo-random word of `data` (splitmix64).
fn word(data: u64, l: usize, i: u64) -> u64 {
    let mut z = data ^ ((l as u64) << 40 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A lane operand for `op` drawn from `w`. Global accesses mostly fall
/// within four 128-byte segments (an access may run into the next one),
/// shared ones on words 0-3, 32-35 and 64-67, which share four banks, so
/// one slot's lanes come back to a segment or word after touching
/// others; now and then a global access lands anywhere in the buffer.
fn operand(op: Op, w: u64) -> u64 {
    let r = w >> 3;
    match op {
        Op::Ops { .. } => w % 65,
        Op::Branch | Op::Sync => w & 1,
        Op::Mem { access } => {
            let (space, width, _) = ACCESSORS[access];
            match space {
                Space::Global => {
                    let off = if w.is_multiple_of(8) {
                        r % 60_000
                    } else {
                        r % 4 * 128 + (r >> 2) % 136
                    };
                    off / width as u64
                }
                Space::Shared => (r % 3 * 32 + (r >> 2) % 4) * 4 + (r >> 4) % 4,
                Space::Local => r % LOCAL_SLOTS,
            }
        }
    }
}

/// A run of `ACCESSORS[access]` drawn from `data`: its lane mask and
/// operands. Lane `l`'s operand is `base + l * stride`; the stride is 0,
/// 1, the access width, or the last or first stride (in bytes) at which
/// consecutive lanes still leave no 128-byte or 96-byte segment, or
/// 4-byte bank word, untouched between them. The base lies just before,
/// at or after a line, segment or page boundary, or ends the run at the
/// end of the buffer. Spill accesses are uniform slots. The mask is
/// every lane, a contiguous range of lanes or a scattered set.
fn run_step(access: usize, data: u64) -> (u32, [u64; 32]) {
    let pick = |i: u64, n: u64| word(data, 0, 50 + i) % n;
    let (space, width, _) = ACCESSORS[access];
    let w = width as u64;
    // Operand units (elements, bytes) per byte, the addressable bytes and
    // the strides in operand units.
    let (unit, len, strides) = match space {
        Space::Global => (
            w,
            GLOBAL_BYTES as u64,
            [0, 1, w, 96 / w, 96 / w + 1, 128 / w, 128 / w + 1],
        ),
        Space::Shared => (1, SHARED_BYTES as u64, [0, 1, w, w + 3, w + 4, 1, w]),
        Space::Local => (1, 0, [0; 7]),
    };
    let mask = match pick(0, 4) {
        0 | 1 => u32::MAX,
        2 => {
            let lo = pick(1, 32);
            let n = 1 + pick(2, 32 - lo);
            (u64::MAX >> (64 - n) << lo) as u32
        }
        _ => word(data, 0, 60) as u32,
    };
    if space == Space::Local {
        return (mask, [pick(3, LOCAL_SLOTS); 32]);
    }
    let stride = strides[pick(4, 7) as usize];
    let span = 31 * stride * unit + w;
    let boundary = [64, 128, 512, 96][pick(5, 4) as usize] * (1 + pick(6, len / 512));
    let first = if pick(7, 5) == 4 {
        len - span
    } else {
        (boundary + w - w * pick(8, 3)).min(len - span)
    };
    let base = first / unit;
    (mask, std::array::from_fn(|l| base + l as u64 * stride))
}

/// A step of `op` on the lanes of `mask`, operand `i` of `data`.
fn step(mask: u32, op: Op, data: u64, i: u64) -> Step {
    Step {
        mask,
        op,
        vals: std::array::from_fn(|l| operand(op, word(data, l, i))),
    }
}

/// Expands a warp's instructions into steps for a warp of `lanes`
/// lanes. A `Paths` instruction sends each of its lanes down one of four
/// programs that start alike and branch, then touch shared sites in
/// different orders and counts, like the arms of a divergent kernel.
fn expand(instrs: &[Instr], lanes: u32) -> Vec<Step> {
    let warp = if lanes == 32 {
        u32::MAX
    } else {
        (1 << lanes) - 1
    };
    let mut steps = Vec::new();
    for &instr in instrs {
        match instr {
            Instr::Step { mask, op, data } => {
                if mask & warp != 0 {
                    steps.push(step(mask & warp, op, data, 0));
                }
            }
            Instr::Run { access, data } => {
                let (mask, vals) = run_step(access, data);
                if mask & warp != 0 {
                    steps.push(Step {
                        mask: mask & warp,
                        op: Op::Mem { access },
                        vals,
                    });
                }
            }
            Instr::Paths { mask, data } => {
                let path = |l: usize| word(data, l, 99) % 4;
                for p in 0..4 {
                    let m = (0..32)
                        .filter(|&l| path(l) == p)
                        .fold(0u32, |m, l| m | 1 << l);
                    let m = m & mask & warp;
                    if m == 0 {
                        continue;
                    }
                    let ops = |site: usize| Op::Ops { site };
                    let mem = |access| Op::Mem { access };
                    let program: &[Op] = match p {
                        0 => &[ops(0), Op::Branch, mem(2), ops(1), mem(5)],
                        1 => &[ops(0), Op::Branch, ops(2), ops(2), mem(7), ops(1)],
                        2 => &[mem(7), ops(0), ops(3), Op::Branch, ops(0), mem(1)],
                        _ => &[ops(0), Op::Branch, Op::Sync],
                    };
                    for (i, &op) in program.iter().enumerate() {
                        steps.push(step(m, op, data, i as u64));
                    }
                    if p == 3 {
                        // A loop of one to three trips per lane.
                        for t in 0..3 {
                            let live = (0..32)
                                .filter(|&l| word(data, l, 98) % 3 >= t)
                                .fold(0u32, |a, l| a | 1 << l);
                            if m & live != 0 {
                                steps.push(step(m & live, ops(1), data, 10 + t));
                            }
                        }
                        steps.push(step(m, mem(8), data, 20));
                    }
                }
            }
        }
    }
    steps
}

/// Runs warp `w`'s steps: warp `w` of its one block runs `warps[w]`.
struct Program {
    warps: Vec<Vec<Step>>,
    buf: Buffer,
}

impl WarpKernel for Program {
    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 16,
            shared_bytes_per_block: SHARED_BYTES,
            local_f64_slots: LOCAL_SLOTS as usize,
        }
    }

    fn run_warp(&self, w: &mut WarpCtx<'_>) {
        for s in &self.warps[w.thread_idx()[0] / 32] {
            let v = lanes(|l| s.vals[l] as usize);
            w.when(s.mask, |w| match s.op {
                Op::Ops { site } => op_at(w, site, class_of(site), &lanes(|l| v[l] as u32)),
                Op::Mem { access } => access_at(w, self.buf, access, &v),
                Op::Branch => {
                    w.branch(mask_of(|l| v[l] == 1));
                }
                Op::Sync => w.sync(),
            });
        }
    }
}

/// `ops` at one of four call sites.
fn op_at(w: &mut WarpCtx<'_>, site: usize, class: OpClass, counts: &Lanes<u32>) {
    match site {
        0 => w.ops(class, counts),
        1 => w.ops(class, counts),
        2 => w.ops(class, counts),
        _ => w.ops(class, counts),
    }
}

/// One access through `ACCESSORS[k]`: `at` holds element indices,
/// shared byte offsets or spill slots.
fn access_at(w: &mut WarpCtx<'_>, buf: Buffer, k: usize, at: &Lanes<usize>) {
    match k {
        0 => drop(w.ld_u8(buf, at)),
        1 => drop(w.ld_f32(buf, at)),
        2 => drop(w.ld_f64(buf, at)),
        3 => w.st_u8(buf, at, &[1; WARP_LANES]),
        4 => w.st_f32(buf, at, &[1.0; WARP_LANES]),
        5 => w.st_f64(buf, at, &[1.0; WARP_LANES]),
        6 => drop(w.sh_ld_u8(at)),
        7 => drop(w.sh_ld_f32(at)),
        8 => drop(w.sh_ld_f64(at)),
        9 => w.sh_st_u8(at, &[1; WARP_LANES]),
        10 => w.sh_st_f32(at, &[1.0; WARP_LANES]),
        11 => w.sh_st_f64(at, &[1.0; WARP_LANES]),
        12 => drop(w.ld_local(at)),
        _ => w.st_local(at, &[1.0; WARP_LANES]),
    }
}

fn class_of(site: usize) -> OpClass {
    match site % 3 {
        0 => OpClass::Int,
        1 => OpClass::F32,
        _ => OpClass::F64,
    }
}

/// Distinct static source locations standing in for the test kernel's
/// call sites in the reference: four op sites, one per accessor, the
/// branch and the barrier. Each `Location::caller()` expression
/// resolves to its own line, so the entries are distinct, like the
/// `#[track_caller]` sites the kernel records.
fn site_pool() -> [&'static Location<'static>; 20] {
    [
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
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

/// Feeds lane `l` of warp `warp` through `steps` to the reference, as a
/// per-thread executor would record it. Local addresses follow the
/// interleaved spill layout: the 32 lanes' copies of one slot are
/// contiguous 8-byte words above `1 << 40`.
fn record_lane(reference: &mut ReferenceAccumulator, steps: &[Step], warp: u64, l: usize) {
    let sites = site_pool();
    reference.begin_lane();
    for s in steps.iter().filter(|s| s.mask >> l & 1 == 1) {
        let v = s.vals[l];
        match s.op {
            Op::Ops { site } => reference.record_op(sites[site], class_of(site), v as u32),
            Op::Mem { access } => {
                let (space, width, write) = ACCESSORS[access];
                let addr = match space {
                    Space::Global => v * width as u64,
                    Space::Shared => v,
                    Space::Local => (1 << 40) + ((warp * LOCAL_SLOTS + v) * 32 + l as u64) * 8,
                };
                reference.record_mem(sites[4 + access], space, write, addr, width);
            }
            Op::Branch => reference.record_branch(sites[18], v == 1),
            Op::Sync => reference.record_sync(sites[19]),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any warp program, the kernel executor folds exactly the same
    /// statistics as the frozen per-thread reference fold fed each
    /// lane's share of the program — including exact f64 issue cycles.
    #[test]
    fn warp_executor_matches_reference_on_random_warp_programs(
        programs in proptest::collection::vec(proptest::collection::vec(arb_instr(), 0..24), 1..4),
        last_lanes in 1u32..=32,
        odd in any::<bool>(),
    ) {
        let cfg = if odd {
            GpuConfig { segment_bytes: 96, shared_banks: 24, ..GpuConfig::tesla_c2075() }
        } else {
            GpuConfig::tesla_c2075()
        };
        let n = programs.len();
        let threads = 32 * (n as u32 - 1) + last_lanes;
        let warps: Vec<Vec<Step>> = programs
            .iter()
            .enumerate()
            .map(|(w, p)| expand(p, if w + 1 == n { last_lanes } else { 32 }))
            .collect();
        let mut mem = DeviceMemory::new(1 << 17);
        let buf = mem.alloc(GLOBAL_BYTES).unwrap();
        prop_assert_eq!(buf.addr(), 0);
        let lc = LaunchConfig { blocks: 1, threads_per_block: threads };
        let kernel = Program { warps, buf };
        let got = launch_with(&mut mem, &cfg, lc, &kernel, LaunchOptions::default()).unwrap().stats;

        let mut reference = ReferenceAccumulator::new();
        let mut want = KernelStats { blocks: 1, ..Default::default() };
        for (w, steps) in kernel.warps.iter().enumerate() {
            let lanes = if w + 1 == n { last_lanes } else { 32 };
            for l in 0..lanes as usize {
                record_lane(&mut reference, steps, w as u64, l);
            }
            reference.end_warp(&cfg, &mut want);
        }
        prop_assert_eq!(&got, &want);
    }
}
