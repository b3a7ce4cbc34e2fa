//! Pins the host pipeline's observable outputs byte-for-byte.
//!
//! `tests/data/pipeline_golden.json` holds, for `GpuMog` at levels A, F
//! and W(4) (profile + sanitize + dataflow + morphology on) and for
//! `AdaptiveGpuMog` (profile + sanitize + dataflow on), the canonical
//! JSON of the run's `ProfileReport`, `SanReport` and `DataflowGraph`,
//! plus a digest of the downloaded masks. It was captured before the two
//! pipeline structs were folded into one frame loop and is never
//! regenerated: any drift in what the loop launches, records or
//! assembles shows up here. The one sanctioned difference is the kernel
//! source lines that moved when the ladder kernels were ported to warp
//! form; the golden is read through `site_moves::apply`.

#[path = "support/site_moves.rs"]
mod site_moves;

use mogpu::core::AdaptiveGpuMog;
use mogpu::json::Value;
use mogpu::prelude::*;

const GOLDEN: &str = include_str!("data/pipeline_golden.json");

/// Scene seed of every golden run.
const SEED: u64 = 21;
/// Frames processed per run (one more is rendered to seed the model).
const FRAMES: usize = 4;

fn scene() -> Vec<Frame<u8>> {
    SceneBuilder::new(Resolution::TINY)
        .seed(SEED)
        .walkers(2)
        .build()
        .render_sequence(FRAMES + 1)
        .0
        .into_frames()
}

/// FNV-1a 64-bit over all mask bytes in frame order.
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

fn entry(
    report: &RunReport,
    profile: Option<ProfileReport>,
    san: Option<SanReport>,
    graph: Option<mogpu::sim::DataflowGraph>,
) -> Value {
    Value::Object(vec![
        ("masks".into(), Value::String(mask_digest(report))),
        (
            "profile".into(),
            mogpu::json::to_value(&profile.expect("profiling was on")).unwrap(),
        ),
        (
            "san".into(),
            mogpu::json::to_value(&san.expect("sanitize was on")).unwrap(),
        ),
        (
            "dataflow".into(),
            graph.expect("dataflow was enabled").to_json(),
        ),
    ])
}

fn gpu_entry(level: OptLevel, frames: &[Frame<u8>]) -> Value {
    let mut gpu = GpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    gpu.set_profile_mode(ProfileMode::On);
    gpu.set_sanitize(true);
    gpu.enable_dataflow();
    gpu.enable_morphology().unwrap();
    let report = gpu.process_all(&frames[1..]).unwrap();
    entry(
        &report,
        gpu.take_profile_report(),
        gpu.take_san_report(),
        gpu.dataflow_graph(),
    )
}

fn adaptive_entry(frames: &[Frame<u8>]) -> Value {
    let mut gpu = AdaptiveGpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    gpu.set_profile_mode(ProfileMode::On);
    gpu.set_sanitize(true);
    gpu.enable_dataflow();
    let report = gpu.process_all(&frames[1..]).unwrap();
    entry(
        &report,
        gpu.take_profile_report(),
        gpu.take_san_report(),
        gpu.dataflow_graph(),
    )
}

/// The whole golden document, as canonical pretty JSON.
fn document() -> String {
    let frames = scene();
    let mut runs = Vec::new();
    for level in [OptLevel::A, OptLevel::F, OptLevel::Windowed { group: 4 }] {
        runs.push((level.name(), gpu_entry(level, &frames)));
    }
    runs.push(("adaptive".to_string(), adaptive_entry(&frames)));
    let doc = Value::Object(vec![
        (
            "resolution".into(),
            Value::String(Resolution::TINY.to_string()),
        ),
        ("seed".into(), Value::U64(SEED)),
        ("frames".into(), Value::U64(FRAMES as u64)),
        ("runs".into(), Value::Object(runs)),
    ]);
    let mut out = mogpu::json::to_string_canonical_pretty(&doc).unwrap();
    out.push('\n');
    out
}

#[test]
fn pipeline_outputs_are_byte_identical_to_the_golden() {
    let got = document();
    let want = site_moves::apply(GOLDEN);
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "pipeline output drifted from tests/data/pipeline_golden.json at line {}:\n  got:  {}\n  want: {}",
            line + 1,
            got.lines().nth(line).unwrap_or("<end>"),
            want.lines().nth(line).unwrap_or("<end>"),
        );
    }
}

/// The move table is a renaming the goldens can be read through: no two
/// sites of a file move to one line, every entry names a site a golden
/// pins, no site moves onto a line an unmoved pinned site still holds,
/// and the sites of each file keep their `file:line` string order (the
/// tie-break of ranked rows).
#[test]
fn site_moves_rename_pinned_sites_consistently() {
    const EXPOSITION: &str = include_str!("data/exposition_golden.json");
    let mut pinned = pinned_sites(GOLDEN);
    pinned.extend(pinned_sites(EXPOSITION));
    pinned.sort();
    pinned.dedup();
    for &(file, moves) in site_moves::SITE_MOVES {
        let mut olds: Vec<u32> = moves.iter().map(|m| m.0).collect();
        let mut news: Vec<u32> = moves.iter().map(|m| m.1).collect();
        olds.sort();
        olds.dedup();
        news.sort();
        news.dedup();
        assert_eq!(olds.len(), moves.len(), "{file}: an old line moves twice");
        assert_eq!(
            news.len(),
            moves.len(),
            "{file}: two sites share a new line"
        );
        for &(old, new) in moves {
            assert_ne!(old, new, "{file}:{old} is listed but did not move");
            assert!(
                pinned.contains(&(file.to_string(), old)),
                "{file}:{old} is in no golden"
            );
            let unmoved = pinned
                .iter()
                .any(|(f, l)| f == file && *l == new && site_moves::moved(f, *l).is_none());
            assert!(
                !unmoved,
                "{file}:{old} moves onto unmoved site {file}:{new}"
            );
        }
    }
    let line = |f: &str, l: u32| site_moves::moved(f, l).unwrap_or(l).to_string();
    for (fa, la) in &pinned {
        for (fb, lb) in pinned.iter().filter(|(fb, _)| fb == fa) {
            assert_eq!(
                la.to_string().cmp(&lb.to_string()),
                line(fa, *la).cmp(&line(fb, *lb)),
                "{fa}: sites {la} and {lb} swap their string order"
            );
        }
    }
}

/// Every `(file, line)` site named in `text`.
fn pinned_sites(text: &str) -> Vec<(String, u32)> {
    const PREFIX: &str = "crates/core/src/kernels/";
    let mut out = Vec::new();
    for (at, _) in text.match_indices(PREFIX) {
        let tail = &text[at + PREFIX.len()..];
        let Some((file, after)) = tail.split_once(".rs:") else {
            continue;
        };
        if !file.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if let Ok(line) = after[..digits].parse() {
            out.push((file.to_string(), line));
        }
    }
    out
}
