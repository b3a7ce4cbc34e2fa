//! Pins the host pipeline's observable outputs byte-for-byte.
//!
//! `tests/data/pipeline_golden.json` holds, for `GpuMog` at levels A, F
//! and W(4) (profile + sanitize + dataflow + morphology on) and for
//! `AdaptiveGpuMog` (profile + sanitize + dataflow on), the canonical
//! JSON of the run's `ProfileReport`, `SanReport` and `DataflowGraph`,
//! plus a digest of the downloaded masks. It was captured before the two
//! pipeline structs were folded into one frame loop and is never
//! regenerated: any drift in what the loop launches, records or
//! assembles shows up here.

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
    if got != GOLDEN {
        let line = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "pipeline output drifted from tests/data/pipeline_golden.json at line {}:\n  got:  {}\n  want: {}",
            line + 1,
            got.lines().nth(line).unwrap_or("<end>"),
            GOLDEN.lines().nth(line).unwrap_or("<end>"),
        );
    }
}
