//! Pins every Prometheus text exposition mogpu writes, and checks that
//! label values from any source survive it.
//!
//! `tests/data/exposition_golden.json` holds the exposition text of the
//! telemetry series (ladder levels A, F and W(8) with kernel gauges, plus
//! a stream aggregate without them), of a serving report at its first,
//! middle and last snapshots and with no snapshots at all, of a fleet
//! with a device that admitted no stream, of the dataflow graph at
//! levels A and F, and of the A-vs-F and self diff reports. It was
//! captured before the five emitters were folded into one builder and
//! is never regenerated.
//!
//! Telemetry, serving, fleet and dataflow must match byte for byte. The
//! diff entries were written with `Display` floats (`0`, not `0.0`), so
//! they are compared parsed: the same families, label sets and bit-equal
//! values.
//!
//! The round-trip test puts `"`, `\` and a newline into one label of
//! each emitter and requires the parsed label to equal the original.

#[path = "support/exposition.rs"]
mod exposition;

use exposition::{assert_same_exposition, parse_exposition};
use mogpu::json::Value;
use mogpu::prelude::*;
use mogpu::sim::fleet::{fleet_report, prometheus_fleet, FleetOptions, FleetSpec, FleetStream};
use mogpu::sim::streams::{StageTimes, StreamInput};
use mogpu::sim::{diff_values, prometheus_serving, KernelGauges, PipelineTelemetry, SmSeries};

const GOLDEN: &str = include_str!("data/exposition_golden.json");

/// Scene seed of every golden run.
const SEED: u64 = 21;
/// Frames processed per run (one more is rendered to seed the model).
const FRAMES: usize = 4;

fn scene(seed: u64) -> Vec<Frame<u8>> {
    SceneBuilder::new(Resolution::TINY)
        .seed(seed)
        .walkers(2)
        .build()
        .render_sequence(FRAMES + 1)
        .0
        .into_frames()
}

fn gpu(level: OptLevel, frames: &[Frame<u8>]) -> GpuMog<f64> {
    GpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap()
}

fn streams_run() -> MultiStreamReport {
    let seqs: Vec<Vec<Frame<u8>>> = (0..3).map(|s| scene(SEED + s)).collect();
    let seeds: Vec<&[u8]> = seqs.iter().map(|f| f[0].as_slice()).collect();
    let mut multi = MultiGpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        OptLevel::F,
        &seeds,
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    let inputs: Vec<Vec<Frame<u8>>> = seqs.iter().map(|f| f[1..].to_vec()).collect();
    multi.process_all(&inputs).unwrap()
}

/// The part of a telemetry series that is pinned: the first four SMs at
/// every eighth quantum. The emitter writes whatever grid it is given,
/// so this runs the same code as the full 14 x 64 grid at an eighth of
/// the golden's size.
fn window(t: &PipelineTelemetry) -> PipelineTelemetry {
    let pick = |v: &Vec<f64>| v.iter().step_by(8).copied().collect::<Vec<f64>>();
    PipelineTelemetry {
        sm: t.sm[..4]
            .iter()
            .map(|s| SmSeries {
                sm: s.sm,
                active: pick(&s.active),
                occupancy: pick(&s.occupancy),
                ipc: pick(&s.ipc),
                eligible_warps: pick(&s.eligible_warps),
                stalled_warps: pick(&s.stalled_warps),
            })
            .collect(),
        dram_bandwidth: pick(&t.dram_bandwidth),
        dram_bytes_cumulative: pick(&t.dram_bytes_cumulative),
        l2_hit_rate: pick(&t.l2_hit_rate),
        copy_engine_utilization: pick(&t.copy_engine_utilization),
        ..t.clone()
    }
}

/// Three device classes; every stream is too large for the embedded
/// class's memory, so that device admits none and its snapshots carry
/// no streams, and the load sheds the rest onto drop counters.
fn fleet() -> mogpu::sim::fleet::FleetReport {
    let (spec, _) = FleetSpec::from_preset_keys(&["c2075", "embedded", "hbm"]).unwrap();
    let streams: Vec<FleetStream> = (0..5)
        .map(|_| FleetStream {
            per_class: vec![
                StreamInput::live(
                    vec![StageTimes::uniform(1e-4, 0.02, 1e-4); FRAMES + 2],
                    1.0 / 30.0
                );
                3
            ],
            mem_per_class: vec![1 << 20, 3 << 30, 1 << 20],
        })
        .collect();
    fleet_report(&spec, &streams, &FleetOptions::default()).unwrap()
}

/// Every golden exposition, keyed by entry name.
fn expositions() -> Vec<(String, String)> {
    let frames = scene(SEED);
    let mut out = Vec::new();

    // Telemetry: three ladder levels with gauges, one stream aggregate
    // without them, in one exposition.
    let runs: Vec<(String, PipelineTelemetry, KernelGauges)> =
        [OptLevel::A, OptLevel::F, OptLevel::Windowed { group: 8 }]
            .into_iter()
            .map(|level| {
                let r = gpu(level, &frames).process_all(&frames[1..]).unwrap();
                let gauges = KernelGauges::new(&r.metrics, &r.occupancy);
                (format!("level {level}"), window(&r.telemetry), gauges)
            })
            .collect();
    let streams = streams_run();
    let aggregate = window(&streams.telemetry);
    let mut pipelines: Vec<_> = runs
        .iter()
        .map(|(label, t, g)| (label.clone(), t, Some(g.clone())))
        .collect();
    pipelines.push(("3 streams, level F".to_string(), &aggregate, None));
    out.push((
        "telemetry".to_string(),
        mogpu::sim::telemetry::prometheus(&pipelines),
    ));

    // Serving: first, middle and last snapshots, then no snapshots.
    let serving = &streams.serving;
    let n = serving.snapshots.len();
    assert!(n >= 3, "want at least three snapshots, got {n}");
    for (name, i) in [("first", 0), ("middle", n / 2), ("last", n - 1)] {
        out.push((format!("serving_{name}"), prometheus_serving(serving, i)));
    }
    let mut empty = serving.clone();
    empty.snapshots.clear();
    out.push(("serving_empty".to_string(), prometheus_serving(&empty, 0)));

    // Fleet with an all-shed device: first and final snapshots.
    let fleet = fleet();
    assert!(
        fleet.devices.iter().any(|d| d.admitted.is_empty()),
        "want a device that admitted no stream"
    );
    assert!(!fleet.shed.is_empty(), "want shed streams");
    out.push(("fleet_first".to_string(), prometheus_fleet(&fleet, 0)));
    out.push((
        "fleet_last".to_string(),
        prometheus_fleet(&fleet, usize::MAX),
    ));

    // Dataflow graphs and diffs at levels A and F.
    let mut profiles = Vec::new();
    for level in [OptLevel::A, OptLevel::F] {
        let mut g = gpu(level, &frames);
        g.set_profile_mode(ProfileMode::On);
        g.enable_dataflow();
        g.enable_morphology().unwrap();
        g.process_all(&frames[1..]).unwrap();
        let graph = g.dataflow_graph().expect("dataflow was enabled");
        out.push((format!("dataflow_{}", level.name()), graph.prometheus()));
        profiles.push(mogpu::json::to_value(&g.take_profile_report().unwrap()).unwrap());
    }
    let cfg = GpuConfig::tesla_c2075();
    let af = diff_values(&profiles[0], &profiles[1], "A", "F", &cfg).unwrap();
    out.push(("diff_a_f".to_string(), af.prometheus(8)));
    let ff = diff_values(&profiles[1], &profiles[1], "F", "F", &cfg).unwrap();
    out.push(("diff_self".to_string(), ff.prometheus(8)));
    out
}

fn golden() -> Vec<(String, String)> {
    let doc: Value = mogpu::json::from_str(GOLDEN).expect("golden file parses");
    doc.as_object()
        .expect("golden is an object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().expect("entry is text").to_string()))
        .collect()
}

#[test]
fn expositions_match_the_golden() {
    let want = golden();
    let got = expositions();
    let mut names: Vec<&String> = got.iter().map(|(k, _)| k).collect();
    names.sort();
    assert_eq!(
        names,
        want.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        "golden entries"
    );
    for (name, text) in &got {
        let golden = &want.iter().find(|(k, _)| k == name).unwrap().1;
        if name.starts_with("diff_") {
            assert_same_exposition(text, golden, name);
            continue;
        }
        if text != golden {
            let line = text
                .lines()
                .zip(golden.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| text.lines().count().min(golden.lines().count()));
            panic!(
                "{name} drifted from tests/data/exposition_golden.json at line {}:\n  got:  {}\n  want: {}",
                line + 1,
                text.lines().nth(line).unwrap_or("<end>"),
                golden.lines().nth(line).unwrap_or("<end>"),
            );
        }
    }
}

/// A label value with every character the format escapes, shaped like
/// the source path a profile report carries.
const EVIL: &str = "ev\"il\\\nkernels/mod.rs:74";

/// Values of `label` over the samples of `family`, parsed back.
fn parsed_labels(text: &str, family: &str, label: &str) -> Vec<String> {
    parse_exposition(text).samples[family]
        .iter()
        .filter_map(|s| s.labels.get(label).cloned())
        .collect()
}

/// Replaces every JSON string equal to `from` with `to`.
fn rename(v: &mut Value, from: &str, to: &str) {
    match v {
        Value::String(s) if s == from => *s = to.to_string(),
        Value::Array(items) => items.iter_mut().for_each(|x| rename(x, from, to)),
        Value::Object(fields) => fields.iter_mut().for_each(|(_, x)| rename(x, from, to)),
        _ => {}
    }
}

#[test]
fn hostile_label_values_round_trip_through_every_emitter() {
    let frames = scene(SEED);

    let run = gpu(OptLevel::F, &frames).process_all(&frames[1..]).unwrap();
    let gauges = KernelGauges::new(&run.metrics, &run.occupancy);
    let text =
        mogpu::sim::telemetry::prometheus(&[(EVIL.to_string(), &run.telemetry, Some(gauges))]);
    assert_eq!(
        parsed_labels(&text, "mogpu_kernel_occupancy", "pipeline"),
        [EVIL]
    );

    let mut serving = streams_run().serving;
    serving.device = EVIL.to_string();
    let text = prometheus_serving(&serving, usize::MAX);
    assert_eq!(
        parsed_labels(&text, "mogpu_streams_serving", "device"),
        [EVIL]
    );

    let mut fleet = fleet();
    fleet.devices[1].label = EVIL.to_string();
    let text = prometheus_fleet(&fleet, usize::MAX);
    assert_eq!(parsed_labels(&text, "mogpu_device_load", "device")[1], EVIL);

    let mut g = gpu(OptLevel::F, &frames);
    g.enable_dataflow();
    g.set_profile_mode(ProfileMode::On);
    g.process_all(&frames[1..]).unwrap();
    let mut graph = g.dataflow_graph().unwrap();
    for n in graph.nodes.iter_mut().filter(|n| n.name == "mog-update") {
        n.name = EVIL.to_string();
    }
    let consumers = parsed_labels(&graph.prometheus(), "mogpu_dataflow_edge_bytes", "consumer");
    assert!(consumers.iter().any(|c| c == EVIL), "{consumers:?}");

    // The diff reads its label values from the input JSON: give one
    // source site the hostile path on both sides.
    let mut profile = mogpu::json::to_value(&g.take_profile_report().unwrap()).unwrap();
    let cfg = GpuConfig::tesla_c2075();
    let site = diff_values(&profile, &profile, "a", "b", &cfg)
        .unwrap()
        .kernels[0]
        .sites[0]
        .source
        .clone();
    rename(&mut profile, &site, EVIL);
    let text = diff_values(&profile, &profile, "a", "b", &cfg)
        .unwrap()
        .prometheus(usize::MAX);
    let sources = parsed_labels(&text, "mogpu_diff_site_delta_seconds", "source");
    assert!(sources.iter().any(|s| s == EVIL), "{sources:?}");
}
