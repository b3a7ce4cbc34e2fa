//! Integration tests for the time-resolved telemetry subsystem: the
//! Prometheus text exposition (parsed back with a small round-trip
//! parser), the series embedded in run reports, the Chrome-trace counter
//! tracks, and the byte-stable canonical serialization.

#[path = "support/exposition.rs"]
mod exposition;

use exposition::{parse_exposition, Sample};
use mogpu::json::Value;
use mogpu::prelude::*;
use mogpu::sim::telemetry::{prometheus, KernelGauges};
use std::collections::BTreeMap;

fn scene_frames(n: usize) -> Vec<Frame<u8>> {
    SceneBuilder::new(Resolution::TINY)
        .seed(11)
        .walkers(2)
        .build()
        .render_sequence(n)
        .0
        .into_frames()
}

fn run(level: OptLevel, frames: &[Frame<u8>]) -> RunReport {
    let mut gpu = GpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    gpu.process_all(&frames[1..]).unwrap()
}

fn profiled_run(level: OptLevel, frames: &[Frame<u8>]) -> ProfileReport {
    let mut gpu = GpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    gpu.set_profile_mode(ProfileMode::On);
    gpu.process_all(&frames[1..]).unwrap();
    gpu.take_profile_report().unwrap()
}

// ---- exposition round trip ----

#[test]
fn prometheus_round_trips_and_matches_the_report_series() {
    let frames = scene_frames(10);
    let report = run(OptLevel::Windowed { group: 8 }, &frames);
    let t = &report.telemetry;
    let gauges = KernelGauges::new(&report.metrics, &report.occupancy);
    let text = prometheus(&[("level W(8)".to_string(), t, Some(gauges))]);
    let exp = parse_exposition(&text);

    // Every emitted metric carries help and type.
    for name in exp.samples.keys() {
        assert!(name.starts_with("mogpu_"), "unprefixed metric {name}");
    }
    assert_eq!(exp.types["mogpu_sm_occupancy"], "gauge");
    assert_eq!(exp.types["mogpu_dram_bytes_total"], "counter");

    // Per-SM gauge samples reproduce the serialized series bit for bit:
    // both sides print through the same shortest-round-trip formatter.
    let occ = &exp.samples["mogpu_sm_occupancy"];
    assert_eq!(occ.len(), t.sm.len() * t.samples());
    for s in occ {
        let sm: usize = s.labels["sm"].parse().unwrap();
        let q: usize = s.labels["q"].parse().unwrap();
        assert_eq!(s.labels["pipeline"], "level W(8)");
        assert!(
            s.value == t.sm[sm].occupancy[q],
            "sm {sm} q {q}: {} != {}",
            s.value,
            t.sm[sm].occupancy[q]
        );
    }
    let bw = &exp.samples["mogpu_dram_bandwidth_bytes_per_second"];
    assert_eq!(bw.len(), t.samples());
    for s in bw {
        let q: usize = s.labels["q"].parse().unwrap();
        assert!(s.value == t.dram_bandwidth[q]);
    }
}

#[test]
fn telemetry_series_integrate_back_to_the_aggregate_counters() {
    // The acceptance bar of the subsystem: the time-resolved series must
    // be consistent with the aggregate report to 1e-9 relative error.
    let frames = scene_frames(10);
    let report = run(OptLevel::Windowed { group: 8 }, &frames);
    let t = &report.telemetry;
    let cfg = GpuConfig::tesla_c2075();

    let total = report.stats.bytes_transacted(&cfg) as f64;
    assert!(total > 0.0);
    assert!(
        (t.total_dram_bytes() - total).abs() / total < 1e-9,
        "series integrate to {} DRAM bytes, aggregate says {total}",
        t.total_dram_bytes()
    );
    assert!(
        (t.mean_busy_occupancy() - report.occupancy.occupancy).abs() < 1e-9,
        "busy-weighted occupancy {} vs aggregate {}",
        t.mean_busy_occupancy(),
        report.occupancy.occupancy
    );
}

#[test]
fn dram_byte_counter_is_monotone_in_time() {
    let frames = scene_frames(8);
    let a = run(OptLevel::A, &frames);
    let f = run(OptLevel::F, &frames);
    let text = prometheus(&[
        ("level A".to_string(), &a.telemetry, None),
        ("level F".to_string(), &f.telemetry, None),
    ]);
    let exp = parse_exposition(&text);
    // Group the counter samples per pipeline, order by the q label.
    let mut per_pipeline: BTreeMap<String, Vec<(usize, f64)>> = BTreeMap::new();
    for s in &exp.samples["mogpu_dram_bytes_total"] {
        per_pipeline
            .entry(s.labels["pipeline"].clone())
            .or_default()
            .push((s.labels["q"].parse().unwrap(), s.value));
    }
    assert_eq!(per_pipeline.len(), 2);
    for (pipeline, mut samples) in per_pipeline {
        samples.sort_by_key(|&(q, _)| q);
        for w in samples.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "{pipeline}: counter decreases at q {}",
                w[1].0
            );
        }
        assert!(samples.last().unwrap().1 > 0.0, "{pipeline}: empty counter");
    }
}

#[test]
fn hostile_pipeline_labels_survive_the_round_trip() {
    let frames = scene_frames(4);
    let report = run(OptLevel::C, &frames);
    let evil = "cam\\era \"7\"\nbasement";
    let gauges = KernelGauges::new(&report.metrics, &report.occupancy);
    let text = prometheus(&[(evil.to_string(), &report.telemetry, Some(gauges))]);
    let exp = parse_exposition(&text);
    for samples in exp.samples.values() {
        for s in samples {
            assert_eq!(s.labels["pipeline"], evil);
        }
    }
}

// ---- embedded report series and Chrome-trace counters ----

#[test]
fn profile_report_embeds_the_telemetry_series_as_json() {
    let frames = scene_frames(6);
    let report = profiled_run(OptLevel::F, &frames);
    let json = mogpu::json::to_value(&report).unwrap();
    let t = &json["telemetry"];
    assert_eq!(
        t["num_sms"],
        Value::U64(GpuConfig::tesla_c2075().num_sms as u64)
    );
    let sm = t["sm"].as_array().expect("per-SM series array");
    assert_eq!(sm.len(), GpuConfig::tesla_c2075().num_sms as usize);
    // The serialized series deserializes back to the identical value.
    let back: mogpu::sim::PipelineTelemetry =
        mogpu::json::from_value(t.clone()).expect("telemetry round-trips");
    assert_eq!(back.samples(), report.telemetry.samples());
    assert_eq!(back.sm[0].occupancy, report.telemetry.sm[0].occupancy);
    assert_eq!(back.dram_bandwidth, report.telemetry.dram_bandwidth);
}

#[test]
fn chrome_trace_gains_counter_tracks_on_the_same_clock() {
    let frames = scene_frames(6);
    let report = profiled_run(OptLevel::C, &frames);
    let mut builder = mogpu::sim::chrome_trace::TraceBuilder::new();
    let pid = builder.add_pipeline("level C", &report.schedule);
    builder.add_counters(pid, &report.telemetry);
    builder.add_stall_counters(pid, &report.telemetry, &report.stalls);
    let trace = mogpu::json::to_value(&builder.finish()).unwrap();
    let events = trace["traceEvents"].as_array().unwrap();
    let counters: Vec<&Value> = events
        .iter()
        .filter(|e| e["ph"] == Value::String("C".into()))
        .collect();
    assert!(!counters.is_empty(), "no counter events in trace");
    let makespan_us = 1e6 * report.telemetry.makespan;
    for e in &counters {
        assert_eq!(e["pid"], Value::U64(pid));
        let ts = e["ts"].as_f64().expect("numeric ts");
        assert!(
            ts >= 0.0 && ts <= makespan_us + 1e-9,
            "counter ts {ts} outside [0, {makespan_us}]"
        );
    }
    // The stall-reason track rides the same clock as the other counters.
    let stall_track: Vec<&&Value> = counters
        .iter()
        .filter(|e| e["name"] == Value::String("kernel stall reasons".into()))
        .collect();
    assert_eq!(stall_track.len(), report.telemetry.samples() + 1);
}

#[test]
fn multi_stream_report_carries_device_wide_telemetry() {
    let frames_a = scene_frames(6);
    let frames_b = SceneBuilder::new(Resolution::TINY)
        .seed(12)
        .walkers(3)
        .build()
        .render_sequence(6)
        .0
        .into_frames();
    let seeds: Vec<&[u8]> = vec![frames_a[0].as_slice(), frames_b[0].as_slice()];
    let mut multi = MultiGpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        OptLevel::F,
        &seeds,
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    let inputs = vec![frames_a[1..].to_vec(), frames_b[1..].to_vec()];
    let report = multi.process_all(&inputs).unwrap();
    let t = &report.telemetry;
    assert!(t.samples() > 0);
    assert!((t.makespan - report.makespan).abs() < 1e-12);
    for q in 0..t.samples() {
        assert!((0.0..=1.0).contains(&t.copy_engine_utilization[q]));
        assert!((0.0..=1.0).contains(&t.l2_hit_rate[q]));
    }
    // Both streams' kernels hit DRAM, so the device-wide series is live.
    assert!(t.total_dram_bytes() > 0.0);
}

// ---- deterministic serialization ----

#[test]
fn canonical_report_serialization_is_byte_stable() {
    let frames = scene_frames(6);
    let first =
        mogpu::json::to_string_canonical_pretty(&profiled_run(OptLevel::F, &frames)).unwrap();
    let second =
        mogpu::json::to_string_canonical_pretty(&profiled_run(OptLevel::F, &frames)).unwrap();
    assert_eq!(first, second);
    // Canonical form sorts keys: reserializing a parsed document is a
    // fixed point.
    let parsed: Value = mogpu::json::from_str(&first).unwrap();
    assert_eq!(
        mogpu::json::to_string_canonical_pretty(&parsed).unwrap(),
        first
    );
}

// ---- serving exposition (histogram families, snapshot counters) ----

/// A small two-stream serving run whose report carries the serving
/// section (histograms, snapshots, events).
fn serving_run() -> MultiStreamReport {
    let seqs: Vec<Vec<Frame<u8>>> = (0..2u64)
        .map(|s| {
            SceneBuilder::new(Resolution::TINY)
                .seed(11 + s)
                .walkers(2)
                .build()
                .render_sequence(7)
                .0
                .into_frames()
        })
        .collect();
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

fn le_value(s: &Sample) -> f64 {
    let le = &s.labels["le"];
    if le == "+Inf" {
        f64::INFINITY
    } else {
        le.parse().unwrap()
    }
}

#[test]
fn serving_exposition_emits_wellformed_cumulative_histograms() {
    let report = serving_run();
    let serving = &report.serving;
    let text = mogpu::sim::prometheus_serving(serving, usize::MAX);
    let exp = parse_exposition(&text);

    for family in [
        "mogpu_frame_latency_seconds",
        "mogpu_e2e_latency_seconds",
        "mogpu_pipeline_e2e_latency_seconds",
    ] {
        assert_eq!(exp.types[family], "histogram", "{family}");
        let buckets = &exp.samples[&format!("{family}_bucket")];
        let counts = &exp.samples[&format!("{family}_count")];
        let sums = &exp.samples[&format!("{family}_sum")];

        // Group buckets by their full label set minus `le`.
        let mut series: BTreeMap<Vec<(String, String)>, Vec<&Sample>> = BTreeMap::new();
        for b in buckets {
            let key: Vec<(String, String)> = b
                .labels
                .iter()
                .filter(|(k, _)| k.as_str() != "le")
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            series.entry(key).or_default().push(b);
        }
        assert_eq!(
            series.len(),
            counts.len(),
            "{family}: one series per _count"
        );
        for (key, bs) in &series {
            // `le` bounds strictly increasing, cumulative counts
            // non-decreasing, terminated by a `+Inf` bucket.
            let mut sorted = bs.clone();
            sorted.sort_by(|a, b| le_value(a).total_cmp(&le_value(b)));
            for w in sorted.windows(2) {
                assert!(le_value(w[0]) < le_value(w[1]), "{family}: duplicate le");
                assert!(
                    w[0].value <= w[1].value,
                    "{family}: cumulative bucket counts decreased for {key:?}"
                );
            }
            let inf = sorted.last().unwrap();
            assert!(le_value(inf).is_infinite(), "{family}: missing +Inf bucket");
            let matches = |c: &&Sample| key.iter().all(|(k, v)| c.labels.get(k) == Some(v));
            let count = counts
                .iter()
                .find(matches)
                .unwrap_or_else(|| panic!("{family}: no _count for {key:?}"));
            assert_eq!(inf.value, count.value, "{family}: +Inf bucket != _count");
            let sum = sums.iter().find(matches).unwrap();
            // Exact `_sum`: mean latency must sit within the observed
            // bucket range (sanity that sum/count are consistent).
            if count.value > 0.0 {
                let mean = sum.value / count.value;
                assert!(mean > 0.0 && mean.is_finite(), "{family}: bad _sum");
            }
        }
    }

    // Per-stream `_count` matches the report's completion counters.
    let counts = &exp.samples["mogpu_frame_latency_seconds_count"];
    for s in &serving.streams {
        let c = counts
            .iter()
            .find(|c| c.labels["stream"] == s.stream.to_string())
            .unwrap();
        assert_eq!(c.value, s.frames_completed as f64);
        assert_eq!(c.labels["device"], serving.device);
    }
}

#[test]
fn serving_counters_are_monotone_across_snapshots() {
    let report = serving_run();
    let serving = &report.serving;
    assert!(serving.snapshots.len() > 1, "want multiple windows");

    let counter_families = [
        "mogpu_frames_completed_total",
        "mogpu_slo_violations_total",
        "mogpu_serving_dram_bytes_total",
    ];
    let mut last: BTreeMap<String, f64> = BTreeMap::new();
    let mut last_clock = -1.0f64;
    for i in 0..serving.snapshots.len() {
        let exp = parse_exposition(&mogpu::sim::prometheus_serving(serving, i));
        for family in counter_families {
            for s in &exp.samples[family] {
                let key = format!("{family}{:?}", s.labels);
                let prev = last.insert(key.clone(), s.value).unwrap_or(0.0);
                assert!(
                    s.value >= prev,
                    "{key} went backwards between snapshots {}: {} -> {}",
                    i,
                    prev,
                    s.value
                );
            }
        }
        // Histogram _count is a counter too.
        for s in &exp.samples["mogpu_e2e_latency_seconds_count"] {
            let key = format!("e2e_count{:?}", s.labels);
            let prev = last.insert(key.clone(), s.value).unwrap_or(0.0);
            assert!(s.value >= prev, "{key} went backwards");
        }
        let clock = exp.samples["mogpu_serving_clock_seconds"][0].value;
        assert!(clock > last_clock, "snapshot clock must advance");
        last_clock = clock;
    }
    // The last snapshot's totals equal the final per-stream counters.
    let exp = parse_exposition(&mogpu::sim::prometheus_serving(
        serving,
        serving.snapshots.len() - 1,
    ));
    let done: f64 = exp.samples["mogpu_frames_completed_total"]
        .iter()
        .map(|s| s.value)
        .sum();
    let total: u64 = serving.streams.iter().map(|s| s.frames_completed).sum();
    assert_eq!(done, total as f64);
}
