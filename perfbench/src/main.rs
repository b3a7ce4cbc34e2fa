//! The repository benchmark: one command that runs a seeded, closed-loop
//! sequence of calls into mogpu's public API from one thread, checks
//! every output against the CPU reference, and prints one JSON line of
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ladder|observe|quality --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the JSON holds the end-to-end metrics; with
//! `--trace 1` the same workload runs with spans recorded around every
//! layer call and the JSON holds the per-layer metrics. See README.md for
//! why each workload exists and which layer should move which metric.

mod calib;
mod ladder;
mod model;
mod observe;
mod quality;
mod trace;

use mogpu::prelude::{Frame, Mask, MogParams, Resolution, SerialMog, Variant};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Phase, Tracer};

/// `harness::standard_scene`'s seed: with it, each pipeline's model window
/// processes the frames of `harness::standard_frames(33)`.
const DEFAULT_SEED: u64 = 0x1CC_2014;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Frame-op samples a run must collect so that at least ten lie beyond
/// the p90.
pub const MIN_SAMPLES: usize = 100;

/// Gaussian components of every workload.
pub const K: usize = 3;

/// Per-layer metrics, in output order, with their units. The
/// `model.kernel.<L>` / `model.pipeline.<L>` families are added from
/// [`LADDER_NAMES`].
const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.pipeline.process_s", "s/frame"),
    ("core.pipeline.new_s", "s"),
    ("core.pipeline.calls", "count"),
    ("core.pipeline.frames", "count"),
    ("sim.kernel.lane_events", "count"),
    ("sim.kernel.warp_slots", "count"),
    ("sim.kernel.ns_per_event", "ns"),
    ("frame.scene.render_s", "s"),
    ("frame.scene.frames", "count"),
    ("sim.profile.process_s", "s/frame"),
    ("sim.sancheck.process_s", "s/frame"),
    ("sim.sancheck.findings", "count"),
    ("sim.dataflow.process_s", "s/frame"),
    ("sim.dataflow.edge_bytes", "B"),
    ("sim.dataflow.dead_store_bytes", "B"),
    ("core.profile.serialize_s", "s/frame"),
    ("core.profile.json_bytes", "B"),
    ("sim.telemetry.prometheus_s", "s/frame"),
    ("sim.telemetry.prometheus_bytes", "B"),
    ("sim.chrome_trace.build_s", "s/frame"),
    ("sim.advisor.advise_s", "s/frame"),
    ("sim.diff.diff_s", "s/frame"),
    ("sim.serving.exposition_s", "s/frame"),
    ("sim.serving.jsonl_bytes", "B"),
    ("core.streams.process_s", "s/frame"),
    ("core.streams.frames", "count"),
    ("mog.serial.process_s", "s/frame"),
    ("mog.serial.frames", "count"),
    ("metrics.msssim.calls", "count"),
    ("metrics.msssim.process_s", "s/frame"),
    ("metrics.msssim.fg_mean", "ratio"),
    ("metrics.msssim.bg_mean", "ratio"),
    ("metrics.basic.process_s", "s/frame"),
    ("metrics.basic.f1", "ratio"),
    ("model.dma.h2d_ms_hd", "ms"),
    ("model.streams.aggregate_fps", "fps"),
    ("model.streams.kernel_utilization", "ratio"),
    ("model.serving.e2e_p99_ms", "ms"),
    ("model.serving.slo_violations", "count"),
    ("bench.timed_s", "s"),
    ("bench.samples", "count"),
    ("bench.span_coverage", "ratio"),
    ("bench.traced_sim_fps", "frames/s"),
    ("bench.calibration_ms", "ms"),
];

/// Level names of the modelled per-level families.
const LADDER_NAMES: [&str; 7] = ["A", "B", "C", "D", "E", "F", "W8"];

/// Span names whose self time is reported as `<name>_s` per set-up.
const SETUP_LAYERS: [&str; 2] = ["frame.scene.render", "core.pipeline.new"];

/// Span names whose self time over the timed and verify phases, per frame
/// the timed loop processed, is reported as `<name>_s`. Per frame, so a
/// faster layer reads lower even though the loop runs for a fixed time.
const RUN_LAYERS: [&str; 14] = [
    "core.pipeline.process",
    "sim.profile.process",
    "sim.sancheck.process",
    "sim.dataflow.process",
    "core.profile.serialize",
    "sim.telemetry.prometheus",
    "sim.chrome_trace.build",
    "sim.advisor.advise",
    "sim.diff.diff",
    "sim.serving.exposition",
    "core.streams.process",
    "mog.serial.process",
    "metrics.msssim.process",
    "metrics.basic.process",
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Calibration-loop milliseconds measured just before each set-up.
    pub setup_calib_ms: Vec<f64>,
    /// Calibration-loop milliseconds measured after each timed round.
    pub calib_ms: Vec<f64>,
    /// Wall seconds of the timed phase, calibration loops excluded.
    pub timed_s: f64,
    /// Frames the simulated GPU processed in the timed phase.
    pub frames: u64,
    /// `KernelStats::scalar_events` interpreted in the timed phase.
    pub events: u64,
    /// Host milliseconds per frame of every frame op.
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Modelled levels of the workload (F always among them).
    pub levels: Vec<model::LevelModel>,
    /// Per-layer values by metric name. Counts, bytes, accuracy and
    /// modelled values are taken over the fixed model window, so they
    /// repeat exactly for a seed.
    pub layer: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.layer.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Counts a timed call's frames and interpreted events.
    pub fn count_run(&mut self, report: Option<&mogpu::core::RunReport>) {
        if let Some(r) = report {
            self.frames += r.frames as u64;
            self.events += r.stats.scalar_events();
        }
    }

    /// Records one checked operation.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs a workload's set-up [`SETUP_REPS`] times, timing each repetition
/// after one calibration loop, and keeps the last repetition's state.
pub fn repeat_setup<S>(o: &mut Outcome, mut setup: impl FnMut() -> Option<S>) -> Option<S> {
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        o.setup_calib_ms.push(calib::loop_ms());
        let start = Instant::now();
        state = setup();
        o.setup_s.push(start.elapsed().as_secs_f64());
    }
    state
}

/// Stops the timed loop once it has run `seconds`, collected
/// [`MIN_SAMPLES`] samples and completed `min_rounds` rounds (the model
/// window), whichever comes last. Checked only between rounds, where it
/// also runs the calibration loop; the loop's time is not part of the
/// timed phase.
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_rounds: usize,
    rounds: usize,
    calib_s: f64,
}

impl Deadline {
    pub fn start(seconds: f64, min_rounds: usize) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
            min_rounds,
            rounds: 0,
            calib_s: 0.0,
        }
    }

    /// Closes a round; true when the loop should stop.
    pub fn end_round(&mut self, o: &mut Outcome) -> bool {
        let ms = calib::loop_ms();
        o.calib_ms.push(ms);
        self.calib_s += ms * 1e-3;
        self.rounds += 1;
        self.rounds >= self.min_rounds
            && o.samples_ms.len() >= MIN_SAMPLES
            && self.elapsed() >= self.seconds
    }

    /// Rounds closed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Seconds since the start, calibration loops excluded.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.calib_s
    }
}

/// The seed frame plus the window's frames, rendered once per set-up and
/// cycled through (frame 0 seeds every model and is never processed).
pub struct Pool {
    pub frames: Vec<Frame<u8>>,
    pub truth: Vec<Mask>,
}

/// Frames rendered per pool.
pub const POOL_FRAMES: usize = model::WINDOW_FRAMES + 1;

impl Pool {
    pub fn render(t: &mut Tracer, scene: &mogpu::prelude::Scene) -> Pool {
        t.span("frame.scene.render", || {
            let (frames, truth) = scene.render_sequence(POOL_FRAMES);
            Pool {
                frames: frames.into_frames(),
                truth: truth.into_frames(),
            }
        })
    }

    /// Index of the first frame of a pipeline's `op`-th group of `group`
    /// frames, counting the warm-up group as op 0. Groups never straddle
    /// the wrap because `group` divides the window.
    pub fn group_start(op: usize, group: usize) -> usize {
        debug_assert_eq!(model::WINDOW_FRAMES % group, 0);
        1 + (op * group) % model::WINDOW_FRAMES
    }

    pub fn group(&self, op: usize, group: usize) -> &[Frame<u8>] {
        let s = Self::group_start(op, group);
        &self.frames[s..s + group]
    }
}

/// FNV-1a over the masks' bytes, eight at a time.
pub fn mask_hash<'a>(masks: impl IntoIterator<Item = &'a Mask>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in masks {
        let bytes = m.as_slice();
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        for &b in chunks.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The CPU reference a GPU pipeline must match bit for bit, replaying the
/// same frames in the same order.
pub struct Reference {
    serial: SerialMog<f64>,
    /// The pipeline ran the 3x3 morphological opening after MoG.
    opened: bool,
}

impl Reference {
    pub fn new(res: Resolution, variant: Variant, seed_frame: &Frame<u8>, opened: bool) -> Self {
        Reference {
            serial: SerialMog::new(res, MogParams::new(K), variant, seed_frame.as_slice()),
            opened,
        }
    }

    /// Processes `frames` and returns the hash the pipeline's masks must
    /// have.
    pub fn expect(&mut self, t: &mut Tracer, frames: &[Frame<u8>]) -> u64 {
        let masks: Vec<Mask> = t.span("mog.serial.process", || {
            frames.iter().map(|f| self.serial.process(f)).collect()
        });
        if self.opened {
            mask_hash(
                masks
                    .iter()
                    .map(mogpu::frame::open3)
                    .collect::<Vec<_>>()
                    .iter(),
            )
        } else {
            mask_hash(&masks)
        }
    }
}

/// Median and upper percentile by linear interpolation between closest
/// ranks.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(args)
}

/// Appends one metric; a non-finite value is printed as 0 and returned as
/// `false` so the run fails instead of emitting invalid JSON.
fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) -> bool {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let finite = value.is_finite();
    let value = if finite { value } else { 0.0 };
    // Display prints every digit of a finite f64 and never an exponent.
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ));
    finite
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "ladder" => ladder::run(&mut tracer, args.seed, args.seconds),
        "observe" => observe::run(&mut tracer, args.seed, args.seconds),
        "quality" => quality::run(&mut tracer, args.seed, args.seconds),
        other => {
            eprintln!("perfbench: unknown --workload {other:?} (ladder, observe, quality)");
            std::process::exit(2);
        }
    };
    let mut o = outcome;
    if o.samples_ms.is_empty() || o.levels.is_empty() {
        eprintln!("perfbench: {} set-up failed", args.workload);
        std::process::exit(1);
    }
    let finite_levels: Vec<bool> = o.levels.iter().map(model::LevelModel::is_finite).collect();
    for ok in finite_levels {
        o.attempt(ok);
    }

    // Host timings are reported as they would read with the calibration
    // loop at its reference speed (see calib.rs); `slowdown` > 1 means
    // the machine ran slower than the reference during the timed loop.
    let slowdown = median(&o.calib_ms) / calib::REFERENCE_MS;
    let mut sorted: Vec<f64> = o.samples_ms.iter().map(|ms| ms / slowdown).collect();
    sorted.sort_by(f64::total_cmp);
    let sim_fps = o.frames as f64 / o.timed_s * slowdown;
    let sim_mevents_s = o.events as f64 / 1e6 / o.timed_s * slowdown;
    let setup_s: Vec<f64> = o
        .setup_s
        .iter()
        .zip(&o.setup_calib_ms)
        .map(|(s, ms)| s / (ms / calib::REFERENCE_MS))
        .collect();
    let (model_fps_hd, model_err_pct) = model::headline(&o.levels);
    println!(
        "{}: seed {}, {} frame-op samples over {:.2} s timed, {} frames, {}/{} ops failed",
        args.workload,
        args.seed,
        sorted.len(),
        o.timed_s,
        o.frames,
        o.failed,
        o.attempted
    );
    println!(
        "unscaled: {:.3} frames/s, set-up {:.4} s; calibration loop {:.4} ms (reference {} ms)",
        o.frames as f64 / o.timed_s,
        median(&o.setup_s),
        median(&o.calib_ms),
        calib::REFERENCE_MS
    );

    let mut out = String::new();
    let mut finite = true;
    if args.trace {
        let setup = tracer.self_seconds(Phase::Setup);
        let timed = tracer.self_seconds(Phase::Timed);
        let verify = tracer.self_seconds(Phase::Verify);
        for name in SETUP_LAYERS {
            o.set(
                &format!("{name}_s"),
                setup.get(name).copied().unwrap_or(0.0) / SETUP_REPS as f64,
            );
        }
        let run_s = |name: &str| {
            timed.get(name).copied().unwrap_or(0.0) + verify.get(name).copied().unwrap_or(0.0)
        };
        for name in RUN_LAYERS {
            o.set(&format!("{name}_s"), run_s(name) / o.frames as f64);
        }
        let kernel_s: f64 = [
            "core.pipeline.process",
            "sim.profile.process",
            "sim.sancheck.process",
            "sim.dataflow.process",
            "core.streams.process",
        ]
        .iter()
        .map(|n| run_s(n))
        .sum();
        o.set(
            "sim.kernel.ns_per_event",
            1e9 * kernel_s / o.events.max(1) as f64,
        );
        o.set("bench.timed_s", o.timed_s);
        o.set("bench.samples", sorted.len() as f64);
        o.set(
            "bench.span_coverage",
            tracer.top_level_seconds(Phase::Timed) / o.timed_s,
        );
        o.set("bench.traced_sim_fps", sim_fps);
        o.set("bench.calibration_ms", median(&o.calib_ms));
        println!("traced self seconds by span (timed phase):");
        let mut rows: Vec<_> = timed.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, s) in rows {
            println!("  {name:<28} {s:>9.4} s  {:>5.1}%", 100.0 * s / o.timed_s);
        }
        let mut names: Vec<(String, &str)> = LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        for l in LADDER_NAMES {
            for (what, unit) in [
                ("ms_hd", "ms"),
                ("occupancy", "ratio"),
                ("branch_eff", "ratio"),
                ("mem_eff", "ratio"),
                ("store_tx_hd", "count"),
            ] {
                names.push((format!("model.kernel.{l}.{what}"), unit));
            }
            names.push((format!("model.pipeline.{l}.e2e_ms_hd"), "ms"));
        }
        let level_metrics: Vec<(String, f64)> = o
            .levels
            .iter()
            .flat_map(model::LevelModel::metrics)
            .collect();
        for (name, v) in level_metrics {
            o.set(&name, v);
        }
        for (name, unit) in &names {
            finite &= json_metric(
                &mut out,
                name,
                o.layer.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
    } else {
        for (name, value, unit) in [
            ("setup_s", median(&setup_s), "s"),
            ("sim_fps", sim_fps, "frames/s"),
            ("frame_ms_p50", percentile(&sorted, 0.5), "ms"),
            ("frame_ms_p90", percentile(&sorted, 0.9), "ms"),
            ("sim_mevents_s", sim_mevents_s, "Mevents/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("model_fps_hd", model_fps_hd, "fps"),
            ("model_err_pct", model_err_pct, "%"),
        ] {
            finite &= json_metric(&mut out, name, value, unit);
        }
    }
    if !finite {
        o.attempt(false);
    }
    let correct = o.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        o.attempted, o.failed
    );
}
