//! `mogpu` — command-line background subtraction on the simulated GPU.
//!
//! ```text
//! mogpu info                      # print the simulated hardware
//! mogpu demo --out demo_out       # synthetic scene -> masks (PGM + Y4M)
//! mogpu ladder --frames 24        # climb optimization levels A..F, W(8)
//! mogpu run -i in.y4m -o out.y4m  # subtract a real Y4M capture
//! mogpu help                      # every subcommand and its flags
//! ```

#[path = "mogpu/flags.rs"]
mod flags;

use flags::Args;
use mogpu::core::pipeline::{KernelPlan, Pipeline};
use mogpu::core::{AdaptiveGpuMog, DeviceReal, PipelineError};
use mogpu::frame::{save_pgm, write_y4m};
use mogpu::prelude::*;
use mogpu::serve::MetricsServer;
use mogpu::sim::serving::{ServingEvent, SloConfig};
use mogpu::sim::{DataflowGraph, SanReport};
use std::path::Path;
use std::process::ExitCode;
use tables::*;

/// Every subcommand's flag table, one row per flag. Rows are kept one
/// per line, so formatting is off here.
#[rustfmt::skip]
mod tables {
    use super::flags::{at_least, flag, switch, Command, Flag, NON_NEGATIVE};
    use super::flags::Range::{Int, Real, Text};

    const FRAMES: Flag = flag("--frames N", at_least(2), "frames to render; the first seeds the model");
    const LEVEL: Flag = flag("--level L", Text, "A..F, or W<group> for the windowed kernel (W = W8)").default("F");
    const JSON: Flag = switch("--json", "print JSON instead of text");
    const TOP: Flag = flag("--top N", at_least(1), "rows per ranked table").default("10");
    const INPUT: Flag = flag("--input|-i IN.y4m", Text, "YUV4MPEG2 clip to subtract");
    const K: Flag = flag("--k K", Int(1, 8), "Gaussian components per pixel");
    // The cap bounds the per-stream scene and model allocations made up front.
    const STREAMS: Flag = flag("--streams N", Int(1, 10_000), "camera streams, each its own scene");
    const BASELINE: &str = mogpu::bench::baseline::DEFAULT_BASELINE_PATH;

    const MODEL: &[Flag] = &[K.default("3"), switch("--float", "single-precision model state")];

    const OBSERVABILITY: &[Flag] = &[
        flag("--report-out FILE.json", Text, "profile report(s) with embedded telemetry"),
        flag("--trace-out FILE.json", Text, "Chrome trace: DMA/kernel timeline + counters"),
        flag("--metrics-out FILE.prom", Text, "telemetry in Prometheus text format"),
    ];

    const SERVING: &[Flag] = &[
        STREAMS.default("4"),
        flag("--buffers B", at_least(1), "in-flight buffers per stream").default("2"),
        flag("--fps R", NON_NEGATIVE, "arrivals per stream and second; 0 = offline").default("0"),
        flag("--slo-ms D", NON_NEGATIVE, "end-to-end latency deadline").default("40"),
        flag("--error-budget E", Real { min: 0.0, max: 1.0, open: false }, "share of frames that may miss it").default("0.01"),
        flag("--window-ms W", NON_NEGATIVE, "snapshot window; 0 = makespan/8").default("0"),
        flag("--events-out FILE.jsonl", Text, "JSONL serving event log"),
        flag("--serve-metrics HOST:PORT", Text, "replay the snapshots on /metrics"),
    ];

    // The caps keep both times convertible to a `std::time::Duration`.
    const REPLAY: &[Flag] = &[
        flag("--serve-seconds S", Real { min: 0.0, max: 1e9, open: false }, "how long to serve; 0 = until interrupted").default("0"),
        flag("--replay-ms R", Real { min: 0.0, max: 1e9, open: true }, "wall time per snapshot").default("500"),
    ];

    /// Every subcommand, in help order.
    pub static COMMANDS: [Command; 15] = [
        Command {
            name: "info", operands: &[], run: super::cmd_info,
            summary: "Print the simulated GPU/CPU hardware configuration",
            about: "Print the simulated GPU/CPU hardware configuration and the device
                    presets `mogpu fleet --devices` accepts.",
            flags: &[],
        },

        Command {
            name: "demo", operands: &[], run: super::cmd_demo,
            summary: "Render a synthetic scene and write input/mask clips",
            about: "Render a synthetic QVGA surveillance scene, subtract its background,
                    and write input/mask PGM snapshots of the last frame plus the
                    input and mask Y4M clips.",
            flags: &[&[flag("--out DIR", Text, "output directory").default("mogpu_demo"), FRAMES.default("40"), LEVEL], OBSERVABILITY],
        },

        Command {
            name: "ladder", operands: &[], run: super::cmd_ladder,
            summary: "Climb optimization levels A..F, W(8) and print a table",
            about: "Climb the paper's optimization ladder on a synthetic scene and print
                    per-level performance; --json prints the per-level profile
                    reports as a JSON array, --metrics-out all levels in one
                    exposition.",
            flags: &[&[FRAMES.default("24"), JSON], MODEL, OBSERVABILITY],
        },

        Command {
            name: "run", operands: &[], run: super::cmd_run,
            summary: "Background-subtract a Y4M clip (or a synthetic scene)",
            about: "Background-subtract a YUV4MPEG2 clip and print per-run stats.
                    Without --input, runs on a synthetic scene of --frames frames,
                    handy for exercising the observability outputs.",
            flags: &[&[INPUT, flag("--output|-o OUT.y4m", Text, "write the masks as Y4M"), LEVEL, FRAMES.default("16")], MODEL, OBSERVABILITY],
        },

        Command {
            name: "profile", operands: &[], run: super::cmd_profile,
            summary: "Hotspot table, roofline bounds, bottleneck classification",
            about: "Run with the source-attributed profiler on (on --input, else on
                    the synthetic scene) and print the hotspot table, roofline
                    bounds, and bottleneck classification.",
            flags: &[&[LEVEL, FRAMES.default("16"), TOP, INPUT], MODEL, OBSERVABILITY],
        },

        Command {
            name: "advise", operands: &[], run: super::cmd_advise,
            summary: "Ranked optimization advisories from stall/roofline analysis",
            about: "Analyze a profiled run with the guided-analysis advisor: decompose
                    the modelled kernel time into warp stall reasons, place the kernel
                    on the roofline, and print ranked advisories (finding, file:line
                    evidence, recommended transform, modelled benefit). At each ladder
                    level the top advisory names the paper's next optimization. An
                    unlaunchable --tpb is reported as a structured diagnostic and exits
                    nonzero (findings alone never do). --fleet-report instead replays
                    a `mogpu fleet` report with one extra device of each class and
                    ranks the class to add next by the streams-at-SLO it buys.",
            flags: &[&[
                LEVEL.default("A"),
                FRAMES.default("16"),
                TOP,
                flag("--tpb T", Int(1, u32::MAX as u64), "launch block size"),
                JSON,
                flag("--fleet-report FILE.json", Text, "a `mogpu fleet` report to extend"),
            ], MODEL],
        },

        Command {
            name: "diff", operands: &["A.json", "B.json"], run: super::cmd_diff,
            summary: "Differential profiling: attribute the delta between two runs",
            about: "Diff two serialized reports of the same kind (profile reports,
                    single or ladder array; streams/serving, fleet, bench baseline or
                    dataflow graph JSON) and attribute the movement. For profile
                    reports the kernel-time delta is decomposed through the stall
                    reason buckets (the bucket deltas sum to the kernel delta
                    exactly), per-site deltas carry file:line evidence, and each
                    counter set is priced by a counterfactual re-run of the timing
                    model. Histogram-carrying reports diff per bucket plus p50/p95/p99
                    shifts; dataflow graphs get a what-changed overlay (--dot-out:
                    grown edges red, shrunk green).",
            flags: &[&[
                switch("--json", "print the canonical byte-stable DiffReport"),
                TOP,
                flag("--out FILE.json", Text, "write the canonical DiffReport"),
                flag("--dot-out FILE.dot", Text, "Graphviz overlay of two dataflow graphs"),
                flag("--metrics-out FILE.prom", Text, "mogpu_diff_* Prometheus gauges"),
                flag("--config P", Text, "device preset for the re-timing").default("c2075"),
            ]],
        },

        Command {
            name: "dataflow", operands: &[], run: super::cmd_dataflow,
            summary: "Cross-kernel memory-flow graph: who produces what, who reads it",
            about: "Trace every global-memory access of a synthetic run (MoG update
                    followed by the morphology open) and stitch the per-launch
                    read/write sets into a producer->consumer graph: nodes are
                    launches, edges carry the bytes stored by one launch and loaded
                    by the next, and every node accounts for its stores exactly
                    (consumed + dead + live-at-exit). Prints Graphviz DOT unless
                    --json or --dot-out is given. The same graph feeds `mogpu advise`.",
            flags: &[&[
                LEVEL,
                FRAMES.default("16"),
                switch("--json", "print the canonical JSON document"),
                flag("--dot-out FILE.dot", Text, "write the Graphviz DOT"),
                flag("--metrics-out FILE.prom", Text, "write the Prometheus counters"),
            ], MODEL],
        },

        Command {
            name: "streams", operands: &[], run: super::cmd_streams,
            summary: "Serve N camera streams from one device, CUDA-streams style",
            about: "Serve N independent synthetic camera streams from one simulated
                    device, CUDA-streams style: per-stream model state, shared
                    compute/copy engines. Prints per-stream latency (mean and exact
                    p50/p95/p99) and aggregate throughput; --json adds the full
                    serving report. Every frame's end-to-end latency is judged
                    against the SLO, and the run is cut into schedule-clock windows
                    whose cumulative counters --serve-metrics replays on a
                    Prometheus endpoint, one window per --replay-ms.",
            flags: &[&[FRAMES.default("16"), LEVEL, JSON], MODEL, SERVING, REPLAY, OBSERVABILITY],
        },

        Command {
            name: "fleet", operands: &[], run: super::cmd_fleet,
            summary: "Shard N streams across M heterogeneous simulated devices",
            about: "Shard N synthetic camera streams across heterogeneous simulated
                    devices (--devices: preset keys from `mogpu info`, a key repeated
                    per device of that class). Streams are priced per class and placed
                    greedily by modelled load under per-device memory budgets; streams
                    no device can admit are shed, every frame an attributed
                    frame_dropped event. Prints per-device load, memory and SLO
                    attainment, shed streams, and which device class to add next.",
            flags: &[&[
                flag("--devices LIST", Text, "comma-separated preset keys").default("c2075,embedded,hbm"),
                FRAMES.default("12"),
                LEVEL,
                JSON,
                flag("--headroom H", NON_NEGATIVE, "load admission ceiling").default("1"),
                flag("--device-mem-mb MB", NON_NEGATIVE, "every device's memory budget"),
                flag("--report-out FILE.json", Text, "write the fleet report"),
            ], MODEL, SERVING, REPLAY],
        },

        Command {
            name: "serve", operands: &[], run: super::cmd_serve,
            summary: "Replay a serving report on a Prometheus scrape endpoint",
            about: "Replay a recorded serving report (`mogpu streams --report-out`, or
                    a bare serving report) on a Prometheus scrape endpoint, one window
                    snapshot per --replay-ms. --report is required.",
            flags: &[&[
                flag("--report FILE.json", Text, "serving report to replay"),
                flag("--addr HOST:PORT", Text, "endpoint address").default("127.0.0.1:9184"),
            ], REPLAY],
        },

        Command {
            name: "check", operands: &[], run: super::cmd_check,
            summary: "Sanitizer sweep over every shipped kernel",
            about: "Run every shipped kernel (levels A..F, W8, adaptive, morph) under
                    the sanitizer (memcheck / racecheck / synccheck / initcheck) on a
                    synthetic scene and report findings with file:line attribution.
                    Exits nonzero on any finding.",
            flags: &[&[FRAMES.default("8"), JSON], MODEL],
        },

        Command {
            name: "metrics", operands: &[], run: super::cmd_metrics,
            summary: "Emit time-resolved telemetry in Prometheus text format",
            about: "Run a profiled synthetic workload and emit its time-resolved
                    telemetry (per-SM occupancy/IPC/warps, DRAM bandwidth, L2 hit
                    rate, copy-engine utilization) in Prometheus text format.",
            flags: &[&[LEVEL, FRAMES.default("16"), flag("--out FILE.prom", Text, "write to FILE, not stdout")], MODEL],
        },

        Command {
            name: "bench record", operands: &[], run: super::cmd_bench_record,
            summary: "Record / check the performance-regression baseline",
            about: "Measure the ladder (A..F, W8) and a multi-stream run over the
                    standard deterministic workload and write a tolerance-annotated
                    performance baseline plus slim per-level profile reports under
                    reports/ next to it. Unset workload flags keep the standard shape.",
            flags: &[&[flag("--out FILE.json", Text, "baseline to write").default(BASELINE), FRAMES, K, STREAMS]],
        },

        Command {
            name: "bench check", operands: &[], run: super::cmd_bench_check,
            summary: "Record / check the performance-regression baseline",
            about: "Re-measure with the baseline's recorded workload shape and diff
                    against it metric by metric. Exits nonzero if any metric drifts
                    beyond its tolerance: regressions and unexplained improvements
                    both fail. The drift is then attributed through `mogpu diff`
                    (text on stderr, DiffReport JSON to --diff-out, by default
                    diff.json next to the baseline).",
            flags: &[&[
                flag("--baseline FILE.json", Text, "baseline to check").default(BASELINE),
                JSON,
                flag("--diff-out FILE", Text, "drift attribution JSON"),
            ]],
        },
    ];
}

type Res<T = ()> = Result<T, Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") | None => {
            let banner = "mogpu — GPU-optimized MoG background subtraction (ICPP'14 reproduction)";
            print!("{}", flags::help(banner, &COMMANDS));
            Ok(())
        }
        Some("bench") => match args.get(1).map(String::as_str) {
            Some(sub @ ("record" | "check")) => run(&format!("bench {sub}"), &args[2..]),
            Some(a) if a.starts_with('-') => {
                Err(format!("unknown bench option {a:?}; try `mogpu help`").into())
            }
            _ => Err("usage: mogpu bench record|check (see `mogpu help`)".into()),
        },
        Some(name) => run(name, &args[1..]),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `args` against the table of the command called `name`, then
/// runs the command.
fn run(name: &str, args: &[String]) -> Res {
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `mogpu help`"))?;
    (command.run)(&command.parse(args)?)
}

fn level(args: &Args) -> Res<OptLevel> {
    let name = args.text("--level").expect("--level has a default");
    let upper = name.to_ascii_uppercase();
    if let Some(level) = OptLevel::LADDER.into_iter().find(|l| l.name() == upper) {
        return Ok(level);
    }
    let Some(group) = upper.strip_prefix('W') else {
        return Err(format!("unknown level {name:?} (A..F or W<group>)").into());
    };
    let group = group.trim_start_matches('(').trim_end_matches(')');
    Ok(OptLevel::Windowed {
        // A bare "W" means the paper's default group size.
        group: match group {
            "" => 8,
            g => (g.parse()).map_err(|_| format!("bad windowed level {name:?}; use e.g. W8"))?,
        },
    })
}

fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Res {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()).into())
}

fn read_json(path: &Path) -> Res<mogpu::json::Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(mogpu::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

/// Reads a `kind` report from `path`: a bare report, or the `key`
/// section of the document the producing subcommand writes
/// (`mogpu streams --report-out` under "serving", `mogpu fleet
/// --report-out` under "report").
fn read_report<T: serde::Deserialize>(path: &Path, key: &str, kind: &str) -> Res<T> {
    let doc = read_json(path)?;
    let value = doc.get(key).unwrap_or(&doc);
    let report = T::from_json_value(value);
    Ok(report.map_err(|e| format!("{}: not a {kind} report: {e}", path.display()))?)
}

/// The seed-7 QQVGA surveillance scene of every single-stream
/// synthetic run.
fn qqvga_scene() -> Scene {
    SceneBuilder::new(Resolution::QQVGA)
        .seed(7)
        .walkers(3)
        .build()
}

fn synthetic_frames(n_frames: usize) -> Vec<Frame<u8>> {
    qqvga_scene().render_sequence(n_frames).0.into_frames()
}

/// The `--input` Y4M clip, or `--frames` frames of the synthetic scene.
fn input_frames(args: &Args) -> Res<Vec<Frame<u8>>> {
    let Some(input) = args.text("--input") else {
        return Ok(synthetic_frames(args.get("--frames")));
    };
    let file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let seq = mogpu::frame::read_y4m(file)?;
    if seq.len() < 2 {
        return Err("need at least 2 frames (the first seeds the model)".into());
    }
    println!("{input}: {} frames at {}", seq.len(), seq.resolution());
    Ok(seq.into_frames())
}

/// The `Model` flags: Gaussian components and precision.
struct Model {
    k: usize,
    f32: bool,
}

/// What a pipeline run records besides its masks.
#[derive(Clone, Copy, Default)]
struct Record {
    profile: bool,
    dataflow: bool,
    /// Adds the morphology open, the MoG kernel's downstream consumer.
    morphology: bool,
    sanitize: bool,
    threads_per_block: Option<u32>,
}

/// Profiling plus the dataflow graph, whose cross-launch edges become
/// Chrome-trace flow arrows. Recording is transparent: masks and
/// counters are bit-identical to an unrecorded run.
const PROFILED: Record = Record {
    profile: true,
    dataflow: true,
    morphology: false,
    sanitize: false,
    threads_per_block: None,
};

struct Outcome {
    run: RunReport,
    profile: Option<ProfileReport>,
    graph: Option<DataflowGraph>,
    san: Option<SanReport>,
}

impl Model {
    fn from(args: &Args) -> Model {
        Model {
            k: args.get("--k"),
            f32: args.flag("--float"),
        }
    }

    fn precision(&self) -> &'static str {
        if self.f32 {
            "float"
        } else {
            "double"
        }
    }

    /// Runs `level` (the adaptive-K pipeline for `None`) over `frames`;
    /// the first frame seeds the model.
    fn run(
        &self,
        level: Option<OptLevel>,
        frames: &[Frame<u8>],
        record: Record,
    ) -> Result<Outcome, PipelineError> {
        if self.f32 {
            run_pipeline::<f32>(self.k, level, frames, record)
        } else {
            run_pipeline::<f64>(self.k, level, frames, record)
        }
    }

    fn streams(&self, level: OptLevel, s: &Serving) -> Res<MultiStreamReport> {
        if self.f32 {
            run_streams::<f32>(self.k, level, s)
        } else {
            run_streams::<f64>(self.k, level, s)
        }
    }

    fn fleet(&self, level: OptLevel, s: &Serving, args: &Args) -> Res<FleetRunReport> {
        if self.f32 {
            run_fleet::<f32>(self.k, level, s, args)
        } else {
            run_fleet::<f64>(self.k, level, s, args)
        }
    }
}

fn run_pipeline<T: DeviceReal>(
    k: usize,
    level: Option<OptLevel>,
    frames: &[Frame<u8>],
    record: Record,
) -> Result<Outcome, PipelineError> {
    let (res, seed, cfg) = (
        frames[0].resolution(),
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    );
    let Some(level) = level else {
        let gpu = AdaptiveGpuMog::<T>::new(res, MogParams::new(k), seed, cfg)?;
        return observe(gpu, frames, record);
    };
    let mut gpu = GpuMog::<T>::new(res, MogParams::new(k), level, seed, cfg)?;
    if let Some(tpb) = record.threads_per_block {
        gpu.set_threads_per_block(tpb);
    }
    if record.morphology {
        gpu.enable_morphology()?;
    }
    observe(gpu, frames, record)
}

fn observe<T: DeviceReal, P: KernelPlan>(
    mut gpu: Pipeline<T, P>,
    frames: &[Frame<u8>],
    record: Record,
) -> Result<Outcome, PipelineError> {
    if record.profile {
        gpu.set_profile_mode(ProfileMode::On);
    }
    if record.dataflow {
        gpu.enable_dataflow();
    }
    gpu.set_sanitize(record.sanitize);
    Ok(Outcome {
        run: gpu.process_all(&frames[1..])?,
        profile: gpu.take_profile_report(),
        graph: gpu.dataflow_graph(),
        san: gpu.take_san_report(),
    })
}

fn cmd_info(_: &Args) -> Res {
    let gpu = GpuConfig::tesla_c2075();
    let cpu = CpuConfig::xeon_e5_2620();
    println!("simulated GPU : {}", gpu.name);
    println!("  SMs x cores : {} x {}", gpu.num_sms, gpu.cores_per_sm);
    println!("  clock       : {:.2} GHz", gpu.clock_hz / 1e9);
    println!("  peak f32    : {:.2} TFLOPS", gpu.peak_f32_flops() / 1e12);
    println!("  DRAM        : {:.0} GB/s GDDR5", gpu.dram_peak_bw / 1e9);
    println!("  shared/SM   : {} KB", gpu.shared_mem_per_sm / 1024);
    println!("modelled CPU  : {}", cpu.name);
    println!(
        "  cores       : {} @ {:.1} GHz",
        cpu.cores,
        cpu.clock_hz / 1e9
    );
    println!("  DRAM        : {:.1} GB/s DDR3", cpu.dram_bw / 1e9);
    println!(
        "device presets (mogpu fleet --devices): {}",
        GpuConfig::preset_names().join(", ")
    );
    Ok(())
}

fn cmd_demo(args: &Args) -> Res {
    let out_dir = args.path("--out").expect("--out has a default");
    let n_frames: usize = args.get("--frames");
    let level = level(args)?;

    std::fs::create_dir_all(&out_dir)?;
    let res = Resolution::QVGA;
    let scene = SceneBuilder::new(res)
        .seed(2014)
        .walkers(4)
        .bimodal_fraction(0.05)
        .build();
    let (frames_seq, _) = scene.render_sequence(n_frames);
    let frames = frames_seq.clone().into_frames();

    let record = Record {
        profile: observed(args),
        ..Record::default()
    };
    // The paper's defaults: K = 3, double precision.
    let out = Model { k: 3, f32: false }.run(Some(level), &frames, record)?;
    if let Some(profile) = out.profile {
        write_observed(args, &[profile], &[])?;
    }
    let report = out.run;

    // Snapshots of the last frame.
    let last = report.masks.len() - 1;
    save_pgm(&frames[last + 1], out_dir.join("input_last.pgm"))?;
    save_pgm(&report.masks[last], out_dir.join("mask_last.pgm"))?;
    // Full clips.
    write_y4m(
        &frames_seq,
        30,
        std::fs::File::create(out_dir.join("input.y4m"))?,
    )?;
    write_masks(&report, &out_dir.join("masks.y4m"))?;

    println!("level {} on {res}, {} frames:", level.name(), report.frames);
    println!(
        "  kernel      : {:.3} ms/frame (modelled)",
        1e3 * report.kernel_time_per_frame()
    );
    println!(
        "  end-to-end  : {:.3} ms/frame",
        1e3 * report.gpu_time_per_frame()
    );
    println!("  occupancy   : {:.1}%", 100.0 * report.occupancy.occupancy);
    println!(
        "  branch eff  : {:.1}%",
        100.0 * report.metrics.branch_efficiency
    );
    println!(
        "  memory eff  : {:.1}%",
        100.0 * report.metrics.mem_access_efficiency
    );
    println!(
        "wrote {}/{{input,masks}}.y4m and *_last.pgm",
        out_dir.display()
    );
    Ok(())
}

/// Writes a run's masks as a Y4M clip.
fn write_masks(report: &RunReport, path: &Path) -> Res {
    let mut mask_seq = FrameSequence::new(report.masks[0].resolution());
    for m in &report.masks {
        mask_seq.push(m.clone())?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(write_y4m(&mask_seq, 30, file)?)
}

fn cmd_ladder(args: &Args) -> Res {
    let n_frames: usize = args.get("--frames");
    let model = Model::from(args);
    let json = args.flag("--json");
    let record = if json || observed(args) {
        PROFILED
    } else {
        Record::default()
    };

    let frames = synthetic_frames(n_frames);
    if !json {
        println!(
            "optimization ladder — {}, {} frames, K={}, {}",
            Resolution::QQVGA,
            n_frames - 1,
            model.k,
            model.precision()
        );
        println!(
            "{:<6} {:>10} {:>10} {:>9} {:>9}  bottleneck",
            "level", "kern ms", "e2e ms", "occup", "memEff"
        );
    }
    let mut profiles: Vec<ProfileReport> = Vec::new();
    let mut graphs: Vec<Option<DataflowGraph>> = Vec::new();
    for level in OptLevel::LADDER
        .into_iter()
        .chain([OptLevel::Windowed { group: 8 }])
    {
        let out = model.run(Some(level), &frames, record)?;
        if !json {
            println!(
                "{:<6} {:>10.4} {:>10.4} {:>8.1}% {:>8.1}%  {}",
                level.name(),
                1e3 * out.run.kernel_time_per_frame(),
                1e3 * out.run.gpu_time_per_frame(),
                100.0 * out.run.occupancy.occupancy,
                100.0 * out.run.metrics.mem_access_efficiency,
                out.profile
                    .as_ref()
                    .map(|p| p.bottleneck.to_string())
                    .unwrap_or_default(),
            );
        }
        if let Some(profile) = out.profile {
            profiles.push(profile);
            graphs.push(out.graph);
        }
    }
    if json {
        println!("{}", mogpu::json::to_string_pretty(&profiles)?);
    }
    write_observed(args, &profiles, &graphs)
}

/// Whether an `Observability` output, and so profiling, is requested.
fn observed(args: &Args) -> bool {
    ["--report-out", "--trace-out", "--metrics-out"]
        .iter()
        .any(|flag| args.text(flag).is_some())
}

/// Writes the requested `Observability` outputs of the collected
/// reports, with a per-report dataflow graph (where recorded) whose
/// cross-launch edges become Chrome-trace flow arrows.
fn write_observed(args: &Args, reports: &[ProfileReport], graphs: &[Option<DataflowGraph>]) -> Res {
    if let Some(path) = args.path("--report-out") {
        let json = if reports.len() == 1 {
            mogpu::json::to_string_pretty(&reports[0])?
        } else {
            mogpu::json::to_string_pretty(reports)?
        };
        write_file(&path, json)?;
        println!("wrote profile report to {}", path.display());
    }
    if let Some(path) = args.path("--trace-out") {
        let mut builder = mogpu::sim::chrome_trace::TraceBuilder::new();
        for (i, report) in reports.iter().enumerate() {
            let pid = builder.add_pipeline(&format!("level {}", report.level), &report.schedule);
            builder.add_counters(pid, &report.telemetry);
            builder.add_stall_counters(pid, &report.telemetry, &report.stalls);
            if let Some(Some(graph)) = graphs.get(i) {
                builder.add_dataflow_flows(pid, &report.schedule, graph);
            }
        }
        write_trace(&path, builder)?;
    }
    if let Some(path) = args.path("--metrics-out") {
        write_file(&path, level_exposition(reports))?;
        println!("wrote Prometheus metrics to {}", path.display());
    }
    Ok(())
}

fn write_trace(path: &Path, builder: mogpu::sim::chrome_trace::TraceBuilder) -> Res {
    write_file(path, mogpu::json::to_string_pretty(&builder.finish())?)?;
    println!(
        "wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
        path.display()
    );
    Ok(())
}

/// Telemetry of per-level profile reports, kernel gauges included, as
/// one Prometheus exposition.
fn level_exposition(reports: &[ProfileReport]) -> String {
    let pipelines: Vec<_> = reports
        .iter()
        .map(|r| {
            (
                format!("level {}", r.level),
                &r.telemetry,
                Some(mogpu::sim::KernelGauges::new(&r.metrics, &r.occupancy)),
            )
        })
        .collect();
    mogpu::sim::telemetry::prometheus(&pipelines)
}

/// Fails when `mode`, a flag that switches the command into another
/// mode, is given together with one of the `ignored` flags that mode
/// would silently drop.
fn reject_ignored(args: &Args, mode: &str, ignored: &[&str]) -> Res {
    match ignored.iter().find(|f| args.flag(mode) && args.flag(f)) {
        Some(f) => Err(format!("{f} has no effect with {mode}; drop one of them").into()),
        None => Ok(()),
    }
}

fn cmd_run(args: &Args) -> Res {
    reject_ignored(args, "--input", &["--frames"])?;
    let level = level(args)?;
    let model = Model::from(args);
    if args.text("--input").is_none() {
        let n_frames: usize = args.get("--frames");
        let res = Resolution::QQVGA;
        println!("no --input given: synthetic scene, {n_frames} frames at {res}");
    }
    let frames = input_frames(args)?;

    let record = if observed(args) {
        PROFILED
    } else {
        Record::default()
    };
    let out = model.run(Some(level), &frames, record)?;
    if let Some(profile) = out.profile {
        write_observed(args, &[profile], &[out.graph])?;
    }
    let report = out.run;

    println!("level {} results:", level.name());
    println!(
        "  kernel     : {:.3} ms/frame (modelled Tesla C2075)",
        1e3 * report.kernel_time_per_frame()
    );
    println!(
        "  end-to-end : {:.3} ms/frame",
        1e3 * report.gpu_time_per_frame()
    );
    println!(
        "  foreground : {:.2}% of pixels (mean)",
        100.0 * report.masks.iter().map(|m| m.fraction_set()).sum::<f64>()
            / report.masks.len() as f64
    );
    if let Some(path) = args.path("--output") {
        write_masks(&report, &path)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Res {
    reject_ignored(args, "--input", &["--frames"])?;
    let level = level(args)?;
    let model = Model::from(args);
    let out = model.run(Some(level), &input_frames(args)?, PROFILED)?;
    let profile = out.profile.expect("profiling was enabled");
    print!("{}", profile.text(args.get("--top")));
    write_observed(args, &[profile], &[out.graph])
}

fn cmd_advise(args: &Args) -> Res {
    let json = args.flag("--json");
    let profile_only = ["--level", "--frames", "--tpb", "--top", "--k", "--float"];
    reject_ignored(args, "--fleet-report", &profile_only)?;
    if let Some(path) = args.path("--fleet-report") {
        return advise_fleet(&path, json);
    }
    let level = level(args)?;
    let model = Model::from(args);
    let top: usize = args.get("--top");

    // The dataflow graph lets the advisor see producer->consumer byte
    // overlap; morphology gives the MoG kernel a downstream consumer,
    // as in the paper's full pipeline. Per-kernel metrics are unaffected.
    let record = Record {
        morphology: true,
        threads_per_block: args.number("--tpb"),
        ..PROFILED
    };
    let frames = synthetic_frames(args.get("--frames"));
    let profile = match model.run(Some(level), &frames, record) {
        Ok(out) => out.profile.expect("profiling was enabled"),
        Err(PipelineError::Launch(e)) => {
            // The kernel never became resident: emit the structured
            // diagnostic the rules engine defines for this case, then
            // exit nonzero (invalid input, not a finding).
            let advisory = mogpu::sim::advisor::unlaunchable_advisory(&e.to_string());
            if json {
                let doc = mogpu::json::json!({
                    "level": level.name(),
                    "launchable": false,
                    "error": e.to_string(),
                    "advisories": [advisory],
                });
                println!("{}", mogpu::json::to_string_pretty(&doc)?);
            } else {
                println!("advisor — level {}: kernel is unlaunchable", level.name());
                print_advisory(1, &advisory);
            }
            return Err(format!("kernel launch rejected: {e}").into());
        }
        Err(e) => return Err(e.into()),
    };

    if json {
        let advisories = &profile.advisories[..top.min(profile.advisories.len())];
        let doc = mogpu::json::json!({
            "level": level.name(),
            "launchable": true,
            "frames": profile.frames,
            "bottleneck": profile.bottleneck.to_string(),
            "kernel_time_s": profile.timing.total,
            "roofline": profile.roofline,
            "stalls": profile.stalls,
            "dma_starvation_s": profile.dma_starvation,
            "advisories": advisories,
        });
        println!("{}", mogpu::json::to_string_pretty(&doc)?);
        return Ok(());
    }

    println!(
        "advisor — level {}, {} frames, K={}, {}",
        level.name(),
        profile.frames,
        model.k,
        model.precision()
    );
    println!("  bottleneck : {}", profile.bottleneck);
    let roof = &profile.roofline;
    println!(
        "  roofline   : {:.3} FLOP/B, {:.2} GFLOP/s of {:.2} GFLOP/s {} ceiling",
        roof.arithmetic_intensity,
        roof.achieved_flops / 1e9,
        roof.ceiling_flops / 1e9,
        if roof.compute_bound {
            "compute"
        } else {
            "memory"
        },
    );
    let (reason, secs) = profile.stalls.dominant();
    println!(
        "  stalls     : {reason} dominates at {:.3} ms of {:.3} ms kernel time",
        1e3 * secs,
        1e3 * profile.stalls.sum(),
    );
    if profile.dma_starvation > 0.0 {
        println!(
            "  starvation : compute engine idle {:.3} ms waiting on DMA",
            1e3 * profile.dma_starvation
        );
    }
    if profile.advisories.is_empty() {
        println!("no advisories: the profiled run is at the modelled optimum");
    }
    for (i, advisory) in profile.advisories.iter().take(top).enumerate() {
        print_advisory(i + 1, advisory);
    }
    Ok(())
}

/// `mogpu advise --fleet-report FILE.json`: replay the fleet dispatcher
/// from a recorded report and rank the device classes to add next.
fn advise_fleet(path: &Path, json: bool) -> Res {
    let report: mogpu::sim::fleet::FleetReport = read_report(path, "report", "fleet")?;
    let advisories = mogpu::sim::fleet::advise_fleet(&report);
    if json {
        let doc = mogpu::json::json!({
            "devices": report.devices.len(),
            "streams_total": report.streams_total(),
            "streams_admitted": report.streams_admitted(),
            "streams_at_slo": report.streams_at_slo(),
            "frames_dropped": report.frames_dropped(),
            "advisories": advisories,
        });
        println!("{}", mogpu::json::to_string_pretty(&doc)?);
        return Ok(());
    }
    println!(
        "fleet advisor — {} device(s), {}/{} streams admitted, {} at SLO, {} frame(s) dropped",
        report.devices.len(),
        report.streams_admitted(),
        report.streams_total(),
        report.streams_at_slo(),
        report.frames_dropped(),
    );
    if advisories.is_empty() {
        println!("no device classes to evaluate");
    }
    for (i, a) in advisories.iter().enumerate() {
        print_fleet_advisory(i + 1, a);
    }
    Ok(())
}

fn print_advisory(rank: usize, a: &mogpu::sim::Advisory) {
    println!(
        "\n#{rank} {} -> {:?}: est. {:.3} ms saved ({:.2}x)",
        a.rule,
        a.transform,
        1e3 * a.estimated_benefit_s,
        a.estimated_speedup,
    );
    println!("   {}", a.finding);
    if !a.evidence.is_empty() {
        let ev: Vec<String> = a
            .evidence
            .iter()
            .map(|e| {
                if e.value.abs() >= 1000.0 && e.value.fract() == 0.0 {
                    format!("{}={:.0}", e.metric, e.value)
                } else {
                    format!("{}={:.4}", e.metric, e.value)
                }
            })
            .collect();
        println!("   evidence: {}", ev.join(", "));
    }
    for site in &a.sites {
        println!("   site: {site}");
    }
}

fn cmd_diff(args: &Args) -> Res {
    let [a, b] = args.operands() else {
        unreachable!("diff declares two operands")
    };
    let top: usize = args.get("--top");
    let name = args.text("--config").expect("--config has a default");
    let cfg = GpuConfig::preset(name).ok_or_else(|| {
        format!(
            "unknown --config {name:?}; presets: {}",
            GpuConfig::preset_names().join(", ")
        )
    })?;
    let (doc_a, doc_b) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    let report = mogpu::sim::diff_values(&doc_a, &doc_b, a, b, &cfg)?;

    if let Some(path) = args.path("--out") {
        write_file(
            &path,
            mogpu::json::to_string_canonical_pretty(&report)? + "\n",
        )?;
        eprintln!("wrote diff report to {}", path.display());
    }
    if let Some(path) = args.path("--dot-out") {
        let Some(df) = &report.dataflow else {
            return Err(
                "--dot-out needs two dataflow graph documents (`mogpu dataflow --json`)".into(),
            );
        };
        write_file(&path, df.to_dot())?;
        eprintln!("wrote dataflow diff overlay to {}", path.display());
    }
    if let Some(path) = args.path("--metrics-out") {
        write_file(&path, report.prometheus(top))?;
        eprintln!("wrote diff metrics to {}", path.display());
    }
    if args.flag("--json") {
        println!("{}", mogpu::json::to_string_canonical_pretty(&report)?);
    } else {
        print!("{}", report.text(top));
    }
    Ok(())
}

fn cmd_dataflow(args: &Args) -> Res {
    let level = level(args)?;
    let model = Model::from(args);
    let dot_out = args.path("--dot-out");

    let record = Record {
        dataflow: true,
        morphology: true,
        ..Record::default()
    };
    let frames = synthetic_frames(args.get("--frames"));
    let out = model.run(Some(level), &frames, record)?;
    let graph = out.graph.expect("dataflow was enabled");

    if let Some(path) = &dot_out {
        write_file(path, graph.to_dot())?;
        println!("wrote dataflow DOT to {}", path.display());
    }
    if let Some(path) = args.path("--metrics-out") {
        write_file(&path, graph.prometheus())?;
        println!("wrote dataflow Prometheus counters to {}", path.display());
    }
    if args.flag("--json") {
        println!(
            "{}",
            mogpu::json::to_string_canonical_pretty(&graph.to_json())?
        );
    } else if dot_out.is_none() {
        print!("{}", graph.to_dot());
    }
    Ok(())
}

/// The `Serving` flags plus `--frames`: N synthetic cameras under an SLO.
struct Serving {
    streams: usize,
    frames: usize,
    buffers: usize,
    fps: f64,
    slo: SloConfig,
    window_s: f64,
}

impl Serving {
    fn from(args: &Args) -> Serving {
        Serving {
            streams: args.get("--streams"),
            frames: args.get("--frames"),
            buffers: args.get("--buffers"),
            fps: args.get("--fps"),
            slo: SloConfig {
                deadline_s: args.get::<f64>("--slo-ms") / 1e3,
                error_budget: args.get("--error-budget"),
            },
            window_s: args.get::<f64>("--window-ms") / 1e3,
        }
    }

    /// One distinct synthetic scene per camera.
    fn scenes(&self) -> Vec<Vec<Frame<u8>>> {
        (0..self.streams)
            .map(|s| {
                SceneBuilder::new(Resolution::QQVGA)
                    .seed(100 + s as u64)
                    .walkers(2 + s % 3)
                    .build()
                    .render_sequence(self.frames)
                    .0
                    .into_frames()
            })
            .collect()
    }

    fn arrivals(&self) -> String {
        if self.fps > 0.0 {
            format!(", arrivals at {:.0} fps", self.fps)
        } else {
            ", offline".into()
        }
    }
}

fn cmd_streams(args: &Args) -> Res {
    let level = level(args)?;
    let model = Model::from(args);
    let s = Serving::from(args);

    let report = model.streams(level, &s)?;
    let doc = streams_json_doc(&report, &s, level);
    if args.flag("--json") {
        println!("{}", mogpu::json::to_string_pretty(&doc)?);
    } else {
        println!(
            "{} streams x {} frames, level {}, {} buffers/stream{}",
            s.streams,
            s.frames - 1,
            level.name(),
            s.buffers,
            s.arrivals()
        );
        println!(
            "{:<8} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9} {:>6} {:>10} {:>9}",
            "stream",
            "frames",
            "mean ms",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "max ms",
            "viol",
            "done s",
            "fps"
        );
        for (i, r) in report.per_stream.iter().enumerate() {
            println!(
                "{:<8} {:>7} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6} {:>10.4} {:>9.1}",
                format!("s{i}"),
                r.frames,
                1e3 * r.latency.mean,
                1e3 * r.latency.p50,
                1e3 * r.latency.p95,
                1e3 * r.latency.p99,
                1e3 * r.latency.max,
                report.serving.streams[i].slo_violations,
                r.completion,
                r.fps
            );
        }
        println!(
            "aggregate: {} frames in {:.4} s = {:.1} fps, compute engine {:.1}% busy",
            report.total_frames,
            report.makespan,
            report.aggregate_fps,
            100.0 * report.kernel_utilization
        );
        println!(
            "slo: {:.1} ms deadline, {}/{} streams at SLO, {} violation(s), {} windows of {:.1} ms",
            1e3 * s.slo.deadline_s,
            report.serving.streams_at_slo(),
            s.streams,
            report.serving.total_violations(),
            report.serving.snapshots.len(),
            1e3 * report.serving.window_s,
        );
    }

    if let Some(path) = args.path("--events-out") {
        write_events(&path, &report.serving.events)?;
    }
    if let Some(path) = args.path("--report-out") {
        write_file(&path, mogpu::json::to_string_pretty(&doc)?)?;
        println!("wrote multi-stream report to {}", path.display());
    }
    let label = format!("{} streams, level {}", s.streams, level.name());
    if let Some(path) = args.path("--trace-out") {
        let mut builder = mogpu::sim::chrome_trace::TraceBuilder::new();
        let pid = builder.add_multi_stream(&label, &report.schedule);
        builder.add_counters(pid, &report.telemetry);
        write_trace(&path, builder)?;
    }
    // Stream aggregates have no single-kernel identity, so no kernel gauges.
    let exposition =
        || mogpu::sim::telemetry::prometheus(&[(label.clone(), &report.telemetry, None)]);
    if let Some(path) = args.path("--metrics-out") {
        write_file(&path, exposition())?;
        println!("wrote Prometheus metrics to {}", path.display());
    }
    if let Some(addr) = args.text("--serve-metrics") {
        let server = MetricsServer::bind(addr, report.serving, replay_s(args))
            .map(|server| server.with_extra_exposition(exposition()));
        serve(server, addr, args)?;
    }
    Ok(())
}

fn write_events(path: &Path, events: &[ServingEvent]) -> Res {
    let mut writer = mogpu::sim::serving::EventLogWriter::create(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writer
        .write_events(events)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} serving events to {}",
        events.len(),
        path.display()
    );
    Ok(())
}

/// Machine-readable multi-stream report document: run shape, aggregate
/// and per-stream latency summaries (with exact percentiles), and the
/// full serving report (SLO accounting, windowed snapshots, event log).
fn streams_json_doc(
    report: &MultiStreamReport,
    s: &Serving,
    level: OptLevel,
) -> mogpu::json::Value {
    let streams: Vec<mogpu::json::Value> = report
        .per_stream
        .iter()
        .enumerate()
        .map(|(i, r)| {
            mogpu::json::json!({
                "stream": i,
                "frames": r.frames,
                "kernel_s": r.kernel_time_total,
                "latency_mean_ms": 1e3 * r.latency.mean,
                "latency_p50_ms": 1e3 * r.latency.p50,
                "latency_p95_ms": 1e3 * r.latency.p95,
                "latency_p99_ms": 1e3 * r.latency.p99,
                "latency_p999_ms": 1e3 * r.latency.p999,
                "latency_max_ms": 1e3 * r.latency.max,
                "slo_violations": report.serving.streams[i].slo_violations,
                "completion_s": r.completion,
                "fps": r.fps,
            })
        })
        .collect();
    mogpu::json::json!({
        "streams": s.streams,
        "frames_per_stream": s.frames - 1,
        "level": level.name(),
        "buffers_per_stream": s.buffers,
        "arrival_fps": s.fps,
        "slo_deadline_ms": 1e3 * s.slo.deadline_s,
        "slo_error_budget": s.slo.error_budget,
        "total_frames": report.total_frames,
        "makespan_s": report.makespan,
        "aggregate_fps": report.aggregate_fps,
        "kernel_utilization": report.kernel_utilization,
        "streams_at_slo": report.serving.streams_at_slo(),
        "slo_violations_total": report.serving.total_violations(),
        "per_stream": streams,
        "serving": report.serving,
    })
}

/// `--replay-ms` in seconds.
fn replay_s(args: &Args) -> f64 {
    args.get::<f64>("--replay-ms") / 1e3
}

/// Serves a just-bound scrape endpoint for `--serve-seconds` (0 = until
/// interrupted).
fn serve(server: std::io::Result<MetricsServer>, addr: &str, args: &Args) -> Res {
    let server = server.map_err(|e| format!("bind {addr}: {e}"))?;
    let serve_seconds: f64 = args.get("--serve-seconds");
    println!(
        "serving /metrics on http://{} ({})",
        server.local_addr(),
        if serve_seconds > 0.0 {
            format!("for {serve_seconds:.0} s")
        } else {
            "until interrupted".into()
        }
    );
    let handled = server
        .serve_for(serve_seconds)
        .map_err(|e| format!("serve: {e}"))?;
    println!("served {handled} request(s)");
    Ok(())
}

fn cmd_fleet(args: &Args) -> Res {
    let level = level(args)?;
    let model = Model::from(args);
    let s = Serving::from(args);

    let run = model.fleet(level, &s, args)?;
    let report = &run.report;
    let doc = mogpu::json::json!({
        "streams": s.streams,
        "frames_per_stream": s.frames - 1,
        "level": level.name(),
        "buffers_per_stream": s.buffers,
        "arrival_fps": s.fps,
        "slo_deadline_ms": 1e3 * s.slo.deadline_s,
        "slo_error_budget": s.slo.error_budget,
        "streams_admitted": report.streams_admitted(),
        "streams_shed": report.shed.len(),
        "streams_at_slo": report.streams_at_slo(),
        "frames_dropped": report.frames_dropped(),
        "makespan_s": report.makespan_s,
        "report": report,
        "advisories": run.advisories,
    });
    if args.flag("--json") {
        println!("{}", mogpu::json::to_string_pretty(&doc)?);
    } else {
        println!(
            "fleet: {} device(s), {} streams x {} frames, level {}{}",
            report.devices.len(),
            s.streams,
            s.frames - 1,
            level.name(),
            s.arrivals()
        );
        println!(
            "{:<12} {:<10} {:>7} {:>6} {:>14} {:>7} {:>10}",
            "device", "class", "streams", "load", "mem MB", "at-SLO", "makespan s"
        );
        for d in &report.devices {
            println!(
                "{:<12} {:<10} {:>7} {:>6.2} {:>7.1}/{:<6.0} {:>4}/{:<2} {:>10.4}",
                d.label,
                report.classes[d.class].key,
                d.admitted.len(),
                d.load,
                d.mem_used as f64 / (1024.0 * 1024.0),
                d.mem_budget as f64 / (1024.0 * 1024.0),
                d.serving.streams_at_slo(),
                d.admitted.len(),
                d.serving.makespan_s,
            );
        }
        for shed in &report.shed {
            println!(
                "shed: stream {} ({}; nearest miss {}), {} frame(s) dropped",
                shed.stream, shed.reason, report.devices[shed.device].label, shed.frames
            );
        }
        println!(
            "fleet: {}/{} streams admitted, {} at SLO ({:.1} ms deadline), {} frame(s) dropped, makespan {:.4} s",
            report.streams_admitted(),
            report.streams_total(),
            report.streams_at_slo(),
            1e3 * s.slo.deadline_s,
            report.frames_dropped(),
            report.makespan_s,
        );
        if run.advisories.is_empty() {
            println!("advisor: no device classes to evaluate");
        }
        for (i, a) in run.advisories.iter().enumerate() {
            print_fleet_advisory(i + 1, a);
        }
    }

    if let Some(path) = args.path("--events-out") {
        write_events(&path, &report.all_events())?;
    }
    if let Some(path) = args.path("--report-out") {
        write_file(&path, mogpu::json::to_string_pretty(&doc)?)?;
        println!("wrote fleet report to {}", path.display());
    }
    if let Some(addr) = args.text("--serve-metrics") {
        let server = MetricsServer::bind_fleet(addr, run.report, replay_s(args));
        serve(server, addr, args)?;
    }
    Ok(())
}

fn print_fleet_advisory(rank: usize, a: &mogpu::sim::fleet::FleetAdvisory) {
    println!(
        "advisor #{rank} add {:?}: {:+} stream(s) at SLO (-> {}), {:+} dropped frame(s) (-> {})",
        a.class,
        a.streams_at_slo_gain,
        a.streams_at_slo_after,
        -a.frames_dropped_cut,
        a.frames_dropped_after,
    );
    println!("   {}", a.finding);
}

fn cmd_serve(args: &Args) -> Res {
    let path = args
        .path("--report")
        .ok_or("serve needs --report FILE.json (see `mogpu help`)")?;
    let addr = args.text("--addr").expect("--addr has a default");
    let serving: mogpu::sim::serving::ServingReport = read_report(&path, "serving", "serving")?;
    println!(
        "replaying {}: device {:?}, {} stream(s), {} snapshot(s), {:.4} s makespan",
        path.display(),
        serving.device,
        serving.streams.len(),
        serving.snapshots.len(),
        serving.makespan_s
    );
    serve(
        MetricsServer::bind(addr, serving, replay_s(args)),
        addr,
        args,
    )
}

fn cmd_metrics(args: &Args) -> Res {
    let level = level(args)?;
    let frames = synthetic_frames(args.get("--frames"));
    let out = Model::from(args).run(Some(level), &frames, PROFILED)?;
    let text = level_exposition(&[out.profile.expect("profiling was enabled")]);
    match args.path("--out") {
        Some(path) => {
            write_file(&path, text)?;
            println!("wrote Prometheus metrics to {}", path.display());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_bench_record(args: &Args) -> Res {
    let out = args.path("--out").expect("--out has a default");
    let standard = mogpu::bench::BenchConfig::default();
    let cfg = mogpu::bench::BenchConfig {
        frames: args.number("--frames").unwrap_or(standard.frames),
        k: args.number("--k").unwrap_or(standard.k),
        streams: args.number("--streams").unwrap_or(standard.streams),
    };

    let mut baseline = mogpu::bench::baseline::measure(&cfg, mogpu::bench::Tolerances::default());
    // Per-level slim profile reports next to the baseline: the stored
    // side of the attribution a failing `bench check` emits.
    mogpu::bench::baseline::attach_reports(&mut baseline, &out)?;
    mogpu::bench::baseline::write_baseline(&baseline, &out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "recorded baseline ({} ladder levels + {}-stream run, {} frames, K={}) to {}",
        baseline.levels.len(),
        cfg.streams,
        cfg.frames - 1,
        cfg.k,
        out.display()
    );
    println!(
        "recorded {} per-level profile reports under {}",
        baseline.reports.len(),
        out.parent()
            .unwrap_or(Path::new("."))
            .join("reports")
            .display()
    );
    Ok(())
}

fn cmd_bench_check(args: &Args) -> Res {
    let path = args.path("--baseline").expect("--baseline has a default");

    let baseline = mogpu::bench::baseline::read_baseline(&path)?;
    // Re-measure with the *baseline's* recorded workload shape so the
    // comparison is apples to apples even if the defaults have moved.
    let current = mogpu::bench::baseline::measure(&baseline.config, baseline.tolerances);
    let report = mogpu::bench::baseline::check(&baseline, &current);
    if args.flag("--json") {
        println!("{}", mogpu::json::to_string_pretty(&report)?);
    } else {
        println!("{}", mogpu::bench::baseline::render_table(&report));
    }
    if report.pass {
        return Ok(());
    }
    // Attribute the drift before failing: stored per-level reports vs
    // fresh profiles, through the differential engine. The text goes to
    // stderr (CI logs), the canonical JSON next to the baseline (CI
    // artifacts).
    match mogpu::bench::baseline::attribute_failures(&baseline, &report, &path) {
        Ok(Some(diff_report)) => {
            let diff_path = args
                .path("--diff-out")
                .unwrap_or_else(|| path.parent().unwrap_or(Path::new(".")).join("diff.json"));
            let text = mogpu::json::to_string_canonical_pretty(&diff_report)?;
            if let Err(e) = std::fs::write(&diff_path, text + "\n") {
                eprintln!("warning: cannot write {}: {e}", diff_path.display());
            } else {
                eprintln!("wrote drift attribution to {}", diff_path.display());
            }
            eprint!("{}", diff_report.text(10));
        }
        Ok(None) => {}
        Err(e) => eprintln!("warning: drift attribution failed: {e}"),
    }
    Err(format!("performance drifted beyond tolerance of {}", path.display()).into())
}

fn cmd_check(args: &Args) -> Res {
    let n_frames: usize = args.get("--frames");
    let model = Model::from(args);

    let scene = qqvga_scene();
    let frames = scene.render_sequence(n_frames).0.into_frames();
    let (_, truth_mask) = scene.render(n_frames / 2);

    let sanitized = Record {
        sanitize: true,
        ..Record::default()
    };
    let mut results: Vec<(String, SanReport)> = Vec::new();
    let levels = OptLevel::LADDER
        .into_iter()
        .chain([OptLevel::Windowed { group: 8 }])
        .map(Some);
    for level in levels.chain([None]) {
        let name = level.map_or("adaptive".into(), |l| format!("level {}", l.name()));
        let out = model.run(level, &frames, sanitized)?;
        results.push((name, out.san.expect("sanitize was on")));
    }
    for (name, op) in [
        ("morph erode", mogpu::core::kernels::MorphOp::Erode),
        ("morph dilate", mogpu::core::kernels::MorphOp::Dilate),
    ] {
        let (_, report) = mogpu::core::kernels::gpu_morph_with(
            &truth_mask,
            op,
            &GpuConfig::tesla_c2075(),
            mogpu::sim::LaunchOptions {
                sanitize: true,
                ..Default::default()
            },
        )?;
        let report = report.sanitizer.expect("sanitize was requested");
        results.push((name.into(), report));
    }

    let total: usize = results.iter().map(|(_, r)| r.len()).sum();
    if args.flag("--json") {
        let targets: Vec<mogpu::json::Value> = results
            .iter()
            .map(|(name, report)| {
                mogpu::json::json!({
                    "target": name.as_str(),
                    "report": report,
                })
            })
            .collect();
        let doc = mogpu::json::json!({
            "frames": n_frames - 1,
            "k": model.k,
            "clean": total == 0,
            "findings": total as u64,
            "targets": targets,
        });
        println!("{}", mogpu::json::to_string_pretty(&doc)?);
    } else {
        println!(
            "sanitizer sweep — {}, {} frames, K={}, {}",
            Resolution::QQVGA,
            n_frames - 1,
            model.k,
            model.precision()
        );
        for (name, report) in &results {
            if report.is_clean() {
                println!("{name:<14} clean");
            } else {
                println!("{name:<14} {} finding(s):", report.len());
                print!("{}", report.table());
            }
        }
    }
    if total > 0 {
        return Err(format!("sanitizer reported {total} finding(s)").into());
    }
    Ok(())
}

fn run_streams<T: DeviceReal>(k: usize, level: OptLevel, s: &Serving) -> Res<MultiStreamReport> {
    let scenes = s.scenes();
    let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
    let cfg = GpuConfig::tesla_c2075();
    let mut multi =
        MultiGpuMog::<T>::new(Resolution::QQVGA, MogParams::new(k), level, &seeds, cfg)?
            .with_buffers(s.buffers)
            .with_slo(s.slo)
            .with_window(s.window_s);
    if s.fps > 0.0 {
        multi = multi.with_arrival_period(1.0 / s.fps);
    }
    let frames: Vec<Vec<Frame<u8>>> = scenes.iter().map(|f| f[1..].to_vec()).collect();
    Ok(multi.process_all(&frames)?)
}

/// Shards `s`'s streams across the `--devices` fleet.
fn run_fleet<T: DeviceReal>(
    k: usize,
    level: OptLevel,
    s: &Serving,
    args: &Args,
) -> Res<FleetRunReport> {
    let devices = args.text("--devices").expect("--devices has a default");
    let keys: Vec<&str> = devices
        .split(',')
        .map(str::trim)
        .filter(|k| !k.is_empty())
        .collect();
    if keys.is_empty() {
        let presets = GpuConfig::preset_names().join(", ");
        return Err(format!("--devices needs at least one preset key (one of: {presets})").into());
    }
    let scenes = s.scenes();
    let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
    let params = MogParams::new(k);
    let mut fleet = FleetPipeline::<T>::new(Resolution::QQVGA, params, level, &seeds, &keys)?
        .with_buffers(s.buffers)
        .with_slo(s.slo)
        .with_window(s.window_s)
        .with_headroom(args.get("--headroom"));
    if s.fps > 0.0 {
        fleet = fleet.with_arrival_period(1.0 / s.fps);
    }
    if let Some(mb) = args.number::<f64>("--device-mem-mb") {
        fleet = fleet.with_device_mem((mb * 1024.0 * 1024.0) as usize);
    }
    let frames: Vec<Vec<Frame<u8>>> = scenes.iter().map(|f| f[1..].to_vec()).collect();
    Ok(fleet.process_all(&frames)?)
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;

    #[test]
    fn every_flag_table_is_consistent() {
        for command in &COMMANDS {
            let checked = command.check_table();
            checked.unwrap_or_else(|e| panic!("{}: {e}", command.name));
        }
    }
}
