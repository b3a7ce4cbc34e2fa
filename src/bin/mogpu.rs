//! `mogpu` — command-line background subtraction on the simulated GPU.
//!
//! ```text
//! mogpu info                      # print the simulated hardware
//! mogpu demo --out demo_out       # synthetic scene -> masks (PGM + Y4M)
//! mogpu ladder --frames 24        # climb optimization levels A..F, W(8)
//! mogpu run -i in.y4m -o out.y4m  # subtract a real Y4M capture
//! ```

use mogpu::frame::{save_pgm, write_y4m};
use mogpu::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(),
        Some("demo") => cmd_demo(&args[1..]),
        Some("ladder") => cmd_ladder(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("advise") => cmd_advise(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("dataflow") => cmd_dataflow(&args[1..]),
        Some("streams") => cmd_streams(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `mogpu help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "mogpu — GPU-optimized MoG background subtraction (ICPP'14 reproduction)

COMMANDS:
    info      Print the simulated GPU/CPU hardware configuration
    demo      Render a synthetic scene and write input/mask clips
    ladder    Climb optimization levels A..F, W(8) and print a table
    run       Background-subtract a Y4M clip (or a synthetic scene)
    profile   Hotspot table, roofline bounds, bottleneck classification
    advise    Ranked optimization advisories from stall/roofline analysis
    diff      Differential profiling: attribute the delta between two runs
    dataflow  Cross-kernel memory-flow graph: who produces what, who reads it
    streams   Serve N camera streams from one device, CUDA-streams style
    fleet     Shard N streams across M heterogeneous simulated devices
    serve     Replay a serving report on a Prometheus scrape endpoint
    check     Sanitizer sweep over every shipped kernel
    metrics   Emit time-resolved telemetry in Prometheus text format
    bench     Record / check the performance-regression baseline
    help      Show this help

USAGE:
    mogpu info
        Print the simulated GPU/CPU hardware configuration.

    mogpu demo [--out DIR] [--frames N] [--level L]
        Render a synthetic surveillance scene, subtract its background,
        and write input/mask PGM snapshots plus Y4M clips into DIR
        (default: mogpu_demo). L is one of A B C D E F W8 (default F).

    mogpu ladder [--frames N] [--k K] [--float] [--json]
        Climb the paper's optimization ladder on a synthetic scene and
        print per-level performance (default: 24 frames, K=3, double).
        --json prints the per-level profile reports as a JSON array.

    mogpu run [--input IN.y4m] [--output OUT.y4m] [--level L] [--k K]
              [--frames N] [--float]
        Background-subtract a YUV4MPEG2 clip; writes the mask sequence
        as Y4M when --output is given, else prints per-frame stats.
        Without --input, runs on a synthetic scene of N frames
        (default 16) — handy for exercising the observability outputs.

    mogpu profile [--level L] [--frames N] [--k K] [--float] [--top N]
                  [--input IN.y4m]
        Run with the source-attributed profiler on and print the hotspot
        table, roofline bounds, and bottleneck classification (default:
        level F on a synthetic QQVGA scene, top 10 hotspots).

    mogpu advise [--level L] [--frames N] [--k K] [--float] [--tpb T]
                 [--top N] [--json]
        Analyze a profiled run with the guided-analysis advisor: decompose
        the modelled kernel time into warp stall reasons, place the kernel
        on the roofline, and print ranked advisories (finding, file:line
        evidence, recommended transform, modelled benefit). At each ladder
        level the top advisory names the paper's next optimization. --tpb
        overrides the launch block size; an unlaunchable configuration is
        reported as a structured diagnostic and exits nonzero (findings
        alone never do). Default: level A, 16 frames, K=3, double.
        With --fleet-report FILE.json (a `mogpu fleet --report-out` or
        --json document), instead replays the fleet dispatcher with one
        extra device of each class and prints which device class to add
        next, ranked by the whole-run streams-at-SLO it would buy.

    mogpu diff A.json B.json [--json] [--top N] [--out FILE.json]
               [--dot-out FILE.dot] [--metrics-out FILE.prom] [--config P]
        Differential profiling: diff two serialized reports of the same
        kind — profile reports (`--report-out`, single or ladder array),
        streams/serving reports, fleet reports, bench baselines, or
        dataflow graph JSON — and attribute the movement. For profile
        reports the kernel-time delta is decomposed through the stall
        reason buckets (the bucket deltas sum to the kernel delta
        exactly), per-site deltas carry file:line evidence, and each
        counter set is priced by a counterfactual re-run of the timing
        model (swap one counter at a time, the advisor's machinery).
        Histogram-carrying reports diff per bucket plus p50/p95/p99
        shifts; dataflow graphs get a what-changed overlay (--dot-out
        writes Graphviz DOT with grown edges red, shrunk green). --json
        prints the canonical byte-stable DiffReport, --out writes it,
        --metrics-out writes mogpu_diff_* Prometheus gauges, --top
        bounds the text tables (default 10), --config picks the device
        preset used for counterfactual re-timing (default c2075).

    mogpu dataflow [--level L] [--frames N] [--k K] [--float] [--json]
                   [--dot-out FILE.dot] [--metrics-out FILE.prom]
        Trace every global-memory access of a profiled synthetic run
        (MoG update followed by the morphology open) and stitch the
        per-launch read/write sets into a producer->consumer dataflow
        graph: nodes are launches, edges carry the bytes stored by one
        launch and loaded by the next, and every node accounts for its
        stores exactly (consumed + dead + live-at-exit). Prints
        Graphviz DOT to stdout by default; --json emits the canonical
        JSON document (byte-stable across runs), --dot-out/--metrics-out
        write the DOT and Prometheus counter forms to files. The same
        graph feeds `mogpu advise`, where the fat MoG->morphology edge
        surfaces as a kernel-fusion advisory once the per-kernel ladder
        is exhausted. Default: level F, 16 frames, K=3, double.

    mogpu streams [--streams N] [--frames M] [--level L] [--k K] [--float]
                  [--buffers B] [--fps R] [--json] [--slo-ms D]
                  [--error-budget E] [--window-ms W] [--events-out FILE.jsonl]
                  [--serve-metrics HOST:PORT] [--serve-seconds S]
                  [--replay-ms R]
        Serve N independent synthetic camera streams (distinct scenes)
        from one simulated device, CUDA-streams style: per-stream model
        state, shared compute/copy engines, B in-flight buffers per
        stream (default 2 = double buffering). --fps R paces each stream
        at R frames/s arrival (a live camera; default: offline, frames
        available up front). Prints per-stream latency (mean and exact
        p50/p95/p99 percentiles) and aggregate throughput; --json emits
        the same machine-readably, including the full serving report.
        Serving observability: every frame's end-to-end latency is
        judged against an SLO of D ms (default 40) with error budget E
        (default 0.01); the run is cut into schedule-clock windows of W
        ms (default: makespan/8) with cumulative counters monotone
        across windows. --events-out writes the JSONL event log
        (frame_admitted / launch / frame_completed / slo_violation with
        device+stream+site attribution). --serve-metrics binds a
        dependency-free HTTP endpoint and replays the window snapshots
        on /metrics (one window per --replay-ms of wall time, default
        500), for --serve-seconds S (default 0 = until interrupted).

    mogpu fleet [--devices LIST] [--streams N] [--frames M] [--level L]
                [--k K] [--float] [--buffers B] [--fps R] [--json]
                [--slo-ms D] [--error-budget E] [--window-ms W]
                [--headroom H] [--device-mem-mb MB] [--report-out FILE.json]
                [--events-out FILE.jsonl] [--serve-metrics HOST:PORT]
                [--serve-seconds S] [--replay-ms R]
        Shard N synthetic camera streams across a fleet of heterogeneous
        simulated devices. --devices is a comma-separated list of preset
        keys (c2075, c2075-l2, k20, embedded, hbm; repeat a key for more
        instances of that class; default c2075,embedded,hbm). Streams
        are priced per class (one-frame probes) and placed greedily by
        modelled load under per-device memory budgets; streams no device
        can admit are *shed* — every frame becomes an attributed
        frame_dropped event instead of an out-of-memory error.
        --device-mem-mb overrides every device's memory budget (the
        oversubscription lever), --headroom the load admission ceiling
        (default 1.0). Prints per-device load/memory/SLO attainment,
        shed streams, and the which-device-to-add-next advisory; --json
        emits the full fleet report machine-readably. --events-out
        writes the merged JSONL event log (all devices + drops).
        --serve-metrics replays the fleet on a Prometheus endpoint with
        per-device label cardinality and monotone drop counters.

    mogpu serve --report FILE.json [--addr HOST:PORT] [--serve-seconds S]
                [--replay-ms R]
        Replay a previously recorded serving report (`mogpu streams
        --report-out FILE.json`, or a bare serving report) on a
        Prometheus scrape endpoint at HOST:PORT (default
        127.0.0.1:9184), advancing one window snapshot per --replay-ms
        of wall time so scrapes see the counters grow monotonically.

    mogpu check [--frames N] [--k K] [--float] [--json]
        Run every shipped kernel (levels A..F, W8, adaptive, morph) under
        the sanitizer (memcheck / racecheck / synccheck / initcheck) on a
        synthetic scene and report findings with file:line attribution.
        Exits nonzero on any finding; --json emits machine-readable
        per-target reports (default: 8 frames, K=3, double).

    mogpu metrics [--level L] [--frames N] [--k K] [--float] [--out FILE]
        Run a profiled synthetic workload and emit its time-resolved
        telemetry (per-SM occupancy/IPC/warps, DRAM bandwidth, L2 hit
        rate, copy-engine utilization) in Prometheus text exposition
        format, to stdout or to --out FILE.prom.

    mogpu bench record [--out FILE.json] [--frames N] [--k K] [--streams S]
        Measure the ladder (A..F, W8) and a multi-stream run over the
        standard deterministic workload and write a tolerance-annotated
        performance baseline (default: results/baselines/default.json)
        plus slim per-level profile reports under reports/ next to it —
        the stored side of the drift attribution `bench check` emits.

    mogpu bench check [--baseline FILE.json] [--json] [--diff-out FILE]
        Re-measure with the baseline's recorded workload shape and diff
        against it metric by metric. Prints a table (or JSON with
        --json) and exits nonzero if any metric drifts beyond its
        tolerance — regressions and unexplained improvements both fail.
        On failure the drift is attributed through `mogpu diff`: stored
        per-level reports vs fresh profiles, stall-bucket and counter
        deltas with file:line evidence on stderr, and the canonical
        DiffReport JSON written to --diff-out (default: diff.json next
        to the baseline) for CI artifact capture.

    Observability (demo / ladder / run / profile / streams):
        --report-out FILE.json   machine-readable profile report(s),
                                 embedded time-resolved telemetry included
        --trace-out FILE.json    Chrome trace of the DMA/kernel timeline
                                 plus telemetry counter tracks (streams:
                                 one track triple per stream; load in
                                 chrome://tracing or Perfetto)
        --metrics-out FILE.prom  telemetry in Prometheus text format
                                 (ladder: all levels in one exposition)"
    );
}

/// Looks up `--flag value` in an argument list.
fn opt_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses the value of `flag`, or returns `default` when the flag is
/// absent. A value that does not parse is an error naming the flag
/// (`bad --frames "abc"`), never a silent fall-back to the default.
fn opt_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match opt_value(args, flag) {
        Some(v) => v.parse().map_err(|_| format!("bad {flag} {v:?}")),
        None => Ok(default),
    }
}

fn opt_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `--replay-ms` into seconds. The replay interval divides the
/// wall clock, so zero, negative and non-finite values are rejected
/// here with a usable error instead of being clamped downstream.
fn parse_replay_s(args: &[String]) -> Result<f64, String> {
    match opt_value(args, "--replay-ms") {
        None => Ok(mogpu::serve::DEFAULT_REPLAY_INTERVAL_S),
        Some(v) => {
            let ms: f64 = v.parse().map_err(|_| format!("bad --replay-ms {v:?}"))?;
            if !ms.is_finite() || ms <= 0.0 {
                return Err(format!(
                    "--replay-ms must be a positive number of milliseconds, got {v:?}"
                ));
            }
            Ok(ms / 1e3)
        }
    }
}

fn parse_level(s: &str) -> Result<OptLevel, String> {
    match s.to_ascii_uppercase().as_str() {
        "A" => Ok(OptLevel::A),
        "B" => Ok(OptLevel::B),
        "C" => Ok(OptLevel::C),
        "D" => Ok(OptLevel::D),
        "E" => Ok(OptLevel::E),
        "F" => Ok(OptLevel::F),
        w if w.starts_with('W') => {
            let digits = w[1..].trim_start_matches('(').trim_end_matches(')');
            let group: usize = if digits.is_empty() {
                8 // bare "W" means the paper's default group size
            } else {
                digits
                    .parse()
                    .map_err(|_| format!("bad windowed level {s:?}; use e.g. W8"))?
            };
            Ok(OptLevel::Windowed { group })
        }
        _ => Err(format!("unknown level {s:?} (A..F or W<group>)")),
    }
}

fn cmd_info() -> Result<(), String> {
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

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let out_dir = PathBuf::from(opt_value(args, "--out").unwrap_or_else(|| "mogpu_demo".into()));
    let n_frames: usize = opt_parse(args, "--frames", 40)?;
    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "F".into()))?;
    let obs = ObsFlags::parse(args)?;

    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let res = Resolution::QVGA;
    let scene = SceneBuilder::new(res)
        .seed(2014)
        .walkers(4)
        .bimodal_fraction(0.05)
        .build();
    let (frames_seq, _) = scene.render_sequence(n_frames);
    let frames = frames_seq.clone().into_frames();

    let mut gpu = GpuMog::<f64>::new(
        res,
        MogParams::default(),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .map_err(|e| e.to_string())?;
    if obs.wanted() {
        gpu.set_profile_mode(ProfileMode::On);
    }
    let report = gpu.process_all(&frames[1..]).map_err(|e| e.to_string())?;
    if let Some(profile) = gpu.take_profile_report() {
        obs.write(&[profile])?;
    }

    // Snapshots of the last frame.
    let last = report.masks.len() - 1;
    save_pgm(&frames[last + 1], out_dir.join("input_last.pgm")).map_err(|e| e.to_string())?;
    save_pgm(&report.masks[last], out_dir.join("mask_last.pgm")).map_err(|e| e.to_string())?;
    // Full clips.
    let mut mask_seq = FrameSequence::new(res);
    for m in &report.masks {
        mask_seq.push(m.clone()).map_err(|e| e.to_string())?;
    }
    let f_in = std::fs::File::create(out_dir.join("input.y4m")).map_err(|e| e.to_string())?;
    write_y4m(&frames_seq, 30, f_in).map_err(|e| e.to_string())?;
    let f_out = std::fs::File::create(out_dir.join("masks.y4m")).map_err(|e| e.to_string())?;
    write_y4m(&mask_seq, 30, f_out).map_err(|e| e.to_string())?;

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

fn cmd_ladder(args: &[String]) -> Result<(), String> {
    let n_frames: usize = opt_parse(args, "--frames", 24)?;
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let json = opt_flag(args, "--json");
    let obs = ObsFlags::parse(args)?;
    let profile = json || obs.wanted();

    let res = Resolution::QQVGA;
    let frames = SceneBuilder::new(res)
        .seed(7)
        .walkers(3)
        .build()
        .render_sequence(n_frames)
        .0
        .into_frames();
    if !json {
        println!(
            "optimization ladder — {res}, {} frames, K={k}, {}",
            n_frames - 1,
            if use_f32 { "float" } else { "double" }
        );
        println!(
            "{:<6} {:>10} {:>10} {:>9} {:>9}  bottleneck",
            "level", "kern ms", "e2e ms", "occup", "memEff"
        );
    }
    let mut profiles: Vec<ProfileReport> = Vec::new();
    let mut graphs: Vec<Option<mogpu::sim::DataflowGraph>> = Vec::new();
    for level in OptLevel::LADDER
        .into_iter()
        .chain([OptLevel::Windowed { group: 8 }])
    {
        let (report, prof, graph) = if use_f32 {
            run_level_profiled::<f32>(level, k, &frames, profile)?
        } else {
            run_level_profiled::<f64>(level, k, &frames, profile)?
        };
        let bottleneck = prof
            .as_ref()
            .map(|p| p.bottleneck.to_string())
            .unwrap_or_default();
        if !json {
            println!(
                "{:<6} {:>10.4} {:>10.4} {:>8.1}% {:>8.1}%  {}",
                level.name(),
                1e3 * report.kernel_time_per_frame(),
                1e3 * report.gpu_time_per_frame(),
                100.0 * report.occupancy.occupancy,
                100.0 * report.metrics.mem_access_efficiency,
                bottleneck,
            );
        }
        if prof.is_some() {
            graphs.push(graph);
        }
        profiles.extend(prof);
    }
    if json {
        println!(
            "{}",
            mogpu::json::to_string_pretty(&profiles).map_err(|e| e.to_string())?
        );
    }
    obs.write_traced(&profiles, &graphs)?;
    Ok(())
}

fn run_level_profiled<T: mogpu::core::DeviceReal>(
    level: OptLevel,
    k: usize,
    frames: &[Frame<u8>],
    profile: bool,
) -> Result<
    (
        RunReport,
        Option<ProfileReport>,
        Option<mogpu::sim::DataflowGraph>,
    ),
    String,
> {
    let mut gpu = GpuMog::<T>::new(
        frames[0].resolution(),
        MogParams::new(k),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .map_err(|e| e.to_string())?;
    if profile {
        gpu.set_profile_mode(ProfileMode::On);
        // Recording is transparent (bit-identical masks and counters);
        // the graph feeds the Chrome-trace flow arrows.
        gpu.enable_dataflow();
    }
    let run = gpu.process_all(&frames[1..]).map_err(|e| e.to_string())?;
    let graph = gpu.dataflow_graph();
    Ok((run, gpu.take_profile_report(), graph))
}

/// Observability flags shared by demo / ladder / run / profile / streams.
struct ObsFlags {
    report_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

impl ObsFlags {
    fn parse(args: &[String]) -> Result<ObsFlags, String> {
        for flag in ["--report-out", "--trace-out", "--metrics-out"] {
            if opt_flag(args, flag) && opt_value(args, flag).is_none() {
                return Err(format!("{flag} requires a FILE value"));
            }
        }
        Ok(ObsFlags {
            report_out: opt_value(args, "--report-out").map(PathBuf::from),
            trace_out: opt_value(args, "--trace-out").map(PathBuf::from),
            metrics_out: opt_value(args, "--metrics-out").map(PathBuf::from),
        })
    }

    /// True when any output (so profiling) is requested.
    fn wanted(&self) -> bool {
        self.report_out.is_some() || self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Writes the requested outputs from the collected reports.
    fn write(&self, reports: &[ProfileReport]) -> Result<(), String> {
        self.write_traced(reports, &[])
    }

    /// Like [`ObsFlags::write`], with a per-report dataflow graph whose
    /// cross-launch edges become Chrome-trace flow arrows.
    fn write_traced(
        &self,
        reports: &[ProfileReport],
        graphs: &[Option<mogpu::sim::DataflowGraph>],
    ) -> Result<(), String> {
        if let Some(path) = &self.report_out {
            let json = if reports.len() == 1 {
                mogpu::json::to_string_pretty(&reports[0]).map_err(|e| e.to_string())?
            } else {
                mogpu::json::to_string_pretty(&reports.to_vec()).map_err(|e| e.to_string())?
            };
            std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote profile report to {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            let mut builder = mogpu::sim::chrome_trace::TraceBuilder::new();
            for (i, report) in reports.iter().enumerate() {
                let pid =
                    builder.add_pipeline(&format!("level {}", report.level), &report.schedule);
                builder.add_counters(pid, &report.telemetry);
                builder.add_stall_counters(pid, &report.telemetry, &report.stalls);
                if let Some(Some(graph)) = graphs.get(i) {
                    builder.add_dataflow_flows(pid, &report.schedule, graph);
                }
            }
            let json =
                mogpu::json::to_string_pretty(&builder.finish()).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
                path.display()
            );
        }
        if let Some(path) = &self.metrics_out {
            let pipelines: Vec<(
                String,
                &mogpu::sim::PipelineTelemetry,
                Option<mogpu::sim::KernelGauges>,
            )> = reports
                .iter()
                .map(|r| {
                    (
                        format!("level {}", r.level),
                        &r.telemetry,
                        Some(mogpu::sim::KernelGauges::new(&r.metrics, &r.occupancy)),
                    )
                })
                .collect();
            let text = mogpu::sim::telemetry::prometheus(&pipelines);
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote Prometheus metrics to {}", path.display());
        }
        Ok(())
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let input = opt_value(args, "--input").or_else(|| opt_value(args, "-i"));
    let output = opt_value(args, "--output").or_else(|| opt_value(args, "-o"));
    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "F".into()))?;
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let obs = ObsFlags::parse(args)?;

    let frames = match &input {
        Some(input) => {
            let file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
            let seq = mogpu::frame::read_y4m(file).map_err(|e| e.to_string())?;
            if seq.len() < 2 {
                return Err("need at least 2 frames (the first seeds the model)".into());
            }
            println!("{input}: {} frames at {}", seq.len(), seq.resolution());
            seq.into_frames()
        }
        None => {
            // No capture given: fall back to the synthetic surveillance
            // scene so observability outputs can be exercised standalone.
            let n_frames: usize = opt_parse(args, "--frames", 16)?.max(2);
            let res = Resolution::QQVGA;
            println!("no --input given: synthetic scene, {n_frames} frames at {res}");
            SceneBuilder::new(res)
                .seed(7)
                .walkers(3)
                .build()
                .render_sequence(n_frames)
                .0
                .into_frames()
        }
    };
    let res = frames[0].resolution();

    let (report, prof, graph) = if use_f32 {
        run_level_profiled::<f32>(level, k, &frames, obs.wanted())?
    } else {
        run_level_profiled::<f64>(level, k, &frames, obs.wanted())?
    };
    if let Some(profile) = prof {
        obs.write_traced(&[profile], &[graph])?;
    }

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

    if let Some(out) = output {
        let mut mask_seq = FrameSequence::new(res);
        for m in &report.masks {
            mask_seq.push(m.clone()).map_err(|e| e.to_string())?;
        }
        let f = std::fs::File::create(&out).map_err(|e| format!("{out}: {e}"))?;
        write_y4m(&mask_seq, 30, f).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "F".into()))?;
    let n_frames: usize = opt_parse(args, "--frames", 16)?;
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let top: usize = opt_parse(args, "--top", 10)?;
    let obs = ObsFlags::parse(args)?;

    let frames = match opt_value(args, "--input").or_else(|| opt_value(args, "-i")) {
        Some(input) => {
            let file = std::fs::File::open(&input).map_err(|e| format!("{input}: {e}"))?;
            let seq = mogpu::frame::read_y4m(file).map_err(|e| e.to_string())?;
            if seq.len() < 2 {
                return Err("need at least 2 frames (the first seeds the model)".into());
            }
            println!("{input}: {} frames at {}", seq.len(), seq.resolution());
            seq.into_frames()
        }
        None => SceneBuilder::new(Resolution::QQVGA)
            .seed(7)
            .walkers(3)
            .build()
            .render_sequence(n_frames)
            .0
            .into_frames(),
    };

    let (_, prof, graph) = if use_f32 {
        run_level_profiled::<f32>(level, k, &frames, true)?
    } else {
        run_level_profiled::<f64>(level, k, &frames, true)?
    };
    let profile = prof.expect("profiling was enabled");
    print!("{}", profile.text(top));
    obs.write_traced(&[profile], &[graph])?;
    Ok(())
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    if let Some(path) = opt_value(args, "--fleet-report") {
        return cmd_advise_fleet(&PathBuf::from(path), opt_flag(args, "--json"));
    }
    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "A".into()))?;
    let n_frames: usize = opt_parse(args, "--frames", 16)?.max(2);
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let json = opt_flag(args, "--json");
    let top: usize = opt_parse(args, "--top", 10)?.max(1);
    let tpb: Option<u32> = match opt_value(args, "--tpb") {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --tpb {v:?}"))?),
        None => None,
    };

    let frames = SceneBuilder::new(Resolution::QQVGA)
        .seed(7)
        .walkers(3)
        .build()
        .render_sequence(n_frames)
        .0
        .into_frames();
    let result = if use_f32 {
        advise_run::<f32>(level, k, tpb, &frames)
    } else {
        advise_run::<f64>(level, k, tpb, &frames)
    };
    let profile = match result {
        Ok(profile) => profile,
        Err(mogpu::core::PipelineError::Launch(e)) => {
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
                println!(
                    "{}",
                    mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?
                );
            } else {
                println!("advisor — level {}: kernel is unlaunchable", level.name());
                print_advisory(1, &advisory);
            }
            return Err(format!("kernel launch rejected: {e}"));
        }
        Err(e) => return Err(e.to_string()),
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
        println!(
            "{}",
            mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "advisor — level {}, {} frames, K={k}, {}",
        level.name(),
        profile.frames,
        if use_f32 { "float" } else { "double" }
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
        return Ok(());
    }
    for (i, advisory) in profile.advisories.iter().take(top).enumerate() {
        print_advisory(i + 1, advisory);
    }
    Ok(())
}

/// `mogpu advise --fleet-report FILE.json`: replay the fleet dispatcher
/// from a recorded report and rank the device classes to add next.
fn cmd_advise_fleet(path: &PathBuf, json: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: mogpu::json::Value =
        mogpu::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // Accept either a `mogpu fleet --report-out` document (fleet report
    // under the "report" key) or a bare fleet report.
    let value = doc.get("report").unwrap_or(&doc);
    let report = <mogpu::sim::fleet::FleetReport as serde::Deserialize>::from_json_value(value)
        .map_err(|e| format!("{}: not a fleet report: {e}", path.display()))?;
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
        println!(
            "{}",
            mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
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
        return Ok(());
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

fn advise_run<T: mogpu::core::DeviceReal>(
    level: OptLevel,
    k: usize,
    tpb: Option<u32>,
    frames: &[Frame<u8>],
) -> Result<ProfileReport, mogpu::core::PipelineError> {
    let mut gpu = GpuMog::<T>::new(
        frames[0].resolution(),
        MogParams::new(k),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )?;
    if let Some(t) = tpb {
        gpu.set_threads_per_block(t);
    }
    gpu.set_profile_mode(ProfileMode::On);
    // Record the cross-kernel dataflow graph alongside the profile so
    // the advisor can see producer->consumer byte overlap. Morphology
    // gives the MoG kernel a downstream consumer, as in the paper's
    // full pipeline; per-kernel metrics are unaffected.
    gpu.enable_dataflow();
    gpu.enable_morphology()?;
    gpu.process_all(&frames[1..])?;
    Ok(gpu.take_profile_report().expect("profiling was enabled"))
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    // Strict surface like `dataflow`: exactly two positional report
    // paths, reject unknown flags instead of silently ignoring typos.
    let valued = ["--top", "--out", "--dot-out", "--metrics-out", "--config"];
    let bare = ["--json"];
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if valued.contains(&a) {
            if args.get(i + 1).is_none() {
                return Err(format!("{a} needs a value"));
            }
            i += 2;
        } else if bare.contains(&a) {
            i += 1;
        } else if a.starts_with('-') {
            return Err(format!("unknown diff option {a:?}; try `mogpu help`"));
        } else {
            paths.push(PathBuf::from(a));
            i += 1;
        }
    }
    if paths.len() != 2 {
        return Err(format!(
            "diff needs exactly two report files, got {} (usage: mogpu diff A.json B.json)",
            paths.len()
        ));
    }
    let json = opt_flag(args, "--json");
    let top: usize = opt_parse(args, "--top", 10)?;
    let cfg = match opt_value(args, "--config") {
        Some(name) => GpuConfig::preset(&name).ok_or_else(|| {
            format!(
                "unknown --config {name:?}; presets: {}",
                GpuConfig::preset_names().join(", ")
            )
        })?,
        None => GpuConfig::tesla_c2075(),
    };

    let load = |path: &PathBuf| -> Result<mogpu::json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        mogpu::json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(&paths[0])?, load(&paths[1])?);
    let label = |p: &PathBuf| p.display().to_string();
    let report = mogpu::sim::diff_values(&a, &b, &label(&paths[0]), &label(&paths[1]), &cfg)?;

    if let Some(path) = opt_value(args, "--out").map(PathBuf::from) {
        let text = mogpu::json::to_string_canonical_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote diff report to {}", path.display());
    }
    if let Some(path) = opt_value(args, "--dot-out").map(PathBuf::from) {
        let Some(df) = &report.dataflow else {
            return Err(
                "--dot-out needs two dataflow graph documents (`mogpu dataflow --json`)".into(),
            );
        };
        std::fs::write(&path, df.to_dot()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote dataflow diff overlay to {}", path.display());
    }
    if let Some(path) = opt_value(args, "--metrics-out").map(PathBuf::from) {
        std::fs::write(&path, report.prometheus(top))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote diff metrics to {}", path.display());
    }
    if json {
        println!(
            "{}",
            mogpu::json::to_string_canonical_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", report.text(top));
    }
    Ok(())
}

fn cmd_dataflow(args: &[String]) -> Result<(), String> {
    // New command, strict surface: reject anything unrecognized instead
    // of silently ignoring a typo'd flag.
    let valued = ["--level", "--frames", "--k", "--dot-out", "--metrics-out"];
    let bare = ["--float", "--json"];
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if valued.contains(&a) {
            if args.get(i + 1).is_none() {
                return Err(format!("{a} needs a value"));
            }
            i += 2;
        } else if bare.contains(&a) {
            i += 1;
        } else {
            return Err(format!("unknown dataflow option {a:?}; try `mogpu help`"));
        }
    }

    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "F".into()))?;
    let n_frames: usize = opt_parse(args, "--frames", 16)?.max(2);
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let json = opt_flag(args, "--json");
    let dot_out = opt_value(args, "--dot-out").map(PathBuf::from);
    let metrics_out = opt_value(args, "--metrics-out").map(PathBuf::from);

    let frames = SceneBuilder::new(Resolution::QQVGA)
        .seed(7)
        .walkers(3)
        .build()
        .render_sequence(n_frames)
        .0
        .into_frames();
    let graph = if use_f32 {
        dataflow_run::<f32>(level, k, &frames)
    } else {
        dataflow_run::<f64>(level, k, &frames)
    }
    .map_err(|e| e.to_string())?;

    if let Some(path) = &dot_out {
        std::fs::write(path, graph.to_dot()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote dataflow DOT to {}", path.display());
    }
    if let Some(path) = &metrics_out {
        std::fs::write(path, graph.prometheus()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote dataflow Prometheus counters to {}", path.display());
    }
    if json {
        println!(
            "{}",
            mogpu::json::to_string_canonical_pretty(&graph.to_json()).map_err(|e| e.to_string())?
        );
    } else if dot_out.is_none() {
        print!("{}", graph.to_dot());
    }
    Ok(())
}

fn dataflow_run<T: mogpu::core::DeviceReal>(
    level: OptLevel,
    k: usize,
    frames: &[Frame<u8>],
) -> Result<mogpu::sim::DataflowGraph, mogpu::core::PipelineError> {
    let mut gpu = GpuMog::<T>::new(
        frames[0].resolution(),
        MogParams::new(k),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )?;
    gpu.enable_dataflow();
    gpu.enable_morphology()?;
    gpu.process_all(&frames[1..])?;
    Ok(gpu.dataflow_graph().expect("dataflow was enabled"))
}

fn cmd_streams(args: &[String]) -> Result<(), String> {
    let n_streams: usize = opt_parse(args, "--streams", 4)?.max(1);
    let n_frames: usize = opt_parse(args, "--frames", 16)?.max(2);
    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "F".into()))?;
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let buffers: usize = opt_parse(args, "--buffers", 2)?;
    let fps: f64 = opt_parse(args, "--fps", 0.0)?;
    let json = opt_flag(args, "--json");
    let slo_ms: f64 = opt_parse(args, "--slo-ms", 40.0)?;
    let error_budget: f64 = opt_parse(args, "--error-budget", 0.01)?;
    let slo = mogpu::sim::serving::SloConfig {
        deadline_s: slo_ms.max(0.0) / 1e3,
        error_budget: error_budget.max(0.0),
    };
    let window_ms: f64 = opt_parse(args, "--window-ms", 0.0)?;
    let window_s = window_ms.max(0.0) / 1e3;
    let events_out = opt_value(args, "--events-out").map(PathBuf::from);
    let serve_addr = opt_value(args, "--serve-metrics");
    let serve_seconds: f64 = opt_parse(args, "--serve-seconds", 0.0)?;
    let replay_s = parse_replay_s(args)?;
    let obs = ObsFlags::parse(args)?;

    // One distinct synthetic scene per camera.
    let res = Resolution::QQVGA;
    let scenes: Vec<Vec<Frame<u8>>> = (0..n_streams)
        .map(|s| {
            SceneBuilder::new(res)
                .seed(100 + s as u64)
                .walkers(2 + s % 3)
                .build()
                .render_sequence(n_frames)
                .0
                .into_frames()
        })
        .collect();
    let report = if use_f32 {
        run_streams::<f32>(&scenes, level, k, buffers, fps, slo, window_s)?
    } else {
        run_streams::<f64>(&scenes, level, k, buffers, fps, slo, window_s)?
    };

    let doc = streams_json_doc(&report, n_streams, n_frames, level, buffers, fps, slo);
    if json {
        println!(
            "{}",
            mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "{n_streams} streams x {} frames, level {}, {} buffers/stream{}",
            n_frames - 1,
            level.name(),
            buffers.max(1),
            if fps > 0.0 {
                format!(", arrivals at {fps:.0} fps")
            } else {
                ", offline".into()
            }
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
        for (s, r) in report.per_stream.iter().enumerate() {
            println!(
                "{:<8} {:>7} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>6} {:>10.4} {:>9.1}",
                format!("s{s}"),
                r.frames,
                1e3 * r.latency.mean,
                1e3 * r.latency.p50,
                1e3 * r.latency.p95,
                1e3 * r.latency.p99,
                1e3 * r.latency.max,
                report.serving.streams[s].slo_violations,
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
            1e3 * slo.deadline_s,
            report.serving.streams_at_slo(),
            n_streams,
            report.serving.total_violations(),
            report.serving.snapshots.len(),
            1e3 * report.serving.window_s,
        );
    }

    if let Some(path) = &events_out {
        let mut writer = mogpu::sim::serving::EventLogWriter::create(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writer
            .write_events(&report.serving.events)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} serving events to {}",
            report.serving.events.len(),
            path.display()
        );
    }
    if let Some(path) = &obs.report_out {
        let text = mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote multi-stream report to {}", path.display());
    }

    if let Some(path) = &obs.trace_out {
        let mut builder = mogpu::sim::chrome_trace::TraceBuilder::new();
        let pid = builder.add_multi_stream(
            &format!("{n_streams} streams, level {}", level.name()),
            &report.schedule,
        );
        builder.add_counters(pid, &report.telemetry);
        let json = mogpu::json::to_string_pretty(&builder.finish()).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
    if let Some(path) = &obs.metrics_out {
        // Stream aggregates have no single-kernel identity, so no kernel gauges.
        let label = format!("{n_streams} streams, level {}", level.name());
        let text = mogpu::sim::telemetry::prometheus(&[(label, &report.telemetry, None)]);
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote Prometheus metrics to {}", path.display());
    }
    if let Some(addr) = &serve_addr {
        let label = format!("{n_streams} streams, level {}", level.name());
        let extra = mogpu::sim::telemetry::prometheus(&[(label, &report.telemetry, None)]);
        serve_metrics(report.serving, addr, replay_s, serve_seconds, extra)?;
    }
    Ok(())
}

/// Machine-readable multi-stream report document: run shape, aggregate
/// and per-stream latency summaries (with exact percentiles), and the
/// full serving report (SLO accounting, windowed snapshots, event log).
fn streams_json_doc(
    report: &MultiStreamReport,
    n_streams: usize,
    n_frames: usize,
    level: OptLevel,
    buffers: usize,
    fps: f64,
    slo: mogpu::sim::serving::SloConfig,
) -> mogpu::json::Value {
    let streams: Vec<mogpu::json::Value> = report
        .per_stream
        .iter()
        .enumerate()
        .map(|(s, r)| {
            mogpu::json::json!({
                "stream": s,
                "frames": r.frames,
                "kernel_s": r.kernel_time_total,
                "latency_mean_ms": 1e3 * r.latency.mean,
                "latency_p50_ms": 1e3 * r.latency.p50,
                "latency_p95_ms": 1e3 * r.latency.p95,
                "latency_p99_ms": 1e3 * r.latency.p99,
                "latency_p999_ms": 1e3 * r.latency.p999,
                "latency_max_ms": 1e3 * r.latency.max,
                "slo_violations": report.serving.streams[s].slo_violations,
                "completion_s": r.completion,
                "fps": r.fps,
            })
        })
        .collect();
    mogpu::json::json!({
        "streams": n_streams,
        "frames_per_stream": n_frames - 1,
        "level": level.name(),
        "buffers_per_stream": buffers.max(1),
        "arrival_fps": fps,
        "slo_deadline_ms": 1e3 * slo.deadline_s,
        "slo_error_budget": slo.error_budget,
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

/// Binds the scrape endpoint and serves snapshot replays until the
/// duration elapses (0 = forever).
fn serve_metrics(
    serving: mogpu::sim::serving::ServingReport,
    addr: &str,
    replay_s: f64,
    serve_seconds: f64,
    extra_exposition: String,
) -> Result<(), String> {
    let server = mogpu::serve::MetricsServer::bind(addr, serving, replay_s)
        .map_err(|e| format!("bind {addr}: {e}"))?
        .with_extra_exposition(extra_exposition);
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

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let devices_arg = opt_value(args, "--devices").unwrap_or_else(|| "c2075,embedded,hbm".into());
    let keys: Vec<String> = devices_arg
        .split(',')
        .map(|k| k.trim().to_string())
        .filter(|k| !k.is_empty())
        .collect();
    if keys.is_empty() {
        return Err(format!(
            "--devices needs at least one preset key (one of: {})",
            GpuConfig::preset_names().join(", ")
        ));
    }
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let n_streams: usize = opt_parse(args, "--streams", 4)?.max(1);
    let n_frames: usize = opt_parse(args, "--frames", 12)?.max(2);
    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "F".into()))?;
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let buffers: usize = opt_parse(args, "--buffers", 2)?;
    let fps: f64 = opt_parse(args, "--fps", 0.0)?;
    let json = opt_flag(args, "--json");
    let slo_ms: f64 = opt_parse(args, "--slo-ms", 40.0)?;
    let error_budget: f64 = opt_parse(args, "--error-budget", 0.01)?;
    let slo = mogpu::sim::serving::SloConfig {
        deadline_s: slo_ms.max(0.0) / 1e3,
        error_budget: error_budget.max(0.0),
    };
    let window_ms: f64 = opt_parse(args, "--window-ms", 0.0)?;
    let window_s = window_ms.max(0.0) / 1e3;
    let headroom: f64 = opt_parse(args, "--headroom", 1.0)?;
    let device_mem: Option<usize> = match opt_value(args, "--device-mem-mb") {
        Some(v) => {
            let mb: f64 = v
                .parse()
                .map_err(|_| format!("bad --device-mem-mb {v:?}"))?;
            if !mb.is_finite() || mb < 0.0 {
                return Err(format!("--device-mem-mb must be >= 0, got {v:?}"));
            }
            Some((mb * 1024.0 * 1024.0) as usize)
        }
        None => None,
    };
    let events_out = opt_value(args, "--events-out").map(PathBuf::from);
    let serve_addr = opt_value(args, "--serve-metrics");
    let serve_seconds: f64 = opt_parse(args, "--serve-seconds", 0.0)?;
    let replay_s = parse_replay_s(args)?;
    let obs = ObsFlags::parse(args)?;

    // One distinct synthetic scene per camera, as in `mogpu streams`.
    let res = Resolution::QQVGA;
    let scenes: Vec<Vec<Frame<u8>>> = (0..n_streams)
        .map(|s| {
            SceneBuilder::new(res)
                .seed(100 + s as u64)
                .walkers(2 + s % 3)
                .build()
                .render_sequence(n_frames)
                .0
                .into_frames()
        })
        .collect();
    let run = if use_f32 {
        run_fleet::<f32>(
            &scenes, &key_refs, level, k, buffers, fps, slo, window_s, headroom, device_mem,
        )?
    } else {
        run_fleet::<f64>(
            &scenes, &key_refs, level, k, buffers, fps, slo, window_s, headroom, device_mem,
        )?
    };
    let report = &run.report;

    let doc = mogpu::json::json!({
        "streams": n_streams,
        "frames_per_stream": n_frames - 1,
        "level": level.name(),
        "buffers_per_stream": buffers.max(1),
        "arrival_fps": fps,
        "slo_deadline_ms": 1e3 * slo.deadline_s,
        "slo_error_budget": slo.error_budget,
        "streams_admitted": report.streams_admitted(),
        "streams_shed": report.shed.len(),
        "streams_at_slo": report.streams_at_slo(),
        "frames_dropped": report.frames_dropped(),
        "makespan_s": report.makespan_s,
        "report": report,
        "advisories": run.advisories,
    });
    if json {
        println!(
            "{}",
            mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "fleet: {} device(s), {n_streams} streams x {} frames, level {}{}",
            report.devices.len(),
            n_frames - 1,
            level.name(),
            if fps > 0.0 {
                format!(", arrivals at {fps:.0} fps")
            } else {
                ", offline".into()
            }
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
        for s in &report.shed {
            println!(
                "shed: stream {} ({}; nearest miss {}), {} frame(s) dropped",
                s.stream, s.reason, report.devices[s.device].label, s.frames
            );
        }
        println!(
            "fleet: {}/{} streams admitted, {} at SLO ({:.1} ms deadline), {} frame(s) dropped, makespan {:.4} s",
            report.streams_admitted(),
            report.streams_total(),
            report.streams_at_slo(),
            1e3 * slo.deadline_s,
            report.frames_dropped(),
            report.makespan_s,
        );
        if run.advisories.is_empty() {
            println!("advisor: no device classes to evaluate");
        } else {
            for (i, a) in run.advisories.iter().enumerate() {
                print_fleet_advisory(i + 1, a);
            }
        }
    }

    if let Some(path) = &events_out {
        let events = report.all_events();
        let mut writer = mogpu::sim::serving::EventLogWriter::create(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writer
            .write_events(&events)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} serving events to {}",
            events.len(),
            path.display()
        );
    }
    if let Some(path) = &obs.report_out {
        let text = mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote fleet report to {}", path.display());
    }
    if let Some(addr) = &serve_addr {
        serve_fleet_metrics(run.report, addr, replay_s, serve_seconds)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_fleet<T: mogpu::core::DeviceReal>(
    scenes: &[Vec<Frame<u8>>],
    keys: &[&str],
    level: OptLevel,
    k: usize,
    buffers: usize,
    fps: f64,
    slo: mogpu::sim::serving::SloConfig,
    window_s: f64,
    headroom: f64,
    device_mem: Option<usize>,
) -> Result<FleetRunReport, String> {
    let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
    let mut fleet = FleetPipeline::<T>::new(
        scenes[0][0].resolution(),
        MogParams::new(k),
        level,
        &seeds,
        keys,
    )
    .map_err(|e| e.to_string())?
    .with_buffers(buffers)
    .with_slo(slo)
    .with_window(window_s)
    .with_headroom(headroom);
    if fps > 0.0 {
        fleet = fleet.with_arrival_period(1.0 / fps);
    }
    if let Some(bytes) = device_mem {
        fleet = fleet.with_device_mem(bytes);
    }
    let frames: Vec<Vec<Frame<u8>>> = scenes.iter().map(|f| f[1..].to_vec()).collect();
    fleet.process_all(&frames).map_err(|e| e.to_string())
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

/// Binds the scrape endpoint on a fleet report and replays its window
/// snapshots until the duration elapses (0 = forever).
fn serve_fleet_metrics(
    report: mogpu::sim::fleet::FleetReport,
    addr: &str,
    replay_s: f64,
    serve_seconds: f64,
) -> Result<(), String> {
    let server = mogpu::serve::MetricsServer::bind_fleet(addr, report, replay_s)
        .map_err(|e| format!("bind {addr}: {e}"))?;
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

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let report_path = PathBuf::from(opt_value(args, "--report").ok_or(
        "usage: mogpu serve --report FILE.json [--addr HOST:PORT] [--serve-seconds N] [--replay-ms N]",
    )?);
    let addr = opt_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:9184".into());
    let serve_seconds: f64 = opt_parse(args, "--serve-seconds", 0.0)?;
    let replay_s = parse_replay_s(args)?;

    let text = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    let doc: mogpu::json::Value =
        mogpu::json::from_str(&text).map_err(|e| format!("{}: {e}", report_path.display()))?;
    // Accept either a `mogpu streams --report-out` document (serving
    // report under the "serving" key) or a bare serving report.
    let serving_value = doc.get("serving").unwrap_or(&doc);
    let serving =
        <mogpu::sim::serving::ServingReport as serde::Deserialize>::from_json_value(serving_value)
            .map_err(|e| format!("{}: not a serving report: {e}", report_path.display()))?;
    println!(
        "replaying {}: device {:?}, {} stream(s), {} snapshot(s), {:.4} s makespan",
        report_path.display(),
        serving.device,
        serving.streams.len(),
        serving.snapshots.len(),
        serving.makespan_s
    );
    serve_metrics(serving, &addr, replay_s, serve_seconds, String::new())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let level = parse_level(&opt_value(args, "--level").unwrap_or_else(|| "F".into()))?;
    let n_frames: usize = opt_parse(args, "--frames", 16)?.max(2);
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let out = opt_value(args, "--out").map(PathBuf::from);

    let frames = SceneBuilder::new(Resolution::QQVGA)
        .seed(7)
        .walkers(3)
        .build()
        .render_sequence(n_frames)
        .0
        .into_frames();
    let (_, prof, _) = if use_f32 {
        run_level_profiled::<f32>(level, k, &frames, true)?
    } else {
        run_level_profiled::<f64>(level, k, &frames, true)?
    };
    let profile = prof.expect("profiling was enabled");
    let text = mogpu::sim::telemetry::prometheus(&[(
        format!("level {}", profile.level),
        &profile.telemetry,
        Some(mogpu::sim::KernelGauges::new(
            &profile.metrics,
            &profile.occupancy,
        )),
    )]);
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote Prometheus metrics to {}", path.display());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("record") => cmd_bench_record(&args[1..]),
        Some("check") => cmd_bench_check(&args[1..]),
        _ => Err("usage: mogpu bench record|check (see `mogpu help`)".into()),
    }
}

fn cmd_bench_record(args: &[String]) -> Result<(), String> {
    let out = PathBuf::from(
        opt_value(args, "--out")
            .unwrap_or_else(|| mogpu::bench::baseline::DEFAULT_BASELINE_PATH.into()),
    );
    let mut cfg = mogpu::bench::BenchConfig::default();
    cfg.frames = opt_parse(args, "--frames", cfg.frames)?;
    cfg.k = opt_parse(args, "--k", cfg.k)?;
    cfg.streams = opt_parse(args, "--streams", cfg.streams)?;
    cfg.frames = cfg.frames.max(2);
    cfg.streams = cfg.streams.max(1);

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
            .unwrap_or(std::path::Path::new("."))
            .join("reports")
            .display()
    );
    Ok(())
}

fn cmd_bench_check(args: &[String]) -> Result<(), String> {
    let path = PathBuf::from(
        opt_value(args, "--baseline")
            .unwrap_or_else(|| mogpu::bench::baseline::DEFAULT_BASELINE_PATH.into()),
    );
    let json = opt_flag(args, "--json");

    let baseline = mogpu::bench::baseline::read_baseline(&path)?;
    // Re-measure with the *baseline's* recorded workload shape so the
    // comparison is apples to apples even if the defaults have moved.
    let current = mogpu::bench::baseline::measure(&baseline.config, baseline.tolerances);
    let report = mogpu::bench::baseline::check(&baseline, &current);
    if json {
        println!(
            "{}",
            mogpu::json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("{}", mogpu::bench::baseline::render_table(&report));
    }
    if !report.pass {
        // Attribute the drift before failing: stored per-level reports
        // vs fresh profiles, through the differential engine. The text
        // goes to stderr (CI logs), the canonical JSON next to the
        // baseline (CI artifacts).
        match mogpu::bench::baseline::attribute_failures(&baseline, &report, &path) {
            Ok(Some(diff_report)) => {
                let diff_path = opt_value(args, "--diff-out")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| {
                        path.parent()
                            .unwrap_or(std::path::Path::new("."))
                            .join("diff.json")
                    });
                let text = mogpu::json::to_string_canonical_pretty(&diff_report)
                    .map_err(|e| e.to_string())?;
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
        return Err(format!(
            "performance drifted beyond tolerance of {}",
            path.display()
        ));
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let n_frames: usize = opt_parse(args, "--frames", 8)?.max(2);
    let k: usize = opt_parse(args, "--k", 3)?;
    let use_f32 = opt_flag(args, "--float");
    let json = opt_flag(args, "--json");

    let res = Resolution::QQVGA;
    let scene = SceneBuilder::new(res).seed(7).walkers(3).build();
    let frames = scene.render_sequence(n_frames).0.into_frames();
    let (_, truth_mask) = scene.render(n_frames / 2);

    let mut results: Vec<(String, mogpu::sim::SanReport)> = Vec::new();
    for level in OptLevel::LADDER
        .into_iter()
        .chain([OptLevel::Windowed { group: 8 }])
    {
        let report = if use_f32 {
            check_level::<f32>(level, k, &frames)?
        } else {
            check_level::<f64>(level, k, &frames)?
        };
        results.push((format!("level {}", level.name()), report));
    }
    results.push(("adaptive".into(), check_adaptive(k, &frames, use_f32)?));
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
        )
        .map_err(|e| e.to_string())?;
        results.push((
            name.into(),
            report.sanitizer.expect("sanitize was requested"),
        ));
    }

    let total: usize = results.iter().map(|(_, r)| r.len()).sum();
    if json {
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
            "k": k,
            "clean": total == 0,
            "findings": total as u64,
            "targets": targets,
        });
        println!(
            "{}",
            mogpu::json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "sanitizer sweep — {res}, {} frames, K={k}, {}",
            n_frames - 1,
            if use_f32 { "float" } else { "double" }
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
        return Err(format!("sanitizer reported {total} finding(s)"));
    }
    Ok(())
}

fn check_level<T: mogpu::core::DeviceReal>(
    level: OptLevel,
    k: usize,
    frames: &[Frame<u8>],
) -> Result<mogpu::sim::SanReport, String> {
    let mut gpu = GpuMog::<T>::new(
        frames[0].resolution(),
        MogParams::new(k),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .map_err(|e| e.to_string())?;
    gpu.set_sanitize(true);
    gpu.process_all(&frames[1..]).map_err(|e| e.to_string())?;
    Ok(gpu.take_san_report().expect("sanitize was on"))
}

fn check_adaptive(
    k: usize,
    frames: &[Frame<u8>],
    use_f32: bool,
) -> Result<mogpu::sim::SanReport, String> {
    fn go<T: mogpu::core::DeviceReal>(
        k: usize,
        frames: &[Frame<u8>],
    ) -> Result<mogpu::sim::SanReport, String> {
        let mut gpu = mogpu::core::AdaptiveGpuMog::<T>::new(
            frames[0].resolution(),
            MogParams::new(k),
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .map_err(|e| e.to_string())?;
        gpu.set_sanitize(true);
        gpu.process_all(&frames[1..]).map_err(|e| e.to_string())?;
        Ok(gpu.take_san_report().expect("sanitize was on"))
    }
    if use_f32 {
        go::<f32>(k, frames)
    } else {
        go::<f64>(k, frames)
    }
}

fn run_streams<T: mogpu::core::DeviceReal>(
    scenes: &[Vec<Frame<u8>>],
    level: OptLevel,
    k: usize,
    buffers: usize,
    fps: f64,
    slo: mogpu::sim::serving::SloConfig,
    window_s: f64,
) -> Result<MultiStreamReport, String> {
    let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
    let mut multi = MultiGpuMog::<T>::new(
        scenes[0][0].resolution(),
        MogParams::new(k),
        level,
        &seeds,
        GpuConfig::tesla_c2075(),
    )
    .map_err(|e| e.to_string())?
    .with_buffers(buffers)
    .with_slo(slo)
    .with_window(window_s);
    if fps > 0.0 {
        multi = multi.with_arrival_period(1.0 / fps);
    }
    let frames: Vec<Vec<Frame<u8>>> = scenes.iter().map(|f| f[1..].to_vec()).collect();
    multi.process_all(&frames).map_err(|e| e.to_string())
}
