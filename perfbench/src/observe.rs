//! `observe`: levels A and F, each in three pipelines that differ only in
//! the launch observer (profiler, sanitizer, dataflow capture with the
//! morphology post-pass), so the three observer costs separate. After each
//! round the two profile reports are exported as canonical JSON,
//! Prometheus text and a Chrome trace, advised and diffed A-vs-F, and a
//! 3-stream level-F `MultiGpuMog` call is exposed as serving Prometheus
//! text and JSONL. The MoG→morphology path is the unfused baseline a
//! fused kernel would be measured against.

use crate::ladder::Lane;
use crate::model::{self, WINDOW_FRAMES};
use crate::trace::{Phase, Tracer};
use crate::{mask_hash, repeat_setup, Deadline, Outcome, Pool, Reference, K, POOL_FRAMES};
use mogpu::bench::harness::standard_scene_seeded;
use mogpu::core::MultiStreamReport;
use mogpu::prelude::{
    Frame, GpuConfig, GpuMog, MogParams, MultiGpuMog, OptLevel, ProfileMode, ProfileReport,
    Resolution,
};
use mogpu::sim::chrome_trace::TraceBuilder;
use mogpu::sim::{advise, events_jsonl, prometheus_serving, AdvisorInput, KernelGauges};
use std::time::Instant;

const RES: Resolution = Resolution::QQVGA;
const STREAMS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Observer {
    Profile,
    Sanitize,
    Dataflow,
}

impl Observer {
    fn span(self) -> &'static str {
        match self {
            Observer::Profile => "sim.profile.process",
            Observer::Sanitize => "sim.sancheck.process",
            Observer::Dataflow => "sim.dataflow.process",
        }
    }
}

struct Observed {
    observer: Observer,
    lane: Lane,
}

impl Observed {
    fn new(
        t: &mut Tracer,
        level: OptLevel,
        observer: Observer,
        pool: &Pool,
        cfg: &GpuConfig,
    ) -> Option<Observed> {
        let mut lane = Lane::new(t, level, pool, cfg)?;
        match observer {
            Observer::Profile => lane.gpu.set_profile_mode(ProfileMode::On),
            Observer::Sanitize => lane.gpu.set_sanitize(true),
            Observer::Dataflow => {
                // The recorder keeps every launch of the pipeline's life
                // and re-stitches the whole graph on each call, so a
                // call's cost grows with the frames before it. Rebuilding
                // once per window keeps the workload the same however
                // long the run is.
                lane.epoch_calls = WINDOW_FRAMES;
                lane.gpu.enable_dataflow();
                lane.gpu.enable_morphology().ok()?;
            }
        }
        Some(Observed { observer, lane })
    }

    /// Rebuilds a dataflow pipeline at the end of its epoch, keeping the
    /// calls recorded so far; returns the retired pipeline.
    fn renew(&mut self, t: &mut Tracer, pool: &Pool, cfg: &GpuConfig) -> Option<GpuMog<f64>> {
        let fresh = Observed::new(t, self.lane.level, self.observer, pool, cfg)?;
        Some(std::mem::replace(&mut self.lane.gpu, fresh.lane.gpu))
    }
}

struct Streams {
    multi: MultiGpuMog<f64>,
    pools: Vec<Pool>,
    /// Per call, per stream mask hash; `None` when the call failed.
    hashes: Vec<Vec<Option<u64>>>,
}

impl Streams {
    fn frames(&self, op: usize) -> Vec<Vec<Frame<u8>>> {
        self.pools.iter().map(|p| p.group(op, 1).to_vec()).collect()
    }

    fn step(&mut self, t: &mut Tracer) -> Option<MultiStreamReport> {
        let frames = self.frames(self.hashes.len());
        let result = t.span("core.streams.process", || self.multi.process_all(&frames));
        self.hashes.push(match &result {
            Ok(r) => r
                .per_stream
                .iter()
                .map(|s| Some(mask_hash(&s.masks)))
                .collect(),
            Err(_) => vec![None; STREAMS],
        });
        result.ok()
    }
}

struct State {
    pool: Pool,
    observed: Vec<Observed>,
    streams: Streams,
    warm_streams: MultiStreamReport,
}

fn setup(t: &mut Tracer, seed: u64, cfg: &GpuConfig) -> Option<State> {
    let pool = Pool::render(t, &standard_scene_seeded(RES, seed));
    let pools: Vec<Pool> = (1..=STREAMS as u64)
        .map(|s| Pool::render(t, &standard_scene_seeded(RES, seed.wrapping_add(s))))
        .collect();
    let mut observed = Vec::new();
    for level in [OptLevel::A, OptLevel::F] {
        for observer in [Observer::Profile, Observer::Sanitize, Observer::Dataflow] {
            observed.push(Observed::new(t, level, observer, &pool, cfg)?);
        }
    }
    let seeds: Vec<&[u8]> = pools.iter().map(|p| p.frames[0].as_slice()).collect();
    let multi = t
        .span("core.pipeline.new", || {
            MultiGpuMog::<f64>::new(RES, MogParams::new(K), OptLevel::F, &seeds, cfg.clone())
        })
        .ok()?;
    let mut streams = Streams {
        multi,
        pools,
        hashes: Vec::new(),
    };
    for o in &mut observed {
        o.lane.step(t, o.observer.span(), &pool);
        o.lane.gpu.take_profile_report();
        o.lane.gpu.take_san_report();
    }
    let warm_streams = streams.step(t)?;
    Some(State {
        pool,
        observed,
        streams,
        warm_streams,
    })
}

/// Adds a dataflow pipeline's graph totals to the per-layer metrics.
fn count_dataflow(o: &mut Outcome, gpu: &GpuMog<f64>) {
    if let Some(g) = gpu.dataflow_graph() {
        o.add(
            "sim.dataflow.edge_bytes",
            g.edges.iter().map(|e| e.bytes).sum::<u64>() as f64,
        );
        o.add(
            "sim.dataflow.dead_store_bytes",
            g.nodes.iter().map(|n| n.dead_store_bytes).sum::<u64>() as f64,
        );
    }
}

/// Byte counts of one round's exports.
#[derive(Default)]
struct ExportBytes {
    json: usize,
    prometheus: usize,
    jsonl: usize,
}

/// Exports one round's A and F profile reports and stream report through
/// every artifact path; `None` when any step returned an error.
fn export(
    t: &mut Tracer,
    a: &ProfileReport,
    f: &ProfileReport,
    streams: &MultiStreamReport,
    cfg: &GpuConfig,
) -> Option<ExportBytes> {
    let mut bytes = ExportBytes::default();
    for r in [a, f] {
        let json = t.span("core.profile.serialize", || {
            mogpu::json::to_string_canonical(r)
        });
        bytes.json += json.ok()?.len();
    }
    let text = t.span("sim.telemetry.prometheus", || {
        mogpu::sim::telemetry::prometheus(
            &[a, f]
                .iter()
                .map(|r| {
                    (
                        format!("level {}", r.level),
                        &r.telemetry,
                        Some(KernelGauges::new(&r.metrics, &r.occupancy)),
                    )
                })
                .collect::<Vec<_>>(),
        )
    });
    bytes.prometheus += text.len();
    t.span("sim.chrome_trace.build", || {
        let mut builder = TraceBuilder::new();
        for r in [a, f] {
            let pid = builder.add_pipeline(&format!("level {}", r.level), &r.schedule);
            builder.add_counters(pid, &r.telemetry);
            builder.add_stall_counters(pid, &r.telemetry, &r.stalls);
        }
        mogpu::json::to_string(&builder.finish())
    })
    .ok()?;
    t.span("sim.advisor.advise", || {
        for r in [a, f] {
            std::hint::black_box(advise(&AdvisorInput {
                stats: &r.stats,
                metrics: &r.metrics,
                occupancy: &r.occupancy,
                timing: &r.timing,
                stalls: &r.stalls,
                roofline: &r.roofline,
                hotspots: &r.hotspots,
                dataflow: &[],
                overlap: r.overlap,
                h2d_per_frame: r.h2d_per_frame,
                d2h_per_frame: r.d2h_per_frame,
                dma_starvation: r.dma_starvation,
                frames: r.frames,
                cfg,
            }));
        }
    });
    t.span("sim.diff.diff", || {
        let va = mogpu::json::to_value(a).map_err(|e| e.to_string())?;
        let vf = mogpu::json::to_value(f).map_err(|e| e.to_string())?;
        mogpu::sim::diff_values(&va, &vf, "A", "F", cfg)
    })
    .ok()?;
    let (text, jsonl) = t.span("sim.serving.exposition", || {
        let last = streams.serving.snapshots.len().saturating_sub(1);
        (
            prometheus_serving(&streams.serving, last),
            events_jsonl(&streams.serving.events),
        )
    });
    bytes.prometheus += text.len();
    bytes.jsonl += jsonl.len();
    Some(bytes)
}

pub fn run(t: &mut Tracer, seed: u64, seconds: f64) -> Outcome {
    let cfg = GpuConfig::tesla_c2075();
    let mut o = Outcome::default();
    let state = repeat_setup(&mut o, || setup(t, seed, &cfg));
    let Some(State {
        pool,
        mut observed,
        mut streams,
        warm_streams,
    }) = state
    else {
        o.attempt(false);
        return o;
    };

    t.set_phase(Phase::Timed);
    // Warm-up plus 31 rounds fill every pipeline's 32-frame window.
    let window_rounds = WINDOW_FRAMES - 1;
    let mut deadline = Deadline::start(seconds, window_rounds);
    let mut export_ok = Vec::new();
    let mut first_epochs = Vec::new();
    loop {
        let mut reports = Vec::new();
        for ob in &mut observed {
            let op = t.enter("bench.op");
            let start = Instant::now();
            if ob.lane.hashes.len() % ob.lane.epoch_calls == 0 {
                match ob.renew(t, &pool, &cfg) {
                    // The first epoch is the model window.
                    Some(old) if ob.lane.hashes.len() == WINDOW_FRAMES => first_epochs.push(old),
                    Some(_) => {}
                    None => o.attempt(false),
                }
            }
            let report = ob.lane.step(t, ob.observer.span(), &pool);
            o.samples_ms.push(1e3 * start.elapsed().as_secs_f64());
            o.count_run(report.as_ref());
            if let Some(report) = ob.lane.gpu.take_profile_report() {
                reports.push(report);
            }
            if let Some(san) = ob.lane.gpu.take_san_report() {
                if !san.is_clean() {
                    *ob.lane.hashes.last_mut().expect("stepped") = None;
                }
                if deadline.rounds() < window_rounds {
                    o.add("sim.sancheck.findings", san.len() as f64);
                }
            }
            t.exit(op);
        }

        let op = t.enter("bench.op");
        let start = Instant::now();
        let stream_report = streams.step(t);
        o.samples_ms
            .push(1e3 * start.elapsed().as_secs_f64() / STREAMS as f64);
        if let Some(r) = &stream_report {
            o.frames += r.total_frames as u64;
        }
        t.exit(op);

        let op = t.enter("bench.export");
        let bytes = match (&reports[..], &stream_report) {
            ([a, f], Some(s)) => export(t, a, f, s, &cfg),
            _ => None,
        };
        export_ok.push(bytes.is_some());
        if deadline.rounds() < window_rounds {
            let b = bytes.unwrap_or_default();
            o.add("core.profile.json_bytes", b.json as f64);
            o.add("sim.telemetry.prometheus_bytes", b.prometheus as f64);
            o.add("sim.serving.jsonl_bytes", b.jsonl as f64);
        }
        t.exit(op);

        if deadline.end_round(&mut o) {
            break;
        }
    }
    o.timed_s = deadline.elapsed();

    t.set_phase(Phase::Verify);
    // A pipeline whose first epoch is still running holds the window.
    let current = observed
        .iter()
        .filter(|ob| ob.observer == Observer::Dataflow && ob.lane.hashes.len() == WINDOW_FRAMES)
        .map(|ob| &ob.lane.gpu);
    for gpu in first_epochs.iter().chain(current) {
        count_dataflow(&mut o, gpu);
    }
    for ok in export_ok {
        o.attempt(ok);
    }
    for ob in &observed {
        ob.lane
            .verify(t, &pool, ob.observer == Observer::Dataflow, &mut o);
        ob.lane.count_window(&mut o);
        if ob.observer == Observer::Profile {
            o.levels.push(ob.lane.window.project(RES, &cfg));
        }
    }
    let mut references: Vec<Reference> = streams
        .pools
        .iter()
        .map(|p| Reference::new(RES, OptLevel::F.cpu_variant(), &p.frames[0], false))
        .collect();
    for (op, hashes) in streams.hashes.iter().enumerate() {
        let mut ok = true;
        for (s, r) in references.iter_mut().enumerate() {
            ok &= hashes[s] == Some(r.expect(t, streams.pools[s].group(op, 1)));
        }
        o.attempt(ok);
    }
    o.add("mog.serial.frames", (STREAMS * WINDOW_FRAMES) as f64);
    o.set("core.streams.frames", (STREAMS * WINDOW_FRAMES) as f64);
    o.set("frame.scene.frames", ((1 + STREAMS) * POOL_FRAMES) as f64);
    o.set("model.dma.h2d_ms_hd", model::h2d_ms_hd(&cfg));
    o.set("model.streams.aggregate_fps", warm_streams.aggregate_fps);
    o.set(
        "model.streams.kernel_utilization",
        warm_streams.kernel_utilization,
    );
    o.set(
        "model.serving.e2e_p99_ms",
        1e3 * warm_streams
            .serving
            .percentiles
            .iter()
            .map(|p| p.p99)
            .fold(0.0, f64::max),
    );
    o.set(
        "model.serving.slo_violations",
        warm_streams.serving.total_violations() as f64,
    );
    o
}
