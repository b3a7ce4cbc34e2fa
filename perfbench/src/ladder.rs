//! `ladder`: levels A–F and W(8) at QQVGA with plain launches, one group
//! per call, round-robin over the levels. Nearly all of its wall time is
//! lane interpretation, and its 1.4 MB of Gaussian state fits a 2 MiB L2,
//! so it isolates interpreter speed across every kernel shape (sorted
//! A–C, scan D, predicated E/F, shared-memory tiled W8).

use crate::model::{self, Window, WINDOW_FRAMES};
use crate::trace::{Phase, Tracer};
use crate::{mask_hash, repeat_setup, Deadline, Outcome, Pool, Reference, K, POOL_FRAMES};
use mogpu::bench::harness::standard_scene_seeded;
use mogpu::core::RunReport;
use mogpu::prelude::{GpuConfig, GpuMog, MogParams, OptLevel, Resolution};
use std::time::Instant;

const RES: Resolution = Resolution::QQVGA;

pub const LEVELS: [OptLevel; 7] = [
    OptLevel::A,
    OptLevel::B,
    OptLevel::C,
    OptLevel::D,
    OptLevel::E,
    OptLevel::F,
    OptLevel::Windowed { group: 8 },
];

/// One level's pipeline and what the benchmark recorded of its calls.
pub struct Lane {
    pub level: OptLevel,
    pub gpu: GpuMog<f64>,
    pub window: Window,
    /// Mask hash of every call, warm-up first; `None` when it failed.
    pub hashes: Vec<Option<u64>>,
    /// Calls after which the pipeline is rebuilt from the seed frame (the
    /// reference restarts with it); `usize::MAX` for never.
    pub epoch_calls: usize,
}

impl Lane {
    /// Builds the pipeline seeded from the pool's frame 0.
    pub fn new(t: &mut Tracer, level: OptLevel, pool: &Pool, cfg: &GpuConfig) -> Option<Lane> {
        let seed = &pool.frames[0];
        let gpu = t.span("core.pipeline.new", || {
            GpuMog::<f64>::new(
                seed.resolution(),
                MogParams::new(K),
                level,
                seed.as_slice(),
                cfg.clone(),
            )
        });
        Some(Lane {
            level,
            gpu: gpu.ok()?,
            window: Window::new(level),
            hashes: Vec::new(),
            epoch_calls: usize::MAX,
        })
    }

    /// Runs the lane's next group through `span`; `None` when the call
    /// failed.
    pub fn step(&mut self, t: &mut Tracer, span: &'static str, pool: &Pool) -> Option<RunReport> {
        let frames = pool.group(self.hashes.len(), self.level.group());
        let report = t.span(span, || self.gpu.process_all(frames)).ok();
        self.hashes
            .push(report.as_ref().map(|r| mask_hash(&r.masks)));
        if let Some(r) = &report {
            self.window.add(r);
        }
        report
    }

    /// Replays the lane's frames through the CPU reference and counts one
    /// attempt per call.
    pub fn verify(&self, t: &mut Tracer, pool: &Pool, opened: bool, o: &mut Outcome) {
        let fresh = || {
            Reference::new(
                pool.frames[0].resolution(),
                self.level.cpu_variant(),
                &pool.frames[0],
                opened,
            )
        };
        let mut reference = fresh();
        for (op, hash) in self.hashes.iter().enumerate() {
            if op > 0 && op % self.epoch_calls == 0 {
                reference = fresh();
            }
            let expected = reference.expect(t, pool.group(op, self.level.group()));
            o.attempt(*hash == Some(expected));
        }
        o.add("mog.serial.frames", WINDOW_FRAMES as f64);
    }

    /// Adds the window's counts to the `core.pipeline` / `sim.kernel`
    /// per-layer metrics.
    pub fn count_window(&self, o: &mut Outcome) {
        o.add("core.pipeline.calls", self.window.calls as f64);
        o.add("core.pipeline.frames", self.window.frames as f64);
        o.add(
            "sim.kernel.lane_events",
            self.window.stats.scalar_events() as f64,
        );
        o.add("sim.kernel.warp_slots", self.window.stats.warp_slots as f64);
    }
}

struct State {
    pool: Pool,
    lanes: Vec<Lane>,
}

fn setup(t: &mut Tracer, seed: u64, cfg: &GpuConfig) -> Option<State> {
    let pool = Pool::render(t, &standard_scene_seeded(RES, seed));
    let mut lanes = Vec::with_capacity(LEVELS.len());
    for level in LEVELS {
        lanes.push(Lane::new(t, level, &pool, cfg)?);
    }
    for lane in &mut lanes {
        lane.step(t, "core.pipeline.process", &pool);
    }
    Some(State { pool, lanes })
}

pub fn run(t: &mut Tracer, seed: u64, seconds: f64) -> Outcome {
    let cfg = GpuConfig::tesla_c2075();
    let mut o = Outcome::default();
    let state = repeat_setup(&mut o, || setup(t, seed, &cfg));
    let Some(State { pool, mut lanes }) = state else {
        o.attempt(false);
        return o;
    };

    t.set_phase(Phase::Timed);
    // A–F fill their window after the warm-up call and 31 rounds.
    let mut deadline = Deadline::start(seconds, WINDOW_FRAMES - 1);
    loop {
        for lane in &mut lanes {
            let op = t.enter("bench.op");
            let start = Instant::now();
            let report = lane.step(t, "core.pipeline.process", &pool);
            o.samples_ms
                .push(1e3 * start.elapsed().as_secs_f64() / lane.level.group() as f64);
            o.count_run(report.as_ref());
            t.exit(op);
        }
        if deadline.end_round(&mut o) {
            break;
        }
    }
    o.timed_s = deadline.elapsed();

    t.set_phase(Phase::Verify);
    for lane in &lanes {
        lane.verify(t, &pool, false, &mut o);
        lane.count_window(&mut o);
        o.levels.push(lane.window.project(RES, &cfg));
    }
    o.set("frame.scene.frames", POOL_FRAMES as f64);
    o.set("model.dma.h2d_ms_hd", model::h2d_ms_hd(&cfg));
    o
}
