//! `quality`: the Table IV study at QVGA. Each frame op runs GPU level F,
//! the f64 sorted `SerialMog` ground truth, foreground and background
//! MS-SSIM against that ground truth, and `mask_confusion` against the
//! scene's true masks. It is the only workload where MS-SSIM does real
//! work, and its 5.5 MB of f64 Gaussian state overflows a 2 MiB L2, so
//! metric and memory-locality changes show here and not on `ladder`.

use crate::ladder::Lane;
use crate::model::{self, WINDOW_FRAMES};
use crate::trace::{Phase, Tracer};
use crate::{repeat_setup, Deadline, Outcome, Pool, K, POOL_FRAMES};
use mogpu::bench::harness::standard_scene_seeded;
use mogpu::core::RunReport;
use mogpu::metrics::basic::MaskConfusion;
use mogpu::prelude::{
    mask_confusion, ms_ssim, Frame, GpuConfig, Mask, MogParams, OptLevel, Resolution, SerialMog,
    Variant,
};
use std::time::Instant;

const RES: Resolution = Resolution::QVGA;

struct State {
    pool: Pool,
    lane: Lane,
    truth: SerialMog<f64>,
}

/// The frame with its foreground pixels blacked out.
fn background(frame: &Frame<u8>, mask: &Mask) -> Frame<u8> {
    let mut out = frame.clone();
    for (o, &m) in out.as_mut_slice().iter_mut().zip(mask.as_slice()) {
        if m != 0 {
            *o = 0;
        }
    }
    out
}

/// Accuracy of one frame: (foreground MS-SSIM, background MS-SSIM,
/// confusion against the scene's true mask).
type Scores = (f64, f64, MaskConfusion);

/// One frame op: GPU level F, ground truth, and the three accuracy
/// measures. A failed GPU call or an MS-SSIM that does not fit marks the
/// call failed and yields no scores.
fn frame_op(t: &mut Tracer, s: &mut State) -> (Option<RunReport>, Option<Scores>) {
    let idx = Pool::group_start(s.lane.hashes.len(), 1);
    let report = s.lane.step(t, "core.pipeline.process", &s.pool);
    let frame = &s.pool.frames[idx];
    let truth = t.span("mog.serial.process", || s.truth.process(frame));
    let scores = report.as_ref().and_then(|r| {
        let gpu = &r.masks[0];
        let (fg, bg) = t.span("metrics.msssim.process", || {
            (
                ms_ssim(gpu, &truth),
                ms_ssim(&background(frame, gpu), &background(frame, &truth)),
            )
        });
        let confusion = t.span("metrics.basic.process", || {
            mask_confusion(gpu, &s.pool.truth[idx])
        });
        Some((fg?, bg?, confusion))
    });
    if scores.is_none() {
        // Counted as failed when the lane is verified.
        *s.lane.hashes.last_mut().expect("stepped") = None;
    }
    (report, scores)
}

fn setup(t: &mut Tracer, seed: u64, cfg: &GpuConfig) -> Option<(State, Option<Scores>)> {
    let pool = Pool::render(t, &standard_scene_seeded(RES, seed));
    let lane = Lane::new(t, OptLevel::F, &pool, cfg)?;
    let truth = t.span("mog.serial.new", || {
        SerialMog::new(
            RES,
            MogParams::new(K),
            Variant::Sorted,
            pool.frames[0].as_slice(),
        )
    });
    let mut state = State { pool, lane, truth };
    let (_, warm) = frame_op(t, &mut state);
    Some((state, warm))
}

pub fn run(t: &mut Tracer, seed: u64, seconds: f64) -> Outcome {
    let cfg = GpuConfig::tesla_c2075();
    let mut o = Outcome::default();
    let state = repeat_setup(&mut o, || setup(t, seed, &cfg));
    let Some((mut s, warm)) = state else {
        o.attempt(false);
        return o;
    };

    // Accuracy over the model window: the warm-up frame and 31 rounds.
    let mut window = vec![warm];
    t.set_phase(Phase::Timed);
    let mut deadline = Deadline::start(seconds, WINDOW_FRAMES - 1);
    loop {
        let op = t.enter("bench.op");
        let start = Instant::now();
        let (report, scores) = frame_op(t, &mut s);
        o.samples_ms.push(1e3 * start.elapsed().as_secs_f64());
        o.count_run(report.as_ref());
        t.exit(op);
        if window.len() < WINDOW_FRAMES {
            window.push(scores);
        }
        if deadline.end_round(&mut o) {
            break;
        }
    }
    o.timed_s = deadline.elapsed();

    t.set_phase(Phase::Verify);
    s.lane.verify(t, &s.pool, false, &mut o);
    s.lane.count_window(&mut o);
    o.levels.push(s.lane.window.project(RES, &cfg));

    let scored: Vec<&Scores> = window.iter().flatten().collect();
    let n = scored.len().max(1) as f64;
    let mut confusion = MaskConfusion::default();
    for (_, _, c) in &scored {
        confusion.merge(c);
    }
    o.set("metrics.msssim.calls", 2.0 * scored.len() as f64);
    o.set(
        "metrics.msssim.fg_mean",
        scored.iter().map(|s| s.0).sum::<f64>() / n,
    );
    o.set(
        "metrics.msssim.bg_mean",
        scored.iter().map(|s| s.1).sum::<f64>() / n,
    );
    o.set("metrics.basic.f1", confusion.f1());
    o.add("mog.serial.frames", WINDOW_FRAMES as f64);
    o.set("frame.scene.frames", POOL_FRAMES as f64);
    o.set("model.dma.h2d_ms_hd", model::h2d_ms_hd(&cfg));
    o
}
