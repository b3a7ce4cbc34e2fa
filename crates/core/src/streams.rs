//! Multi-stream host pipeline: [`MultiGpuMog`] serves N independent
//! camera streams from one simulated device.
//!
//! Each stream owns a full [`GpuMog`] model state (Gaussian parameters
//! plus its double-buffered frame/mask buffers), allocated against a
//! single shared device-memory budget — constructing more streams than
//! the device can hold fails with the usual out-of-memory error instead
//! of silently over-committing. Each stream also inherits `GpuMog`'s
//! cached [`mogpu_sim::BatchLauncher`]: the grid is validated and
//! occupancy derived once per stream, then every frame of the stream's
//! sequence reuses that plan instead of re-deriving the launch setup.
//!
//! Frames are executed *functionally* by one stream loop,
//! `process_streams`, which [`crate::FleetPipeline`] runs too: it checks
//! every stream's frames before any stream runs, then runs the streams in
//! parallel (they share no model state). *Timing* is serialized through
//! the [`StreamScheduler`]: one compute engine and `cfg.copy_engines`
//! copy engines are list-scheduled across every stream's
//! upload/kernel/download stages with a bounded in-flight buffer count
//! per stream, exactly as CUDA streams share a device.
//!
//! The report carries per-stream device sojourn latency (bounded by the
//! buffer cap — the point of fixing the infinite-buffer schedule) plus
//! aggregate throughput, and the full [`StreamSchedule`] for Chrome
//! trace export (one track triple per stream).

use crate::device::DeviceReal;
use crate::levels::OptLevel;
use crate::pipeline::{GpuMog, KernelPlan, Pipeline, PipelineError, RunReport};
use mogpu_frame::{Frame, Mask, Resolution};
use mogpu_mog::MogParams;
use mogpu_sim::serving::{serving_report, ServingReport, ServingWindowConfig, SloConfig};
use mogpu_sim::streams::{
    LatencyStats, StageTimes, StreamInput, StreamSchedule, StreamScheduler, DOUBLE_BUFFER,
};
use mogpu_sim::telemetry::{sample_streams, PipelineTelemetry, TelemetryConfig};
use mogpu_sim::GpuConfig;
use rayon::prelude::*;
use std::sync::Mutex;

/// Result of one stream within a multi-stream run.
#[derive(Debug, Clone)]
pub struct StreamRunReport {
    /// Foreground masks, one per processed frame of this stream.
    pub masks: Vec<Mask>,
    /// Frames this stream processed.
    pub frames: usize,
    /// Modelled kernel seconds, summed over this stream's frames.
    pub kernel_time_total: f64,
    /// Device sojourn latency (upload start to download end) per frame.
    pub latency: LatencyStats,
    /// When this stream's last download finished (seconds from start).
    pub completion: f64,
    /// This stream's own frame rate: frames over completion time.
    pub fps: f64,
}

/// Aggregate result of a multi-stream run.
#[derive(Debug, Clone)]
pub struct MultiStreamReport {
    /// Per-stream results, in stream order.
    pub per_stream: Vec<StreamRunReport>,
    /// The full engine schedule (exportable via
    /// `TraceBuilder::add_multi_stream`).
    pub schedule: StreamSchedule,
    /// Total frames across all streams.
    pub total_frames: usize,
    /// End of the last download (seconds).
    pub makespan: f64,
    /// Aggregate throughput: total frames over the makespan.
    pub aggregate_fps: f64,
    /// Fraction of the makespan the compute engine was busy.
    pub kernel_utilization: f64,
    /// Time-resolved per-SM and device-wide counter series over the
    /// shared-engine schedule (every stream's launches and copies on one
    /// clock).
    pub telemetry: PipelineTelemetry,
    /// Serving observability: SLO-judged latency histograms, windowed
    /// snapshots with monotone counters, and the structured event log
    /// (see [`mogpu_sim::serving`]).
    pub serving: ServingReport,
}

impl MultiStreamReport {
    /// Worst per-stream device sojourn latency (seconds).
    pub fn worst_latency(&self) -> f64 {
        self.per_stream
            .iter()
            .map(|s| s.latency.max)
            .fold(0.0f64, f64::max)
    }
}

/// N per-stream [`GpuMog`] states multiplexed onto one simulated device.
///
/// ```
/// use mogpu_core::{MultiGpuMog, OptLevel};
/// use mogpu_frame::{Resolution, SceneBuilder};
/// use mogpu_mog::MogParams;
/// use mogpu_sim::GpuConfig;
///
/// // Two cameras, two scenes.
/// let scenes: Vec<_> = (0..2u64)
///     .map(|s| {
///         SceneBuilder::new(Resolution::TINY).seed(s).walkers(1).build()
///             .render_sequence(5).0.into_frames()
///     })
///     .collect();
/// let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
/// let mut multi = MultiGpuMog::<f64>::new(
///     Resolution::TINY,
///     MogParams::default(),
///     OptLevel::F,
///     &seeds,
///     GpuConfig::tesla_c2075(),
/// ).unwrap();
/// let frames: Vec<Vec<_>> = scenes.iter().map(|f| f[1..].to_vec()).collect();
/// let report = multi.process_all(&frames).unwrap();
/// assert_eq!(report.total_frames, 8);
/// assert!(report.aggregate_fps > 0.0);
/// ```
#[derive(Debug)]
pub struct MultiGpuMog<T: DeviceReal> {
    streams: Vec<GpuMog<T>>,
    cfg: GpuConfig,
    buffers_per_stream: usize,
    arrival_period: f64,
    site: String,
    slo: SloConfig,
    window: ServingWindowConfig,
}

impl<T: DeviceReal> MultiGpuMog<T> {
    /// Allocates one [`GpuMog`] per entry of `seed_frames`, all sharing
    /// the device-memory budget of `cfg` (stream `s` allocates from what
    /// streams `0..s` left over). Defaults to double buffering and
    /// offline (as-fast-as-possible) frame arrival.
    ///
    /// # Errors
    /// Configuration errors, and device out-of-memory once the combined
    /// footprint of the streams exceeds the device.
    pub fn new(
        resolution: Resolution,
        params: MogParams,
        level: OptLevel,
        seed_frames: &[&[u8]],
        cfg: GpuConfig,
    ) -> Result<Self, PipelineError> {
        if seed_frames.is_empty() {
            return Err(PipelineError::Config(
                "multi-stream pipeline needs at least one stream".into(),
            ));
        }
        let mut budget = cfg.device_mem_bytes;
        let mut streams = Vec::with_capacity(seed_frames.len());
        for seed in seed_frames {
            let mut sub = cfg.clone();
            sub.device_mem_bytes = budget;
            let gpu = GpuMog::<T>::new(resolution, params, level, seed, sub)?;
            budget = budget.saturating_sub(gpu.device_allocated());
            streams.push(gpu);
        }
        Ok(MultiGpuMog {
            streams,
            cfg,
            buffers_per_stream: DOUBLE_BUFFER,
            arrival_period: 0.0,
            site: format!("level {level}"),
            slo: SloConfig::default(),
            window: ServingWindowConfig::default(),
        })
    }

    /// Sets the in-flight device buffer count per stream (min 1;
    /// 2 = double buffering, the default).
    pub fn with_buffers(mut self, buffers: usize) -> Self {
        self.buffers_per_stream = buffers.max(1);
        self
    }

    /// Paces every stream at one frame per `period` seconds (a live
    /// camera), instead of the offline default where all frames are
    /// available up front.
    pub fn with_arrival_period(mut self, period: f64) -> Self {
        self.arrival_period = period.max(0.0);
        self
    }

    /// Sets the serving SLO every frame's end-to-end latency is judged
    /// against (default: 40 ms deadline, 1% error budget).
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the serving snapshot window on the schedule clock (seconds;
    /// 0 = auto-size to makespan / 8).
    pub fn with_window(mut self, window_s: f64) -> Self {
        self.window = ServingWindowConfig {
            window_s: window_s.max(0.0),
        };
        self
    }

    /// Number of streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Combined device bytes allocated across all streams.
    pub fn device_allocated(&self) -> usize {
        self.streams.iter().map(GpuMog::device_allocated).sum()
    }

    /// Processes each stream's frame sequence: functional execution is
    /// stream-parallel (independent model states), timing is serialized
    /// through the shared-engine [`StreamScheduler`]. A rejected call
    /// leaves every stream's model untouched.
    ///
    /// # Errors
    /// Mismatched stream count, empty streams, a frame of the wrong
    /// resolution, and any per-stream pipeline error.
    pub fn process_all(
        &mut self,
        frames_per_stream: &[Vec<Frame<u8>>],
    ) -> Result<MultiStreamReport, PipelineError> {
        let reports = process_streams(&mut self.streams, frames_per_stream)?;

        // Timing pass: place every stream's stages on the shared engines.
        let inputs: Vec<StreamInput> = reports
            .iter()
            .map(|r| StreamInput {
                stages: r
                    .per_frame_kernel_times
                    .iter()
                    .map(|&k| StageTimes {
                        h2d: r.h2d_per_frame,
                        kernel: k,
                        d2h: r.d2h_per_frame,
                    })
                    .collect(),
                arrival_period: self.arrival_period,
            })
            .collect();
        let schedule = StreamScheduler::new(self.buffers_per_stream)
            .try_schedule(&inputs, &self.cfg)
            .map_err(|e| PipelineError::Config(format!("invalid stream input: {e}")))?;
        let per_stream_counters: Vec<(&mogpu_sim::KernelStats, &mogpu_sim::Occupancy)> =
            reports.iter().map(|r| (&r.stats, &r.occupancy)).collect();
        let telemetry = sample_streams(
            &schedule,
            &per_stream_counters,
            &self.cfg,
            &TelemetryConfig::default(),
        );

        let per_stream = reports
            .into_iter()
            .enumerate()
            .map(|(s, r)| {
                let completion = schedule.stream_completion(s);
                StreamRunReport {
                    frames: r.frames,
                    kernel_time_total: r.kernel_time_total,
                    latency: schedule.stream_latency(s),
                    completion,
                    fps: if completion > 0.0 {
                        r.frames as f64 / completion
                    } else {
                        0.0
                    },
                    masks: r.masks,
                }
            })
            .collect::<Vec<_>>();
        let total_frames = schedule.total_frames();
        let makespan = schedule.makespan();
        let arrival_periods = vec![self.arrival_period; inputs.len()];
        let serving = serving_report(
            &schedule,
            &arrival_periods,
            &self.cfg.name,
            &self.site,
            &self.slo,
            &self.window,
            Some(&telemetry),
        );
        Ok(MultiStreamReport {
            per_stream,
            total_frames,
            makespan,
            aggregate_fps: schedule.aggregate_fps(),
            kernel_utilization: schedule.kernel_utilization(),
            schedule,
            telemetry,
            serving,
        })
    }
}

/// The functional pass of a multi-stream call: each stream's frames
/// through its own pipeline, the streams in parallel since they share no
/// model state. Every stream's frames are checked before any stream
/// runs, so a rejected call leaves every stream untouched. Errors come in
/// stream order.
pub(crate) fn process_streams<T: DeviceReal, P: KernelPlan + Send>(
    streams: &mut [Pipeline<T, P>],
    frames_per_stream: &[Vec<Frame<u8>>],
) -> Result<Vec<RunReport>, PipelineError> {
    if frames_per_stream.len() != streams.len() {
        return Err(PipelineError::Config(format!(
            "{} frame sequences for {} streams",
            frames_per_stream.len(),
            streams.len()
        )));
    }
    if frames_per_stream.iter().any(Vec::is_empty) {
        return Err(PipelineError::Config(
            "every stream needs at least one frame".into(),
        ));
    }
    for (gpu, frames) in streams.iter().zip(frames_per_stream) {
        gpu.check_frames(frames)?;
    }
    // Each slot is locked exactly once, by its own index.
    type Slot<'a, T, P> = Mutex<(&'a mut Pipeline<T, P>, &'a [Frame<u8>])>;
    let slots: Vec<Slot<'_, T, P>> = streams
        .iter_mut()
        .zip(frames_per_stream)
        .map(|(gpu, frames)| Mutex::new((gpu, frames.as_slice())))
        .collect();
    let results: Vec<Result<RunReport, PipelineError>> = (0..slots.len())
        .into_par_iter()
        .map(|s| {
            let mut slot = slots[s].lock().expect("stream slot poisoned");
            let (gpu, frames) = &mut *slot;
            gpu.process_all(frames)
        })
        .collect();
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogpu_frame::SceneBuilder;

    fn scene_frames(seed: u64, n: usize) -> Vec<Frame<u8>> {
        SceneBuilder::new(Resolution::TINY)
            .seed(seed)
            .walkers(2)
            .build()
            .render_sequence(n)
            .0
            .into_frames()
    }

    fn multi(seeds: &[Vec<Frame<u8>>], level: OptLevel) -> MultiGpuMog<f64> {
        let seed_slices: Vec<&[u8]> = seeds.iter().map(|f| f[0].as_slice()).collect();
        MultiGpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            level,
            &seed_slices,
            GpuConfig::tesla_c2075(),
        )
        .unwrap()
    }

    /// The multi-stream pipeline with one stream is the single-stream
    /// pipeline: masks bit-identical to `GpuMog::process_all`.
    #[test]
    fn single_stream_is_bit_identical_to_gpu_mog() {
        let frames = scene_frames(11, 7);
        for level in [OptLevel::B, OptLevel::F] {
            let mut single = GpuMog::<f64>::new(
                Resolution::TINY,
                MogParams::default(),
                level,
                frames[0].as_slice(),
                GpuConfig::tesla_c2075(),
            )
            .unwrap();
            let expect = single.process_all(&frames[1..]).unwrap();
            let mut m = multi(std::slice::from_ref(&frames), level);
            let got = m.process_all(&[frames[1..].to_vec()]).unwrap();
            assert_eq!(got.per_stream.len(), 1);
            assert_eq!(got.per_stream[0].masks, expect.masks, "level {level}");
            assert_eq!(got.total_frames, expect.frames);
        }
    }

    /// Each stream's masks match what that stream would produce alone —
    /// multiplexing affects timing, never output.
    #[test]
    fn streams_are_functionally_independent() {
        let a = scene_frames(1, 6);
        let b = scene_frames(2, 6);
        let mut m = multi(&[a.clone(), b.clone()], OptLevel::F);
        let report = m.process_all(&[a[1..].to_vec(), b[1..].to_vec()]).unwrap();
        for (frames, stream) in [(&a, &report.per_stream[0]), (&b, &report.per_stream[1])] {
            let mut solo = GpuMog::<f64>::new(
                Resolution::TINY,
                MogParams::default(),
                OptLevel::F,
                frames[0].as_slice(),
                GpuConfig::tesla_c2075(),
            )
            .unwrap();
            let expect = solo.process_all(&frames[1..]).unwrap();
            assert_eq!(stream.masks, expect.masks);
        }
        assert_eq!(report.total_frames, 10);
        assert!(report.makespan > 0.0);
        assert!(report.worst_latency() > 0.0);
    }

    #[test]
    fn streams_share_one_device_memory_budget() {
        let frames = scene_frames(3, 2);
        let mut cfg = GpuConfig::tesla_c2075();
        // Enough for roughly one stream's model + buffers only.
        let one = multi(std::slice::from_ref(&frames), OptLevel::F);
        cfg.device_mem_bytes = one.device_allocated() + 512;
        let seeds: Vec<&[u8]> = vec![frames[0].as_slice(); 3];
        let err = MultiGpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            &seeds,
            cfg,
        );
        assert!(
            matches!(err, Err(PipelineError::Memory(_))),
            "over-committing the device must fail"
        );
    }

    /// A frame of the wrong resolution in stream 1 rejects the call
    /// before stream 0 runs: its model is still the freshly seeded one.
    #[test]
    fn rejected_call_leaves_every_stream_untouched() {
        let (a, b) = (scene_frames(5, 4), scene_frames(6, 4));
        let mut m = multi(&[a.clone(), b.clone()], OptLevel::F);
        let wrong = Frame::new(Resolution::new(8, 8));
        let err = m.process_all(&[a[1..].to_vec(), vec![b[1].clone(), wrong]]);
        assert!(matches!(err, Err(PipelineError::Config(_))));
        let fresh = multi(std::slice::from_ref(&a), OptLevel::F);
        let seed = a[0].as_slice();
        assert!(
            m.streams[0].download_model(seed) == fresh.streams[0].download_model(seed),
            "stream 0's model advanced in a rejected call"
        );
    }

    #[test]
    fn mismatched_stream_count_rejected() {
        let frames = scene_frames(4, 3);
        let mut m = multi(std::slice::from_ref(&frames), OptLevel::F);
        assert!(matches!(m.process_all(&[]), Err(PipelineError::Config(_))));
        assert!(matches!(
            m.process_all(&[frames[1..].to_vec(), frames[1..].to_vec()]),
            Err(PipelineError::Config(_))
        ));
        assert!(matches!(
            m.process_all(&[Vec::new()]),
            Err(PipelineError::Config(_))
        ));
    }

    /// The embedded serving report agrees with the schedule: same frame
    /// counts, frame-latency histogram percentiles bracketing the exact
    /// per-stream percentiles, and device/site labels set.
    #[test]
    fn serving_report_agrees_with_schedule() {
        let a = scene_frames(6, 8);
        let b = scene_frames(7, 8);
        let mut m = multi(&[a.clone(), b.clone()], OptLevel::F)
            .with_slo(SloConfig {
                deadline_s: 1e-6, // everything violates
                error_budget: 0.01,
            })
            .with_window(0.0);
        let r = m.process_all(&[a[1..].to_vec(), b[1..].to_vec()]).unwrap();
        let serving = &r.serving;
        assert_eq!(serving.device, GpuConfig::tesla_c2075().name);
        assert_eq!(serving.site, "level F");
        assert_eq!(serving.streams.len(), 2);
        for (s, stream) in serving.streams.iter().enumerate() {
            assert_eq!(stream.frames_completed as usize, r.per_stream[s].frames);
            // Offline streams: e2e == sojourn, so every frame violates
            // the 1 µs deadline and the exact p99 of the report's
            // LatencyStats falls inside the histogram's p99 bucket.
            assert_eq!(stream.slo_violations, stream.frames_completed);
            let exact = r.per_stream[s].latency.p99;
            let (lo, hi) = stream.frame_latency.quantile_bounds(0.99);
            assert!(
                exact > lo && exact <= hi,
                "stream {s}: exact p99 {exact} outside ({lo}, {hi}]"
            );
        }
        // Violations in the report equal violation events in the log.
        let event_violations = serving
            .events
            .iter()
            .filter(|e| e.event == mogpu_sim::serving::EventKind::SloViolation)
            .count() as u64;
        assert_eq!(serving.total_violations(), event_violations);
        assert!((serving.makespan_s - r.makespan).abs() < 1e-12);
    }

    /// Device sojourn latency stays bounded as sequences grow — the
    /// regression the bounded buffer cap fixes.
    #[test]
    fn latency_is_bounded_by_the_buffer_cap() {
        let short = scene_frames(5, 5);
        let long = scene_frames(5, 17);
        let mut m_short = multi(std::slice::from_ref(&short), OptLevel::C);
        let mut m_long = multi(std::slice::from_ref(&long), OptLevel::C);
        let r_short = m_short.process_all(&[short[1..].to_vec()]).unwrap();
        let r_long = m_long.process_all(&[long[1..].to_vec()]).unwrap();
        // 4x the frames must not grow worst-case device latency by more
        // than pipeline-fill noise.
        assert!(
            r_long.worst_latency() < 2.0 * r_short.worst_latency(),
            "short {} vs long {}",
            r_short.worst_latency(),
            r_long.worst_latency()
        );
    }
}
