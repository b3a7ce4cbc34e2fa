//! Fleet host pipeline: prices real MoG camera streams on every device
//! class of a heterogeneous fleet and hands the demands to the
//! [`mogpu_sim::fleet`] dispatcher.
//!
//! [`MultiGpuMog`](crate::MultiGpuMog) multiplexes streams onto *one*
//! simulated device and fails with an out-of-memory error when
//! over-committed. [`FleetPipeline`] is the generalization the ROADMAP
//! asks for: M devices of heterogeneous [`GpuConfig`] presets, streams
//! sharded by modelled load, and graceful *shedding* (attributed
//! `frame_dropped` events) instead of an OOM error when the fleet is
//! oversubscribed.
//!
//! The functional work runs **once**, on the first device class as the
//! reference — MoG masks are config-invariant (every preset shares the
//! warp width, block limits and segment size the kernels see), so
//! per-class re-execution would change nothing but timing. Per-class
//! timing comes from a one-frame **probe**: a real [`GpuMog`] pipeline
//! on each class whose measured kernel/transfer times give the class's
//! scaling ratio over the reference. A stream's per-class
//! [`StageTimes`]: the reference run's per-frame kernel times scaled by
//! the probe ratio, plus the probe's own per-frame transfer times (PCIe
//! and copy-engine differences are what make the classes heterogeneous
//! on the serving path). Memory footprints come from the probes'
//! [`GpuMog::device_allocated`].
//!
//! The functional pass is the multi-stream pipeline's stream loop
//! (`streams::process_streams`): every stream's frames are checked before
//! any stream runs, then the streams run in parallel, each on `GpuMog`'s
//! cached launch plan ([`mogpu_sim::BatchLauncher`]), so launch
//! validation and occupancy are derived once per stream, not per frame.

use crate::device::DeviceReal;
use crate::levels::OptLevel;
use crate::pipeline::{GpuMog, PipelineError};
use crate::streams::process_streams;
use mogpu_frame::{Frame, Resolution};
use mogpu_mog::MogParams;
use mogpu_sim::fleet::{
    advise_fleet, fleet_report, FleetAdvisory, FleetOptions, FleetReport, FleetSpec, FleetStream,
};
use mogpu_sim::serving::{ServingWindowConfig, SloConfig};
use mogpu_sim::streams::{StageTimes, StreamInput, DOUBLE_BUFFER};
use mogpu_sim::GpuConfig;

/// Result of a fleet run: the sim-layer [`FleetReport`] plus the ranked
/// which-device-to-add advisories derived from it.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// The fleet serving report (per-device serving reports, shed
    /// records, drop events, merged histograms).
    pub report: FleetReport,
    /// Counterfactual advisories, best first ([`advise_fleet`]).
    pub advisories: Vec<FleetAdvisory>,
    /// Frames offered per stream (admitted or not), in stream order.
    pub frames_per_stream: Vec<usize>,
}

/// Real MoG streams dispatched across a fleet of heterogeneous
/// simulated devices.
///
/// ```
/// use mogpu_core::{FleetPipeline, OptLevel};
/// use mogpu_frame::{Resolution, SceneBuilder};
/// use mogpu_mog::MogParams;
///
/// let scenes: Vec<_> = (0..2u64)
///     .map(|s| {
///         SceneBuilder::new(Resolution::TINY).seed(s).walkers(1).build()
///             .render_sequence(4).0.into_frames()
///     })
///     .collect();
/// let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
/// let mut fleet = FleetPipeline::<f64>::new(
///     Resolution::TINY,
///     MogParams::default(),
///     OptLevel::F,
///     &seeds,
///     &["c2075", "embedded"],
/// ).unwrap();
/// let frames: Vec<Vec<_>> = scenes.iter().map(|f| f[1..].to_vec()).collect();
/// let run = fleet.process_all(&frames).unwrap();
/// assert_eq!(run.report.streams_total(), 2);
/// ```
pub struct FleetPipeline<T: DeviceReal> {
    resolution: Resolution,
    params: MogParams,
    level: OptLevel,
    spec: FleetSpec,
    class_cfgs: Vec<GpuConfig>,
    streams: Vec<GpuMog<T>>,
    arrival_period: f64,
    buffers: usize,
    slo: SloConfig,
    window: ServingWindowConfig,
    headroom: f64,
}

impl<T: DeviceReal> FleetPipeline<T> {
    /// Builds the fleet from [`GpuConfig::preset`] keys (duplicates add
    /// instances of a class) and allocates one reference-class
    /// [`GpuMog`] per entry of `seed_frames` for the functional pass.
    ///
    /// # Errors
    /// Unknown preset keys, an empty fleet or stream set, and any
    /// per-stream pipeline construction error.
    pub fn new(
        resolution: Resolution,
        params: MogParams,
        level: OptLevel,
        seed_frames: &[&[u8]],
        device_keys: &[&str],
    ) -> Result<Self, PipelineError> {
        if seed_frames.is_empty() {
            return Err(PipelineError::Config(
                "fleet pipeline needs at least one stream".into(),
            ));
        }
        if device_keys.is_empty() {
            return Err(PipelineError::Config(
                "fleet pipeline needs at least one device".into(),
            ));
        }
        let (spec, class_cfgs) =
            FleetSpec::from_preset_keys(device_keys).map_err(PipelineError::Config)?;
        // The functional pass prices streams on the reference class
        // (class 0); its device memory is irrelevant here, so lift the
        // budget — admission control, not construction, decides fit.
        let mut ref_cfg = class_cfgs[0].clone();
        ref_cfg.device_mem_bytes = usize::MAX;
        let mut streams = Vec::with_capacity(seed_frames.len());
        for seed in seed_frames {
            streams.push(GpuMog::<T>::new(
                resolution,
                params,
                level,
                seed,
                ref_cfg.clone(),
            )?);
        }
        Ok(FleetPipeline {
            resolution,
            params,
            level,
            spec,
            class_cfgs,
            streams,
            arrival_period: 0.0,
            buffers: DOUBLE_BUFFER,
            slo: SloConfig::default(),
            window: ServingWindowConfig::default(),
            headroom: 1.0,
        })
    }

    /// Paces every stream at one frame per `period` seconds.
    pub fn with_arrival_period(mut self, period: f64) -> Self {
        self.arrival_period = period.max(0.0);
        self
    }

    /// Sets the in-flight device buffer count per stream (min 1).
    pub fn with_buffers(mut self, buffers: usize) -> Self {
        self.buffers = buffers.max(1);
        self
    }

    /// Sets the SLO every stream is judged against.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the serving snapshot window (seconds; 0 = auto).
    pub fn with_window(mut self, window_s: f64) -> Self {
        self.window = ServingWindowConfig {
            window_s: window_s.max(0.0),
        };
        self
    }

    /// Sets the dispatcher's engine headroom (load admission ceiling).
    pub fn with_headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom.max(0.0);
        self
    }

    /// Overrides every device's memory budget in bytes — the lever the
    /// oversubscription tests and demos use.
    pub fn with_device_mem(mut self, bytes: usize) -> Self {
        self.spec = self.spec.clone().with_budget(bytes);
        self
    }

    /// Number of streams offered to the fleet.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.spec.devices.len()
    }

    /// Runs the functional pass (stream-parallel, reference class),
    /// probes each class's timing, shards the streams across the fleet
    /// and assembles the [`FleetRunReport`] with advisories. Frames are
    /// checked before any stream runs, so an invalid one leaves every
    /// stream's model untouched.
    ///
    /// # Errors
    /// Mismatched stream count, empty streams, a frame of the wrong
    /// resolution, per-stream pipeline errors, and demand validation
    /// errors from the dispatcher.
    pub fn process_all(
        &mut self,
        frames_per_stream: &[Vec<Frame<u8>>],
    ) -> Result<FleetRunReport, PipelineError> {
        // Functional + reference-timing pass.
        let reports = process_streams(&mut self.streams, frames_per_stream)?;

        // One-frame probe per class: measured kernel + transfer times on
        // that class, and the stream memory footprint.
        let probe_frames = &frames_per_stream[0];
        let seed = probe_frames[0].as_slice();
        let mut probes = Vec::with_capacity(self.class_cfgs.len());
        for cfg in &self.class_cfgs {
            let mut probe_cfg = cfg.clone();
            probe_cfg.device_mem_bytes = usize::MAX;
            let mut probe =
                GpuMog::<T>::new(self.resolution, self.params, self.level, seed, probe_cfg)?;
            let r = probe.process_all(&probe_frames[..1])?;
            probes.push((
                r.kernel_time_per_frame(),
                r.h2d_per_frame,
                r.d2h_per_frame,
                probe.device_allocated(),
            ));
        }
        let ref_probe_kernel = probes[0].0;

        // Per-class demands: reference per-frame kernel times scaled by
        // the class's probe ratio; transfers straight from the probe.
        let demands: Vec<FleetStream> = reports
            .iter()
            .map(|r| {
                let per_class = probes
                    .iter()
                    .map(|&(probe_kernel, h2d, d2h, _)| {
                        let ratio = if ref_probe_kernel > 0.0 {
                            probe_kernel / ref_probe_kernel
                        } else {
                            1.0
                        };
                        StreamInput {
                            stages: r
                                .per_frame_kernel_times
                                .iter()
                                .map(|&k| StageTimes {
                                    h2d,
                                    kernel: k * ratio,
                                    d2h,
                                })
                                .collect(),
                            arrival_period: self.arrival_period,
                        }
                    })
                    .collect();
                FleetStream {
                    per_class,
                    mem_per_class: probes.iter().map(|&(_, _, _, mem)| mem).collect(),
                }
            })
            .collect();

        let opts = FleetOptions {
            slo: self.slo,
            window: self.window,
            buffers: self.buffers,
            site: format!("level {}", self.level),
            headroom: self.headroom,
        };
        let report = fleet_report(&self.spec, &demands, &opts)
            .map_err(|e| PipelineError::Config(format!("invalid fleet demand: {e}")))?;
        let advisories = advise_fleet(&report);
        Ok(FleetRunReport {
            report,
            advisories,
            frames_per_stream: frames_per_stream.iter().map(Vec::len).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogpu_frame::SceneBuilder;
    use mogpu_sim::serving::EventKind;

    fn scene_frames(seed: u64, n: usize) -> Vec<Frame<u8>> {
        SceneBuilder::new(Resolution::TINY)
            .seed(seed)
            .walkers(2)
            .build()
            .render_sequence(n)
            .0
            .into_frames()
    }

    fn fleet(
        n_streams: u64,
        frames: usize,
        keys: &[&str],
    ) -> (FleetPipeline<f64>, Vec<Vec<Frame<u8>>>) {
        let scenes: Vec<Vec<Frame<u8>>> = (0..n_streams).map(|s| scene_frames(s, frames)).collect();
        let seeds: Vec<&[u8]> = scenes.iter().map(|f| f[0].as_slice()).collect();
        let fleet = FleetPipeline::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            &seeds,
            keys,
        )
        .unwrap();
        let rest: Vec<Vec<Frame<u8>>> = scenes.iter().map(|f| f[1..].to_vec()).collect();
        (fleet, rest)
    }

    #[test]
    fn fleet_admits_light_load_and_reports_heterogeneous_devices() {
        let (fleet, frames) = fleet(3, 4, &["c2075", "embedded", "hbm"]);
        let mut fleet = fleet.with_arrival_period(0.5); // very light live load
        let run = fleet.process_all(&frames).unwrap();
        assert_eq!(run.report.devices.len(), 3);
        assert_eq!(run.report.streams_total(), 3);
        assert_eq!(run.report.streams_admitted(), 3);
        assert!(run.report.shed.is_empty());
        // Heterogeneous pricing: the embedded class must be slower than
        // the HBM class for the same stream.
        let d = &run.report.demands[0];
        let kernel_of = |c: usize| d.per_class[c].stages[0].kernel;
        assert!(kernel_of(1) > kernel_of(2), "embedded slower than hbm");
        assert_eq!(run.advisories.len(), 3);
    }

    #[test]
    fn oversubscribed_fleet_sheds_with_drop_events_not_oom() {
        // One tiny memory budget forces shedding by memory: with 1 KiB
        // per device nothing fits, so every stream sheds gracefully.
        let (fleet, frames) = fleet(3, 3, &["c2075", "embedded"]);
        let mut fleet = fleet.with_device_mem(1024);
        let run = fleet.process_all(&frames).unwrap();
        assert_eq!(run.report.streams_admitted(), 0);
        assert_eq!(run.report.shed.len(), 3);
        assert!(run.report.frames_dropped() > 0);
        assert!(run
            .report
            .drop_events
            .iter()
            .all(|e| e.event == EventKind::FrameDropped));
        for s in &run.report.shed {
            assert_eq!(s.reason, "memory");
        }
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let (mut fleet, _) = fleet(2, 3, &["c2075"]);
        assert!(matches!(
            fleet.process_all(&[]),
            Err(PipelineError::Config(_))
        ));
        assert!(matches!(
            fleet.process_all(&[Vec::new(), Vec::new()]),
            Err(PipelineError::Config(_))
        ));
        let err = FleetPipeline::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            &[&[0u8; 4][..]],
            &["nonsense"],
        );
        assert!(matches!(err, Err(PipelineError::Config(_))));
    }
}
