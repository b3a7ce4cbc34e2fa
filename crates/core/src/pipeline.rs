//! The host-side frame pipeline and the library's main entry point,
//! [`GpuMog`].
//!
//! Mirrors the paper's host loop: Gaussian parameters are initialized once
//! and live in GPU global memory for the whole run (they never cross
//! PCIe); each frame is DMA-uploaded, the level's kernel is launched, and
//! the foreground mask is DMA-downloaded. Depending on the optimization
//! level the transfers are scheduled sequentially (A, B) or double-
//! buffered against kernel execution (C onward, Fig. 5), and frames are
//! processed singly or in windowed groups (level W).

use crate::device::DeviceReal;
use crate::kernels::{FramePass, MorphKernel, MorphOp, ScanKernel, SortedKernel, TiledKernel};
use crate::layout::DeviceModel;
use crate::levels::OptLevel;
use crate::profile::{LaunchProfile, ProfileMode, ProfileReport};
use mogpu_frame::{Frame, Mask, Resolution};
use mogpu_mog::{HostModel, MogParams, ResolvedParams};
use mogpu_sim::dma::{pipeline_schedule, timing_of, transfer_time, PipelineTiming};
use mogpu_sim::telemetry::{sample_schedule, PipelineTelemetry, TelemetryConfig};
use mogpu_sim::{
    BatchLauncher, Buffer, DataflowGraph, DataflowRecorder, DerivedMetrics, DeviceMemory,
    GpuConfig, IntervalSet, KernelStats, LaunchConfig, LaunchError, LaunchOptions, LaunchReport,
    MemoryError, Occupancy, SanReport, SiteProfile,
};

/// Threads per block, as the paper selects.
pub const THREADS_PER_BLOCK: u32 = 128;

/// Errors from pipeline construction or execution.
#[derive(Debug)]
pub enum PipelineError {
    /// Invalid user configuration.
    Config(String),
    /// Device allocation failed.
    Memory(MemoryError),
    /// Kernel launch rejected.
    Launch(LaunchError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Config(m) => write!(f, "pipeline configuration error: {m}"),
            PipelineError::Memory(e) => write!(f, "device memory error: {e}"),
            PipelineError::Launch(e) => write!(f, "kernel launch error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<MemoryError> for PipelineError {
    fn from(e: MemoryError) -> Self {
        PipelineError::Memory(e)
    }
}

impl From<LaunchError> for PipelineError {
    fn from(e: LaunchError) -> Self {
        PipelineError::Launch(e)
    }
}

/// Aggregate result of processing a frame sequence.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Foreground masks, one per processed frame.
    pub masks: Vec<Mask>,
    /// Frames processed.
    pub frames: usize,
    /// Profiler counters summed over all launches.
    pub stats: KernelStats,
    /// Kernel occupancy (identical across launches of a run).
    pub occupancy: Occupancy,
    /// Modelled kernel execution time, summed (seconds).
    pub kernel_time_total: f64,
    /// Modelled kernel seconds attributed to each frame, in order (a
    /// grouped level-W launch's time is split evenly across its group).
    pub per_frame_kernel_times: Vec<f64>,
    /// Modelled per-direction DMA time per frame (seconds).
    pub h2d_per_frame: f64,
    /// Modelled device-to-host DMA time per frame (seconds).
    pub d2h_per_frame: f64,
    /// End-to-end pipeline schedule under the level's overlap mode.
    pub pipeline: PipelineTiming,
    /// Derived profiler metrics (branch/memory efficiency, transactions).
    pub metrics: DerivedMetrics,
    /// Time-resolved per-SM and device-wide counter series over the
    /// run's pipeline schedule (always collected; the aggregate counters
    /// distributed over the scheduled spans).
    pub telemetry: PipelineTelemetry,
}

impl RunReport {
    /// Modelled kernel seconds per frame.
    pub fn kernel_time_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.kernel_time_total / self.frames as f64
        }
    }

    /// Modelled end-to-end GPU seconds per frame (transfers included,
    /// scheduled per the level's overlap mode).
    pub fn gpu_time_per_frame(&self) -> f64 {
        self.pipeline.per_frame
    }

    /// Speedup of this run over a CPU time for the same frame count.
    pub fn speedup_over(&self, cpu_seconds_per_frame: f64) -> f64 {
        if self.pipeline.per_frame == 0.0 {
            f64::INFINITY
        } else {
            cpu_seconds_per_frame / self.pipeline.per_frame
        }
    }
}

/// A GPU background subtractor at a chosen optimization level.
///
/// ```
/// use mogpu_core::{GpuMog, OptLevel};
/// use mogpu_frame::{Resolution, SceneBuilder};
/// use mogpu_mog::MogParams;
/// use mogpu_sim::GpuConfig;
///
/// let scene = SceneBuilder::new(Resolution::TINY).walkers(1).build();
/// let (frames, _) = scene.render_sequence(6);
/// let frames = frames.into_frames();
/// let mut gpu = GpuMog::<f64>::new(
///     Resolution::TINY,
///     MogParams::default(),
///     OptLevel::F,
///     frames[0].as_slice(),
///     GpuConfig::tesla_c2075(),
/// ).unwrap();
/// let report = gpu.process_all(&frames[1..]).unwrap();
/// assert_eq!(report.masks.len(), 5);
/// assert!(report.gpu_time_per_frame() > 0.0);
/// ```
#[derive(Debug)]
pub struct GpuMog<T: DeviceReal> {
    cfg: GpuConfig,
    level: OptLevel,
    params: MogParams,
    prm: ResolvedParams<T>,
    resolution: Resolution,
    mem: DeviceMemory,
    model: DeviceModel<T>,
    frame_bufs: Vec<Buffer>,
    fg_bufs: Vec<Buffer>,
    threads_per_block: u32,
    /// Launch plan cached across frames: the grid and kernel resources
    /// are fixed by (resolution, level, k, block size), so grid
    /// validation and occupancy derivation happen once per run instead
    /// of once per frame. Cleared when the block size changes.
    launcher: Option<BatchLauncher>,
    profile: ProfileMode,
    last_profile: Option<ProfileReport>,
    sanitize: bool,
    last_san: Option<SanReport>,
    /// Cross-launch dataflow recorder (None = recording off, the
    /// default; launches then skip access capture entirely).
    dataflow: Option<DataflowRecorder>,
    /// Morphological-opening post-pass buffers, one `(tmp, out)` pair
    /// per group slot; empty until [`GpuMog::enable_morphology`].
    morph_bufs: Vec<(Buffer, Buffer)>,
    /// Global frame counter across `process_all` calls, attributing
    /// dataflow nodes to absolute frame indices.
    frames_seen: usize,
}

impl<T: DeviceReal> GpuMog<T> {
    /// Allocates device state and uploads the initial model (seeded from
    /// `first_frame`, exactly like the CPU reference).
    ///
    /// # Errors
    /// Configuration and device-memory errors.
    pub fn new(
        resolution: Resolution,
        params: MogParams,
        level: OptLevel,
        first_frame: &[u8],
        cfg: GpuConfig,
    ) -> Result<Self, PipelineError> {
        params.validate().map_err(PipelineError::Config)?;
        let pixels = resolution.pixels();
        if pixels == 0 {
            return Err(PipelineError::Config("zero-pixel resolution".into()));
        }
        if first_frame.len() != pixels {
            return Err(PipelineError::Config(format!(
                "seed frame has {} bytes, resolution {} needs {}",
                first_frame.len(),
                resolution,
                pixels
            )));
        }
        let group = level.group();
        let mut mem = DeviceMemory::with_config(&cfg);
        let model = DeviceModel::<T>::alloc(&mut mem, level.layout(), pixels, params.k)?;
        let mut frame_bufs = Vec::with_capacity(group);
        let mut fg_bufs = Vec::with_capacity(group);
        // Double buffering for overlapped levels is a scheduling concern
        // of the timing model; functionally one buffer set per group slot
        // suffices.
        for _ in 0..group {
            frame_bufs.push(mem.alloc(pixels)?);
            fg_bufs.push(mem.alloc(pixels)?);
        }
        let host = HostModel::<T>::init(pixels, params.k, &params, first_frame);
        model.upload(&mut mem, &host);
        Ok(GpuMog {
            cfg,
            level,
            params,
            prm: params.resolve(),
            resolution,
            mem,
            model,
            frame_bufs,
            fg_bufs,
            threads_per_block: THREADS_PER_BLOCK,
            launcher: None,
            profile: ProfileMode::Off,
            last_profile: None,
            sanitize: false,
            last_san: None,
            dataflow: None,
            morph_bufs: Vec::new(),
            frames_seen: 0,
        })
    }

    /// The configured optimization level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// The pipeline's frame resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Device bytes this pipeline's model and frame buffers occupy —
    /// what a multi-stream host must budget per stream.
    pub fn device_allocated(&self) -> usize {
        self.mem.allocated()
    }

    /// The simulated hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Overrides the launch block size (default
    /// [`THREADS_PER_BLOCK`]). Oversized blocks can make the kernel
    /// unlaunchable — `process_all` then fails with
    /// `LaunchError::ResourcesExceeded` wrapped in
    /// [`PipelineError::Launch`], which `mogpu advise` surfaces as a
    /// structured diagnostic.
    pub fn set_threads_per_block(&mut self, tpb: u32) {
        self.threads_per_block = tpb.max(1);
        // The cached plan was validated for the old grid.
        self.launcher = None;
    }

    /// Enables or disables profiling for subsequent `process_all` calls.
    /// Off (the default) costs nothing; On makes every launch aggregate
    /// per-site counters and `process_all` assemble a [`ProfileReport`].
    pub fn set_profile_mode(&mut self, mode: ProfileMode) {
        self.profile = mode;
    }

    /// Takes the report of the most recent profiled `process_all`.
    /// Returns `None` when profiling was off or no run has completed.
    pub fn take_profile_report(&mut self) -> Option<ProfileReport> {
        self.last_profile.take()
    }

    /// Enables or disables the sanitizer ([`mogpu_sim::sancheck`]) for
    /// subsequent `process_all` calls. Off (the default) costs nothing;
    /// on, every launch runs memcheck/racecheck/synccheck/initcheck and
    /// `process_all` accumulates the findings.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// Takes the sanitizer report of the most recent sanitized
    /// `process_all`. Returns `None` when sanitizing was off or no run
    /// has completed.
    pub fn take_san_report(&mut self) -> Option<SanReport> {
        self.last_san.take()
    }

    /// Enables cross-launch dataflow recording for subsequent
    /// `process_all` calls: every host upload, kernel launch, and host
    /// download is summarized into byte-interval read/write sets and
    /// stitched into the producer→consumer graph returned by
    /// [`GpuMog::dataflow_graph`]. Capture is observational — counters,
    /// masks, and timing are bit-identical to an unrecorded run. The
    /// host-side model initialization that `new` already performed is
    /// recorded as the graph's first node, so first-frame model reads
    /// attribute to it rather than appearing unattributed.
    pub fn enable_dataflow(&mut self) {
        if self.dataflow.is_some() {
            return;
        }
        let mut rec = DataflowRecorder::new();
        rec.record_upload("host-init", None, self.model.span_set());
        self.dataflow = Some(rec);
    }

    /// The dataflow graph recorded so far, or `None` when
    /// [`GpuMog::enable_dataflow`] was never called.
    pub fn dataflow_graph(&self) -> Option<DataflowGraph> {
        self.dataflow.as_ref().map(DataflowRecorder::finish)
    }

    /// Enables the 3x3 morphological-opening post-pass (erode then
    /// dilate, the paper's foreground-validation step) on every frame's
    /// mask, launched inside this pipeline's device memory so the
    /// MoG→morphology round trip is visible to the dataflow recorder.
    /// Downloaded masks become the opened masks. Morphology counters are
    /// recorded per launch in the dataflow graph but kept out of the
    /// run's MoG kernel stats, so per-level profile metrics keep their
    /// meaning.
    ///
    /// # Errors
    /// Device out-of-memory for the per-slot scratch masks.
    pub fn enable_morphology(&mut self) -> Result<(), PipelineError> {
        if !self.morph_bufs.is_empty() {
            return Ok(());
        }
        let pixels = self.resolution.pixels();
        for _ in 0..self.fg_bufs.len() {
            let tmp = self.mem.alloc(pixels)?;
            let out = self.mem.alloc(pixels)?;
            self.morph_bufs.push((tmp, out));
        }
        Ok(())
    }

    /// The algorithm parameters.
    pub fn params(&self) -> &MogParams {
        &self.params
    }

    /// Downloads the current device model (verification hook).
    pub fn download_model(&self, seed_frame: &[u8]) -> HostModel<T> {
        let template = HostModel::<T>::init(
            self.resolution.pixels(),
            self.params.k,
            &self.params,
            seed_frame,
        );
        self.model.download(&self.mem, &template)
    }

    fn frame_pass(&self, slot: usize) -> FramePass<T> {
        FramePass {
            model: self.model,
            frame: self.frame_bufs[slot],
            fg: self.fg_bufs[slot],
            pixels: self.resolution.pixels(),
            prm: self.prm,
            resources: self
                .level
                .resources(self.threads_per_block, self.params.k, T::BYTES),
        }
    }

    /// Returns the cached launch plan, building (and validating) it on
    /// first use after construction or a block-size change.
    fn launcher(&mut self) -> Result<BatchLauncher, PipelineError> {
        if let Some(l) = self.launcher {
            return Ok(l);
        }
        let lc = LaunchConfig::cover(self.resolution.pixels(), self.threads_per_block);
        let res = self
            .level
            .resources(self.threads_per_block, self.params.k, T::BYTES);
        let l = BatchLauncher::new(&self.cfg, lc, res)?;
        self.launcher = Some(l);
        Ok(l)
    }

    /// Runs the erode+dilate opening on one slot's foreground mask,
    /// inside the pipeline's device memory (so the recorder sees the
    /// MoG→morphology bytes), recording each launch as a `morphology`
    /// node. The stats stay out of the MoG run aggregate.
    fn run_morph(
        &mut self,
        slot: usize,
        frame: usize,
        opts: LaunchOptions,
    ) -> Result<(), PipelineError> {
        let (tmp, out) = self.morph_bufs[slot];
        let lc = LaunchConfig::cover(self.resolution.pixels(), self.threads_per_block);
        for (input, output, op) in [
            (self.fg_bufs[slot], tmp, MorphOp::Erode),
            (tmp, out, MorphOp::Dilate),
        ] {
            let k = MorphKernel {
                input,
                output,
                width: self.resolution.width,
                height: self.resolution.height,
                op,
            };
            let mut report = mogpu_sim::launch_with(&mut self.mem, &self.cfg, lc, &k, opts)?;
            if let Some(rec) = self.dataflow.as_mut() {
                if let Some(access) = report.access.take() {
                    rec.record_kernel(
                        "morphology",
                        Some(frame),
                        access,
                        report.stats.clone(),
                        report.occupancy,
                    );
                }
            }
        }
        Ok(())
    }

    /// Processes a group of up to `level.group()` frames with one launch
    /// (`base` = absolute index of the group's first frame), returning
    /// the masks and the launch's report.
    fn process_group(
        &mut self,
        frames: &[&Frame<u8>],
        base: usize,
    ) -> Result<(Vec<Mask>, LaunchReport), PipelineError> {
        for (slot, frame) in frames.iter().enumerate() {
            self.mem.upload(self.frame_bufs[slot], frame.as_slice());
            if let Some(rec) = self.dataflow.as_mut() {
                let b = self.frame_bufs[slot];
                rec.record_upload(
                    "host-upload",
                    Some(base + slot),
                    IntervalSet::from_span(b.addr(), b.len() as u64),
                );
            }
        }
        let launcher = self.launcher()?;
        let opts = LaunchOptions {
            profile_sites: self.profile.is_on(),
            sanitize: self.sanitize,
            dataflow: self.dataflow.is_some(),
        };
        let mut report = match self.level {
            OptLevel::A | OptLevel::B | OptLevel::C => {
                let k = SortedKernel {
                    pass: self.frame_pass(0),
                };
                launcher.launch(&mut self.mem, &self.cfg, &k, opts)
            }
            OptLevel::D => {
                let k = ScanKernel {
                    pass: self.frame_pass(0),
                    predicated: false,
                    recompute_diff: false,
                };
                launcher.launch(&mut self.mem, &self.cfg, &k, opts)
            }
            OptLevel::E => {
                let k = ScanKernel {
                    pass: self.frame_pass(0),
                    predicated: true,
                    recompute_diff: false,
                };
                launcher.launch(&mut self.mem, &self.cfg, &k, opts)
            }
            OptLevel::F => {
                let k = ScanKernel {
                    pass: self.frame_pass(0),
                    predicated: true,
                    recompute_diff: true,
                };
                launcher.launch(&mut self.mem, &self.cfg, &k, opts)
            }
            OptLevel::Windowed { .. } => {
                let k = TiledKernel {
                    pass: self.frame_pass(0),
                    frames: self.frame_bufs[..frames.len()].to_vec(),
                    fgs: self.fg_bufs[..frames.len()].to_vec(),
                    record_stride: None,
                };
                launcher.launch(&mut self.mem, &self.cfg, &k, opts)
            }
        };
        if let Some(rec) = self.dataflow.as_mut() {
            if let Some(access) = report.access.take() {
                // A grouped (level-W) launch covers the whole chunk;
                // attribute it to the group's first frame.
                rec.record_kernel(
                    "mog-update",
                    Some(base),
                    access,
                    report.stats.clone(),
                    report.occupancy,
                );
            }
        }
        let opened = !self.morph_bufs.is_empty();
        if opened {
            for slot in 0..frames.len() {
                self.run_morph(slot, base + slot, opts)?;
            }
        }

        let mut masks = Vec::with_capacity(frames.len());
        for slot in 0..frames.len() {
            let src = if opened {
                self.morph_bufs[slot].1
            } else {
                self.fg_bufs[slot]
            };
            let bytes = self.mem.download(src);
            if let Some(rec) = self.dataflow.as_mut() {
                rec.record_download(
                    "host-download",
                    Some(base + slot),
                    IntervalSet::from_span(src.addr(), src.len() as u64),
                );
            }
            masks.push(Frame::from_vec(self.resolution, bytes).expect("mask size"));
        }
        Ok((masks, report))
    }

    /// Processes a frame sequence, returning masks plus the full
    /// performance report.
    ///
    /// # Errors
    /// Resolution mismatches, launch failures.
    pub fn process_all(&mut self, frames: &[Frame<u8>]) -> Result<RunReport, PipelineError> {
        for f in frames {
            if f.resolution() != self.resolution {
                return Err(PipelineError::Config(format!(
                    "frame resolution {} differs from pipeline resolution {}",
                    f.resolution(),
                    self.resolution
                )));
            }
        }
        let group = self.level.group();
        let mut stats = KernelStats::default();
        let mut kernel_time = 0.0f64;
        let mut per_frame_kernel_times = Vec::with_capacity(frames.len());
        let mut occupancy = None;
        let mut masks = Vec::with_capacity(frames.len());
        let mut launches: Vec<LaunchProfile> = Vec::new();
        let mut sites = SiteProfile::new();
        let mut san = self.sanitize.then(SanReport::new);
        let frame_refs: Vec<&Frame<u8>> = frames.iter().collect();
        for chunk in frame_refs.chunks(group) {
            let base = self.frames_seen;
            self.frames_seen += chunk.len();
            let (group_masks, mut report) = self.process_group(chunk, base)?;
            if let (Some(acc), Some(r)) = (san.as_mut(), report.sanitizer.take()) {
                acc.merge(&r);
            }
            stats.merge(&report.stats);
            kernel_time += report.timing.total;
            per_frame_kernel_times.extend(std::iter::repeat_n(
                report.timing.total / chunk.len() as f64,
                chunk.len(),
            ));
            occupancy = Some(report.occupancy);
            if self.profile.is_on() {
                if let Some(s) = report.sites.take() {
                    sites.merge(&s);
                }
                launches.push(LaunchProfile {
                    index: launches.len(),
                    frames: chunk.len(),
                    stats: report.stats.clone(),
                    metrics: DerivedMetrics::from_stats(&report.stats, &self.cfg),
                    occupancy: report.occupancy,
                    timing: report.timing,
                });
            }
            masks.extend(group_masks);
        }
        let occupancy = occupancy.ok_or_else(|| {
            PipelineError::Config("no frames processed; cannot report occupancy".into())
        })?;

        let pixels = self.resolution.pixels();
        let t_h2d = transfer_time(pixels, &self.cfg);
        let t_d2h = transfer_time(pixels, &self.cfg);
        let per_frame_kernel = if frames.is_empty() {
            0.0
        } else {
            kernel_time / frames.len() as f64
        };
        let schedule = pipeline_schedule(
            frames.len(),
            t_h2d,
            per_frame_kernel,
            t_d2h,
            self.level.overlap(),
            &self.cfg,
        );
        let pipeline = timing_of(&schedule);
        let metrics = DerivedMetrics::from_stats(&stats, &self.cfg);
        let telemetry = sample_schedule(
            &schedule,
            &stats,
            &occupancy,
            &self.cfg,
            &TelemetryConfig::default(),
        );
        self.last_profile = self.profile.is_on().then(|| {
            // Stitch the graph only for a profile that reports it.
            let fusion = self
                .dataflow
                .as_ref()
                .map(|r| r.finish().fusion_candidates())
                .unwrap_or_default();
            ProfileReport::assemble(
                self.level.name(),
                self.level.overlap(),
                stats.clone(),
                occupancy,
                t_h2d,
                t_d2h,
                schedule,
                launches,
                std::mem::take(&mut sites),
                &fusion,
                &self.cfg,
            )
        });
        self.last_san = san;
        Ok(RunReport {
            masks,
            frames: frames.len(),
            stats,
            occupancy,
            kernel_time_total: kernel_time,
            per_frame_kernel_times,
            h2d_per_frame: t_h2d,
            d2h_per_frame: t_d2h,
            pipeline,
            metrics,
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogpu_frame::SceneBuilder;

    fn scene_frames(n: usize) -> Vec<Frame<u8>> {
        SceneBuilder::new(Resolution::TINY)
            .seed(21)
            .walkers(2)
            .build()
            .render_sequence(n)
            .0
            .into_frames()
    }

    fn run_level(level: OptLevel, frames: &[Frame<u8>]) -> (RunReport, GpuMog<f64>) {
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            level,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        let report = gpu.process_all(&frames[1..]).unwrap();
        (report, gpu)
    }

    #[test]
    fn all_levels_produce_masks() {
        let frames = scene_frames(6);
        for level in OptLevel::LADDER
            .into_iter()
            .chain([OptLevel::Windowed { group: 4 }])
        {
            let (report, _) = run_level(level, &frames);
            assert_eq!(report.masks.len(), 5, "level {level}");
            assert!(report.gpu_time_per_frame() > 0.0);
            assert!(report.occupancy.occupancy > 0.0);
        }
    }

    #[test]
    fn coalescing_improves_memory_efficiency() {
        let frames = scene_frames(4);
        let (a, _) = run_level(OptLevel::A, &frames);
        let (b, _) = run_level(OptLevel::B, &frames);
        assert!(
            b.metrics.mem_access_efficiency > 3.0 * a.metrics.mem_access_efficiency,
            "A: {:.3}, B: {:.3}",
            a.metrics.mem_access_efficiency,
            b.metrics.mem_access_efficiency
        );
        assert!(b.metrics.store_transactions < a.metrics.store_transactions / 3);
    }

    #[test]
    fn level_outputs_match_cpu_reference() {
        use mogpu_mog::SerialMog;
        let frames = scene_frames(8);
        for level in [OptLevel::B, OptLevel::D, OptLevel::E] {
            let mut cpu = SerialMog::<f64>::new(
                Resolution::TINY,
                MogParams::default(),
                level.cpu_variant(),
                frames[0].as_slice(),
            );
            let (report, _) = run_level(level, &frames);
            for (i, f) in frames[1..].iter().enumerate() {
                let cpu_mask = cpu.process(f);
                assert_eq!(cpu_mask, report.masks[i], "level {level} frame {i}");
            }
        }
    }

    #[test]
    fn windowed_matches_level_f_masks() {
        let frames = scene_frames(9);
        let (f_report, _) = run_level(OptLevel::F, &frames);
        let (w_report, _) = run_level(OptLevel::Windowed { group: 4 }, &frames);
        assert_eq!(f_report.masks, w_report.masks);
    }

    #[test]
    fn overlap_reduces_per_frame_time() {
        let frames = scene_frames(10);
        let (b, _) = run_level(OptLevel::B, &frames);
        let (c, _) = run_level(OptLevel::C, &frames);
        // Same kernel, overlapped transfers: C must be faster end to end.
        assert!(c.gpu_time_per_frame() < b.gpu_time_per_frame());
        // And roughly kernel-bound.
        assert!(c.gpu_time_per_frame() < b.gpu_time_per_frame() * 0.95);
    }

    #[test]
    fn profiled_run_yields_report_with_resolved_hotspots() {
        let frames = scene_frames(5);
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::D,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        // Off by default: no report.
        gpu.process_all(&frames[1..]).unwrap();
        assert!(gpu.take_profile_report().is_none());

        gpu.set_profile_mode(crate::profile::ProfileMode::On);
        let run = gpu.process_all(&frames[1..]).unwrap();
        let report = gpu
            .take_profile_report()
            .expect("profiled run must yield a report");
        assert_eq!(report.frames, 4);
        assert_eq!(report.launches.len(), 4);
        assert_eq!(report.frame_rate_history.len(), 4);
        assert!(report.fps > 0.0);
        assert_eq!(report.schedule.len(), 4);
        // Profiling must not change the profiler counters.
        assert_eq!(report.stats, run.stats);
        // The scan kernel has many instrumented sites; all must resolve
        // into the kernels module.
        let resolved: Vec<&str> = report
            .hotspots
            .iter()
            .filter_map(|h| h.source.as_deref())
            .collect();
        assert!(resolved.len() >= 3, "resolved sites: {resolved:?}");
        for src in &resolved {
            assert!(src.contains("kernels"), "unexpected site {src}");
        }
        // And the report is taken, not kept.
        assert!(gpu.take_profile_report().is_none());
    }

    #[test]
    fn profiling_does_not_change_masks() {
        let frames = scene_frames(6);
        let (plain, _) = run_level(OptLevel::F, &frames);
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        gpu.set_profile_mode(crate::profile::ProfileMode::On);
        let profiled = gpu.process_all(&frames[1..]).unwrap();
        assert_eq!(plain.masks, profiled.masks);
        assert_eq!(plain.stats, profiled.stats);
    }

    #[test]
    fn wrong_resolution_frame_rejected() {
        let frames = scene_frames(3);
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        let wrong: Frame<u8> = Frame::new(Resolution::QVGA);
        assert!(matches!(
            gpu.process_all(&[wrong]),
            Err(PipelineError::Config(_))
        ));
    }

    #[test]
    fn bad_seed_frame_rejected() {
        let r = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            &[0u8; 10],
            GpuConfig::tesla_c2075(),
        );
        assert!(matches!(r, Err(PipelineError::Config(_))));
    }

    #[test]
    fn dataflow_recording_does_not_perturb_masks_or_stats() {
        let frames = scene_frames(6);
        let (plain, _) = run_level(OptLevel::F, &frames);
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        gpu.enable_dataflow();
        let traced = gpu.process_all(&frames[1..]).unwrap();
        assert_eq!(plain.masks, traced.masks);
        assert_eq!(plain.stats, traced.stats);
        let graph = gpu.dataflow_graph().expect("graph after traced run");
        assert!(graph.nodes.iter().any(|n| n.name == "mog-update"));
    }

    #[test]
    fn dataflow_graph_conserves_bytes_and_surfaces_the_fusion_pair() {
        let frames = scene_frames(6);
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        gpu.enable_dataflow();
        gpu.enable_morphology().unwrap();
        gpu.process_all(&frames[1..]).unwrap();
        let graph = gpu.dataflow_graph().expect("graph");

        // Byte conservation, integer-exact: everything a node stores is
        // either consumed downstream, dead, or live at exit.
        for node in &graph.nodes {
            assert_eq!(
                node.stored_bytes,
                node.consumed_bytes + node.dead_store_bytes + node.live_at_exit_bytes,
                "conservation violated at {}",
                node.name
            );
        }
        // No edge can carry more than its producer stored.
        for e in &graph.edges {
            assert!(e.bytes <= graph.nodes[e.producer].stored_bytes);
        }
        // Exactly one aggregated candidate: mog-update feeding morphology.
        let cands = graph.fusion_candidates();
        assert_eq!(cands.len(), 1, "candidates: {cands:?}");
        assert_eq!(cands[0].producer, "mog-update");
        assert_eq!(cands[0].consumer, "morphology");
        assert!(cands[0].edge_bytes > 0);
        assert_eq!(cands[0].pairs, 5);
    }

    #[test]
    fn morphology_opens_masks_without_touching_kernel_stats() {
        let frames = scene_frames(6);
        let (plain, _) = run_level(OptLevel::F, &frames);
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        gpu.enable_morphology().unwrap();
        let opened = gpu.process_all(&frames[1..]).unwrap();
        // Morph launches run off to the side; the MoG counters and
        // timing inputs are untouched.
        assert_eq!(plain.stats, opened.stats);
        assert_eq!(plain.masks.len(), opened.masks.len());
        // An open (erode then dilate) never grows the foreground.
        for (p, o) in plain.masks.iter().zip(&opened.masks) {
            let fg_plain = p.as_slice().iter().filter(|&&v| v != 0).count();
            let fg_open = o.as_slice().iter().filter(|&&v| v != 0).count();
            assert!(fg_open <= fg_plain, "open grew the mask");
        }
    }

    #[test]
    fn adaptive_dataflow_graph_is_conservation_clean() {
        let frames = scene_frames(5);
        let mut gpu = AdaptiveGpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        gpu.enable_dataflow();
        gpu.process_all(&frames[1..]).unwrap();
        let graph = gpu.dataflow_graph().expect("graph");
        assert!(graph.nodes.iter().any(|n| n.name == "adaptive-update"));
        for node in &graph.nodes {
            assert_eq!(
                node.stored_bytes,
                node.consumed_bytes + node.dead_store_bytes + node.live_at_exit_bytes,
                "conservation violated at {}",
                node.name
            );
        }
    }

    #[test]
    fn f32_pipeline_runs() {
        let frames = scene_frames(5);
        let mut gpu = GpuMog::<f32>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        let report = gpu.process_all(&frames[1..]).unwrap();
        assert_eq!(report.masks.len(), 4);
        // Half-width parameters => fewer transactions than f64.
        assert!(report.stats.total_tx() > 0);
    }

    #[test]
    fn empty_sequence_is_an_error() {
        let frames = scene_frames(1);
        let mut gpu = GpuMog::<f64>::new(
            Resolution::TINY,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        assert!(gpu.process_all(&[]).is_err());
    }
}

/// Host pipeline for the adaptive component-count comparator of the
/// paper's Section II (related work \[18\]). Always SoA + double-buffered;
/// `params.k` acts as `k_max`.
#[derive(Debug)]
pub struct AdaptiveGpuMog<T: DeviceReal> {
    cfg: GpuConfig,
    prm: ResolvedParams<T>,
    resolution: Resolution,
    mem: DeviceMemory,
    model: DeviceModel<T>,
    active: Buffer,
    frame_buf: Buffer,
    fg_buf: Buffer,
    profile: ProfileMode,
    last_profile: Option<ProfileReport>,
    sanitize: bool,
    last_san: Option<SanReport>,
    dataflow: Option<DataflowRecorder>,
    frames_seen: usize,
}

impl<T: DeviceReal> AdaptiveGpuMog<T> {
    /// Allocates device state; every pixel starts with one component
    /// seeded from `first_frame`.
    ///
    /// # Errors
    /// Configuration and device-memory errors.
    pub fn new(
        resolution: Resolution,
        params: MogParams,
        first_frame: &[u8],
        cfg: GpuConfig,
    ) -> Result<Self, PipelineError> {
        params.validate().map_err(PipelineError::Config)?;
        let pixels = resolution.pixels();
        if first_frame.len() != pixels {
            return Err(PipelineError::Config("seed frame size mismatch".into()));
        }
        let mut mem = DeviceMemory::with_config(&cfg);
        let model =
            DeviceModel::<T>::alloc(&mut mem, crate::layout::Layout::Soa, pixels, params.k)?;
        let active = mem.alloc(pixels)?;
        let frame_buf = mem.alloc(pixels)?;
        let fg_buf = mem.alloc(pixels)?;
        // Seed: one active component per pixel, parameters through the
        // SoA layout.
        let host =
            mogpu_mog::adaptive::AdaptiveModel::<T>::init(pixels, params.k, &params, first_frame);
        let k = params.k;
        for p in 0..pixels {
            mem.write_u8(active, p, 1);
            for ki in 0..k {
                let idx = p * k + ki;
                model.host_write_params(&mut mem, p, ki, host.w[idx], host.m[idx], host.sd[idx]);
            }
        }
        Ok(AdaptiveGpuMog {
            cfg,
            prm: params.resolve(),
            resolution,
            mem,
            model,
            active,
            frame_buf,
            fg_buf,
            profile: ProfileMode::Off,
            last_profile: None,
            sanitize: false,
            last_san: None,
            dataflow: None,
            frames_seen: 0,
        })
    }

    /// Enables or disables profiling for subsequent `process_all` calls.
    pub fn set_profile_mode(&mut self, mode: ProfileMode) {
        self.profile = mode;
    }

    /// Enables cross-launch dataflow recording, mirroring
    /// [`GpuMog::enable_dataflow`]: the seeded model (and per-pixel
    /// active counts) become the graph's host-init node.
    pub fn enable_dataflow(&mut self) {
        if self.dataflow.is_some() {
            return;
        }
        let mut init = self.model.span_set();
        init.insert(
            self.active.addr(),
            self.active.addr() + self.active.len() as u64,
        );
        let mut rec = DataflowRecorder::new();
        rec.record_upload("host-init", None, init);
        self.dataflow = Some(rec);
    }

    /// The dataflow graph recorded so far, or `None` when recording is
    /// off.
    pub fn dataflow_graph(&self) -> Option<DataflowGraph> {
        self.dataflow.as_ref().map(DataflowRecorder::finish)
    }

    /// Takes the report of the most recent profiled `process_all`.
    pub fn take_profile_report(&mut self) -> Option<ProfileReport> {
        self.last_profile.take()
    }

    /// Enables or disables the sanitizer for subsequent `process_all`
    /// calls.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// Takes the sanitizer report of the most recent sanitized
    /// `process_all`.
    pub fn take_san_report(&mut self) -> Option<SanReport> {
        self.last_san.take()
    }

    /// Mean active component count currently on the device.
    pub fn mean_active(&self) -> f64 {
        let pixels = self.resolution.pixels();
        let mut sum = 0u64;
        for p in 0..pixels {
            sum += self.mem.read_u8(self.active, p) as u64;
        }
        sum as f64 / pixels as f64
    }

    /// Processes a frame sequence (one launch per frame), returning the
    /// run report.
    ///
    /// # Errors
    /// Resolution mismatches and launch failures.
    pub fn process_all(&mut self, frames: &[Frame<u8>]) -> Result<RunReport, PipelineError> {
        let pixels = self.resolution.pixels();
        let mut stats = KernelStats::default();
        let mut kernel_time = 0.0;
        let mut per_frame_kernel_times = Vec::with_capacity(frames.len());
        let mut occupancy = None;
        let mut masks = Vec::with_capacity(frames.len());
        let mut launches: Vec<LaunchProfile> = Vec::new();
        let mut sites = SiteProfile::new();
        let mut san = self.sanitize.then(SanReport::new);
        let opts = LaunchOptions {
            profile_sites: self.profile.is_on(),
            sanitize: self.sanitize,
            dataflow: self.dataflow.is_some(),
        };
        let resources = mogpu_sim::KernelResources {
            regs_per_thread: 33,
            shared_bytes_per_block: 0,
            local_f64_slots: 0,
        };
        // One grid for the whole sequence: validate and derive occupancy
        // once, then launch per frame.
        let launcher = BatchLauncher::new(
            &self.cfg,
            LaunchConfig::cover(pixels, THREADS_PER_BLOCK),
            resources,
        )?;
        for frame in frames {
            if frame.resolution() != self.resolution {
                return Err(PipelineError::Config("frame resolution mismatch".into()));
            }
            let fi = self.frames_seen;
            self.frames_seen += 1;
            self.mem.upload(self.frame_buf, frame.as_slice());
            if let Some(rec) = self.dataflow.as_mut() {
                rec.record_upload(
                    "host-upload",
                    Some(fi),
                    IntervalSet::from_span(self.frame_buf.addr(), self.frame_buf.len() as u64),
                );
            }
            let kernel = crate::kernels::AdaptiveKernel {
                pass: FramePass {
                    model: self.model,
                    frame: self.frame_buf,
                    fg: self.fg_buf,
                    pixels,
                    prm: self.prm,
                    resources,
                },
                active: self.active,
            };
            let mut report = launcher.launch(&mut self.mem, &self.cfg, &kernel, opts);
            if let (Some(acc), Some(r)) = (san.as_mut(), report.sanitizer.take()) {
                acc.merge(&r);
            }
            if let Some(rec) = self.dataflow.as_mut() {
                if let Some(access) = report.access.take() {
                    rec.record_kernel(
                        "adaptive-update",
                        Some(fi),
                        access,
                        report.stats.clone(),
                        report.occupancy,
                    );
                }
            }
            stats.merge(&report.stats);
            kernel_time += report.timing.total;
            per_frame_kernel_times.push(report.timing.total);
            occupancy = Some(report.occupancy);
            if self.profile.is_on() {
                if let Some(s) = report.sites.take() {
                    sites.merge(&s);
                }
                launches.push(LaunchProfile {
                    index: launches.len(),
                    frames: 1,
                    stats: report.stats.clone(),
                    metrics: DerivedMetrics::from_stats(&report.stats, &self.cfg),
                    occupancy: report.occupancy,
                    timing: report.timing,
                });
            }
            if let Some(rec) = self.dataflow.as_mut() {
                rec.record_download(
                    "host-download",
                    Some(fi),
                    IntervalSet::from_span(self.fg_buf.addr(), self.fg_buf.len() as u64),
                );
            }
            masks.push(
                Frame::from_vec(self.resolution, self.mem.download(self.fg_buf))
                    .expect("mask size"),
            );
        }
        let occupancy =
            occupancy.ok_or_else(|| PipelineError::Config("no frames processed".into()))?;
        let t_dir = transfer_time(pixels, &self.cfg);
        let per_frame_kernel = if frames.is_empty() {
            0.0
        } else {
            kernel_time / frames.len() as f64
        };
        let schedule = pipeline_schedule(
            frames.len(),
            t_dir,
            per_frame_kernel,
            t_dir,
            mogpu_sim::dma::OverlapMode::DoubleBuffered,
            &self.cfg,
        );
        let pipeline = timing_of(&schedule);
        let metrics = DerivedMetrics::from_stats(&stats, &self.cfg);
        let telemetry = sample_schedule(
            &schedule,
            &stats,
            &occupancy,
            &self.cfg,
            &TelemetryConfig::default(),
        );
        self.last_profile = self.profile.is_on().then(|| {
            // Stitch the graph only for a profile that reports it.
            let fusion = self
                .dataflow
                .as_ref()
                .map(|r| r.finish().fusion_candidates())
                .unwrap_or_default();
            ProfileReport::assemble(
                "adaptive".to_string(),
                mogpu_sim::dma::OverlapMode::DoubleBuffered,
                stats.clone(),
                occupancy,
                t_dir,
                t_dir,
                schedule,
                launches,
                std::mem::take(&mut sites),
                &fusion,
                &self.cfg,
            )
        });
        self.last_san = san;
        Ok(RunReport {
            masks,
            frames: frames.len(),
            stats,
            occupancy,
            kernel_time_total: kernel_time,
            per_frame_kernel_times,
            h2d_per_frame: t_dir,
            d2h_per_frame: t_dir,
            pipeline,
            metrics,
            telemetry,
        })
    }
}
