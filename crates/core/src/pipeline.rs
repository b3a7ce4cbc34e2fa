//! The host-side frame pipeline and the library's main entry points,
//! [`GpuMog`] and [`AdaptiveGpuMog`].
//!
//! Mirrors the paper's host loop: Gaussian parameters are initialized once
//! and live in GPU global memory for the whole run (they never cross
//! PCIe); each frame is DMA-uploaded, the level's kernel is launched, and
//! the foreground mask is DMA-downloaded. Depending on the optimization
//! level the transfers are scheduled sequentially (A, B) or double-
//! buffered against kernel execution (C onward, Fig. 5), and frames are
//! processed singly or in windowed groups (level W).
//!
//! There is one such loop, [`Pipeline`]. A [`KernelPlan`] supplies what
//! differs between the optimization ladder ([`OptLevel`]) and the
//! adaptive-K comparator ([`AdaptivePlan`]): the kernel launched per
//! group, its resources, the group size, the overlap mode and the report
//! names. The optional 3x3 opening runs as two more steps (erode, dilate)
//! of the same per-group body.

use crate::device::DeviceReal;
use crate::kernels::{
    AdaptiveKernel, FramePass, MorphKernel, MorphOp, ScanKernel, SortedKernel, TiledKernel,
};
use crate::layout::{DeviceModel, Layout};
use crate::levels::OptLevel;
use crate::profile::{LaunchProfile, ProfileMode, ProfileReport};
use mogpu_frame::{Frame, Mask, Resolution};
use mogpu_mog::adaptive::AdaptiveModel;
use mogpu_mog::{HostModel, MogParams, ResolvedParams};
use mogpu_sim::dma::{pipeline_schedule, timing_of, transfer_time, OverlapMode, PipelineTiming};
use mogpu_sim::telemetry::{sample_schedule, PipelineTelemetry, TelemetryConfig};
use mogpu_sim::{
    BatchLauncher, Buffer, DataflowGraph, DataflowRecorder, DerivedMetrics, DeviceMemory,
    GpuConfig, IntervalSet, KernelResources, KernelStats, LaunchConfig, LaunchError, LaunchOptions,
    LaunchReport, MemoryError, Occupancy, SanReport, WarpKernel,
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

/// The per-plan parts of the host frame loop: what [`Pipeline`] launches
/// for each group of frames, and how its runs are named and scheduled.
/// Everything else — device memory, the seeded model, slot buffers,
/// validation, launch caching, instrumentation and report assembly —
/// is shared.
pub trait KernelPlan: std::fmt::Debug {
    /// Report name ("A".."F", "W(g)", "adaptive").
    fn name(&self) -> String;
    /// Dataflow node name of the plan's launch.
    fn node(&self) -> &'static str;
    /// Host transfer scheduling of the run.
    fn overlap(&self) -> OverlapMode;
    /// Frames processed per launch.
    fn group(&self) -> usize;
    /// Declared resource footprint of the plan's kernel.
    fn resources(&self, threads_per_block: u32, k: usize, real_bytes: usize) -> KernelResources;
    /// Device buffers the host seeds besides the model, recorded in the
    /// dataflow graph's `host-init` node.
    fn seeded(&self) -> &[Buffer] {
        &[]
    }
    /// The kernel processing one group: `pass` carries slot 0's buffers;
    /// `frames` / `fgs` are every slot of the group.
    fn kernel<T: DeviceReal>(
        &self,
        pass: FramePass<T>,
        frames: &[Buffer],
        fgs: &[Buffer],
    ) -> Box<dyn WarpKernel>;
}

/// The optimization ladder: one kernel per level (paper Tables II–III).
impl KernelPlan for OptLevel {
    fn name(&self) -> String {
        OptLevel::name(self)
    }

    fn node(&self) -> &'static str {
        "mog-update"
    }

    fn overlap(&self) -> OverlapMode {
        OptLevel::overlap(self)
    }

    fn group(&self) -> usize {
        OptLevel::group(self)
    }

    fn resources(&self, threads_per_block: u32, k: usize, real_bytes: usize) -> KernelResources {
        OptLevel::resources(self, threads_per_block, k, real_bytes)
    }

    fn kernel<T: DeviceReal>(
        &self,
        pass: FramePass<T>,
        frames: &[Buffer],
        fgs: &[Buffer],
    ) -> Box<dyn WarpKernel> {
        let scan = |predicated, recompute_diff| -> Box<dyn WarpKernel> {
            Box::new(ScanKernel {
                pass,
                predicated,
                recompute_diff,
            })
        };
        match self {
            OptLevel::A | OptLevel::B | OptLevel::C => Box::new(SortedKernel { pass }),
            OptLevel::D => scan(false, false),
            OptLevel::E => scan(true, false),
            OptLevel::F => scan(true, true),
            OptLevel::Windowed { .. } => Box::new(TiledKernel {
                pass,
                frames: frames.to_vec(),
                fgs: fgs.to_vec(),
                record_stride: None,
            }),
        }
    }
}

/// The adaptive component-count comparator of the paper's Section II
/// (related work \[18\]): SoA, double-buffered, one frame per launch,
/// with a per-pixel active-component count resident beside the model.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePlan {
    /// Per-pixel active component counts (u8, one per pixel).
    active: Buffer,
}

impl KernelPlan for AdaptivePlan {
    fn name(&self) -> String {
        "adaptive".to_string()
    }

    fn node(&self) -> &'static str {
        "adaptive-update"
    }

    fn overlap(&self) -> OverlapMode {
        OverlapMode::DoubleBuffered
    }

    fn group(&self) -> usize {
        1
    }

    fn resources(&self, _: u32, _: usize, _: usize) -> KernelResources {
        KernelResources {
            regs_per_thread: 33,
            shared_bytes_per_block: 0,
            local_f64_slots: 0,
        }
    }

    fn seeded(&self) -> &[Buffer] {
        std::slice::from_ref(&self.active)
    }

    fn kernel<T: DeviceReal>(
        &self,
        pass: FramePass<T>,
        _: &[Buffer],
        _: &[Buffer],
    ) -> Box<dyn WarpKernel> {
        Box::new(AdaptiveKernel {
            pass,
            active: self.active,
        })
    }
}

/// The host frame loop, generic over the [`KernelPlan`] it launches.
/// Use it through [`GpuMog`] or [`AdaptiveGpuMog`].
#[derive(Debug)]
pub struct Pipeline<T: DeviceReal, P: KernelPlan> {
    cfg: GpuConfig,
    plan: P,
    params: MogParams,
    prm: ResolvedParams<T>,
    resolution: Resolution,
    mem: DeviceMemory,
    model: DeviceModel<T>,
    frame_bufs: Vec<Buffer>,
    fg_bufs: Vec<Buffer>,
    threads_per_block: u32,
    /// Launch plans cached across frames: the grid and kernel resources
    /// are fixed by (resolution, plan, k, block size), so grid validation
    /// and occupancy derivation happen once per run instead of once per
    /// frame. Cleared when the block size or the step list changes.
    launchers: Option<Launchers>,
    profile: ProfileMode,
    last_profile: Option<ProfileReport>,
    sanitize: bool,
    last_san: Option<SanReport>,
    /// Cross-launch dataflow recorder (None = recording off, the
    /// default; launches then skip access capture entirely).
    dataflow: Option<DataflowRecorder>,
    /// Opening-step buffers, one `(eroded, opened)` pair per group slot;
    /// empty until [`GpuMog::enable_morphology`].
    morph_bufs: Vec<(Buffer, Buffer)>,
    /// Global frame counter across `process_all` calls, attributing
    /// dataflow nodes to absolute frame indices.
    frames_seen: usize,
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
pub type GpuMog<T> = Pipeline<T, OptLevel>;

/// Host pipeline for the adaptive component-count comparator
/// ([`AdaptivePlan`]); `params.k` acts as `k_max`.
pub type AdaptiveGpuMog<T> = Pipeline<T, AdaptivePlan>;

/// The cached launch plans of one run's steps; `opening` (shared by the
/// erode and dilate steps) is `None` while the opening is off.
#[derive(Debug, Clone, Copy)]
struct Launchers {
    res: KernelResources,
    plan: BatchLauncher,
    opening: Option<BatchLauncher>,
}

impl<T: DeviceReal, P: KernelPlan> Pipeline<T, P> {
    /// Validates the configuration and allocates device state: the model
    /// in `layout`, then whatever `alloc_plan` needs, then one
    /// frame/mask buffer pair per group slot. The model is left for the
    /// caller to seed.
    fn alloc(
        resolution: Resolution,
        params: MogParams,
        layout: Layout,
        first_frame: &[u8],
        cfg: GpuConfig,
        alloc_plan: impl FnOnce(&mut DeviceMemory, usize) -> Result<P, MemoryError>,
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
        let mut mem = DeviceMemory::with_config(&cfg);
        let model = DeviceModel::<T>::alloc(&mut mem, layout, pixels, params.k)?;
        let plan = alloc_plan(&mut mem, pixels)?;
        // Double buffering for overlapped levels is a scheduling concern
        // of the timing model; functionally one buffer set per group slot
        // suffices.
        let (mut frame_bufs, mut fg_bufs) = (Vec::new(), Vec::new());
        for _ in 0..plan.group() {
            frame_bufs.push(mem.alloc(pixels)?);
            fg_bufs.push(mem.alloc(pixels)?);
        }
        Ok(Pipeline {
            cfg,
            plan,
            params,
            prm: params.resolve(),
            resolution,
            mem,
            model,
            frame_bufs,
            fg_bufs,
            threads_per_block: THREADS_PER_BLOCK,
            launchers: None,
            profile: ProfileMode::Off,
            last_profile: None,
            sanitize: false,
            last_san: None,
            dataflow: None,
            morph_bufs: Vec::new(),
            frames_seen: 0,
        })
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

    /// The algorithm parameters.
    pub fn params(&self) -> &MogParams {
        &self.params
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
    /// [`Pipeline::dataflow_graph`]. Capture is observational — counters,
    /// masks, and timing are bit-identical to an unrecorded run. The
    /// host-side initialization that `new` already performed (the model,
    /// plus the plan's [`KernelPlan::seeded`] buffers) is recorded as the
    /// graph's first node, so first-frame reads attribute to it rather
    /// than appearing unattributed.
    pub fn enable_dataflow(&mut self) {
        if self.dataflow.is_some() {
            return;
        }
        let mut init = self.model.span_set();
        for b in self.plan.seeded() {
            init.insert(b.addr(), b.addr() + b.len() as u64);
        }
        let mut rec = DataflowRecorder::new();
        rec.record_upload("host-init", None, init);
        self.dataflow = Some(rec);
    }

    /// The dataflow graph recorded so far, or `None` when
    /// [`Pipeline::enable_dataflow`] was never called.
    pub fn dataflow_graph(&self) -> Option<DataflowGraph> {
        self.dataflow.as_ref().map(DataflowRecorder::finish)
    }

    /// Returns the cached launch plans, building (and validating) them on
    /// first use after construction or a configuration change.
    fn launchers(&mut self) -> Result<Launchers, PipelineError> {
        if let Some(l) = self.launchers {
            return Ok(l);
        }
        let lc = LaunchConfig::cover(self.resolution.pixels(), self.threads_per_block);
        let res = self
            .plan
            .resources(self.threads_per_block, self.params.k, T::BYTES);
        let plan = BatchLauncher::new(&self.cfg, lc, res)?;
        let opening = if self.morph_bufs.is_empty() {
            None
        } else {
            Some(BatchLauncher::new(&self.cfg, lc, MorphKernel::RESOURCES)?)
        };
        let l = Launchers { res, plan, opening };
        self.launchers = Some(l);
        Ok(l)
    }

    /// Launches `kernel` as one step of the per-group body, recording it
    /// as a dataflow `node` of absolute frame `frame`.
    fn step(
        &mut self,
        launcher: BatchLauncher,
        kernel: &dyn WarpKernel,
        node: &str,
        frame: usize,
        opts: LaunchOptions,
    ) -> LaunchReport {
        let mut report = launcher.launch(&mut self.mem, &self.cfg, kernel, opts);
        if let (Some(rec), Some(access)) = (self.dataflow.as_mut(), report.access.take()) {
            rec.record_kernel(
                node,
                Some(frame),
                access,
                report.stats.clone(),
                report.occupancy,
            );
        }
        report
    }

    /// Processes a group of up to `plan.group()` frames (`base` =
    /// absolute index of the group's first frame): upload, the plan's
    /// launch, the optional erode and dilate steps per slot, download.
    /// Returns the masks and the plan launch's report with the opening's
    /// sanitizer findings merged in; the opening's counters stay out of
    /// it.
    fn process_group(
        &mut self,
        frames: &[Frame<u8>],
        base: usize,
        launchers: Launchers,
        opts: LaunchOptions,
    ) -> (Vec<Mask>, LaunchReport) {
        let n = frames.len();
        for (slot, frame) in frames.iter().enumerate() {
            let b = self.frame_bufs[slot];
            self.mem.upload(b, frame.as_slice());
            if let Some(rec) = self.dataflow.as_mut() {
                rec.record_upload(
                    "host-upload",
                    Some(base + slot),
                    IntervalSet::from_span(b.addr(), b.len() as u64),
                );
            }
        }
        let pass = FramePass {
            model: self.model,
            frame: self.frame_bufs[0],
            fg: self.fg_bufs[0],
            pixels: self.resolution.pixels(),
            prm: self.prm,
            resources: launchers.res,
        };
        let (frames, fgs) = (&self.frame_bufs[..n], &self.fg_bufs[..n]);
        let kernel = self.plan.kernel(pass, frames, fgs);
        // A grouped (level-W) launch covers the whole chunk; attribute it
        // to the group's first frame.
        let mut report = self.step(launchers.plan, &*kernel, self.plan.node(), base, opts);

        let mut outs = self.fg_bufs[..n].to_vec();
        if let Some(opening) = launchers.opening {
            for (slot, out) in outs.iter_mut().enumerate() {
                let (eroded, opened) = self.morph_bufs[slot];
                for (input, output, op) in [
                    (*out, eroded, MorphOp::Erode),
                    (eroded, opened, MorphOp::Dilate),
                ] {
                    let k = MorphKernel {
                        input,
                        output,
                        width: self.resolution.width,
                        height: self.resolution.height,
                        op,
                    };
                    let step = self.step(opening, &k, "morphology", base + slot, opts);
                    report.merge(&LaunchReport {
                        stats: KernelStats::default(),
                        sites: None,
                        ..step
                    });
                }
                *out = opened;
            }
        }

        let mut masks = Vec::with_capacity(n);
        for (slot, src) in outs.into_iter().enumerate() {
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
        (masks, report)
    }

    /// Rejects a sequence [`Pipeline::process_all`] cannot run: an empty
    /// one, or one holding a frame of another resolution.
    pub(crate) fn check_frames(&self, frames: &[Frame<u8>]) -> Result<(), PipelineError> {
        if let Some(f) = frames.iter().find(|f| f.resolution() != self.resolution) {
            return Err(PipelineError::Config(format!(
                "frame resolution {} differs from pipeline resolution {}",
                f.resolution(),
                self.resolution
            )));
        }
        if frames.is_empty() {
            return Err(PipelineError::Config(
                "no frames processed; cannot report occupancy".into(),
            ));
        }
        Ok(())
    }

    /// Processes a frame sequence, returning masks plus the full
    /// performance report. Every frame is validated before the first one
    /// runs, so a rejected call leaves the model and the dataflow graph
    /// untouched.
    ///
    /// # Errors
    /// An empty sequence, resolution mismatches, launch failures.
    pub fn process_all(&mut self, frames: &[Frame<u8>]) -> Result<RunReport, PipelineError> {
        self.check_frames(frames)?;
        let launchers = self.launchers()?;
        let occupancy = launchers.plan.occupancy();
        let opts = LaunchOptions {
            profile_sites: self.profile.is_on(),
            sanitize: self.sanitize,
            dataflow: self.dataflow.is_some(),
        };
        let mut kernel_time = 0.0f64;
        let mut per_frame_kernel_times = Vec::with_capacity(frames.len());
        let mut masks = Vec::with_capacity(frames.len());
        let mut launches: Vec<LaunchProfile> = Vec::new();
        let mut call: Option<LaunchReport> = None;
        for chunk in frames.chunks(self.plan.group()) {
            let base = self.frames_seen;
            self.frames_seen += chunk.len();
            let (group_masks, report) = self.process_group(chunk, base, launchers, opts);
            kernel_time += report.timing.total;
            per_frame_kernel_times.extend(std::iter::repeat_n(
                report.timing.total / chunk.len() as f64,
                chunk.len(),
            ));
            if self.profile.is_on() {
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
            match call.as_mut() {
                Some(total) => total.merge(&report),
                None => call = Some(report),
            }
        }
        let call = call.expect("a nonempty call launches");
        let stats = call.stats;

        let t_dir = transfer_time(self.resolution.pixels(), &self.cfg);
        let schedule = pipeline_schedule(
            frames.len(),
            t_dir,
            kernel_time / frames.len() as f64,
            t_dir,
            self.plan.overlap(),
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
                self.plan.name(),
                self.plan.overlap(),
                stats.clone(),
                occupancy,
                t_dir,
                t_dir,
                schedule,
                launches,
                call.sites.unwrap_or_default(),
                &fusion,
                &self.cfg,
            )
        });
        self.last_san = call.sanitizer;
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
        let mut gpu = Self::alloc(
            resolution,
            params,
            level.layout(),
            first_frame,
            cfg,
            |_, _| Ok(level),
        )?;
        let host = HostModel::<T>::init(resolution.pixels(), params.k, &params, first_frame);
        gpu.model.upload(&mut gpu.mem, &host);
        Ok(gpu)
    }

    /// The configured optimization level.
    pub fn level(&self) -> OptLevel {
        self.plan
    }

    /// Overrides the launch block size (default
    /// [`THREADS_PER_BLOCK`]). Oversized blocks can make the kernel
    /// unlaunchable — `process_all` then fails with
    /// `LaunchError::ResourcesExceeded` wrapped in
    /// [`PipelineError::Launch`], which `mogpu advise` surfaces as a
    /// structured diagnostic.
    pub fn set_threads_per_block(&mut self, tpb: u32) {
        self.threads_per_block = tpb.max(1);
        // The cached plans were validated for the old grid.
        self.launchers = None;
    }

    /// Enables the 3x3 morphological opening (erode then dilate, the
    /// paper's foreground-validation step) on every frame's mask, as two
    /// more steps of the per-group body inside this pipeline's device
    /// memory, so the MoG→morphology round trip is visible to the
    /// dataflow recorder. Downloaded masks become the opened masks.
    /// Morphology counters are recorded per launch in the dataflow graph
    /// but kept out of the run's MoG kernel stats and profile, so
    /// per-level profile metrics keep their meaning; under
    /// [`Pipeline::set_sanitize`] its findings join the run's report.
    ///
    /// # Errors
    /// Device out-of-memory for the per-slot scratch masks.
    pub fn enable_morphology(&mut self) -> Result<(), PipelineError> {
        if !self.morph_bufs.is_empty() {
            return Ok(());
        }
        let pixels = self.resolution.pixels();
        for _ in 0..self.fg_bufs.len() {
            let eroded = self.mem.alloc(pixels)?;
            let opened = self.mem.alloc(pixels)?;
            self.morph_bufs.push((eroded, opened));
        }
        // The cached plans have no opening step yet.
        self.launchers = None;
        Ok(())
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
        let mut gpu = Self::alloc(
            resolution,
            params,
            Layout::Soa,
            first_frame,
            cfg,
            |mem, pixels| {
                Ok(AdaptivePlan {
                    active: mem.alloc(pixels)?,
                })
            },
        )?;
        // Seed: one active component per pixel, parameters through the
        // SoA layout.
        let pixels = resolution.pixels();
        let k = params.k;
        let host = AdaptiveModel::<T>::init(pixels, k, &params, first_frame);
        for p in 0..pixels {
            gpu.mem.write_u8(gpu.plan.active, p, 1);
            for ki in 0..k {
                let i = p * k + ki;
                let (w, m, sd) = (host.w[i], host.m[i], host.sd[i]);
                gpu.model.host_write_params(&mut gpu.mem, p, ki, w, m, sd);
            }
        }
        Ok(gpu)
    }

    /// Mean active component count currently on the device.
    pub fn mean_active(&self) -> f64 {
        let pixels = self.resolution.pixels();
        let sum: u64 = (0..pixels)
            .map(|p| u64::from(self.mem.read_u8(self.plan.active, p)))
            .sum();
        sum as f64 / pixels as f64
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
        // The opening steps stay out of the run aggregate; the MoG
        // counters and timing inputs are untouched.
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
