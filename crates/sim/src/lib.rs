//! # mogpu-sim
//!
//! A from-scratch, Fermi-class **SIMT GPU simulator** used as the hardware
//! substrate for reproducing *"A GPU-based Algorithm-specific Optimization
//! for High-performance Background Subtraction"* (ICPP 2014).
//!
//! The paper runs on an Nvidia Tesla C2075; this session has no GPU, so the
//! evaluation hardware is simulated. The simulator is **functional +
//! analytic**:
//!
//! * **Functional**: kernels are ordinary Rust code written against the
//!   per-warp [`lockstep::WarpCtx`] API, where each call is one warp
//!   instruction over 32 lane values under an active mask. Every active
//!   lane executes for real —
//!   loads return real data, stores mutate simulated device memory — so
//!   algorithm output (the foreground masks whose quality Table IV of the
//!   paper measures) is exact, not approximated.
//! * **Analytic**: while a warp executes, the context records one *event*
//!   per warp instruction (arithmetic, memory accesses with each lane's
//!   address, branches with each lane's outcome). The events are merged
//!   into warp-level *slots* keyed by source location and per-lane
//!   occurrence index. From the slots the
//!   simulator derives exactly the counters the paper reports from the
//!   Nvidia Visual Profiler:
//!   - **memory access efficiency** and **transaction counts** from the set
//!     of 128-byte segments touched by each memory slot (coalescing),
//!   - **branch efficiency** from slots whose lanes disagree on a branch
//!     condition (divergence; divergent paths occupy distinct slots, so
//!     serialization falls out of the slot count automatically),
//!   - **SM occupancy** from a CUDA-style occupancy calculator over the
//!     kernel's declared register/shared-memory footprint,
//!
//!   and feeds them into an analytic timing model
//!   (compute-issue / bandwidth / latency roofline, see [`timing`]).
//!
//! The CPU reference of the paper (Intel Xeon E5-2620) is modelled by
//! [`cpu::CpuModel`] from the same event counts, calibrated against the
//! paper's measured serial runtime.
//!
//! ## Execution semantics and limits
//!
//! Blocks execute in parallel (rayon); the warps of a block execute one
//! after another, and the lanes of a warp run in lockstep under an
//! active mask (see [`lockstep`]). Global stores issued during a launch are
//! visible to *the issuing block only* (read-your-writes via a write
//! overlay of 512-byte pages with per-byte masks, so a store read back
//! at any width sees the stored bytes), and are published to device memory in block order
//! when the launch completes — mirroring CUDA's lack of cross-block
//! coherence guarantees. Cross-*block* communication within one launch
//! therefore does not work. Cross-*lane* communication through shared
//! memory works when it is barrier-ordered within a warp or *forward*
//! across warps (a lane reads what its own warp or an earlier warp of
//! the block wrote); a warp cannot wait at a barrier for the warps after
//! it, so a read of what a later warp stores before the barrier sees a
//! stale value. The opt-in sanitizer ([`sancheck`], enabled via
//! [`kernel::LaunchOptions::sanitize`]) reports same-epoch races and
//! backward barrier-ordered dataflow instead of letting them pass
//! silently; its backward-flow check still orders accesses thread by
//! thread, so it also reports a backward flow inside one warp, which
//! lockstep execution computes correctly. All kernel-facing accessors are
//! bounds-checked against their [`memory::Buffer`] or the block's
//! shared/local allocation: out-of-range accesses panic with the
//! kernel's `file:line`, or are absorbed and reported as findings under
//! the sanitizer.

pub mod advisor;
pub mod cache;
pub mod chrome_trace;
pub mod config;
pub mod cpu;
pub mod dataflow;
pub mod diff;
pub mod dma;
pub(crate) mod exposition;
pub mod fleet;
pub mod kernel;
pub mod lockstep;
pub mod memory;
pub mod occupancy;
pub mod profile;
pub mod sancheck;
pub mod serving;
pub mod stallreasons;
pub mod stats;
pub mod streams;
pub mod telemetry;
pub mod timing;
pub mod trace;
pub(crate) mod warp;

pub use advisor::{advise, roofline, AdvisorInput, Advisory, Evidence, Roofline, Transform};
pub use config::{CpuConfig, GpuConfig};
pub use dataflow::{
    DataflowEdge, DataflowGraph, DataflowNode, DataflowRecorder, FusionCandidate, IntervalSet,
    LaunchAccess, NodeKind, NodeStats,
};
pub use diff::{
    dataflow_diff, detect_kind, diff_values, histogram_diff, BucketDelta, CounterDiff,
    DataflowDiff, DiffReport, FleetDiff, HistogramDiff, KernelDiff, MetricDelta, ReasonDelta,
    ServingDiff, SiteDiff, StreamDiff, TelemetryDiff, DIFF_SCHEMA,
};
pub use fleet::{
    advise_fleet, fleet_report, plan_fleet, prometheus_fleet, FleetAdvisory, FleetClass,
    FleetDevice, FleetDeviceReport, FleetOptions, FleetPlan, FleetReport, FleetSpec, FleetStream,
    ShedStream, StreamPlacement, FLEET_SCHEMA,
};
pub use kernel::{
    launch, launch_with, BatchLauncher, KernelResources, LaunchConfig, LaunchError, LaunchOptions,
    LaunchReport,
};
pub use lockstep::{
    blend, lanes, lanes_in, lanes_of, mask_of, uniform, Lanes, Mask, WarpCtx, WarpKernel,
    WARP_LANES,
};
pub use memory::{Buffer, DeviceMemory, MemoryError};
pub use occupancy::{occupancy, Occupancy};
pub use profile::{HotspotRow, SiteProfile, SiteStats};
pub use sancheck::{CheckKind, Finding, SanReport};
pub use serving::{
    events_jsonl, prometheus_serving, serving_report, EventKind, LatencyHistogram,
    LatencyPercentiles, ServingEvent, ServingReport, ServingSnapshot, ServingWindowConfig,
    SloConfig, StreamServing, StreamWindow,
};
pub use stallreasons::{dma_starvation, kernel_stalls, site_stalls, SiteStallRow, StallBreakdown};
pub use stats::{DerivedMetrics, KernelStats};
pub use streams::{
    validate_stream_inputs, LatencyStats, ScheduleError, StageTimes, StreamInput, StreamSchedule,
    StreamScheduler, DOUBLE_BUFFER,
};
pub use telemetry::{KernelGauges, KernelSlice, PipelineTelemetry, SmSeries, TelemetryConfig};
pub use timing::{kernel_time, KernelTiming};
pub use trace::{site_source, SiteSource, Space};
