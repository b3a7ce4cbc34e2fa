//! # mogpu-core
//!
//! The paper's primary contribution: a step-wise-optimized GPU
//! implementation of Mixture-of-Gaussians background subtraction, realized
//! as kernels for the `mogpu-sim` SIMT simulator.
//!
//! Optimization levels (Tables II and III of the paper):
//!
//! | Level | Kernel | Layout | Transfers | Notes |
//! |-------|--------|--------|-----------|-------|
//! | A | sorted, branchy | AoS | sequential | direct CUDA translation |
//! | B | sorted, branchy | SoA | sequential | memory coalescing |
//! | C | sorted, branchy | SoA | overlapped | + DMA/kernel overlap |
//! | D | no-sort, branchy | SoA | overlapped | divergent-branch elimination |
//! | E | no-sort, predicated | SoA | overlapped | source-level predication |
//! | F | no-sort, predicated, recomputed diff | SoA | overlapped | register reduction |
//! | W | tiled/windowed | SoA + shared | overlapped | frame groups in shared memory |
//!
//! Every kernel is functionally real: it produces the same foreground
//! masks the CPU reference produces (bit-exact through level E; level F
//! deviates on threshold-straddling pixels exactly as the paper's quality
//! study reports), while the simulator derives the architectural metrics
//! the paper plots.
//!
//! Entry points: [`GpuMog`] for the optimization ladder and
//! [`AdaptiveGpuMog`] for the adaptive-K comparator. Both are the one
//! host frame loop, [`pipeline::Pipeline`], instantiated with a
//! different [`pipeline::KernelPlan`]: [`OptLevel`] or
//! [`pipeline::AdaptivePlan`]. The optional 3x3 opening
//! ([`GpuMog::enable_morphology`]) runs as two more steps of that loop.

pub mod device;
pub mod fleet;
pub mod kernels;
pub mod layout;
pub mod levels;
pub mod pipeline;
pub mod profile;
pub mod streams;

pub use device::DeviceReal;
pub use fleet::{FleetPipeline, FleetRunReport};
pub use layout::{DeviceModel, Layout};
pub use levels::OptLevel;
pub use pipeline::{AdaptiveGpuMog, GpuMog, PipelineError, RunReport};
pub use profile::{Bottleneck, LaunchProfile, ProfileMode, ProfileReport};
pub use streams::{MultiGpuMog, MultiStreamReport, StreamRunReport};
