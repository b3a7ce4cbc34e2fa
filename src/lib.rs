//! # mogpu
//!
//! A faithful, laptop-scale reproduction of *"A GPU-based
//! Algorithm-specific Optimization for High-performance Background
//! Subtraction"* (Zhang, Tabkhi & Schirner, ICPP 2014): GPU-optimized
//! Mixture-of-Gaussians background subtraction, evaluated on a
//! from-scratch Fermi-class SIMT GPU simulator.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`frame`] — frames and synthetic surveillance scenes,
//! * [`sim`] — the GPU simulator substrate (SIMT execution, coalescing and
//!   divergence analysis, occupancy, analytic timing, DMA pipeline) and
//!   the calibrated CPU cost model,
//! * [`mog`] — the MoG algorithm (serial reference, algorithm variants,
//!   rayon multi-threaded CPU),
//! * [`core`] — the paper's contribution: GPU kernels for optimization
//!   levels A–F and the windowed/tiled variant, plus the host pipeline,
//! * [`metrics`] — SSIM / MS-SSIM / mask-accuracy metrics for the quality
//!   study,
//! * [`bench`](mod@bench) — the experiment harness and the performance-regression
//!   baseline gate (`mogpu bench record` / `bench check`).
//!
//! ## Quickstart
//!
//! ```
//! use mogpu::prelude::*;
//!
//! // A synthetic surveillance scene with two walkers.
//! let scene = SceneBuilder::new(Resolution::TINY).walkers(2).build();
//! let (frames, _truth) = scene.render_sequence(8);
//! let frames = frames.into_frames();
//!
//! // The paper's fully optimized GPU configuration (level F).
//! let mut gpu = GpuMog::<f64>::new(
//!     Resolution::TINY,
//!     MogParams::default(),
//!     OptLevel::F,
//!     frames[0].as_slice(),
//!     GpuConfig::tesla_c2075(),
//! ).unwrap();
//! let report = gpu.process_all(&frames[1..]).unwrap();
//!
//! println!("branch efficiency: {:.1}%", 100.0 * report.metrics.branch_efficiency);
//! println!("kernel time/frame: {:.3} ms", 1e3 * report.kernel_time_per_frame());
//! assert_eq!(report.masks.len(), 7);
//! ```

pub mod serve;

pub use mogpu_bench as bench;
pub use mogpu_core as core;
pub use mogpu_frame as frame;
pub use mogpu_metrics as metrics;
pub use mogpu_mog as mog;
pub use mogpu_sim as sim;
pub use serde_json as json;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use mogpu_core::{
        DeviceModel, FleetPipeline, FleetRunReport, GpuMog, Layout, MultiGpuMog, MultiStreamReport,
        OptLevel, ProfileMode, ProfileReport, RunReport, StreamRunReport,
    };
    pub use mogpu_frame::{
        Frame, FrameSequence, Mask, MovingObject, ObjectShape, Resolution, Scene, SceneBuilder,
    };
    pub use mogpu_metrics::{mask_confusion, ms_ssim, ssim};
    pub use mogpu_mog::{parallel::ParallelMog, MogParams, SerialMog, Variant};
    pub use mogpu_sim::cpu::CpuModel;
    pub use mogpu_sim::{CheckKind, CpuConfig, Finding, GpuConfig, SanReport};
}
