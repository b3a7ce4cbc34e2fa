//! Input validation of the host pipelines: both `GpuMog` and
//! `AdaptiveGpuMog` reject a zero-pixel resolution at construction, and a
//! call that mixes in a wrong-resolution frame fails before anything runs,
//! leaving no dataflow nodes and no model update behind.

use mogpu::core::{AdaptiveGpuMog, PipelineError};
use mogpu::prelude::*;

fn scene(n: usize) -> Vec<Frame<u8>> {
    SceneBuilder::new(Resolution::TINY)
        .seed(21)
        .walkers(2)
        .build()
        .render_sequence(n)
        .0
        .into_frames()
}

fn adaptive(seed: &Frame<u8>) -> AdaptiveGpuMog<f64> {
    AdaptiveGpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        seed.as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap()
}

fn gpu(seed: &Frame<u8>) -> GpuMog<f64> {
    GpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        OptLevel::F,
        seed.as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap()
}

const ZERO: Resolution = Resolution {
    width: 0,
    height: 4,
};

#[test]
fn zero_pixel_resolution_is_a_config_error() {
    let adaptive =
        AdaptiveGpuMog::<f64>::new(ZERO, MogParams::default(), &[], GpuConfig::tesla_c2075());
    assert!(matches!(adaptive, Err(PipelineError::Config(_))));
    let gpu = GpuMog::<f64>::new(
        ZERO,
        MogParams::default(),
        OptLevel::F,
        &[],
        GpuConfig::tesla_c2075(),
    );
    assert!(matches!(gpu, Err(PipelineError::Config(_))));
}

/// Only the graph's `host-init` node survives a rejected call.
fn assert_untouched(graph: Option<mogpu::sim::DataflowGraph>) {
    let graph = graph.expect("dataflow was enabled");
    let names: Vec<&str> = graph.nodes.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(names, ["host-init"]);
}

#[test]
fn adaptive_mixed_resolution_call_fails_before_running_anything() {
    let frames = scene(4);
    let wrong: Frame<u8> = Frame::new(Resolution::QQVGA);
    let mut failed = adaptive(&frames[0]);
    failed.enable_dataflow();
    let err = failed.process_all(&[frames[1].clone(), wrong]);
    assert!(matches!(err, Err(PipelineError::Config(_))));
    assert_untouched(failed.dataflow_graph());

    let after = failed.process_all(&frames[1..]).unwrap();
    let fresh = adaptive(&frames[0]).process_all(&frames[1..]).unwrap();
    assert_eq!(after.masks, fresh.masks);
    assert_eq!(after.stats, fresh.stats);
}

#[test]
fn gpu_mixed_resolution_call_fails_before_running_anything() {
    let frames = scene(4);
    let wrong: Frame<u8> = Frame::new(Resolution::QQVGA);
    let mut failed = gpu(&frames[0]);
    failed.enable_dataflow();
    let err = failed.process_all(&[frames[1].clone(), wrong]);
    assert!(matches!(err, Err(PipelineError::Config(_))));
    assert_untouched(failed.dataflow_graph());

    let after = failed.process_all(&frames[1..]).unwrap();
    let fresh = gpu(&frames[0]).process_all(&frames[1..]).unwrap();
    assert_eq!(after.masks, fresh.masks);
    assert_eq!(after.stats, fresh.stats);
}
