//! End-to-end tests of the cross-kernel dataflow tracer: byte
//! conservation on a real pipeline, the exported forms (DOT, canonical
//! JSON, Prometheus counters), the fusion advisory the graph feeds, and
//! the incremental stitcher pinned two ways: against the frozen
//! whole-history reference stitcher on random event streams, and
//! against exports captured from that stitcher on real pipelines
//! (`tests/data/dataflow_golden.json`, never regenerated).

#[path = "support/dataflow_reference.rs"]
mod dataflow_reference;

use dataflow_reference::ReferenceRecorder;
use mogpu::prelude::*;
use mogpu::sim::occupancy::{Limiter, Occupancy};
use mogpu::sim::stats::KernelStats;
use mogpu::sim::{DataflowRecorder, IntervalSet, LaunchAccess, NodeKind};
use proptest::prelude::*;

fn scene(n: usize) -> Vec<Frame<u8>> {
    SceneBuilder::new(Resolution::QQVGA)
        .seed(7)
        .walkers(3)
        .build()
        .render_sequence(n)
        .0
        .into_frames()
}

fn traced_graph(level: OptLevel, frames: &[Frame<u8>]) -> mogpu::sim::DataflowGraph {
    let mut gpu = GpuMog::<f64>::new(
        frames[0].resolution(),
        MogParams::default(),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    gpu.enable_dataflow();
    gpu.enable_morphology().unwrap();
    gpu.process_all(&frames[1..]).unwrap();
    gpu.dataflow_graph().expect("dataflow was enabled")
}

/// Every byte is accounted for, integer-exactly: a node's stores split
/// into consumed + dead + live-at-exit, and no edge carries more than
/// its producer stored or its consumer read.
#[test]
fn bytes_are_conserved_across_the_full_pipeline() {
    let frames = scene(8);
    for level in [OptLevel::A, OptLevel::F] {
        let graph = traced_graph(level, &frames);
        assert!(graph.nodes.len() > 10, "level {level}");
        for node in &graph.nodes {
            assert_eq!(
                node.stored_bytes,
                node.consumed_bytes + node.dead_store_bytes + node.live_at_exit_bytes,
                "level {level}, node {}",
                node.name
            );
        }
        let mut consumed = vec![0u64; graph.nodes.len()];
        for e in &graph.edges {
            assert!(e.bytes <= graph.nodes[e.producer].stored_bytes);
            assert!(e.bytes <= graph.nodes[e.consumer].read_bytes);
            consumed[e.producer] += e.bytes;
        }
        // Per-producer edge totals can overcount consumed bytes only
        // through fan-out (two consumers of one store); each single
        // edge is bounded above by what the producer ever stored.
        for (i, node) in graph.nodes.iter().enumerate() {
            if consumed[i] > 0 {
                assert!(node.stored_bytes > 0, "edges out of a storeless node");
            }
        }
    }
}

/// The morphology open reads the MoG foreground mask: the aggregated
/// candidate list is exactly that one producer->consumer pair, with one
/// pair per processed frame.
#[test]
fn the_fusion_candidate_is_the_mog_to_morphology_edge() {
    let frames = scene(8);
    let graph = traced_graph(OptLevel::F, &frames);
    let cands = graph.fusion_candidates();
    assert_eq!(cands.len(), 1, "{cands:?}");
    let c = &cands[0];
    assert_eq!(c.producer, "mog-update");
    assert_eq!(c.consumer, "morphology");
    assert_eq!(c.pairs, frames.len() - 1);
    assert!(c.edge_bytes > 0);
    assert!(c.edge_bytes <= c.producer_stored_bytes);
    assert!(c.edge_bytes <= c.consumer_read_bytes);
    // The mask is one byte per pixel per frame.
    let mask_bytes = (Resolution::QQVGA.pixels() * (frames.len() - 1)) as u64;
    assert_eq!(c.edge_bytes, mask_bytes);
}

/// Uploaded frame data is read by the MoG kernel, never re-read from
/// host twice, and dead stores show up where the pipeline genuinely
/// overwrites without reading (per-frame mask overwritten next frame).
#[test]
fn host_edges_and_dead_stores_are_attributed() {
    let frames = scene(6);
    let graph = traced_graph(OptLevel::F, &frames);
    let uploads: Vec<_> = graph
        .nodes
        .iter()
        .filter(|n| n.kind == NodeKind::HostUpload)
        .collect();
    // host-init plus one upload per processed frame.
    assert_eq!(uploads.len(), frames.len());
    for up in &uploads {
        assert!(
            up.stored_bytes > 0 && up.dead_store_bytes == 0,
            "every uploaded byte must be consumed: {} has {} dead",
            up.name,
            up.dead_store_bytes
        );
    }
    let downloads: Vec<_> = graph
        .nodes
        .iter()
        .filter(|n| n.kind == NodeKind::HostDownload)
        .collect();
    assert_eq!(downloads.len(), frames.len() - 1);
    for dl in &downloads {
        assert!(dl.read_bytes > 0, "download must read device memory");
    }
}

/// All three machine-readable exports agree with the graph.
#[test]
fn exports_are_consistent_with_the_graph() {
    let frames = scene(6);
    let graph = traced_graph(OptLevel::F, &frames);

    let dot = graph.to_dot();
    assert!(dot.starts_with("digraph dataflow {"));
    assert_eq!(
        dot.matches(" -> ").count(),
        graph.edges.len(),
        "one DOT arrow per edge"
    );

    let json = graph.to_json();
    assert_eq!(
        json.get("nodes").and_then(|n| n.as_array()).unwrap().len(),
        graph.nodes.len()
    );
    assert_eq!(
        json.get("edges").and_then(|e| e.as_array()).unwrap().len(),
        graph.edges.len()
    );
    // Canonical serialization is deterministic.
    let a = mogpu::json::to_string_canonical(&json).unwrap();
    let b = mogpu::json::to_string_canonical(&graph.to_json()).unwrap();
    assert_eq!(a, b);

    let prom = graph.prometheus();
    assert!(prom.contains("# TYPE mogpu_dataflow_edge_bytes counter"));
    assert!(prom.contains("# TYPE mogpu_dataflow_dead_store_bytes counter"));
    let total_edge_bytes: u64 = graph.edges.iter().map(|e| e.bytes).sum();
    assert!(
        prom.contains("mogpu_dataflow_edge_bytes{"),
        "labelled edge samples missing:\n{prom}"
    );
    assert!(total_edge_bytes > 0);
}

/// The graph is observational: recording it must not move a single bit
/// of output or a single profiler counter.
#[test]
fn tracing_is_transparent_to_the_frozen_pipeline() {
    let frames = scene(8);
    let run = |trace: bool| {
        let mut gpu = GpuMog::<f64>::new(
            Resolution::QQVGA,
            MogParams::default(),
            OptLevel::F,
            frames[0].as_slice(),
            GpuConfig::tesla_c2075(),
        )
        .unwrap();
        if trace {
            gpu.enable_dataflow();
        }
        gpu.process_all(&frames[1..]).unwrap()
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.masks, traced.masks);
    assert_eq!(plain.stats, traced.stats);
}

/// Frames per golden run; must match the golden file's `frames`.
const GOLDEN_FRAMES: usize = 32;

const GOLDEN: &str = include_str!("data/dataflow_golden.json");

/// The canonical JSON graph and the Prometheus text of levels A and F
/// (32 frames, morphology on) are byte-identical to what the
/// whole-history stitcher produced. This is the `mogpu dataflow --json`
/// and `--metrics-out` output for the same run.
#[test]
fn exports_match_the_golden_captured_from_the_whole_history_stitcher() {
    let golden: serde_json::Value = serde_json::from_str(GOLDEN).expect("golden file parses");
    assert_eq!(
        golden.get("frames").and_then(|v| v.as_u64()),
        Some(GOLDEN_FRAMES as u64)
    );
    let frames = scene(GOLDEN_FRAMES);
    for level in [OptLevel::A, OptLevel::F] {
        let entry = golden
            .get("levels")
            .and_then(|l| l.get(&level.name()))
            .unwrap_or_else(|| panic!("golden file is missing level {level}"));
        let graph = traced_graph(level, &frames);
        let want = mogpu::json::to_string_canonical_pretty(entry.get("graph").unwrap()).unwrap();
        let got = mogpu::json::to_string_canonical_pretty(&graph.to_json()).unwrap();
        assert!(
            got == want,
            "level {level}: dataflow JSON drifted from the golden"
        );
        assert_eq!(
            Some(graph.prometheus().as_str()),
            entry.get("prometheus").and_then(|v| v.as_str()),
            "level {level}: dataflow Prometheus text drifted from the golden"
        );
    }
}

/// One random program-order event: kind (0 upload, 1 kernel,
/// 2 download), name index, read runs and write runs as `(start, len)`
/// (zero lengths included), and whether to call `finish` after it.
type ArbEvent = (u8, usize, Vec<(u64, u64)>, Vec<(u64, u64)>, bool);

fn arb_event() -> impl Strategy<Value = ArbEvent> {
    // A small address space so runs overlap, abut, and split each other.
    let runs = || proptest::collection::vec((0u64..160, 0u64..40), 0..5);
    (0u8..3, 0usize..3, runs(), runs(), any::<bool>())
}

fn interval_set(runs: &[(u64, u64)]) -> IntervalSet {
    IntervalSet::from_runs(runs.iter().map(|&(s, len)| (s, s + len)).collect())
}

/// Replays `events` into the production recorder and the reference,
/// calling the production `finish` mid-stream where an event asks for
/// it and checking each such graph against the reference's prefix.
fn replay(
    events: &[ArbEvent],
    interleave: bool,
) -> Result<(DataflowRecorder, ReferenceRecorder), TestCaseError> {
    let names = ["host-upload", "mog-update", "morphology"];
    let mut rec = DataflowRecorder::new();
    let mut reference = ReferenceRecorder::new();
    for (i, (kind, name, reads, writes, finish)) in events.iter().enumerate() {
        let name = names[*name];
        let frame = (i % 4 != 0).then_some(i / 4);
        let (reads, writes) = (interval_set(reads), interval_set(writes));
        match kind {
            0 => {
                rec.record_upload(name, frame, writes.clone());
                reference.record_upload(name, frame, writes);
            }
            1 => {
                let stats = KernelStats {
                    warps: i as u64,
                    ..KernelStats::default()
                };
                let occupancy = Occupancy {
                    resident_blocks: 8,
                    resident_warps: 48,
                    resident_threads: 48 * 32,
                    occupancy: 1.0,
                    limiter: Limiter::Warps,
                };
                let access = LaunchAccess { reads, writes };
                rec.record_kernel(name, frame, access.clone(), stats.clone(), occupancy);
                reference.record_kernel(name, frame, access, stats, occupancy);
            }
            _ => {
                rec.record_download(name, frame, reads.clone());
                reference.record_download(name, frame, reads);
            }
        }
        if interleave && *finish {
            prop_assert_eq!(rec.finish(), reference.finish(), "graph after event {}", i);
        }
    }
    Ok((rec, reference))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any mix of uploads, launches and downloads over overlapping,
    /// adjacent, partial and empty interval sets, the incremental
    /// recorder builds exactly the reference stitcher's nodes and edges,
    /// and calling `finish` between records changes nothing.
    #[test]
    fn incremental_stitching_matches_the_reference_stitcher(
        events in proptest::collection::vec(arb_event(), 0..40),
    ) {
        let (interleaved, reference) = replay(&events, true)?;
        let (straight, _) = replay(&events, false)?;
        let want = reference.finish();
        let got = interleaved.finish();
        prop_assert_eq!(&got.nodes, &want.nodes);
        prop_assert_eq!(&got.edges, &want.edges);
        prop_assert_eq!(got.reread_from_host_bytes, want.reread_from_host_bytes);
        prop_assert_eq!(straight.finish(), want);
    }
}
