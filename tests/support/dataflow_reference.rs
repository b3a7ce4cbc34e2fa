//! Frozen reference stitcher for the dataflow graph.
//!
//! This is the original whole-history stitcher of
//! `mogpu::sim::DataflowRecorder::finish`, kept verbatim as a test
//! oracle: it stores every node's full read and write sets and replays
//! them all on `finish`, scanning every earlier owner per node
//! (O(history²)). The production recorder stitches incrementally against
//! a last-writer interval map; `tests/dataflow.rs` drives both with the
//! same event streams and requires identical graphs. Do not optimize or
//! "fix" this file — its value is that it does not change.

use mogpu::sim::occupancy::Occupancy;
use mogpu::sim::stats::KernelStats;
use mogpu::sim::{
    DataflowEdge, DataflowGraph, DataflowNode, IntervalSet, LaunchAccess, NodeKind, NodeStats,
};
use std::collections::BTreeMap;

/// One recorded event in program order.
#[derive(Debug, Clone)]
struct RecordedNode {
    kind: NodeKind,
    name: String,
    frame: Option<usize>,
    reads: IntervalSet,
    writes: IntervalSet,
    stats: Option<NodeStats>,
}

/// Records events like `DataflowRecorder` and stitches them all at once.
#[derive(Debug, Default)]
pub struct ReferenceRecorder {
    nodes: Vec<RecordedNode>,
}

impl ReferenceRecorder {
    pub fn new() -> Self {
        ReferenceRecorder::default()
    }

    pub fn record_upload(&mut self, name: &str, frame: Option<usize>, writes: IntervalSet) {
        self.nodes.push(RecordedNode {
            kind: NodeKind::HostUpload,
            name: name.to_string(),
            frame,
            reads: IntervalSet::new(),
            writes,
            stats: None,
        });
    }

    pub fn record_download(&mut self, name: &str, frame: Option<usize>, reads: IntervalSet) {
        self.nodes.push(RecordedNode {
            kind: NodeKind::HostDownload,
            name: name.to_string(),
            frame,
            reads,
            writes: IntervalSet::new(),
            stats: None,
        });
    }

    pub fn record_kernel(
        &mut self,
        name: &str,
        frame: Option<usize>,
        access: LaunchAccess,
        stats: KernelStats,
        occupancy: Occupancy,
    ) {
        self.nodes.push(RecordedNode {
            kind: NodeKind::Kernel,
            name: name.to_string(),
            frame,
            reads: access.reads,
            writes: access.writes,
            stats: Some(NodeStats { stats, occupancy }),
        });
    }

    /// Stitches the recorded events into the dataflow graph.
    ///
    /// Ownership semantics: the most recent writer of a byte owns it; a
    /// read attributes its bytes to the current owners (one edge per
    /// producer), a write transfers ownership and classifies the evicted
    /// bytes as dead when no consumer had read them. A kernel reads the
    /// pre-launch snapshot, so within one node reads are processed
    /// before writes.
    pub fn finish(&self) -> DataflowGraph {
        let n = self.nodes.len();
        let mut owned: Vec<IntervalSet> = vec![IntervalSet::new(); n];
        let mut consumed: Vec<IntervalSet> = vec![IntervalSet::new(); n];
        let mut dead: Vec<IntervalSet> = vec![IntervalSet::new(); n];
        let mut unattributed: Vec<u64> = vec![0; n];
        let mut reread: Vec<u64> = vec![0; n];
        let mut downloaded = IntervalSet::new();
        let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();

        for j in 0..n {
            let node = &self.nodes[j];
            // Reads first: attribute each byte to its current owner.
            if !node.reads.is_empty() {
                let mut attributed = IntervalSet::new();
                for o in 0..j {
                    if owned[o].is_empty() {
                        continue;
                    }
                    let hit = owned[o].intersect(&node.reads);
                    if hit.is_empty() {
                        continue;
                    }
                    *edges.entry((o, j)).or_insert(0) += hit.total_bytes();
                    consumed[o].union_in_place(&hit);
                    attributed.union_in_place(&hit);
                }
                unattributed[j] = node.reads.subtract(&attributed).total_bytes();
                if node.kind == NodeKind::HostDownload {
                    downloaded.union_in_place(&node.reads);
                }
            }
            // Writes second: evict previous owners, classify dead bytes.
            if !node.writes.is_empty() {
                if node.kind == NodeKind::HostUpload {
                    reread[j] = node.writes.intersect(&downloaded).total_bytes();
                }
                for o in 0..j {
                    if owned[o].is_empty() {
                        continue;
                    }
                    let evicted = owned[o].intersect(&node.writes);
                    if evicted.is_empty() {
                        continue;
                    }
                    let died = evicted.subtract(&consumed[o]);
                    dead[o].union_in_place(&died);
                    owned[o] = owned[o].subtract(&evicted);
                }
                owned[j] = node.writes.clone();
            }
        }

        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let stored = node.writes.total_bytes();
                let dead_bytes = dead[i].total_bytes();
                // Bytes consumed and still owned stay classified as
                // consumed; live-at-exit is what remains untouched.
                let live = owned[i].subtract(&consumed[i]).total_bytes();
                DataflowNode {
                    kind: node.kind,
                    name: node.name.clone(),
                    frame: node.frame,
                    read_bytes: node.reads.total_bytes(),
                    stored_bytes: stored,
                    consumed_bytes: stored - dead_bytes - live,
                    dead_store_bytes: dead_bytes,
                    live_at_exit_bytes: live,
                    unattributed_read_bytes: unattributed[i],
                    reread_from_host_bytes: reread[i],
                    stats: node.stats.clone(),
                }
            })
            .collect();
        let edges = edges
            .into_iter()
            .map(|((producer, consumer), bytes)| DataflowEdge {
                producer,
                consumer,
                bytes,
            })
            .collect();
        DataflowGraph {
            nodes,
            edges,
            reread_from_host_bytes: reread.iter().sum(),
        }
    }
}
