//! Cross-kernel dataflow tracing: per-launch global-memory access
//! summaries stitched across consecutive launches into a
//! producer→consumer memory-flow graph.
//!
//! The profiler, telemetry, and advisor all reason about one launch at a
//! time; none of them can say *which bytes* stored by launch K are
//! reloaded by launch K+1. That is exactly the evidence kernel fusion
//! needs (ROADMAP item 2): a full global-memory round trip between two
//! adjacent launches is DRAM traffic a fused kernel would keep in
//! registers or shared memory. This module captures byte-interval
//! read/write sets per launch (reusing the word-granular
//! [`WriteOverlay`](crate::kernel) publish path, so the write set is
//! exact and nearly free), records host uploads/downloads on the same
//! program-order clock, and builds a [`DataflowGraph`] whose edges carry
//! the bytes a consumer launch reloaded from each producer.
//!
//! Byte accounting is conservation-checked: every stored byte of every
//! node is classified exactly once as *consumed* (read by a later node
//! before being overwritten), *dead* (overwritten before any consumer
//! read it), or *live at exit* (still owned, never consumed) — so
//! `stored == consumed + dead + live` holds integer-exactly, and every
//! edge's bytes are bounded by its producer's stored bytes.

use crate::exposition::{Exposition, Kind};
use crate::occupancy::Occupancy;
use crate::stats::KernelStats;
use serde::Serialize;
use std::collections::BTreeMap;

/// A normalized set of half-open byte intervals `[start, end)` over the
/// device address space: sorted, disjoint, non-adjacent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    runs: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// A set holding one contiguous span of `len` bytes at `addr`.
    pub fn from_span(addr: u64, len: u64) -> Self {
        let mut s = IntervalSet::new();
        s.insert(addr, addr + len);
        s
    }

    /// Builds a set from arbitrary (possibly overlapping, unsorted) runs.
    pub fn from_runs(mut runs: Vec<(u64, u64)>) -> Self {
        normalize(&mut runs);
        IntervalSet { runs }
    }

    /// Inserts `[start, end)`.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        self.runs.push((start, end));
        normalize(&mut self.runs);
    }

    /// The normalized runs, sorted and disjoint.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// True when the set holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.runs.iter().map(|&(s, e)| e - s).sum()
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (a0, a1) = self.runs[i];
            let (b0, b1) = other.runs[j];
            let lo = a0.max(b0);
            let hi = a1.min(b1);
            if lo < hi {
                out.push((lo, hi));
            }
            if a1 <= b1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { runs: out }
    }

    /// Set difference `self − other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let mut j = 0;
        for &(mut s, e) in &self.runs {
            while j < other.runs.len() && other.runs[j].1 <= s {
                j += 1;
            }
            let mut k = j;
            while s < e {
                if k >= other.runs.len() || other.runs[k].0 >= e {
                    out.push((s, e));
                    break;
                }
                let (b0, b1) = other.runs[k];
                if b0 > s {
                    out.push((s, b0));
                }
                s = s.max(b1);
                k += 1;
            }
        }
        IntervalSet { runs: out }
    }

    /// In-place union with `other`. Only the runs of `self` that can
    /// touch `other`'s span are normalized again, so folding sets in
    /// address order (a launch's blocks) costs what each one adds.
    pub fn union_in_place(&mut self, other: &IntervalSet) {
        let (Some(&(lo, _)), Some(&(_, hi))) = (other.runs.first(), other.runs.last()) else {
            return;
        };
        let start = self.runs.partition_point(|&(_, e)| e < lo);
        let end = self.runs.partition_point(|&(s, _)| s <= hi);
        let mut window = self.runs[start..end].to_vec();
        window.extend_from_slice(&other.runs);
        normalize(&mut window);
        self.runs.splice(start..end, window);
    }
}

/// Merges a run vector in place: sort by start, coalesce overlapping and
/// adjacent runs.
fn normalize(runs: &mut Vec<(u64, u64)>) {
    if runs.len() < 2 {
        return;
    }
    runs.sort_unstable();
    let mut w = 0;
    for i in 1..runs.len() {
        let (s, e) = runs[i];
        if s <= runs[w].1 {
            runs[w].1 = runs[w].1.max(e);
        } else {
            w += 1;
            runs[w] = (s, e);
        }
    }
    runs.truncate(w + 1);
}

/// Hot-path accumulator for byte runs: appends extend one of the most
/// recent runs when contiguous with it (lane-ordered accesses extend the
/// last run; coalesced layouts that interleave several arrays lane by
/// lane extend one run per array) and the vector is re-normalized
/// whenever it grows past a bound, so memory stays proportional to the
/// *distinct* intervals touched, not the access count.
#[derive(Debug, Default)]
pub(crate) struct IntervalCollector {
    runs: Vec<(u64, u64)>,
}

/// Re-normalize the collector when the raw run vector grows past this.
const COLLECTOR_NORMALIZE_AT: usize = 8192;

/// How many of the most recent runs a new run may extend.
const COLLECTOR_LOOKBACK: usize = 16;

impl IntervalCollector {
    /// Records the half-open byte run `[start, end)`.
    #[inline]
    pub(crate) fn record_run(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let recent = self.runs.len().saturating_sub(COLLECTOR_LOOKBACK);
        for run in self.runs[recent..].iter_mut().rev() {
            // Extend (or absorb into) a recent run when the new one
            // starts inside or immediately after it.
            if start >= run.0 && start <= run.1 {
                run.1 = run.1.max(end);
                return;
            }
        }
        self.runs.push((start, end));
        if self.runs.len() >= COLLECTOR_NORMALIZE_AT {
            normalize(&mut self.runs);
        }
    }

    /// Records byte `base + i` for each set bit `i` of `mask`, one run
    /// per run of set bits: a 64-byte overlay page line's written bytes,
    /// or the bytes of a load its block did not store.
    #[inline]
    pub(crate) fn record_mask(&mut self, base: u64, mask: u64) {
        if mask == !0 {
            self.record_run(base, base + 64);
            return;
        }
        let mut rest = mask;
        while rest != 0 {
            let s = rest.trailing_zeros();
            // Length of the run of set bits starting at `s`.
            let n = (!(rest >> s)).trailing_zeros();
            self.record_run(base + s as u64, base + (s + n) as u64);
            // Adding the run's lowest bit carries through it: clears it.
            rest &= rest.wrapping_add(1 << s);
        }
    }

    /// Drains the collector into a normalized [`IntervalSet`], keeping
    /// the allocation for the next block.
    pub(crate) fn take_set(&mut self) -> IntervalSet {
        normalize(&mut self.runs);
        IntervalSet {
            runs: std::mem::take(&mut self.runs),
        }
    }

    /// Clears the collector without releasing capacity.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
    }
}

/// The global-memory access summary of one launch, attached to
/// [`LaunchReport`](crate::kernel::LaunchReport) when
/// [`LaunchOptions::dataflow`](crate::kernel::LaunchOptions) is set.
///
/// `reads` holds only *external* reads — bytes a thread loaded that its
/// own block had not already stored — so it is exactly the launch's RAW
/// demand on earlier producers. `writes` is the published store set,
/// taken from the same overlay page masks that update device memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchAccess {
    /// Bytes loaded from outside the launch's own stores.
    pub reads: IntervalSet,
    /// Bytes stored (published to device memory).
    pub writes: IntervalSet,
}

/// What kind of program-order event a dataflow node records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeKind {
    /// Host-to-device copy (or host-side initialization).
    HostUpload,
    /// A kernel launch.
    Kernel,
    /// Device-to-host copy.
    HostDownload,
}

impl NodeKind {
    /// Stable lower-case identifier used in DOT/JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::HostUpload => "host-upload",
            NodeKind::Kernel => "kernel",
            NodeKind::HostDownload => "host-download",
        }
    }
}

/// Kernel counters carried on a kernel node so fusion candidates can
/// re-run the timing model per stage.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// The launch's raw counters.
    pub stats: KernelStats,
    /// The launch's occupancy.
    pub occupancy: Occupancy,
}

/// One run of the last-writer map: the bytes `[start, end)` (`start` is
/// the map key) were last stored by node `owner`, and `consumed` says
/// whether a later node has read them since.
#[derive(Debug, Clone, Copy)]
struct OwnedRun {
    end: u64,
    owner: usize,
    consumed: bool,
}

/// Splits the run straddling `at`, so a run boundary falls there.
fn split_at(runs: &mut BTreeMap<u64, OwnedRun>, at: u64) {
    if let Some((_, run)) = runs.range_mut(..at).next_back() {
        if run.end > at {
            let tail = *run;
            run.end = at;
            runs.insert(at, tail);
        }
    }
}

/// Joins the runs meeting at `at` when they agree on owner and
/// consumption.
fn join_at(runs: &mut BTreeMap<u64, OwnedRun>, at: u64) {
    let Some(&right) = runs.get(&at) else {
        return;
    };
    if let Some((_, left)) = runs.range_mut(..at).next_back() {
        if left.end == at && (left.owner, left.consumed) == (right.owner, right.consumed) {
            left.end = right.end;
            runs.remove(&at);
        }
    }
}

/// Records uploads, launches, and downloads in program order and builds
/// the [`DataflowGraph`].
///
/// Stitching is incremental: every `record_*` call replays its event
/// against a last-writer interval map and updates the per-node byte
/// totals and the edge map on the spot, at a cost proportional to the
/// event's own runs. Ownership semantics: the most recent writer of a
/// byte owns it; a read attributes its bytes to the current owners (one
/// edge per producer), a write transfers ownership and classifies the
/// evicted bytes as dead when no consumer had read them. A kernel reads
/// the pre-launch snapshot, so within one node reads are processed
/// before writes.
#[derive(Debug, Default)]
pub struct DataflowRecorder {
    /// Program-ordered nodes; `consumed_bytes` is filled in by
    /// [`DataflowRecorder::finish`] from the other totals.
    nodes: Vec<DataflowNode>,
    /// The last-writer map: the current owner of every stored byte, as
    /// disjoint runs keyed by start address. Runs are split only where
    /// an access boundary falls inside them and re-joined when
    /// neighbours agree again, so its size follows the address layout,
    /// not the recorded history.
    owners: BTreeMap<u64, OwnedRun>,
    edges: BTreeMap<(usize, usize), u64>,
    /// Every byte any download has read.
    downloaded: IntervalSet,
    /// Run starts touched by the current read, re-joined afterwards.
    joins: Vec<u64>,
}

impl DataflowRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        DataflowRecorder::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a host-to-device write of `writes` under `name`
    /// (e.g. `host-upload`, or `host-init` for construction-time model
    /// state).
    pub fn record_upload(&mut self, name: &str, frame: Option<usize>, writes: IntervalSet) {
        self.record(
            NodeKind::HostUpload,
            name,
            frame,
            &IntervalSet::new(),
            &writes,
            None,
        );
    }

    /// Records a device-to-host read of `reads` under `name`.
    pub fn record_download(&mut self, name: &str, frame: Option<usize>, reads: IntervalSet) {
        self.record(
            NodeKind::HostDownload,
            name,
            frame,
            &reads,
            &IntervalSet::new(),
            None,
        );
    }

    /// Records a kernel launch with its access summary and counters.
    pub fn record_kernel(
        &mut self,
        name: &str,
        frame: Option<usize>,
        access: LaunchAccess,
        stats: KernelStats,
        occupancy: Occupancy,
    ) {
        self.record(
            NodeKind::Kernel,
            name,
            frame,
            &access.reads,
            &access.writes,
            Some(NodeStats { stats, occupancy }),
        );
    }

    /// Appends node `j` and stitches it: reads attribute to the current
    /// owners, then writes evict them and take ownership.
    fn record(
        &mut self,
        kind: NodeKind,
        name: &str,
        frame: Option<usize>,
        reads: &IntervalSet,
        writes: &IntervalSet,
        stats: Option<NodeStats>,
    ) {
        let j = self.nodes.len();
        let mut attributed = 0;
        for &(s, e) in reads.runs() {
            attributed += self.read(j, s, e);
        }
        if kind == NodeKind::HostDownload {
            self.downloaded.union_in_place(reads);
        }
        let reread = if kind == NodeKind::HostUpload {
            writes.intersect(&self.downloaded).total_bytes()
        } else {
            0
        };
        for &(s, e) in writes.runs() {
            self.write(j, s, e);
        }
        let stored = writes.total_bytes();
        let read_bytes = reads.total_bytes();
        self.nodes.push(DataflowNode {
            kind,
            name: name.to_string(),
            frame,
            read_bytes,
            stored_bytes: stored,
            consumed_bytes: 0,
            dead_store_bytes: 0,
            live_at_exit_bytes: stored,
            unattributed_read_bytes: read_bytes - attributed,
            reread_from_host_bytes: reread,
            stats,
        });
    }

    /// Node `j` reads `[s, e)`: every owned byte in it adds to its
    /// owner's edge into `j` and becomes consumed. Returns the bytes
    /// that had an owner.
    fn read(&mut self, j: usize, s: u64, e: u64) -> u64 {
        if s >= e {
            return 0;
        }
        split_at(&mut self.owners, s);
        split_at(&mut self.owners, e);
        let mut attributed = 0;
        self.joins.clear();
        for (&start, run) in self.owners.range_mut(s..e) {
            let len = run.end - start;
            *self.edges.entry((run.owner, j)).or_insert(0) += len;
            attributed += len;
            if !run.consumed {
                run.consumed = true;
                self.nodes[run.owner].live_at_exit_bytes -= len;
            }
            self.joins.push(start);
        }
        self.joins.push(e);
        for &at in &self.joins {
            join_at(&mut self.owners, at);
        }
        attributed
    }

    /// Node `j` stores `[s, e)`: the runs it covers are evicted (their
    /// unconsumed bytes die) and `j` owns the span.
    fn write(&mut self, j: usize, s: u64, e: u64) {
        if s >= e {
            return;
        }
        split_at(&mut self.owners, s);
        split_at(&mut self.owners, e);
        while let Some((&start, &run)) = self.owners.range(s..e).next() {
            self.owners.remove(&start);
            if !run.consumed {
                let len = run.end - start;
                let node = &mut self.nodes[run.owner];
                node.live_at_exit_bytes -= len;
                node.dead_store_bytes += len;
            }
        }
        self.owners.insert(
            s,
            OwnedRun {
                end: e,
                owner: j,
                consumed: false,
            },
        );
    }

    /// Materializes the graph recorded so far, in O(nodes + edges).
    /// Recording may continue afterwards.
    pub fn finish(&self) -> DataflowGraph {
        let nodes: Vec<DataflowNode> = self
            .nodes
            .iter()
            .map(|n| DataflowNode {
                // Bytes consumed and still owned stay classified as
                // consumed; live-at-exit is what remains untouched.
                consumed_bytes: n.stored_bytes - n.dead_store_bytes - n.live_at_exit_bytes,
                ..n.clone()
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|(&(producer, consumer), &bytes)| DataflowEdge {
                producer,
                consumer,
                bytes,
            })
            .collect();
        DataflowGraph {
            reread_from_host_bytes: nodes.iter().map(|n| n.reread_from_host_bytes).sum(),
            nodes,
            edges,
        }
    }
}

/// One node of the dataflow graph, with its byte-conservation
/// partition: `stored_bytes == consumed_bytes + dead_store_bytes +
/// live_at_exit_bytes`, integer-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowNode {
    /// Event kind.
    pub kind: NodeKind,
    /// Kernel or transfer name (e.g. `mog-update`, `host-upload`).
    pub name: String,
    /// Frame index the event belongs to, when per-frame.
    pub frame: Option<usize>,
    /// Bytes this node read from device memory.
    pub read_bytes: u64,
    /// Bytes this node stored.
    pub stored_bytes: u64,
    /// Stored bytes read by a later node before being overwritten.
    pub consumed_bytes: u64,
    /// Stored bytes overwritten before any consumer read them.
    pub dead_store_bytes: u64,
    /// Stored bytes still owned and unconsumed when recording ended.
    pub live_at_exit_bytes: u64,
    /// Read bytes with no recorded producer (host state from before
    /// recording began).
    pub unattributed_read_bytes: u64,
    /// Upload bytes that had previously been downloaded — a round trip
    /// through the host that device-resident handoff would avoid.
    pub reread_from_host_bytes: u64,
    /// Launch counters, present on kernel nodes.
    pub stats: Option<NodeStats>,
}

/// One producer→consumer edge: bytes stored by `producer` and read by
/// `consumer` while still owned by the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DataflowEdge {
    /// Producing node index.
    pub producer: usize,
    /// Consuming node index.
    pub consumer: usize,
    /// Bytes flowing along the edge.
    pub bytes: u64,
}

/// The stitched producer→consumer memory-flow graph of a recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowGraph {
    /// Program-ordered nodes.
    pub nodes: Vec<DataflowNode>,
    /// Byte-carrying edges, ordered by (producer, consumer).
    pub edges: Vec<DataflowEdge>,
    /// Total bytes uploaded that had previously been downloaded.
    pub reread_from_host_bytes: u64,
}

/// An adjacent-launch fusion opportunity: every `producer`-named launch
/// immediately followed by a `consumer`-named launch, aggregated over
/// the run, with the bytes that round-trip through DRAM between them.
#[derive(Debug, Clone)]
pub struct FusionCandidate {
    /// Producing kernel name.
    pub producer: String,
    /// Consuming kernel name.
    pub consumer: String,
    /// Adjacent launch pairs aggregated.
    pub pairs: usize,
    /// Bytes stored by the producer and reloaded by the adjacent
    /// consumer (summed over pairs).
    pub edge_bytes: u64,
    /// Unique bytes the producer launches stored.
    pub producer_stored_bytes: u64,
    /// Unique bytes the consumer launches read.
    pub consumer_read_bytes: u64,
    /// Producer counters summed over the aggregated launches.
    pub producer_stats: KernelStats,
    /// Producer occupancy (identical across launches of one kernel).
    pub producer_occupancy: Occupancy,
    /// Consumer counters summed over the aggregated launches.
    pub consumer_stats: KernelStats,
    /// Consumer occupancy.
    pub consumer_occupancy: Occupancy,
}

impl DataflowGraph {
    /// Aggregates adjacent kernel-launch pairs into fusion candidates.
    ///
    /// Only *consecutive* kernel launches qualify (a fused kernel
    /// replaces two back-to-back launches); pairs of the same kernel
    /// name are skipped (fusing a kernel with itself is a tiling
    /// question, not a fusion one), as are pairs with no byte flow.
    /// Candidates are returned ordered by edge bytes descending, then
    /// by name for determinism.
    pub fn fusion_candidates(&self) -> Vec<FusionCandidate> {
        let kernel_ix: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].kind == NodeKind::Kernel)
            .collect();
        let edge_bytes: BTreeMap<(usize, usize), u64> = self
            .edges
            .iter()
            .map(|e| ((e.producer, e.consumer), e.bytes))
            .collect();
        let mut agg: BTreeMap<(String, String), FusionCandidate> = BTreeMap::new();
        for w in kernel_ix.windows(2) {
            let (p, c) = (w[0], w[1]);
            let (pn, cn) = (&self.nodes[p], &self.nodes[c]);
            if pn.name == cn.name {
                continue;
            }
            let bytes = edge_bytes.get(&(p, c)).copied().unwrap_or(0);
            if bytes == 0 {
                continue;
            }
            let (Some(ps), Some(cs)) = (&pn.stats, &cn.stats) else {
                continue;
            };
            let key = (pn.name.clone(), cn.name.clone());
            let cand = agg.entry(key).or_insert_with(|| FusionCandidate {
                producer: pn.name.clone(),
                consumer: cn.name.clone(),
                pairs: 0,
                edge_bytes: 0,
                producer_stored_bytes: 0,
                consumer_read_bytes: 0,
                producer_stats: KernelStats::default(),
                producer_occupancy: ps.occupancy,
                consumer_stats: KernelStats::default(),
                consumer_occupancy: cs.occupancy,
            });
            cand.pairs += 1;
            cand.edge_bytes += bytes;
            cand.producer_stored_bytes += pn.stored_bytes;
            cand.consumer_read_bytes += cn.read_bytes;
            cand.producer_stats.merge(&ps.stats);
            cand.consumer_stats.merge(&cs.stats);
        }
        let mut out: Vec<FusionCandidate> = agg.into_values().collect();
        out.sort_by(|a, b| {
            b.edge_bytes
                .cmp(&a.edge_bytes)
                .then_with(|| a.producer.cmp(&b.producer))
                .then_with(|| a.consumer.cmp(&b.consumer))
        });
        out
    }

    /// Renders the graph in Graphviz DOT, kernels as ellipses and host
    /// transfers as boxes, edge labels carrying the flowing bytes.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph dataflow {\n  rankdir=LR;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = match node.kind {
                NodeKind::Kernel => "ellipse",
                _ => "box",
            };
            let frame = node.frame.map(|f| format!(" f{f}")).unwrap_or_default();
            let mut detail = format!("{} B stored", node.stored_bytes);
            if node.dead_store_bytes > 0 {
                detail.push_str(&format!(", {} B dead", node.dead_store_bytes));
            }
            out.push_str(&format!(
                "  n{i} [label=\"{}{frame}\\n{detail}\" shape={shape}];\n",
                node.name
            ));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  n{} -> n{} [label=\"{} B\"];\n",
                e.producer, e.consumer, e.bytes
            ));
        }
        out.push_str("}\n");
        out
    }

    /// The graph as a JSON value (serialize with
    /// `to_string_canonical_pretty` for byte-stable output). Kernel
    /// counters are omitted — they are launch-report detail, not graph
    /// structure.
    pub fn to_json(&self) -> serde_json::Value {
        let nodes: Vec<serde_json::Value> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                serde_json::json!({
                    "id": i,
                    "kind": n.kind.as_str(),
                    "name": n.name,
                    "frame": n.frame,
                    "read_bytes": n.read_bytes,
                    "stored_bytes": n.stored_bytes,
                    "consumed_bytes": n.consumed_bytes,
                    "dead_store_bytes": n.dead_store_bytes,
                    "live_at_exit_bytes": n.live_at_exit_bytes,
                    "unattributed_read_bytes": n.unattributed_read_bytes,
                    "reread_from_host_bytes": n.reread_from_host_bytes,
                })
            })
            .collect();
        let edges: Vec<serde_json::Value> = self
            .edges
            .iter()
            .map(|e| {
                serde_json::json!({
                    "producer": e.producer,
                    "consumer": e.consumer,
                    "bytes": e.bytes,
                })
            })
            .collect();
        serde_json::json!({
            "nodes": nodes,
            "edges": edges,
            "reread_from_host_bytes": self.reread_from_host_bytes,
        })
    }

    /// Prometheus text exposition of the graph: edge bytes aggregated by
    /// producer/consumer kernel name, dead-store and re-read-from-host
    /// bytes by node name.
    pub fn prometheus(&self) -> String {
        let mut edge_by_name: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for e in &self.edges {
            let key = (
                self.nodes[e.producer].name.as_str(),
                self.nodes[e.consumer].name.as_str(),
            );
            *edge_by_name.entry(key).or_insert(0) += e.bytes;
        }
        let mut dead_by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for n in &self.nodes {
            *dead_by_name.entry(&n.name).or_insert(0) += n.dead_store_bytes;
        }
        let mut e = Exposition::new();
        e.family(
            "mogpu_dataflow_edge_bytes",
            Kind::Counter,
            "Bytes stored by the producer and reloaded by the consumer.",
        );
        for ((p, c), bytes) in edge_by_name {
            e.sample(&[("producer", p), ("consumer", c)], bytes);
        }
        e.family(
            "mogpu_dataflow_dead_store_bytes",
            Kind::Counter,
            "Bytes stored but overwritten before any consumer read them.",
        );
        for (name, bytes) in dead_by_name {
            e.sample(&[("node", name)], bytes);
        }
        e.family(
            "mogpu_dataflow_reread_from_host_bytes",
            Kind::Counter,
            "Uploaded bytes that had previously been downloaded (host round trip).",
        )
        .sample(&[], self.reread_from_host_bytes);
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::Limiter;

    fn occ() -> Occupancy {
        Occupancy {
            resident_blocks: 8,
            resident_warps: 48,
            resident_threads: 48 * 32,
            occupancy: 1.0,
            limiter: Limiter::Warps,
        }
    }

    fn access(reads: &[(u64, u64)], writes: &[(u64, u64)]) -> LaunchAccess {
        LaunchAccess {
            reads: IntervalSet::from_runs(reads.to_vec()),
            writes: IntervalSet::from_runs(writes.to_vec()),
        }
    }

    #[test]
    fn interval_set_normalizes_overlaps_and_adjacency() {
        let s = IntervalSet::from_runs(vec![(10, 20), (15, 25), (25, 30), (40, 50)]);
        assert_eq!(s.runs(), &[(10, 30), (40, 50)]);
        assert_eq!(s.total_bytes(), 30);
    }

    #[test]
    fn interval_set_ops_are_exact() {
        let a = IntervalSet::from_runs(vec![(0, 100)]);
        let b = IntervalSet::from_runs(vec![(10, 20), (50, 120)]);
        assert_eq!(a.intersect(&b).runs(), &[(10, 20), (50, 100)]);
        assert_eq!(a.subtract(&b).runs(), &[(0, 10), (20, 50)]);
        let mut u = a.clone();
        u.union_in_place(&b);
        assert_eq!(u.runs(), &[(0, 120)]);
        // Conservation of the partition: |a| = |a∩b| + |a−b|.
        assert_eq!(
            a.total_bytes(),
            a.intersect(&b).total_bytes() + a.subtract(&b).total_bytes()
        );
    }

    /// The windowed union agrees with normalizing both sets' runs
    /// together, wherever the sets lie relative to each other.
    #[test]
    fn union_matches_normalizing_all_runs() {
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for _ in 0..500 {
            let mut set = |most: u64, span: u64| {
                let n = next(most);
                let runs = (0..n)
                    .map(|_| {
                        let s = next(span);
                        (s, s + 1 + next(8))
                    })
                    .collect();
                IntervalSet::from_runs(runs)
            };
            let (a, b) = (set(12, 200), set(6, 200));
            let mut u = a.clone();
            u.union_in_place(&b);
            let mut all = a.runs().to_vec();
            all.extend_from_slice(b.runs());
            assert_eq!(u, IntervalSet::from_runs(all), "{a:?} ∪ {b:?}");
        }
    }

    #[test]
    fn collector_coalesces_contiguous_runs_and_cells() {
        let mut c = IntervalCollector::default();
        c.record_run(0, 8);
        c.record_run(8, 16);
        c.record_run(4, 12); // overlapping, inside the last run
        assert_eq!(c.take_set().runs(), &[(0, 16)]);
        c.record_mask(64, 0b0110_0101);
        let s = c.take_set();
        assert_eq!(s.runs(), &[(64, 65), (66, 67), (69, 71)]);
        c.record_mask(128, !0);
        c.record_mask(256, 0xF << 60 | 1);
        assert_eq!(c.take_set().runs(), &[(128, 192), (256, 257), (316, 320)]);
    }

    #[test]
    fn graph_edges_attribute_bytes_to_the_owning_producer() {
        let mut r = DataflowRecorder::new();
        r.record_upload("host-upload", Some(0), IntervalSet::from_span(0, 100));
        r.record_kernel(
            "producer",
            Some(0),
            access(&[(0, 100)], &[(200, 300)]),
            KernelStats::default(),
            occ(),
        );
        r.record_kernel(
            "consumer",
            Some(0),
            access(&[(200, 260)], &[(400, 410)]),
            KernelStats::default(),
            occ(),
        );
        r.record_download("host-download", Some(0), IntervalSet::from_span(400, 10));
        let g = r.finish();
        assert_eq!(g.nodes.len(), 4);
        // upload→producer (100 B), producer→consumer (60 B),
        // consumer→download (10 B).
        assert_eq!(
            g.edges,
            vec![
                DataflowEdge {
                    producer: 0,
                    consumer: 1,
                    bytes: 100
                },
                DataflowEdge {
                    producer: 1,
                    consumer: 2,
                    bytes: 60
                },
                DataflowEdge {
                    producer: 2,
                    consumer: 3,
                    bytes: 10
                },
            ]
        );
        assert_eq!(g.nodes[1].consumed_bytes, 60);
        assert_eq!(g.nodes[1].live_at_exit_bytes, 40);
        assert_eq!(g.nodes[1].dead_store_bytes, 0);
    }

    #[test]
    fn dead_stores_are_bytes_overwritten_before_consumption() {
        let mut r = DataflowRecorder::new();
        r.record_kernel(
            "a",
            Some(0),
            access(&[], &[(0, 100)]),
            KernelStats::default(),
            occ(),
        );
        // b consumes half of a's bytes, then c overwrites all of them.
        r.record_kernel(
            "b",
            Some(0),
            access(&[(0, 50)], &[]),
            KernelStats::default(),
            occ(),
        );
        r.record_kernel(
            "c",
            Some(0),
            access(&[], &[(0, 100)]),
            KernelStats::default(),
            occ(),
        );
        let g = r.finish();
        let a = &g.nodes[0];
        assert_eq!(a.stored_bytes, 100);
        assert_eq!(a.consumed_bytes, 50);
        assert_eq!(a.dead_store_bytes, 50);
        assert_eq!(a.live_at_exit_bytes, 0);
        // c's stores are never read: all live at exit.
        assert_eq!(g.nodes[2].live_at_exit_bytes, 100);
    }

    /// The acceptance-criterion invariant: every node's stored bytes
    /// partition exactly into consumed + dead + live-at-exit, and every
    /// edge is bounded by its producer's stored bytes.
    #[test]
    fn byte_conservation_holds_on_a_multi_frame_pipeline() {
        let mut r = DataflowRecorder::new();
        r.record_upload("host-init", None, IntervalSet::from_span(1000, 640));
        for f in 0..4 {
            r.record_upload("host-upload", Some(f), IntervalSet::from_span(0, 64));
            r.record_kernel(
                "mog-update",
                Some(f),
                access(&[(0, 64), (1000, 1640)], &[(1000, 1640), (2000, 2064)]),
                KernelStats::default(),
                occ(),
            );
            r.record_kernel(
                "morphology",
                Some(f),
                access(&[(2000, 2064)], &[(3000, 3064)]),
                KernelStats::default(),
                occ(),
            );
            r.record_download("host-download", Some(f), IntervalSet::from_span(3000, 64));
        }
        let g = r.finish();
        for (i, n) in g.nodes.iter().enumerate() {
            assert_eq!(
                n.stored_bytes,
                n.consumed_bytes + n.dead_store_bytes + n.live_at_exit_bytes,
                "node {i} ({}) violates the stored-byte partition",
                n.name
            );
        }
        for e in &g.edges {
            assert!(
                e.bytes <= g.nodes[e.producer].stored_bytes,
                "edge {}→{} carries more bytes than its producer stored",
                e.producer,
                e.consumer
            );
        }
        // The mask round trip: each mog-update launch's 64 mask bytes are
        // consumed by the adjacent morphology launch.
        let cands = g.fusion_candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].producer, "mog-update");
        assert_eq!(cands[0].consumer, "morphology");
        assert_eq!(cands[0].pairs, 4);
        assert_eq!(cands[0].edge_bytes, 4 * 64);
    }

    #[test]
    fn reread_from_host_counts_download_then_upload_round_trips() {
        let mut r = DataflowRecorder::new();
        r.record_kernel(
            "k",
            Some(0),
            access(&[], &[(0, 100)]),
            KernelStats::default(),
            occ(),
        );
        r.record_download("host-download", Some(0), IntervalSet::from_span(0, 100));
        r.record_upload("host-upload", Some(1), IntervalSet::from_span(50, 100));
        let g = r.finish();
        assert_eq!(g.reread_from_host_bytes, 50);
        assert_eq!(g.nodes[2].reread_from_host_bytes, 50);
    }

    #[test]
    fn self_pairs_and_zero_byte_pairs_are_not_candidates() {
        let mut r = DataflowRecorder::new();
        // erode→dilate of the same logical stage share a name: skipped.
        r.record_kernel(
            "morphology",
            Some(0),
            access(&[], &[(0, 64)]),
            KernelStats::default(),
            occ(),
        );
        r.record_kernel(
            "morphology",
            Some(0),
            access(&[(0, 64)], &[(100, 164)]),
            KernelStats::default(),
            occ(),
        );
        // A following kernel with no byte flow from the previous one.
        r.record_kernel(
            "other",
            Some(0),
            access(&[(5000, 5064)], &[(6000, 6064)]),
            KernelStats::default(),
            occ(),
        );
        assert!(r.finish().fusion_candidates().is_empty());
    }

    #[test]
    fn exports_render_nodes_and_edges() {
        let mut r = DataflowRecorder::new();
        r.record_kernel(
            "mog-update",
            Some(0),
            access(&[], &[(0, 64)]),
            KernelStats::default(),
            occ(),
        );
        r.record_kernel(
            "morphology",
            Some(0),
            access(&[(0, 64)], &[(100, 164)]),
            KernelStats::default(),
            occ(),
        );
        let g = r.finish();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph dataflow {"));
        assert!(dot.contains("n0 -> n1 [label=\"64 B\"]"));
        let json = g.to_json();
        let edges = json.get("edges").and_then(|v| v.as_array()).unwrap();
        assert_eq!(edges[0].get("bytes").and_then(|v| v.as_u64()), Some(64));
        let nodes = json.get("nodes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(
            nodes[0].get("name").and_then(|v| v.as_str()),
            Some("mog-update")
        );
        let prom = g.prometheus();
        assert!(prom.contains(
            "mogpu_dataflow_edge_bytes{producer=\"mog-update\",consumer=\"morphology\"} 64"
        ));
        assert!(prom.contains("# TYPE mogpu_dataflow_dead_store_bytes counter"));
    }
}
