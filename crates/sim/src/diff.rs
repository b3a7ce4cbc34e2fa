//! Differential profiling: run-vs-run attribution.
//!
//! Every other observability layer explains a *single* run; this module
//! explains the **difference** between two. [`diff_values`] takes two
//! serialized report documents of the same kind — profile reports (or
//! whole ladder arrays), multi-stream serving reports, fleet reports,
//! bench baselines, or dataflow graphs — and produces a structured
//! [`DiffReport`] answering the question the bench gate alone cannot:
//! *which kernel, which site, which stall bucket, which counter moved?*
//!
//! Attribution semantics, in decreasing strength:
//!
//! * **Stall-bucket deltas are conserved.** Each side's
//!   [`StallBreakdown`] partitions its modelled kernel time exactly, so
//!   the per-bucket deltas sum to the kernel-time delta to the same
//!   floating-point tolerance as the existing conservation tests — the
//!   decomposition never invents or loses time.
//! * **Per-site deltas are conserved and carry `file:line` evidence.**
//!   Each side's site rows sum to its kernel breakdown, so subtracting
//!   the aligned rows (matched on the source string; sites present on
//!   one side only contribute their full time) conserves the kernel
//!   delta; [`KernelDiff::attributed_fraction`] reports how much of the
//!   delta lands on *resolved* sites.
//! * **Counterfactual counter ranking is explanatory, not conserved.**
//!   For each counter set that feeds [`crate::timing::kernel_time`], the
//!   engine re-runs the timing model on side A's counters with that one
//!   set swapped to side B's value — the same machinery the advisor uses
//!   to price a transform. Because the model is a three-way max the
//!   single-swap contributions need not sum to the delta; the remainder
//!   is reported as [`KernelDiff::interaction_s`].
//! * **Telemetry series are re-aligned on the schedule clock.** Two runs
//!   sample different quantum lengths, so both sides are resampled onto
//!   a common normalized clock: byte series by overlap integral
//!   (conserving each side's total), rate/ratio series by
//!   overlap-weighted time average.
//! * **Histogram deltas reuse the serving bucket scheme.** Latency
//!   histograms share one fixed bucket layout, so the diff is plain
//!   per-bucket subtraction plus quantile shifts.
//!
//! Self-diff of any report is all zeros, and serializing a
//! [`DiffReport`] with `to_string_canonical_pretty` is byte-stable.

use crate::config::GpuConfig;
use crate::exposition::{Exposition, Kind};
use crate::fleet::FleetReport;
use crate::occupancy::Occupancy;
use crate::profile::{HotspotRow, SiteStats};
use crate::serving::{bucket_bound, LatencyHistogram, ServingReport, NUM_BOUNDS};
use crate::stallreasons::{kernel_stalls, SiteStallRow, StallBreakdown};
use crate::stats::KernelStats;
use crate::telemetry::PipelineTelemetry;
use crate::timing::{kernel_time, KernelTiming};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// Format version of serialized [`DiffReport`] documents.
pub const DIFF_SCHEMA: u32 = 1;

/// Normalized-schedule-clock buckets telemetry series are re-aligned to.
pub const TELEMETRY_DIFF_BUCKETS: usize = 32;

/// Source label for site rows whose `file:line` was not resolved.
const UNRESOLVED: &str = "<unresolved>";

/// One stall-reason bucket compared across the two sides.
#[derive(Debug, Clone, Serialize)]
pub struct ReasonDelta {
    /// Bucket name from [`StallBreakdown::entries`].
    pub reason: String,
    /// Side-A seconds.
    pub a_s: f64,
    /// Side-B seconds.
    pub b_s: f64,
    /// `b_s - a_s`.
    pub delta_s: f64,
}

/// One source site's movement between the two runs.
#[derive(Debug, Clone, Serialize)]
pub struct SiteDiff {
    /// `file:line`, or `"<unresolved>"`.
    pub source: String,
    /// `"both"`, `"a_only"` or `"b_only"`.
    pub presence: String,
    /// Side-A stall seconds at this site.
    pub a_s: f64,
    /// Side-B stall seconds at this site.
    pub b_s: f64,
    /// `b_s - a_s`; summing over all sites reproduces the kernel delta.
    pub delta_s: f64,
    /// Stall bucket with the largest absolute movement at this site.
    pub dominant_reason: String,
    /// Per-bucket movement at this site.
    pub stalls: Vec<ReasonDelta>,
    /// Weighted issue-cycle delta.
    pub issue_cycles_delta: f64,
    /// DRAM transaction delta.
    pub transactions_delta: i64,
    /// Lane-requested byte delta.
    pub bytes_requested_delta: i64,
    /// Divergent branch-slot delta.
    pub divergent_slots_delta: i64,
    /// Shared-memory replay delta.
    pub shared_replays_delta: i64,
}

/// One counter set's movement, priced by a counterfactual re-run of the
/// timing model (side A's counters with this one set swapped to side B's
/// value).
#[derive(Debug, Clone, Serialize)]
pub struct CounterDiff {
    /// Counter set name (e.g. `"global_load_tx"`).
    pub counter: String,
    /// Side-A value.
    pub a: f64,
    /// Side-B value.
    pub b: f64,
    /// `b - a`.
    pub delta: f64,
    /// Modelled kernel-seconds this movement alone would cause.
    pub contribution_s: f64,
}

/// Telemetry series compared on a common normalized schedule clock.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryDiff {
    /// Aligned buckets per series ([`TELEMETRY_DIFF_BUCKETS`]).
    pub buckets: usize,
    /// Side-A makespan (seconds).
    pub makespan_a_s: f64,
    /// Side-B makespan (seconds).
    pub makespan_b_s: f64,
    /// Makespan delta.
    pub makespan_delta_s: f64,
    /// Side-A total DRAM bytes (bandwidth integral).
    pub dram_bytes_a: f64,
    /// Side-B total DRAM bytes.
    pub dram_bytes_b: f64,
    /// DRAM byte delta.
    pub dram_bytes_delta: f64,
    /// Side-A peak DRAM bandwidth (bytes/s).
    pub peak_dram_bw_a: f64,
    /// Side-B peak DRAM bandwidth.
    pub peak_dram_bw_b: f64,
    /// Peak-bandwidth delta.
    pub peak_dram_bw_delta: f64,
    /// Side-A busy-weighted mean occupancy.
    pub mean_busy_occupancy_a: f64,
    /// Side-B busy-weighted mean occupancy.
    pub mean_busy_occupancy_b: f64,
    /// Occupancy delta.
    pub mean_busy_occupancy_delta: f64,
    /// Side-A mean L2 hit rate (unweighted over quanta).
    pub mean_l2_hit_rate_a: f64,
    /// Side-B mean L2 hit rate.
    pub mean_l2_hit_rate_b: f64,
    /// L2 hit-rate delta.
    pub mean_l2_hit_rate_delta: f64,
    /// Per-bucket DRAM byte delta on the normalized clock; sums to
    /// `dram_bytes_delta` to fp tolerance (each resample conserves its
    /// side's integral).
    pub dram_bytes_series_delta: Vec<f64>,
    /// Per-bucket busy-occupancy delta (overlap-weighted average).
    pub occupancy_series_delta: Vec<f64>,
    /// Per-bucket L2 hit-rate delta (overlap-weighted average).
    pub l2_series_delta: Vec<f64>,
}

/// One kernel (= one run aggregate, or one ladder level) compared across
/// the two sides.
#[derive(Debug, Clone, Serialize)]
pub struct KernelDiff {
    /// Display label, `"A -> F"` style.
    pub label: String,
    /// Side-A level name.
    pub a_level: String,
    /// Side-B level name.
    pub b_level: String,
    /// Frames in side A's run.
    pub frames_a: u64,
    /// Frames in side B's run.
    pub frames_b: u64,
    /// Side-A modelled fps (NaN when the document carries none).
    pub fps_a: f64,
    /// Side-B modelled fps.
    pub fps_b: f64,
    /// Side-A modelled kernel seconds.
    pub time_a_s: f64,
    /// Side-B modelled kernel seconds.
    pub time_b_s: f64,
    /// `time_b_s - time_a_s`.
    pub time_delta_s: f64,
    /// Side-A roofline bound.
    pub bound_a: String,
    /// Side-B roofline bound.
    pub bound_b: String,
    /// Side-A occupancy.
    pub occupancy_a: f64,
    /// Side-B occupancy.
    pub occupancy_b: f64,
    /// Per-bucket stall deltas; their sum equals `time_delta_s` exactly.
    pub stalls: Vec<ReasonDelta>,
    /// Sum of the stall deltas (the conservation check, made explicit).
    pub stall_delta_sum_s: f64,
    /// Kernel-delta seconds landing on sites with resolved `file:line`.
    pub attributed_delta_s: f64,
    /// `attributed_delta_s / time_delta_s` (1.0 when the delta is zero).
    pub attributed_fraction: f64,
    /// Per-site movement, ranked by |delta|.
    pub sites: Vec<SiteDiff>,
    /// Counterfactually priced counter movements, ranked by
    /// |contribution|.
    pub counters: Vec<CounterDiff>,
    /// `time_delta_s - Σ contribution_s`: the model's nonlinear
    /// interaction term the single-swap pricing cannot assign.
    pub interaction_s: f64,
    /// Telemetry series deltas when both sides carry sampled telemetry.
    pub telemetry: Option<TelemetryDiff>,
}

/// One histogram bucket's movement.
#[derive(Debug, Clone, Serialize)]
pub struct BucketDelta {
    /// Inclusive upper bound label (Prometheus `le` convention,
    /// `"+Inf"` for the overflow bucket).
    pub le: String,
    /// Side-A count.
    pub a: u64,
    /// Side-B count.
    pub b: u64,
    /// `b - a`.
    pub delta: i64,
}

/// A latency histogram compared bucket-by-bucket, with quantile shifts.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramDiff {
    /// Which histogram (`"e2e_latency"` / `"frame_latency"`).
    pub name: String,
    /// Side-A sample count.
    pub count_a: u64,
    /// Side-B sample count.
    pub count_b: u64,
    /// Count delta.
    pub count_delta: i64,
    /// Side-A sum of samples (seconds).
    pub sum_a_s: f64,
    /// Side-B sum.
    pub sum_b_s: f64,
    /// Sum delta.
    pub sum_delta_s: f64,
    /// Mean shift (NaN/null when either side is empty).
    pub mean_shift_s: f64,
    /// p50 shift.
    pub p50_shift_s: f64,
    /// p95 shift.
    pub p95_shift_s: f64,
    /// p99 shift.
    pub p99_shift_s: f64,
    /// Buckets whose counts differ (shared fixed bucket scheme).
    pub buckets: Vec<BucketDelta>,
}

/// One stream's movement in a serving diff.
#[derive(Debug, Clone, Serialize)]
pub struct StreamDiff {
    /// Stream index.
    pub stream: usize,
    /// `"both"`, `"a_only"` or `"b_only"`.
    pub presence: String,
    /// Completed-frame delta.
    pub frames_completed_delta: i64,
    /// SLO-violation delta.
    pub slo_violations_delta: i64,
    /// End-to-end p95 shift (NaN when a side is empty).
    pub e2e_p95_shift_s: f64,
}

/// A serving report compared across the two sides.
#[derive(Debug, Clone, Serialize)]
pub struct ServingDiff {
    /// Side-A device label.
    pub device_a: String,
    /// Side-B device label.
    pub device_b: String,
    /// Side-A makespan (seconds).
    pub makespan_a_s: f64,
    /// Side-B makespan.
    pub makespan_b_s: f64,
    /// Makespan delta.
    pub makespan_delta_s: f64,
    /// Streams on side A.
    pub streams_a: usize,
    /// Streams on side B.
    pub streams_b: usize,
    /// Total completed-frame delta.
    pub frames_completed_delta: i64,
    /// Total SLO-violation delta.
    pub slo_violations_delta: i64,
    /// Pipeline frame-latency histogram diff.
    pub frame: HistogramDiff,
    /// Pipeline end-to-end latency histogram diff.
    pub e2e: HistogramDiff,
    /// Per-stream movement, by stream index.
    pub streams: Vec<StreamDiff>,
}

/// One fleet device's movement.
#[derive(Debug, Clone, Serialize)]
pub struct FleetDeviceDiff {
    /// Device label (e.g. `"c2075-0"`).
    pub label: String,
    /// `"both"`, `"a_only"` or `"b_only"`.
    pub presence: String,
    /// Admitted-stream delta.
    pub streams_admitted_delta: i64,
    /// SLO-violation delta.
    pub slo_violations_delta: i64,
    /// Completed-frame delta.
    pub frames_completed_delta: i64,
}

/// A fleet report compared across the two sides.
#[derive(Debug, Clone, Serialize)]
pub struct FleetDiff {
    /// Devices on side A.
    pub devices_a: usize,
    /// Devices on side B.
    pub devices_b: usize,
    /// Makespan delta (seconds).
    pub makespan_delta_s: f64,
    /// Admitted-stream delta.
    pub streams_admitted_delta: i64,
    /// Streams-at-SLO delta.
    pub streams_at_slo_delta: i64,
    /// Shed-frame delta.
    pub frames_dropped_delta: i64,
    /// Fleet-merged end-to-end latency histogram diff.
    pub e2e: HistogramDiff,
    /// Per-device movement, matched by label.
    pub devices: Vec<FleetDeviceDiff>,
}

/// One aggregated dataflow edge's movement (edges matched by
/// producer/consumer kernel name).
#[derive(Debug, Clone, Serialize)]
pub struct DataflowEdgeDiff {
    /// Producer node name.
    pub producer: String,
    /// Consumer node name.
    pub consumer: String,
    /// Side-A bytes over all matching edges.
    pub bytes_a: u64,
    /// Side-B bytes.
    pub bytes_b: u64,
    /// Byte delta.
    pub delta: i64,
}

/// One dataflow node's movement (nodes matched and aggregated by name).
#[derive(Debug, Clone, Serialize)]
pub struct DataflowNodeDiff {
    /// Node name.
    pub name: String,
    /// Node kind (`"kernel"` / transfer).
    pub kind: String,
    /// Stored-byte delta.
    pub stored_delta: i64,
    /// Dead-store byte delta.
    pub dead_store_delta: i64,
}

/// A dataflow graph compared across the two sides, renderable as a
/// "what changed" DOT overlay.
#[derive(Debug, Clone, Serialize)]
pub struct DataflowDiff {
    /// Per-node movement.
    pub nodes: Vec<DataflowNodeDiff>,
    /// Per-edge movement.
    pub edges: Vec<DataflowEdgeDiff>,
    /// Re-read-from-host byte delta.
    pub reread_from_host_delta: i64,
}

/// One flattened bench-baseline metric compared across the two sides.
#[derive(Debug, Clone, Serialize)]
pub struct MetricDelta {
    /// Dotted metric path, e.g. `"levels.F.fps"`.
    pub metric: String,
    /// Side-A value (NaN when absent).
    pub a: f64,
    /// Side-B value.
    pub b: f64,
    /// `b - a`.
    pub delta: f64,
}

/// The full differential-profiling result.
#[derive(Debug, Clone, Serialize)]
pub struct DiffReport {
    /// [`DIFF_SCHEMA`].
    pub schema: u32,
    /// Detected report kind (`"profile"`, `"profile_array"`,
    /// `"streams"`, `"fleet"`, `"bench"`, `"dataflow"`).
    pub kind: String,
    /// Caller-supplied label of side A (e.g. the file name).
    pub a_label: String,
    /// Caller-supplied label of side B.
    pub b_label: String,
    /// Kernel-level diffs (one per compared profile report).
    pub kernels: Vec<KernelDiff>,
    /// Serving diff, for stream/serving documents.
    pub serving: Option<ServingDiff>,
    /// Fleet diff, for fleet documents.
    pub fleet: Option<FleetDiff>,
    /// Dataflow diff, for graph documents.
    pub dataflow: Option<DataflowDiff>,
    /// Flattened metric deltas, for bench baselines.
    pub metrics: Vec<MetricDelta>,
    /// Caveats accumulated while diffing (unmatched levels, missing
    /// attribution data, ...).
    pub notes: Vec<String>,
}

/// Detects which report family a document belongs to.
pub fn detect_kind(v: &Value) -> &'static str {
    if v.as_array().is_some() {
        return "profile_array";
    }
    if v.get("levels").is_some() && v.get("tolerances").is_some() {
        return "bench";
    }
    if v.get("nodes").is_some() && v.get("edges").is_some() {
        return "dataflow";
    }
    let fleet_body = v.get("report").unwrap_or(v);
    if fleet_body.get("devices").is_some() && fleet_body.get("classes").is_some() {
        return "fleet";
    }
    let serving_body = v.get("serving").unwrap_or(v);
    if serving_body.get("pipeline_e2e_latency").is_some() && serving_body.get("streams").is_some() {
        return "streams";
    }
    if v.get("stats").is_some() && v.get("occupancy").is_some() {
        return "profile";
    }
    "unknown"
}

/// One profile-report side, parsed leniently: `timing`/`stalls` are
/// recomputed from the counters when the document omits them, site rows
/// and telemetry are optional.
struct ProfileSide {
    level: String,
    frames: u64,
    fps: f64,
    stats: KernelStats,
    occupancy: Occupancy,
    timing: KernelTiming,
    stalls: StallBreakdown,
    site_stalls: Vec<SiteStallRow>,
    hotspots: Vec<HotspotRow>,
    telemetry: Option<PipelineTelemetry>,
}

fn field<T: Deserialize>(v: &Value, key: &str, what: &str) -> Result<T, String> {
    match v.get(key) {
        Some(f) if !f.is_null() => {
            T::from_json_value(f).map_err(|e| format!("{what}: bad `{key}`: {e}"))
        }
        _ => Err(format!("{what}: missing `{key}`")),
    }
}

fn opt_vec<T: Deserialize>(v: &Value, key: &str, what: &str) -> Result<Vec<T>, String> {
    match v.get(key) {
        Some(f) if !f.is_null() => {
            Vec::<T>::from_json_value(f).map_err(|e| format!("{what}: bad `{key}`: {e}"))
        }
        _ => Ok(Vec::new()),
    }
}

fn parse_profile_side(v: &Value, label: &str, cfg: &GpuConfig) -> Result<ProfileSide, String> {
    let stats: KernelStats = field(v, "stats", label)?;
    let occupancy: Occupancy = field(v, "occupancy", label)?;
    let timing = match v.get("timing") {
        Some(t) if !t.is_null() => {
            KernelTiming::from_json_value(t).map_err(|e| format!("{label}: bad `timing`: {e}"))?
        }
        _ => kernel_time(&stats, &occupancy, cfg),
    };
    let stalls = match v.get("stalls") {
        Some(s) if !s.is_null() => {
            StallBreakdown::from_json_value(s).map_err(|e| format!("{label}: bad `stalls`: {e}"))?
        }
        _ => kernel_stalls(&stats, &timing, &occupancy),
    };
    let telemetry = v
        .get("telemetry")
        .and_then(|t| PipelineTelemetry::from_json_value(t).ok())
        .filter(|t| t.samples() > 0);
    Ok(ProfileSide {
        level: v
            .get("level")
            .and_then(Value::as_str)
            .unwrap_or(label)
            .to_string(),
        frames: v.get("frames").and_then(Value::as_u64).unwrap_or(0),
        fps: v.get("fps").and_then(Value::as_f64).unwrap_or(f64::NAN),
        stats,
        occupancy,
        timing,
        stalls,
        site_stalls: opt_vec(v, "site_stalls", label)?,
        hotspots: opt_vec(v, "hotspots", label)?,
        telemetry,
    })
}

fn add_breakdown(acc: &mut StallBreakdown, x: &StallBreakdown) {
    acc.execute_issue += x.execute_issue;
    acc.branch_divergence += x.branch_divergence;
    acc.shared_replay += x.shared_replay;
    acc.barrier_wait += x.barrier_wait;
    acc.memory_dependency += x.memory_dependency;
    acc.latency_exposure += x.latency_exposure;
}

fn reason_deltas(a: &StallBreakdown, b: &StallBreakdown) -> Vec<ReasonDelta> {
    a.entries()
        .into_iter()
        .zip(b.entries())
        .map(|((reason, av), (_, bv))| ReasonDelta {
            reason: reason.to_string(),
            a_s: av,
            b_s: bv,
            delta_s: bv - av,
        })
        .collect()
}

/// Per-source accumulation of one side's site rows.
#[derive(Default)]
struct SiteAcc {
    present: bool,
    stalls: StallBreakdown,
    counters: SiteStats,
}

fn accumulate_sites(
    site_stalls: &[SiteStallRow],
    hotspots: &[HotspotRow],
) -> BTreeMap<String, SiteAcc> {
    let mut map: BTreeMap<String, SiteAcc> = BTreeMap::new();
    for row in site_stalls {
        let key = row.source.clone().unwrap_or_else(|| UNRESOLVED.into());
        let acc = map.entry(key).or_default();
        acc.present = true;
        add_breakdown(&mut acc.stalls, &row.stalls);
    }
    for row in hotspots {
        let key = row.source.clone().unwrap_or_else(|| UNRESOLVED.into());
        let acc = map.entry(key).or_default();
        acc.present = true;
        acc.counters.merge(&row.stats);
    }
    map
}

fn site_diffs(a: &ProfileSide, b: &ProfileSide) -> Vec<SiteDiff> {
    let ma = accumulate_sites(&a.site_stalls, &a.hotspots);
    let mb = accumulate_sites(&b.site_stalls, &b.hotspots);
    let keys: std::collections::BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
    let zero = SiteAcc::default();
    let mut out: Vec<SiteDiff> = keys
        .into_iter()
        .map(|key| {
            let sa = ma.get(key).unwrap_or(&zero);
            let sb = mb.get(key).unwrap_or(&zero);
            let presence = match (sa.present, sb.present) {
                (true, true) => "both",
                (true, false) => "a_only",
                _ => "b_only",
            };
            let stalls = reason_deltas(&sa.stalls, &sb.stalls);
            let dominant = stalls
                .iter()
                .fold(("execute_issue".to_string(), f64::MIN), |best, r| {
                    if r.delta_s.abs() > best.1 {
                        (r.reason.clone(), r.delta_s.abs())
                    } else {
                        best
                    }
                })
                .0;
            SiteDiff {
                source: key.clone(),
                presence: presence.to_string(),
                a_s: sa.stalls.sum(),
                b_s: sb.stalls.sum(),
                delta_s: sb.stalls.sum() - sa.stalls.sum(),
                dominant_reason: dominant,
                stalls,
                issue_cycles_delta: sb.counters.issue_cycles - sa.counters.issue_cycles,
                transactions_delta: sb.counters.transactions as i64
                    - sa.counters.transactions as i64,
                bytes_requested_delta: sb.counters.bytes_requested as i64
                    - sa.counters.bytes_requested as i64,
                divergent_slots_delta: sb.counters.divergent_branch_slots as i64
                    - sa.counters.divergent_branch_slots as i64,
                shared_replays_delta: sb.counters.shared_replays as i64
                    - sa.counters.shared_replays as i64,
            }
        })
        .collect();
    out.sort_by(|x, y| {
        y.delta_s
            .abs()
            .total_cmp(&x.delta_s.abs())
            .then_with(|| x.source.cmp(&y.source))
    });
    out
}

/// Counterfactual counter pricing: side A's counters with one set at a
/// time swapped to side B's value, re-run through the timing model —
/// the same machinery the advisor uses to price a transform.
fn counterfactuals(a: &ProfileSide, b: &ProfileSide, cfg: &GpuConfig) -> (Vec<CounterDiff>, f64) {
    let t_a = kernel_time(&a.stats, &a.occupancy, cfg).total;
    let t_b = kernel_time(&b.stats, &b.occupancy, cfg).total;
    let mut out: Vec<CounterDiff> = Vec::new();
    let mut price = |counter: &str, av: f64, bv: f64, swapped: &KernelStats, occ: &Occupancy| {
        let t = kernel_time(swapped, occ, cfg).total;
        out.push(CounterDiff {
            counter: counter.to_string(),
            a: av,
            b: bv,
            delta: bv - av,
            contribution_s: t - t_a,
        });
    };
    {
        let mut s = a.stats.clone();
        s.issue_cycles = b.stats.issue_cycles;
        price(
            "issue_cycles",
            a.stats.issue_cycles,
            b.stats.issue_cycles,
            &s,
            &a.occupancy,
        );
    }
    {
        let mut s = a.stats.clone();
        s.global_load_tx = b.stats.global_load_tx;
        price(
            "global_load_tx",
            a.stats.global_load_tx as f64,
            b.stats.global_load_tx as f64,
            &s,
            &a.occupancy,
        );
    }
    {
        let mut s = a.stats.clone();
        s.global_store_tx = b.stats.global_store_tx;
        price(
            "global_store_tx",
            a.stats.global_store_tx as f64,
            b.stats.global_store_tx as f64,
            &s,
            &a.occupancy,
        );
    }
    {
        let mut s = a.stats.clone();
        s.local_load_tx = b.stats.local_load_tx;
        s.local_store_tx = b.stats.local_store_tx;
        price(
            "local_spill_tx",
            (a.stats.local_load_tx + a.stats.local_store_tx) as f64,
            (b.stats.local_load_tx + b.stats.local_store_tx) as f64,
            &s,
            &a.occupancy,
        );
    }
    {
        let mut s = a.stats.clone();
        s.warps = b.stats.warps;
        price(
            "launched_warps",
            a.stats.warps as f64,
            b.stats.warps as f64,
            &s,
            &a.occupancy,
        );
    }
    price(
        "occupancy",
        a.occupancy.occupancy,
        b.occupancy.occupancy,
        &a.stats.clone(),
        &b.occupancy,
    );
    out.sort_by(|x, y| {
        y.contribution_s
            .abs()
            .total_cmp(&x.contribution_s.abs())
            .then_with(|| x.counter.cmp(&y.counter))
    });
    let sum: f64 = out.iter().map(|c| c.contribution_s).sum();
    (out, (t_b - t_a) - sum)
}

/// Redistributes a per-quantum byte integral onto `k` buckets of a
/// normalized clock, conserving the total (overlap-proportional spread).
fn resample_integral(rates: &[f64], quantum: f64, k: usize) -> Vec<f64> {
    let mut out = vec![0.0; k];
    let n = rates.len();
    if n == 0 || quantum <= 0.0 || k == 0 {
        return out;
    }
    let span = n as f64 * quantum;
    let bw = span / k as f64;
    for (i, &rate) in rates.iter().enumerate() {
        let amount = rate * quantum;
        let q0 = i as f64 * quantum;
        let q1 = q0 + quantum;
        let first = ((q0 / bw) as usize).min(k - 1);
        for (j, slot) in out.iter_mut().enumerate().take(k).skip(first) {
            let b0 = j as f64 * bw;
            if b0 >= q1 {
                break;
            }
            let overlap = (q1.min(b0 + bw) - q0.max(b0)).max(0.0);
            *slot += amount * (overlap / quantum);
        }
    }
    out
}

/// Overlap-weighted time average of a rate/ratio series on `k` buckets
/// of a normalized clock.
fn resample_mean(values: &[f64], quantum: f64, k: usize) -> Vec<f64> {
    let mut vsum = vec![0.0; k];
    let mut wsum = vec![0.0; k];
    let n = values.len();
    if n == 0 || quantum <= 0.0 || k == 0 {
        return vsum;
    }
    let span = n as f64 * quantum;
    let bw = span / k as f64;
    for (i, &v) in values.iter().enumerate() {
        let q0 = i as f64 * quantum;
        let q1 = q0 + quantum;
        let first = ((q0 / bw) as usize).min(k - 1);
        for j in first..k {
            let b0 = j as f64 * bw;
            if b0 >= q1 {
                break;
            }
            let overlap = (q1.min(b0 + bw) - q0.max(b0)).max(0.0);
            vsum[j] += v * overlap;
            wsum[j] += overlap;
        }
    }
    for (v, w) in vsum.iter_mut().zip(&wsum) {
        *v = if *w > 0.0 { *v / *w } else { 0.0 };
    }
    vsum
}

/// Busy-weighted device occupancy per quantum.
fn device_occupancy_series(t: &PipelineTelemetry) -> Vec<f64> {
    (0..t.samples())
        .map(|q| {
            let mut num = 0.0;
            let mut den = 0.0;
            for s in &t.sm {
                num += s.occupancy.get(q).copied().unwrap_or(0.0)
                    * s.active.get(q).copied().unwrap_or(0.0);
                den += s.active.get(q).copied().unwrap_or(0.0);
            }
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        })
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn telemetry_diff(a: &PipelineTelemetry, b: &PipelineTelemetry) -> TelemetryDiff {
    let k = TELEMETRY_DIFF_BUCKETS;
    let bytes_a = resample_integral(&a.dram_bandwidth, a.quantum, k);
    let bytes_b = resample_integral(&b.dram_bandwidth, b.quantum, k);
    let occ_a = resample_mean(&device_occupancy_series(a), a.quantum, k);
    let occ_b = resample_mean(&device_occupancy_series(b), b.quantum, k);
    let l2_a = resample_mean(&a.l2_hit_rate, a.quantum, k);
    let l2_b = resample_mean(&b.l2_hit_rate, b.quantum, k);
    let peak = |t: &PipelineTelemetry| t.dram_bandwidth.iter().copied().fold(0.0, f64::max);
    TelemetryDiff {
        buckets: k,
        makespan_a_s: a.makespan,
        makespan_b_s: b.makespan,
        makespan_delta_s: b.makespan - a.makespan,
        dram_bytes_a: a.total_dram_bytes(),
        dram_bytes_b: b.total_dram_bytes(),
        dram_bytes_delta: b.total_dram_bytes() - a.total_dram_bytes(),
        peak_dram_bw_a: peak(a),
        peak_dram_bw_b: peak(b),
        peak_dram_bw_delta: peak(b) - peak(a),
        mean_busy_occupancy_a: a.mean_busy_occupancy(),
        mean_busy_occupancy_b: b.mean_busy_occupancy(),
        mean_busy_occupancy_delta: b.mean_busy_occupancy() - a.mean_busy_occupancy(),
        mean_l2_hit_rate_a: mean(&a.l2_hit_rate),
        mean_l2_hit_rate_b: mean(&b.l2_hit_rate),
        mean_l2_hit_rate_delta: mean(&b.l2_hit_rate) - mean(&a.l2_hit_rate),
        dram_bytes_series_delta: bytes_a.iter().zip(&bytes_b).map(|(x, y)| y - x).collect(),
        occupancy_series_delta: occ_a.iter().zip(&occ_b).map(|(x, y)| y - x).collect(),
        l2_series_delta: l2_a.iter().zip(&l2_b).map(|(x, y)| y - x).collect(),
    }
}

fn diff_profile_pair(a: &ProfileSide, b: &ProfileSide, cfg: &GpuConfig) -> KernelDiff {
    let time_delta = b.timing.total - a.timing.total;
    let stalls = reason_deltas(&a.stalls, &b.stalls);
    let stall_sum: f64 = stalls.iter().map(|r| r.delta_s).sum();
    let sites = site_diffs(a, b);
    let attributed: f64 = sites
        .iter()
        .filter(|s| s.source != UNRESOLVED)
        .map(|s| s.delta_s)
        .sum();
    let attributed_fraction = if time_delta.abs() <= 1e-18 {
        1.0
    } else {
        attributed / time_delta
    };
    let (counters, interaction) = counterfactuals(a, b, cfg);
    let telemetry = match (&a.telemetry, &b.telemetry) {
        (Some(ta), Some(tb)) => Some(telemetry_diff(ta, tb)),
        _ => None,
    };
    KernelDiff {
        label: format!("{} -> {}", a.level, b.level),
        a_level: a.level.clone(),
        b_level: b.level.clone(),
        frames_a: a.frames,
        frames_b: b.frames,
        fps_a: a.fps,
        fps_b: b.fps,
        time_a_s: a.timing.total,
        time_b_s: b.timing.total,
        time_delta_s: time_delta,
        bound_a: format!("{:?}", a.timing.bound),
        bound_b: format!("{:?}", b.timing.bound),
        occupancy_a: a.occupancy.occupancy,
        occupancy_b: b.occupancy.occupancy,
        stalls,
        stall_delta_sum_s: stall_sum,
        attributed_delta_s: attributed,
        attributed_fraction,
        sites,
        counters,
        interaction_s: interaction,
        telemetry,
    }
}

/// Diffs two latency histograms: per-bucket subtraction plus quantile
/// shifts, on the shared fixed bucket scheme.
pub fn histogram_diff(name: &str, a: &LatencyHistogram, b: &LatencyHistogram) -> HistogramDiff {
    let buckets = (0..=NUM_BOUNDS)
        .filter_map(|i| {
            let ca = a.counts.get(i).copied().unwrap_or(0);
            let cb = b.counts.get(i).copied().unwrap_or(0);
            if ca == cb {
                return None;
            }
            let le = if i < NUM_BOUNDS {
                format!("{:?}", bucket_bound(i))
            } else {
                "+Inf".to_string()
            };
            Some(BucketDelta {
                le,
                a: ca,
                b: cb,
                delta: cb as i64 - ca as i64,
            })
        })
        .collect();
    HistogramDiff {
        name: name.to_string(),
        count_a: a.count,
        count_b: b.count,
        count_delta: b.count as i64 - a.count as i64,
        sum_a_s: a.sum,
        sum_b_s: b.sum,
        sum_delta_s: b.sum - a.sum,
        mean_shift_s: b.mean() - a.mean(),
        p50_shift_s: b.quantile(0.5) - a.quantile(0.5),
        p95_shift_s: b.quantile(0.95) - a.quantile(0.95),
        p99_shift_s: b.quantile(0.99) - a.quantile(0.99),
        buckets,
    }
}

fn serving_diff(a: &ServingReport, b: &ServingReport) -> ServingDiff {
    let totals = |r: &ServingReport| {
        r.streams.iter().fold((0i64, 0i64), |(f, v), s| {
            (f + s.frames_completed as i64, v + s.slo_violations as i64)
        })
    };
    let (fa, va) = totals(a);
    let (fb, vb) = totals(b);
    let ids: std::collections::BTreeSet<usize> = a
        .streams
        .iter()
        .map(|s| s.stream)
        .chain(b.streams.iter().map(|s| s.stream))
        .collect();
    let streams = ids
        .into_iter()
        .map(|id| {
            let sa = a.streams.iter().find(|s| s.stream == id);
            let sb = b.streams.iter().find(|s| s.stream == id);
            let presence = match (sa.is_some(), sb.is_some()) {
                (true, true) => "both",
                (true, false) => "a_only",
                _ => "b_only",
            };
            let p95 = |s: Option<&crate::serving::StreamServing>| {
                s.map(|s| s.e2e_latency.quantile(0.95)).unwrap_or(f64::NAN)
            };
            StreamDiff {
                stream: id,
                presence: presence.to_string(),
                frames_completed_delta: sb.map_or(0, |s| s.frames_completed as i64)
                    - sa.map_or(0, |s| s.frames_completed as i64),
                slo_violations_delta: sb.map_or(0, |s| s.slo_violations as i64)
                    - sa.map_or(0, |s| s.slo_violations as i64),
                e2e_p95_shift_s: p95(sb) - p95(sa),
            }
        })
        .collect();
    ServingDiff {
        device_a: a.device.clone(),
        device_b: b.device.clone(),
        makespan_a_s: a.makespan_s,
        makespan_b_s: b.makespan_s,
        makespan_delta_s: b.makespan_s - a.makespan_s,
        streams_a: a.streams.len(),
        streams_b: b.streams.len(),
        frames_completed_delta: fb - fa,
        slo_violations_delta: vb - va,
        frame: histogram_diff(
            "frame_latency",
            &a.pipeline_frame_latency,
            &b.pipeline_frame_latency,
        ),
        e2e: histogram_diff(
            "e2e_latency",
            &a.pipeline_e2e_latency,
            &b.pipeline_e2e_latency,
        ),
        streams,
    }
}

fn fleet_diff(a: &FleetReport, b: &FleetReport) -> FleetDiff {
    let labels: std::collections::BTreeSet<&String> = a
        .devices
        .iter()
        .map(|d| &d.label)
        .chain(b.devices.iter().map(|d| &d.label))
        .collect();
    let devices = labels
        .into_iter()
        .map(|label| {
            let da = a.devices.iter().find(|d| &d.label == label);
            let db = b.devices.iter().find(|d| &d.label == label);
            let presence = match (da.is_some(), db.is_some()) {
                (true, true) => "both",
                (true, false) => "a_only",
                _ => "b_only",
            };
            let sums = |d: Option<&crate::fleet::FleetDeviceReport>| {
                d.map_or((0i64, 0i64, 0i64), |d| {
                    let (f, v) = d.serving.streams.iter().fold((0i64, 0i64), |(f, v), s| {
                        (f + s.frames_completed as i64, v + s.slo_violations as i64)
                    });
                    (d.admitted.len() as i64, v, f)
                })
            };
            let (aa, av, af) = sums(da);
            let (ba, bv, bf) = sums(db);
            FleetDeviceDiff {
                label: label.clone(),
                presence: presence.to_string(),
                streams_admitted_delta: ba - aa,
                slo_violations_delta: bv - av,
                frames_completed_delta: bf - af,
            }
        })
        .collect();
    FleetDiff {
        devices_a: a.devices.len(),
        devices_b: b.devices.len(),
        makespan_delta_s: b.makespan_s - a.makespan_s,
        streams_admitted_delta: b.streams_admitted() as i64 - a.streams_admitted() as i64,
        streams_at_slo_delta: b.streams_at_slo() as i64 - a.streams_at_slo() as i64,
        frames_dropped_delta: b.frames_dropped() as i64 - a.frames_dropped() as i64,
        e2e: histogram_diff("e2e_latency", &a.e2e_latency, &b.e2e_latency),
        devices,
    }
}

/// Aggregated (name-keyed) view of one dataflow graph document.
struct DataflowAgg {
    nodes: BTreeMap<String, (String, i64, i64)>, // name -> (kind, stored, dead)
    edges: BTreeMap<(String, String), i64>,
    reread: i64,
}

fn parse_dataflow(v: &Value, what: &str) -> Result<DataflowAgg, String> {
    let array = |key: &str| match v.get(key) {
        Some(Value::Array(items)) => Ok(items),
        Some(f) if !f.is_null() => Err(format!("{what}: `{key}` is not an array")),
        _ => Err(format!("{what}: missing `{key}`")),
    };
    let (nodes, edges) = (array("nodes")?, array("edges")?);
    let mut names: Vec<String> = Vec::with_capacity(nodes.len());
    let mut agg = DataflowAgg {
        nodes: BTreeMap::new(),
        edges: BTreeMap::new(),
        reread: v
            .get("reread_from_host_bytes")
            .and_then(Value::as_u64)
            .unwrap_or(0) as i64,
    };
    for n in nodes {
        let name = n
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let kind = n
            .get("kind")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let stored = n.get("stored_bytes").and_then(Value::as_u64).unwrap_or(0) as i64;
        let dead = n
            .get("dead_store_bytes")
            .and_then(Value::as_u64)
            .unwrap_or(0) as i64;
        names.push(name.clone());
        let e = agg.nodes.entry(name).or_insert((kind, 0, 0));
        e.1 += stored;
        e.2 += dead;
    }
    for e in edges {
        let p = e.get("producer").and_then(Value::as_u64).unwrap_or(0) as usize;
        let c = e.get("consumer").and_then(Value::as_u64).unwrap_or(0) as usize;
        let bytes = e.get("bytes").and_then(Value::as_u64).unwrap_or(0) as i64;
        let (Some(pn), Some(cn)) = (names.get(p), names.get(c)) else {
            return Err(format!("{what}: edge references unknown node {p}->{c}"));
        };
        *agg.edges.entry((pn.clone(), cn.clone())).or_insert(0) += bytes;
    }
    Ok(agg)
}

/// Diffs two dataflow graph documents (as produced by
/// `mogpu dataflow --json`), matching nodes and edges by kernel name.
/// Errors name the side by its label.
pub fn dataflow_diff(
    a: &Value,
    b: &Value,
    a_label: &str,
    b_label: &str,
) -> Result<DataflowDiff, String> {
    let ga = parse_dataflow(a, a_label)?;
    let gb = parse_dataflow(b, b_label)?;
    let node_names: std::collections::BTreeSet<&String> =
        ga.nodes.keys().chain(gb.nodes.keys()).collect();
    let nodes = node_names
        .into_iter()
        .map(|name| {
            let empty = (String::from("?"), 0i64, 0i64);
            let na = ga.nodes.get(name).unwrap_or(&empty);
            let nb = gb.nodes.get(name).unwrap_or(&empty);
            let kind = if na.0 != "?" {
                na.0.clone()
            } else {
                nb.0.clone()
            };
            DataflowNodeDiff {
                name: name.clone(),
                kind,
                stored_delta: nb.1 - na.1,
                dead_store_delta: nb.2 - na.2,
            }
        })
        .collect();
    let edge_keys: std::collections::BTreeSet<&(String, String)> =
        ga.edges.keys().chain(gb.edges.keys()).collect();
    let edges = edge_keys
        .into_iter()
        .map(|key| {
            let ba = ga.edges.get(key).copied().unwrap_or(0);
            let bb = gb.edges.get(key).copied().unwrap_or(0);
            DataflowEdgeDiff {
                producer: key.0.clone(),
                consumer: key.1.clone(),
                bytes_a: ba as u64,
                bytes_b: bb as u64,
                delta: bb - ba,
            }
        })
        .collect();
    Ok(DataflowDiff {
        nodes,
        edges,
        reread_from_host_delta: gb.reread - ga.reread,
    })
}

impl DataflowDiff {
    /// Renders the diff as a Graphviz DOT "what changed" overlay: edges
    /// that grew are red, edges that shrank are green, unchanged edges
    /// gray; edges present on only one side are dashed.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph dataflow_diff {\n  rankdir=LR;\n");
        let ix: BTreeMap<&String, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (&n.name, i))
            .collect();
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = if n.kind == "kernel" { "ellipse" } else { "box" };
            let mut detail = format!("{:+} B stored", n.stored_delta);
            if n.dead_store_delta != 0 {
                detail.push_str(&format!(", {:+} B dead", n.dead_store_delta));
            }
            out.push_str(&format!(
                "  n{i} [label=\"{}\\n{detail}\" shape={shape}];\n",
                n.name
            ));
        }
        for e in &self.edges {
            let (Some(&p), Some(&c)) = (ix.get(&e.producer), ix.get(&e.consumer)) else {
                continue;
            };
            let color = match e.delta.cmp(&0) {
                std::cmp::Ordering::Greater => "red",
                std::cmp::Ordering::Less => "green",
                std::cmp::Ordering::Equal => "gray",
            };
            let style = if e.bytes_a == 0 || e.bytes_b == 0 {
                " style=dashed"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{p} -> n{c} [label=\"{} -> {} B ({:+})\" color={color}{style}];\n",
                e.bytes_a, e.bytes_b, e.delta
            ));
        }
        out.push_str("}\n");
        out
    }
}

fn flatten_numeric(prefix: &str, v: &Value, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Object(fields) => {
            for (k, vv) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_numeric(&path, vv, out);
            }
        }
        Value::F64(f) => {
            out.insert(prefix.to_string(), *f);
        }
        Value::I64(i) => {
            out.insert(prefix.to_string(), *i as f64);
        }
        Value::U64(u) => {
            out.insert(prefix.to_string(), *u as f64);
        }
        _ => {}
    }
}

/// Flattens two bench baselines into dotted metric paths and diffs the
/// union (tolerances/schema/config/report pointers are bookkeeping, not
/// measurements, and are skipped).
fn bench_metrics(a: &Value, b: &Value) -> Vec<MetricDelta> {
    let flat = |v: &Value| {
        let mut out = BTreeMap::new();
        if let Value::Object(fields) = v {
            for (k, vv) in fields {
                if matches!(k.as_str(), "schema" | "config" | "tolerances" | "reports") {
                    continue;
                }
                flatten_numeric(k, vv, &mut out);
            }
        }
        out
    };
    let fa = flat(a);
    let fb = flat(b);
    let keys: std::collections::BTreeSet<&String> = fa.keys().chain(fb.keys()).collect();
    keys.into_iter()
        .map(|k| {
            let av = fa.get(k).copied().unwrap_or(f64::NAN);
            let bv = fb.get(k).copied().unwrap_or(f64::NAN);
            MetricDelta {
                metric: k.clone(),
                a: av,
                b: bv,
                delta: bv - av,
            }
        })
        .collect()
}

/// Diffs two serialized report documents of the same kind. `a_label` /
/// `b_label` name the sides in output (typically the file names); `cfg`
/// is the device model used for counterfactual re-timing (and for
/// recomputing timing/stalls when a document omits them).
pub fn diff_values(
    a: &Value,
    b: &Value,
    a_label: &str,
    b_label: &str,
    cfg: &GpuConfig,
) -> Result<DiffReport, String> {
    let ka = detect_kind(a);
    let kb = detect_kind(b);
    if ka != kb {
        return Err(format!(
            "cannot diff a {ka:?} document against a {kb:?} document"
        ));
    }
    let mut report = DiffReport {
        schema: DIFF_SCHEMA,
        kind: ka.to_string(),
        a_label: a_label.to_string(),
        b_label: b_label.to_string(),
        kernels: Vec::new(),
        serving: None,
        fleet: None,
        dataflow: None,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    match ka {
        "profile" => {
            let sa = parse_profile_side(a, a_label, cfg)?;
            let sb = parse_profile_side(b, b_label, cfg)?;
            if sa.frames != sb.frames && sa.frames != 0 && sb.frames != 0 {
                report.notes.push(format!(
                    "frame counts differ ({} vs {}): absolute deltas include the workload change",
                    sa.frames, sb.frames
                ));
            }
            if sa.site_stalls.is_empty() || sb.site_stalls.is_empty() {
                report.notes.push(
                    "a side carries no site_stalls rows; per-site attribution is empty \
                     (profile with `mogpu profile`/`--report-out` for file:line evidence)"
                        .to_string(),
                );
            }
            report.kernels.push(diff_profile_pair(&sa, &sb, cfg));
        }
        "profile_array" => {
            let arr = |v: &Value, what: &str| -> Result<Vec<Value>, String> {
                v.as_array()
                    .map(|a| a.to_vec())
                    .ok_or_else(|| format!("{what}: expected an array"))
            };
            let pa: Vec<ProfileSide> = arr(a, a_label)?
                .iter()
                .map(|v| parse_profile_side(v, a_label, cfg))
                .collect::<Result<_, _>>()?;
            let pb: Vec<ProfileSide> = arr(b, b_label)?
                .iter()
                .map(|v| parse_profile_side(v, b_label, cfg))
                .collect::<Result<_, _>>()?;
            for sa in &pa {
                match pb.iter().find(|sb| sb.level == sa.level) {
                    Some(sb) => report.kernels.push(diff_profile_pair(sa, sb, cfg)),
                    None => report
                        .notes
                        .push(format!("level {} only present in {a_label}", sa.level)),
                }
            }
            for sb in &pb {
                if !pa.iter().any(|sa| sa.level == sb.level) {
                    report
                        .notes
                        .push(format!("level {} only present in {b_label}", sb.level));
                }
            }
        }
        "streams" => {
            let body = |v: &Value| v.get("serving").unwrap_or(v).clone();
            let sa = ServingReport::from_json_value(&body(a))
                .map_err(|e| format!("{a_label}: bad serving report: {e}"))?;
            let sb = ServingReport::from_json_value(&body(b))
                .map_err(|e| format!("{b_label}: bad serving report: {e}"))?;
            report.serving = Some(serving_diff(&sa, &sb));
        }
        "fleet" => {
            let body = |v: &Value| v.get("report").unwrap_or(v).clone();
            let fa = FleetReport::from_json_value(&body(a))
                .map_err(|e| format!("{a_label}: bad fleet report: {e}"))?;
            let fb = FleetReport::from_json_value(&body(b))
                .map_err(|e| format!("{b_label}: bad fleet report: {e}"))?;
            report.fleet = Some(fleet_diff(&fa, &fb));
        }
        "bench" => {
            report.metrics = bench_metrics(a, b);
        }
        "dataflow" => {
            report.dataflow = Some(dataflow_diff(a, b, a_label, b_label)?);
        }
        _ => {
            return Err(
                "unrecognized report document: expected a profile report (or ladder array), \
                 a streams/serving report, a fleet report, a bench baseline, or a dataflow \
                 graph JSON"
                    .to_string(),
            )
        }
    }
    Ok(report)
}

fn fmt_ms(s: f64) -> String {
    format!("{:.4}", s * 1e3)
}

impl DiffReport {
    /// Renders the diff as an aligned text report; `top` bounds the
    /// site, counter, stream, and metric tables.
    pub fn text(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "differential report ({}): {} -> {}\n",
            self.kind, self.a_label, self.b_label
        ));
        for k in &self.kernels {
            out.push_str(&format!(
                "\nkernel {}: {} ms -> {} ms (delta {:+.4} ms), bound {} -> {}, \
                 occupancy {:.3} -> {:.3}\n",
                k.label,
                fmt_ms(k.time_a_s),
                fmt_ms(k.time_b_s),
                k.time_delta_s * 1e3,
                k.bound_a,
                k.bound_b,
                k.occupancy_a,
                k.occupancy_b,
            ));
            out.push_str(&format!(
                "  stall-reason deltas (sum {:+.4} ms = kernel delta):\n",
                k.stall_delta_sum_s * 1e3
            ));
            out.push_str(&format!(
                "    {:<20} {:>12} {:>12} {:>12}\n",
                "reason", "a_ms", "b_ms", "delta_ms"
            ));
            for r in &k.stalls {
                out.push_str(&format!(
                    "    {:<20} {:>12} {:>12} {:>+12.4}\n",
                    r.reason,
                    fmt_ms(r.a_s),
                    fmt_ms(r.b_s),
                    r.delta_s * 1e3
                ));
            }
            out.push_str(&format!(
                "  attribution: {:.1}% of the kernel delta lands on {} resolved site(s)\n",
                k.attributed_fraction * 100.0,
                k.sites.iter().filter(|s| s.source != UNRESOLVED).count()
            ));
            if !k.sites.is_empty() {
                out.push_str(&format!(
                    "    {:<52} {:>12} {:>10} {:<18}\n",
                    "site", "delta_ms", "tx_delta", "dominant"
                ));
                for s in k.sites.iter().take(top) {
                    let shown = if s.source.len() > 52 {
                        &s.source[s.source.len() - 52..]
                    } else {
                        &s.source
                    };
                    out.push_str(&format!(
                        "    {:<52} {:>+12.4} {:>10} {:<18}\n",
                        shown,
                        s.delta_s * 1e3,
                        s.transactions_delta,
                        s.dominant_reason
                    ));
                }
            }
            out.push_str("  counter contributions (one counterfactual swap at a time):\n");
            out.push_str(&format!(
                "    {:<18} {:>14} {:>14} {:>16}\n",
                "counter", "a", "b", "contribution_ms"
            ));
            for c in k.counters.iter().take(top) {
                out.push_str(&format!(
                    "    {:<18} {:>14.1} {:>14.1} {:>+16.4}\n",
                    c.counter,
                    c.a,
                    c.b,
                    c.contribution_s * 1e3
                ));
            }
            out.push_str(&format!(
                "    interaction residual: {:+.4} ms\n",
                k.interaction_s * 1e3
            ));
            if let Some(t) = &k.telemetry {
                out.push_str(&format!(
                    "  telemetry: dram bytes {:+.3e}, peak bw {:+.3e} B/s, \
                     busy occupancy {:+.4}, l2 hit rate {:+.4}, makespan {:+.4} ms\n",
                    t.dram_bytes_delta,
                    t.peak_dram_bw_delta,
                    t.mean_busy_occupancy_delta,
                    t.mean_l2_hit_rate_delta,
                    t.makespan_delta_s * 1e3
                ));
            }
        }
        if let Some(s) = &self.serving {
            out.push_str(&format!(
                "\nserving {} -> {}: makespan {:+.4} s, frames {:+}, violations {:+}\n",
                s.device_a,
                s.device_b,
                s.makespan_delta_s,
                s.frames_completed_delta,
                s.slo_violations_delta
            ));
            for h in [&s.frame, &s.e2e] {
                out.push_str(&format!(
                    "  {}: count {:+}, mean {:+.4} ms, p50 {:+.4} ms, p95 {:+.4} ms, \
                     p99 {:+.4} ms, {} bucket(s) moved\n",
                    h.name,
                    h.count_delta,
                    h.mean_shift_s * 1e3,
                    h.p50_shift_s * 1e3,
                    h.p95_shift_s * 1e3,
                    h.p99_shift_s * 1e3,
                    h.buckets.len()
                ));
            }
            for st in s.streams.iter().take(top) {
                out.push_str(&format!(
                    "  stream {}: frames {:+}, violations {:+}, e2e p95 {:+.4} ms\n",
                    st.stream,
                    st.frames_completed_delta,
                    st.slo_violations_delta,
                    st.e2e_p95_shift_s * 1e3
                ));
            }
        }
        if let Some(f) = &self.fleet {
            out.push_str(&format!(
                "\nfleet: devices {} -> {}, admitted {:+}, at-slo {:+}, dropped {:+}, \
                 makespan {:+.4} s\n",
                f.devices_a,
                f.devices_b,
                f.streams_admitted_delta,
                f.streams_at_slo_delta,
                f.frames_dropped_delta,
                f.makespan_delta_s
            ));
            for d in f.devices.iter().take(top) {
                out.push_str(&format!(
                    "  {} ({}): admitted {:+}, violations {:+}, frames {:+}\n",
                    d.label,
                    d.presence,
                    d.streams_admitted_delta,
                    d.slo_violations_delta,
                    d.frames_completed_delta
                ));
            }
        }
        if let Some(d) = &self.dataflow {
            out.push_str(&format!(
                "\ndataflow: {} node(s), {} edge(s), reread-from-host {:+} B\n",
                d.nodes.len(),
                d.edges.len(),
                d.reread_from_host_delta
            ));
            for e in d.edges.iter().take(top) {
                out.push_str(&format!(
                    "  {} -> {}: {} -> {} B ({:+})\n",
                    e.producer, e.consumer, e.bytes_a, e.bytes_b, e.delta
                ));
            }
        }
        if !self.metrics.is_empty() {
            let moved: Vec<&MetricDelta> = self
                .metrics
                .iter()
                .filter(|m| m.delta != 0.0 || !m.delta.is_finite())
                .collect();
            out.push_str(&format!(
                "\nbench metrics: {} compared, {} moved\n",
                self.metrics.len(),
                moved.len()
            ));
            out.push_str(&format!(
                "  {:<40} {:>14} {:>14} {:>12}\n",
                "metric", "a", "b", "delta"
            ));
            for m in moved.iter().take(top) {
                out.push_str(&format!(
                    "  {:<40} {:>14.4} {:>14.4} {:>+12.4}\n",
                    m.metric, m.a, m.b, m.delta
                ));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Prometheus text exposition of the diff: `mogpu_diff_*` gauges for
    /// kernel/stall/counter/site movement, histogram quantile shifts,
    /// and bench metric deltas.
    pub fn prometheus(&self, top_sites: usize) -> String {
        let mut e = Exposition::new();
        if !self.kernels.is_empty() {
            e.family(
                "mogpu_diff_kernel_time_delta_seconds",
                Kind::Gauge,
                "Modelled kernel-time delta (B - A).",
            );
            for k in &self.kernels {
                e.sample(&[("pair", &k.label)], k.time_delta_s);
            }
            e.family(
                "mogpu_diff_stall_delta_seconds",
                Kind::Gauge,
                "Per-stall-reason kernel-time delta; sums to the kernel delta.",
            );
            for k in &self.kernels {
                for r in &k.stalls {
                    e.sample(&[("pair", &k.label), ("reason", &r.reason)], r.delta_s);
                }
            }
            e.family(
                "mogpu_diff_counter_contribution_seconds",
                Kind::Gauge,
                "Counterfactually priced kernel-time movement of one counter set.",
            );
            for k in &self.kernels {
                for c in &k.counters {
                    e.sample(
                        &[("pair", &k.label), ("counter", &c.counter)],
                        c.contribution_s,
                    );
                }
            }
            e.family(
                "mogpu_diff_site_delta_seconds",
                Kind::Gauge,
                "Per-source-site stall-time delta.",
            );
            for k in &self.kernels {
                for s in k.sites.iter().take(top_sites) {
                    e.sample(&[("pair", &k.label), ("source", &s.source)], s.delta_s);
                }
            }
        }
        let mut hist_shifts: Vec<(&HistogramDiff, &str)> = Vec::new();
        if let Some(s) = &self.serving {
            hist_shifts.push((&s.frame, "serving"));
            hist_shifts.push((&s.e2e, "serving"));
        }
        if let Some(f) = &self.fleet {
            hist_shifts.push((&f.e2e, "fleet"));
        }
        if !hist_shifts.is_empty() {
            e.family(
                "mogpu_diff_latency_quantile_shift_seconds",
                Kind::Gauge,
                "Latency-quantile shift (B - A).",
            );
            for (h, scope) in hist_shifts {
                for (q, v) in [
                    ("0.5", h.p50_shift_s),
                    ("0.95", h.p95_shift_s),
                    ("0.99", h.p99_shift_s),
                ] {
                    e.sample(
                        &[("scope", scope), ("histogram", &h.name), ("quantile", q)],
                        v,
                    );
                }
            }
        }
        if !self.metrics.is_empty() {
            e.family(
                "mogpu_diff_metric_delta",
                Kind::Gauge,
                "Bench-baseline metric delta (B - A).",
            );
            for m in &self.metrics {
                e.sample(&[("metric", &m.metric)], m.delta);
            }
        }
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::Limiter;

    fn occ(o: f64) -> Occupancy {
        Occupancy {
            resident_blocks: 8,
            resident_warps: 32,
            resident_threads: 1024,
            occupancy: o,
            limiter: Limiter::Registers,
        }
    }

    fn side(load_tx: u64, issue: f64) -> Value {
        let stats = KernelStats {
            issue_cycles: issue,
            warps: 100_000,
            divergent_branch_slots: 500,
            global_load_tx: load_tx,
            global_store_tx: load_tx / 2,
            ..Default::default()
        };
        let cfg = GpuConfig::tesla_c2075();
        let o = occ(0.5);
        let timing = kernel_time(&stats, &o, &cfg);
        let stalls = kernel_stalls(&stats, &timing, &o);
        serde_json::json!({
            "level": "X",
            "frames": 4,
            "fps": 10.0,
            "stats": stats,
            "occupancy": o,
            "timing": timing,
            "stalls": stalls,
            "site_stalls": crate::stallreasons::site_stalls(
                &[HotspotRow {
                    source: Some("k.rs:1".to_string()),
                    stats: SiteStats {
                        issue_cycles: issue,
                        divergent_branch_slots: 500,
                        transactions: load_tx + load_tx / 2,
                        ..Default::default()
                    },
                }],
                &stats,
                &timing,
                &o,
            ),
        })
    }

    #[test]
    fn self_diff_is_all_zeros() {
        let v = side(60_000, 10_000.0);
        let cfg = GpuConfig::tesla_c2075();
        let d = diff_values(&v, &v, "a", "b", &cfg).unwrap();
        let k = &d.kernels[0];
        assert_eq!(k.time_delta_s, 0.0);
        assert_eq!(k.stall_delta_sum_s, 0.0);
        assert!(k.stalls.iter().all(|r| r.delta_s == 0.0));
        assert!(k.counters.iter().all(|c| c.contribution_s == 0.0));
        assert_eq!(k.interaction_s, 0.0);
        assert_eq!(k.attributed_fraction, 1.0);
        // Byte-stable canonical serialization.
        let s1 = serde_json::to_string_canonical_pretty(&d).unwrap();
        let s2 =
            serde_json::to_string_canonical_pretty(&diff_values(&v, &v, "a", "b", &cfg).unwrap())
                .unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn stall_deltas_conserve_the_kernel_delta() {
        let a = side(600_000, 10_000.0);
        let b = side(60_000, 8_000.0);
        let cfg = GpuConfig::tesla_c2075();
        let d = diff_values(&a, &b, "a", "b", &cfg).unwrap();
        let k = &d.kernels[0];
        assert!(k.time_delta_s != 0.0);
        assert!(
            (k.stall_delta_sum_s - k.time_delta_s).abs() <= 1e-9 * k.time_delta_s.abs(),
            "bucket deltas {} != kernel delta {}",
            k.stall_delta_sum_s,
            k.time_delta_s
        );
        // The single site carries the whole delta.
        assert!((k.attributed_fraction - 1.0).abs() < 1e-6);
        assert_eq!(k.sites[0].source, "k.rs:1");
    }

    #[test]
    fn counterfactual_ranks_the_moved_counter_first() {
        // Only global_load_tx moves: it must rank first and its
        // contribution must explain the entire delta (no interaction).
        let a = side(600_000, 10_000.0);
        let b = side(60_000, 10_000.0);
        let cfg = GpuConfig::tesla_c2075();
        let d = diff_values(&a, &b, "a", "b", &cfg).unwrap();
        let k = &d.kernels[0];
        assert_eq!(k.counters[0].counter, "global_load_tx");
        assert!(k.counters[0].contribution_s < 0.0);
    }

    #[test]
    fn mismatched_kinds_are_rejected() {
        let p = side(1000, 100.0);
        let bench = serde_json::json!({
            "levels": serde_json::json!({}),
            "tolerances": serde_json::json!({}),
        });
        let cfg = GpuConfig::tesla_c2075();
        assert!(diff_values(&p, &bench, "a", "b", &cfg)
            .unwrap_err()
            .contains("cannot diff"));
    }

    #[test]
    fn histogram_diff_buckets_and_quantiles() {
        let a = LatencyHistogram::from_samples(&[1e-3, 2e-3, 4e-3]);
        let b = LatencyHistogram::from_samples(&[1e-3, 2e-2, 4e-2]);
        let h = histogram_diff("e2e_latency", &a, &b);
        assert_eq!(h.count_delta, 0);
        assert!(h.p95_shift_s > 0.0);
        let moved: i64 = h.buckets.iter().map(|b| b.delta).sum();
        // One sample left the low buckets for each that entered a high
        // one, so the signed bucket movement cancels.
        assert_eq!(moved, 0);
        // Self-diff has no moved buckets and zero shifts.
        let z = histogram_diff("e2e_latency", &a, &a);
        assert!(z.buckets.is_empty());
        assert_eq!(z.p99_shift_s, 0.0);
    }

    #[test]
    fn integral_resample_conserves_bytes() {
        let rates = vec![1e9, 2e9, 0.5e9, 3e9, 0.0, 1e9, 7e9];
        let quantum = 0.003;
        let resampled = resample_integral(&rates, quantum, 32);
        let total: f64 = resampled.iter().sum();
        let expect: f64 = rates.iter().sum::<f64>() * quantum;
        assert!((total - expect).abs() <= 1e-9 * expect);
    }

    #[test]
    fn bench_flatten_diffs_moved_metrics() {
        let level = |fps: f64| serde_json::json!({ "fps": fps });
        let a = serde_json::json!({
            "schema": 4u32,
            "tolerances": serde_json::json!({ "fps_rel": 0.02 }),
            "levels": serde_json::json!({ "A": level(10.0), "F": level(100.0) }),
        });
        let b = serde_json::json!({
            "schema": 4u32,
            "tolerances": serde_json::json!({ "fps_rel": 0.02 }),
            "levels": serde_json::json!({ "A": level(10.0), "F": level(90.0) }),
        });
        let cfg = GpuConfig::tesla_c2075();
        let d = diff_values(&a, &b, "a", "b", &cfg).unwrap();
        let moved: Vec<&MetricDelta> = d.metrics.iter().filter(|m| m.delta != 0.0).collect();
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].metric, "levels.F.fps");
        assert!((moved[0].delta + 10.0).abs() < 1e-12);
        // Tolerances are bookkeeping, not metrics.
        assert!(d.metrics.iter().all(|m| !m.metric.contains("tolerances")));
    }

    #[test]
    fn dataflow_diff_aggregates_by_name() {
        let node = |id: u64, name: &str, stored: u64, dead: u64| {
            serde_json::json!({
                "id": id,
                "kind": "kernel",
                "name": name,
                "stored_bytes": stored,
                "dead_store_bytes": dead,
            })
        };
        let edge = |p: u64, c: u64, bytes: u64| serde_json::json!({ "producer": p, "consumer": c, "bytes": bytes });
        let a = serde_json::json!({
            "nodes": [node(0, "mog-update", 100, 0), node(1, "morphology", 50, 10)],
            "edges": [edge(0, 1, 40)],
            "reread_from_host_bytes": 0u64,
        });
        let b = serde_json::json!({
            "nodes": [node(0, "mog-update", 80, 0), node(1, "morphology", 50, 0)],
            "edges": [edge(0, 1, 10)],
            "reread_from_host_bytes": 5u64,
        });
        let d = dataflow_diff(&a, &b, "a", "b").unwrap();
        assert_eq!(d.edges.len(), 1);
        assert_eq!(d.edges[0].delta, -30);
        assert_eq!(d.reread_from_host_delta, 5);
        let dot = d.to_dot();
        assert!(dot.contains("color=green"));
        assert!(dot.contains("mog-update"));
    }
}
