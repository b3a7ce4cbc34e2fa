//! Serving-path observability: SLO latency histograms, windowed live
//! metrics, and a structured event log over the multi-stream schedule.
//!
//! The telemetry of [`crate::telemetry`] answers *"what did the hardware
//! do"*; this module answers *"what did the streams experience"* — the
//! question a fleet operator asks while a long run is in flight. Three
//! pieces:
//!
//! * **Mergeable log-bucketed latency histograms.** Every histogram uses
//!   one fixed bucket scheme ([`bucket_bound`]: log-spaced, 4 buckets per
//!   decade from 1 µs to 100 s, plus a `+Inf` overflow bucket), so
//!   histograms from different streams / devices / windows merge by plain
//!   elementwise addition — the property the coming multi-device fleet
//!   needs to aggregate per-device scrapes. `_sum` and `_count` are exact;
//!   percentiles reconstructed from the buckets are within one bucket
//!   width of the exact rank statistic ([`LatencyHistogram::quantile`]).
//! * **Per-stream SLO accounting.** A [`SloConfig`] names a frame
//!   deadline and an error budget (allowed violation fraction). Frames
//!   whose end-to-end latency exceeds the deadline count as violations;
//!   a stream whose windowed violation fraction stays within budget is
//!   *served at SLO*, and the windowed **burn rate** (violation fraction
//!   over budget) says how fast the budget is being spent.
//! * **Windowed snapshots on the schedule clock.** The run's makespan is
//!   cut into fixed windows; each [`ServingSnapshot`] carries the
//!   *cumulative* per-stream counters and histograms up to its window end
//!   (monotone across snapshots, so a Prometheus scraper sees proper
//!   counters) plus the *windowed* gauges (burn rate, streams-at-SLO).
//!   The final snapshot equals the whole-run totals.
//!
//! Latency is recorded twice per frame: **frame latency** (device
//! sojourn: upload start to download end — what the bounded-buffer
//! scheduler controls) and **end-to-end latency** (camera arrival to
//! download end — what the SLO judges; for offline streams, whose frames
//! all "arrive" at t=0, arrival is taken as admission so the two agree).
//!
//! Every metric carries `device` and `stream` labels now, so the
//! ROADMAP's heterogeneous fleet only adds label *values*, not plumbing.

use crate::exposition::{Exposition, Kind};
use crate::streams::StreamSchedule;
use crate::telemetry::PipelineTelemetry;
use serde::{DeError, Deserialize, Serialize, Value};

/// Schema version of [`ServingReport`] and the JSONL event log.
pub const SERVING_SCHEMA: u32 = 1;

// ---- fixed log bucket scheme ----

/// Log buckets per decade of the fixed latency bucket scheme.
pub const BUCKETS_PER_DECADE: usize = 4;
/// Smallest finite bucket boundary (seconds).
pub const MIN_BUCKET_BOUND: f64 = 1e-6;
/// Decades covered by finite boundaries (1 µs .. 100 s).
pub const BUCKET_DECADES: usize = 8;
/// Number of finite bucket boundaries.
pub const NUM_BOUNDS: usize = BUCKETS_PER_DECADE * BUCKET_DECADES + 1;

/// The `i`-th finite bucket boundary (inclusive upper edge, seconds):
/// `1e-6 * 10^(i/4)` for `i in 0..NUM_BOUNDS`. One more bucket above the
/// last boundary catches overflow (`+Inf`).
pub fn bucket_bound(i: usize) -> f64 {
    debug_assert!(i < NUM_BOUNDS);
    MIN_BUCKET_BOUND * 10f64.powf(i as f64 / BUCKETS_PER_DECADE as f64)
}

/// Width of bucket `i` (distance to the previous boundary; bucket 0
/// spans from 0). For the overflow bucket (`i == NUM_BOUNDS`) the width
/// is unbounded and `f64::INFINITY` is returned.
pub fn bucket_width(i: usize) -> f64 {
    if i >= NUM_BOUNDS {
        f64::INFINITY
    } else if i == 0 {
        bucket_bound(0)
    } else {
        bucket_bound(i) - bucket_bound(i - 1)
    }
}

/// A latency histogram over the fixed log bucket scheme.
///
/// `counts[i]` counts samples `v` with
/// `bucket_bound(i-1) < v <= bucket_bound(i)` (bucket 0 spans from 0);
/// `counts[NUM_BOUNDS]` is the overflow (`+Inf`) bucket. `sum` and
/// `count` are exact over the observed samples, so `_sum`/`_count` in
/// the Prometheus exposition are not approximations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts, `NUM_BOUNDS + 1` entries.
    pub counts: Vec<u64>,
    /// Exact sum of observed samples (seconds).
    pub sum: f64,
    /// Exact number of observed samples.
    pub count: u64,
    /// Smallest observed sample (0 when empty).
    pub min: f64,
    /// Largest observed sample (0 when empty).
    pub max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BOUNDS + 1],
            sum: 0.0,
            count: 0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Index of the bucket a sample falls into.
    fn bucket_of(v: f64) -> usize {
        // A linear scan over 33 boundaries; observation is off the hot
        // path (once per frame of the *schedule*, not per pixel).
        (0..NUM_BOUNDS)
            .find(|&i| v <= bucket_bound(i))
            .unwrap_or(NUM_BOUNDS)
    }

    /// Records one latency sample (negative samples clamp to 0).
    pub fn observe(&mut self, v: f64) {
        let v = v.max(0.0);
        self.counts[Self::bucket_of(v)] += 1;
        self.sum += v;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
    }

    /// Builds a histogram from a sample slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut h = Self::new();
        for &s in samples {
            h.observe(s);
        }
        h
    }

    /// Merges `other` into `self`. Exact because every histogram shares
    /// the fixed bucket scheme: merging per-stream histograms equals the
    /// histogram of the concatenated samples.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
    }

    /// Mean of the observed samples (exact; 0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Cumulative count through bucket `i` (the Prometheus `le` value of
    /// `bucket_bound(i)`; `i == NUM_BOUNDS` gives the `+Inf` bucket,
    /// which always equals `count`).
    pub fn cumulative(&self, i: usize) -> u64 {
        self.counts[..=i.min(NUM_BOUNDS)].iter().sum()
    }

    /// Bucket index holding the `q`-quantile sample (nearest-rank), or
    /// `None` when empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        unreachable!("cumulative count reaches self.count");
    }

    /// The `q`-quantile reconstructed from the buckets: the upper edge of
    /// the bucket holding the nearest-rank sample, so the estimate is
    /// within one [`bucket_width`] above the exact rank statistic. For
    /// the overflow bucket the observed `max` is returned.
    ///
    /// An empty histogram returns `NaN` — a deliberate sentinel, not a
    /// fallthrough: a device whose streams were all shed has no latency
    /// samples, and the old `0.0` read as a perfect p99 in merged fleet
    /// reports. `NaN` is unmistakably "no data" (check with
    /// [`f64::is_nan`]).
    pub fn quantile(&self, q: f64) -> f64 {
        match self.quantile_bucket(q) {
            None => f64::NAN,
            Some(i) if i >= NUM_BOUNDS => self.max,
            Some(i) => bucket_bound(i),
        }
    }

    /// Lower/upper bounds bracketing the exact `q`-quantile: the edges of
    /// the bucket holding the nearest-rank sample. `(NaN, NaN)` when
    /// empty — the same no-data sentinel as [`Self::quantile`].
    pub fn quantile_bounds(&self, q: f64) -> (f64, f64) {
        match self.quantile_bucket(q) {
            None => (f64::NAN, f64::NAN),
            Some(0) => (0.0, bucket_bound(0)),
            Some(i) if i >= NUM_BOUNDS => (bucket_bound(NUM_BOUNDS - 1), self.max),
            Some(i) => (bucket_bound(i - 1), bucket_bound(i)),
        }
    }
}

// ---- SLO configuration ----

/// A per-stream service-level objective: a frame deadline plus the
/// violation fraction the stream is allowed to spend (its error budget).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// End-to-end frame deadline in seconds (default 40 ms — the
    /// paper's 25 fps real-time bar).
    pub deadline_s: f64,
    /// Allowed violation fraction; a stream whose windowed violation
    /// fraction stays at or below this is *served at SLO*.
    pub error_budget: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            deadline_s: 0.040,
            error_budget: 0.01,
        }
    }
}

// ---- structured event log ----

/// What happened to a frame on the serving path. Serializes as a
/// snake_case string (`"frame_admitted"`, …) — the frozen wire names of
/// the event-log schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The frame's upload began (the scheduler admitted it to the device).
    FrameAdmitted,
    /// The frame's kernel launched on the compute engine.
    Launch,
    /// The frame's download finished; `latency_s`/`e2e_s` are set.
    FrameCompleted,
    /// The frame was shed before admission (reserved for the fleet
    /// dispatcher's admission controller; never emitted today).
    FrameDropped,
    /// The completed frame's end-to-end latency exceeded the deadline.
    SloViolation,
}

impl EventKind {
    /// The frozen wire name of this event kind.
    pub fn wire_name(&self) -> &'static str {
        match self {
            EventKind::FrameAdmitted => "frame_admitted",
            EventKind::Launch => "launch",
            EventKind::FrameCompleted => "frame_completed",
            EventKind::FrameDropped => "frame_dropped",
            EventKind::SloViolation => "slo_violation",
        }
    }
}

impl Serialize for EventKind {
    fn to_json_value(&self) -> Value {
        Value::String(self.wire_name().to_string())
    }
}

impl Deserialize for EventKind {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => match s.as_str() {
                "frame_admitted" => Ok(EventKind::FrameAdmitted),
                "launch" => Ok(EventKind::Launch),
                "frame_completed" => Ok(EventKind::FrameCompleted),
                "frame_dropped" => Ok(EventKind::FrameDropped),
                "slo_violation" => Ok(EventKind::SloViolation),
                other => Err(DeError::new(format!("unknown event kind {other:?}"))),
            },
            other => Err(DeError::new(format!(
                "expected event string, got {other:?}"
            ))),
        }
    }
}

/// One record of the stable-schema JSONL event log. Field order and
/// names are frozen ([`SERVING_SCHEMA`]); optional fields are omitted
/// when absent rather than emitted as null.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingEvent {
    /// Seconds on the schedule clock.
    pub t_s: f64,
    /// Event type.
    pub event: EventKind,
    /// Device label (e.g. the simulated GPU's name).
    pub device: String,
    /// Stream index on the device.
    pub stream: usize,
    /// Frame index within the stream.
    pub frame: usize,
    /// Attribution site — the pipeline/kernel this frame ran through.
    pub site: String,
    /// Device sojourn latency (set on completion/violation events).
    pub latency_s: Option<f64>,
    /// End-to-end latency (set on completion/violation events).
    pub e2e_s: Option<f64>,
    /// The deadline judged against (set on violation events).
    pub deadline_s: Option<f64>,
}

impl Serialize for ServingEvent {
    fn to_json_value(&self) -> Value {
        let mut obj = vec![
            ("t_s".to_string(), Value::F64(self.t_s)),
            ("event".to_string(), self.event.to_json_value()),
            ("device".to_string(), Value::String(self.device.clone())),
            ("stream".to_string(), Value::U64(self.stream as u64)),
            ("frame".to_string(), Value::U64(self.frame as u64)),
            ("site".to_string(), Value::String(self.site.clone())),
        ];
        for (key, v) in [
            ("latency_s", self.latency_s),
            ("e2e_s", self.e2e_s),
            ("deadline_s", self.deadline_s),
        ] {
            if let Some(v) = v {
                obj.push((key.to_string(), Value::F64(v)));
            }
        }
        Value::Object(obj)
    }
}

impl Deserialize for ServingEvent {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        let obj = match v {
            Value::Object(m) => m,
            other => Err(DeError::new(format!(
                "expected event object, got {other:?}"
            )))?,
        };
        let field = |key: &str| serde::__get_field(obj, "ServingEvent", key);
        let opt = |key: &str| -> Result<Option<f64>, DeError> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| f64::from_json_value(v))
                .transpose()
        };
        Ok(ServingEvent {
            t_s: f64::from_json_value(field("t_s")?)?,
            event: EventKind::from_json_value(field("event")?)?,
            device: String::from_json_value(field("device")?)?,
            stream: usize::from_json_value(field("stream")?)?,
            frame: usize::from_json_value(field("frame")?)?,
            site: String::from_json_value(field("site")?)?,
            latency_s: opt("latency_s")?,
            e2e_s: opt("e2e_s")?,
            deadline_s: opt("deadline_s")?,
        })
    }
}

/// Renders events as JSON Lines: one canonical JSON object per line.
pub fn events_jsonl(events: &[ServingEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string_canonical(e).expect("serializable event"));
        out.push('\n');
    }
    out
}

/// Streams [`ServingEvent`]s to a JSONL file through a [`BufWriter`]
/// instead of materializing the whole run's event string in memory for
/// one `std::fs::write` at the end.
///
/// Lines are buffered, so a single `write_event` is one formatted line
/// plus an amortized syscall; the writer flushes on [`Drop`], so a run
/// that terminates early (an error propagated past the writer) still
/// leaves a complete, parseable file containing every event recorded
/// before the termination point.
///
/// [`BufWriter`]: std::io::BufWriter
#[derive(Debug)]
pub struct EventLogWriter {
    out: std::io::BufWriter<std::fs::File>,
}

impl EventLogWriter {
    /// Creates (or truncates) `path` behind a buffered writer.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(EventLogWriter {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }

    /// Appends one event as one canonical-JSON line.
    pub fn write_event(&mut self, event: &ServingEvent) -> std::io::Result<()> {
        use std::io::Write;
        let line = serde_json::to_string_canonical(event).expect("serializable event");
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Appends a batch of events, one line each.
    pub fn write_events(&mut self, events: &[ServingEvent]) -> std::io::Result<()> {
        for e in events {
            self.write_event(e)?;
        }
        Ok(())
    }

    /// Forces buffered lines to the file (also happens on drop).
    pub fn flush(&mut self) -> std::io::Result<()> {
        use std::io::Write;
        self.out.flush()
    }
}

impl Drop for EventLogWriter {
    fn drop(&mut self) {
        // BufWriter flushes on drop too, but only best-effort inside its
        // own Drop; doing it here keeps the guarantee local to this type
        // (and documented) rather than inherited.
        let _ = self.flush();
    }
}

// ---- per-stream accounting, snapshots, and the report ----

/// Exact latency percentiles (nearest-rank over the true samples, not
/// reconstructed from buckets).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl LatencyPercentiles {
    /// Nearest-rank percentiles of a sample slice (zeros when empty).
    pub fn from_samples(samples: &[f64]) -> Self {
        // total_cmp (NaN sorts after +inf) keeps a poisoned sample from
        // panicking the whole report; scheduler admission validation
        // rejects such inputs before they reach here.
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        LatencyPercentiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            p999: at(0.999),
        }
    }
}

/// Cumulative serving state of one stream (whole run, or up to a
/// snapshot's window end).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamServing {
    /// Stream index.
    pub stream: usize,
    /// Frames completed.
    pub frames_completed: u64,
    /// Frames whose end-to-end latency exceeded the deadline.
    pub slo_violations: u64,
    /// Device-sojourn latency histogram.
    pub frame_latency: LatencyHistogram,
    /// End-to-end (arrival to download) latency histogram.
    pub e2e_latency: LatencyHistogram,
}

impl StreamServing {
    fn new(stream: usize) -> Self {
        StreamServing {
            stream,
            frames_completed: 0,
            slo_violations: 0,
            frame_latency: LatencyHistogram::new(),
            e2e_latency: LatencyHistogram::new(),
        }
    }

    /// Violation fraction of the completed frames (0 when none).
    pub fn violation_fraction(&self) -> f64 {
        if self.frames_completed > 0 {
            self.slo_violations as f64 / self.frames_completed as f64
        } else {
            0.0
        }
    }
}

/// Windowed gauges of one stream within one snapshot's window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamWindow {
    /// Stream index.
    pub stream: usize,
    /// Frames completed inside this window.
    pub window_frames: u64,
    /// Violations inside this window.
    pub window_violations: u64,
    /// Error-budget burn rate of the window: violation fraction over the
    /// budget. 1.0 means the budget is being spent exactly as allowed;
    /// above 1.0 the stream is out of SLO.
    pub burn_rate: f64,
    /// Whether the stream is served at SLO in this window (burn rate at
    /// or below 1; an idle window with no frames counts as served).
    pub at_slo: bool,
}

/// One windowed snapshot on the schedule clock: cumulative counters and
/// histograms through `t_s` (monotone across snapshots), plus the
/// window's gauges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSnapshot {
    /// Window end on the schedule clock (seconds).
    pub t_s: f64,
    /// Cumulative per-stream serving state through `t_s`.
    pub streams: Vec<StreamServing>,
    /// Windowed per-stream gauges for the window ending at `t_s`.
    pub windows: Vec<StreamWindow>,
    /// Streams served at SLO in this window.
    pub streams_at_slo: u64,
    /// Cumulative DRAM bytes through `t_s`, sampled from the pipeline
    /// telemetry's monotone counter (0 without telemetry).
    pub dram_bytes_total: f64,
}

/// The serving observability report: final per-stream state, merged
/// pipeline histograms, windowed snapshots, and the event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Report schema version ([`SERVING_SCHEMA`]).
    pub schema: u32,
    /// Device label every metric carries.
    pub device: String,
    /// Attribution site label carried by launch events (the pipeline or
    /// kernel the frames ran through).
    pub site: String,
    /// The SLO judged against.
    pub slo: SloConfig,
    /// Snapshot window length (seconds).
    pub window_s: f64,
    /// Schedule makespan (seconds).
    pub makespan_s: f64,
    /// Final cumulative per-stream state (equals the last snapshot's).
    pub streams: Vec<StreamServing>,
    /// Exact per-stream end-to-end percentiles (nearest-rank).
    pub percentiles: Vec<LatencyPercentiles>,
    /// All streams' frame-latency histograms merged.
    pub pipeline_frame_latency: LatencyHistogram,
    /// All streams' end-to-end histograms merged — the end-to-end
    /// pipeline latency distribution.
    pub pipeline_e2e_latency: LatencyHistogram,
    /// Windowed snapshots in time order; the last ends at the makespan.
    pub snapshots: Vec<ServingSnapshot>,
    /// The structured event log, ordered by time (ties: stream, frame).
    pub events: Vec<ServingEvent>,
}

impl ServingReport {
    /// Total SLO violations across streams.
    pub fn total_violations(&self) -> u64 {
        self.streams.iter().map(|s| s.slo_violations).sum()
    }

    /// Streams served at SLO over the *whole run* (cumulative violation
    /// fraction within budget).
    pub fn streams_at_slo(&self) -> u64 {
        self.streams
            .iter()
            .filter(|s| s.violation_fraction() <= self.slo.error_budget)
            .count() as u64
    }
}

/// Most snapshots one serving report holds. A requested window shorter
/// than `makespan / MAX_SNAPSHOTS` is widened to that, so a tiny window
/// cannot make the report (and the memory building it) grow without
/// bound.
pub const MAX_SNAPSHOTS: usize = 256;

/// Most snapshot streams one serving report holds, summed over its
/// snapshots. Every snapshot carries each stream's cumulative state, two
/// latency histograms included (about 2 KB of JSON per stream), so the
/// report grows as windows x streams: a run of `n` streams keeps at most
/// `MAX_STREAM_SNAPSHOTS / n` windows (at least one, at most
/// [`MAX_SNAPSHOTS`]). Up to 8 streams keep every one of the
/// [`MAX_SNAPSHOTS`] windows, and up to 256 keep the default 8.
pub const MAX_STREAM_SNAPSHOTS: usize = 2048;

/// How the run is windowed. `window_s == 0` auto-sizes to
/// `makespan / 8` (at least one window); any window is widened so the
/// run has at most [`MAX_SNAPSHOTS`] of them, and at most
/// [`MAX_STREAM_SNAPSHOTS`] snapshot streams in all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingWindowConfig {
    /// Window length on the schedule clock (seconds; 0 = auto).
    pub window_s: f64,
}

impl Default for ServingWindowConfig {
    fn default() -> Self {
        ServingWindowConfig { window_s: 0.0 }
    }
}

/// Builds the serving report from a multi-stream schedule.
///
/// `arrival_periods[s]` is stream `s`'s seconds-between-frames (0 for
/// offline streams, whose end-to-end latency is then the device
/// sojourn). `telemetry`, when given, supplies the cumulative DRAM byte
/// counter sampled into each snapshot.
///
/// The returned report always carries **at least one snapshot** (an
/// empty schedule still yields one all-zero window), so consumers may
/// index `snapshots.last()` — though [`prometheus_serving`] tolerates
/// externally-produced reports that break this invariant.
pub fn serving_report(
    schedule: &StreamSchedule,
    arrival_periods: &[f64],
    device: &str,
    site: &str,
    slo: &SloConfig,
    window: &ServingWindowConfig,
    telemetry: Option<&PipelineTelemetry>,
) -> ServingReport {
    assert_eq!(
        schedule.streams.len(),
        arrival_periods.len(),
        "one arrival period per stream"
    );
    let makespan = schedule.makespan();
    let max_windows =
        (MAX_STREAM_SNAPSHOTS / schedule.streams.len().max(1)).clamp(1, MAX_SNAPSHOTS);
    let window_s = if window.window_s > 0.0 {
        window.window_s.max(makespan / max_windows as f64)
    } else if makespan > 0.0 {
        makespan / max_windows.min(8) as f64
    } else {
        1.0
    };

    // One completion record per frame: (t_complete, stream, frame,
    // sojourn, e2e).
    struct Done {
        t: f64,
        stream: usize,
        frame: usize,
        sojourn: f64,
        e2e: f64,
    }
    let mut events: Vec<ServingEvent> = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    let mut e2e_samples: Vec<Vec<f64>> = vec![Vec::new(); schedule.streams.len()];
    let ev = |t: f64, kind: EventKind, stream: usize, frame: usize| ServingEvent {
        t_s: t,
        event: kind,
        device: device.to_string(),
        stream,
        frame,
        site: site.to_string(),
        latency_s: None,
        e2e_s: None,
        deadline_s: None,
    };
    for (s, frames) in schedule.streams.iter().enumerate() {
        let period = arrival_periods[s];
        for (i, f) in frames.iter().enumerate() {
            let sojourn = f.d2h.end() - f.h2d.start;
            let e2e = if period > 0.0 {
                f.d2h.end() - i as f64 * period
            } else {
                sojourn
            };
            events.push(ev(f.h2d.start, EventKind::FrameAdmitted, s, i));
            events.push(ev(f.kernel.start, EventKind::Launch, s, i));
            let mut completed = ev(f.d2h.end(), EventKind::FrameCompleted, s, i);
            completed.latency_s = Some(sojourn);
            completed.e2e_s = Some(e2e);
            events.push(completed);
            if e2e > slo.deadline_s {
                let mut v = ev(f.d2h.end(), EventKind::SloViolation, s, i);
                v.latency_s = Some(sojourn);
                v.e2e_s = Some(e2e);
                v.deadline_s = Some(slo.deadline_s);
                events.push(v);
            }
            e2e_samples[s].push(e2e);
            done.push(Done {
                t: f.d2h.end(),
                stream: s,
                frame: i,
                sojourn,
                e2e,
            });
        }
    }
    events.sort_by(|a, b| {
        a.t_s
            .total_cmp(&b.t_s)
            .then(a.stream.cmp(&b.stream))
            .then(a.frame.cmp(&b.frame))
    });
    done.sort_by(|a, b| {
        a.t.total_cmp(&b.t)
            .then(a.stream.cmp(&b.stream))
            .then(a.frame.cmp(&b.frame))
    });

    // Walk completions window by window, accumulating cumulative state
    // and per-window deltas.
    let n_streams = schedule.streams.len();
    let mut cumulative: Vec<StreamServing> = (0..n_streams).map(StreamServing::new).collect();
    let n_windows = if makespan > 0.0 {
        // The clamp absorbs rounding in the widened window's quotient.
        ((makespan / window_s).ceil().max(1.0) as usize).min(max_windows)
    } else {
        1
    };
    let mut snapshots = Vec::with_capacity(n_windows);
    let mut next = 0usize;
    for w in 0..n_windows {
        let t_end = if w + 1 == n_windows {
            makespan
        } else {
            (w + 1) as f64 * window_s
        };
        let mut window_frames = vec![0u64; n_streams];
        let mut window_violations = vec![0u64; n_streams];
        while next < done.len() && done[next].t <= t_end {
            let d = &done[next];
            let st = &mut cumulative[d.stream];
            st.frames_completed += 1;
            st.frame_latency.observe(d.sojourn);
            st.e2e_latency.observe(d.e2e);
            window_frames[d.stream] += 1;
            if d.e2e > slo.deadline_s {
                st.slo_violations += 1;
                window_violations[d.stream] += 1;
            }
            let _ = d.frame;
            next += 1;
        }
        let windows: Vec<StreamWindow> = (0..n_streams)
            .map(|s| {
                let frac = if window_frames[s] > 0 {
                    window_violations[s] as f64 / window_frames[s] as f64
                } else {
                    0.0
                };
                let burn = if slo.error_budget > 0.0 {
                    frac / slo.error_budget
                } else if frac > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                StreamWindow {
                    stream: s,
                    window_frames: window_frames[s],
                    window_violations: window_violations[s],
                    burn_rate: burn,
                    at_slo: burn <= 1.0,
                }
            })
            .collect();
        let streams_at_slo = windows.iter().filter(|w| w.at_slo).count() as u64;
        let dram = telemetry.map_or(0.0, |t| {
            if t.dram_bytes_cumulative.is_empty() || t.quantum <= 0.0 {
                0.0
            } else {
                let q =
                    ((t_end / t.quantum).ceil() as usize).clamp(1, t.dram_bytes_cumulative.len());
                t.dram_bytes_cumulative[q - 1]
            }
        });
        snapshots.push(ServingSnapshot {
            t_s: t_end,
            streams: cumulative.clone(),
            windows,
            streams_at_slo,
            dram_bytes_total: dram,
        });
    }

    let mut pipeline_frame = LatencyHistogram::new();
    let mut pipeline_e2e = LatencyHistogram::new();
    for s in &cumulative {
        pipeline_frame.merge(&s.frame_latency);
        pipeline_e2e.merge(&s.e2e_latency);
    }
    let percentiles = e2e_samples
        .iter()
        .map(|s| LatencyPercentiles::from_samples(s))
        .collect();

    ServingReport {
        schema: SERVING_SCHEMA,
        device: device.to_string(),
        site: site.to_string(),
        slo: *slo,
        window_s,
        makespan_s: makespan,
        streams: cumulative,
        percentiles,
        pipeline_frame_latency: pipeline_frame,
        pipeline_e2e_latency: pipeline_e2e,
        snapshots,
        events,
    }
}

// ---- Prometheus exposition (histogram families + serving gauges) ----

/// One device's snapshot as an exposition sees it: the `device` label
/// and the snapshot. [`prometheus_serving`] writes the families below
/// for one such pair, [`crate::fleet::prometheus_fleet`] for every
/// device; where the two disagree on a family's HELP it is a parameter.
pub(crate) type DeviceSnapshot<'a> = (&'a str, &'a ServingSnapshot);

/// The per-stream frame and end-to-end latency histograms, then each
/// device's merged end-to-end histogram and its quantile gauges.
pub(crate) fn latency_families(
    e: &mut Exposition,
    devices: &[DeviceSnapshot],
    [merged_help, quantile_help]: [&str; 2],
) {
    e.family(
        "mogpu_frame_latency_seconds",
        Kind::Histogram,
        "Per-frame device sojourn latency (upload start to download end).",
    );
    for &(device, snap) in devices {
        for s in &snap.streams {
            let stream = s.stream.to_string();
            e.histogram(&[("device", device), ("stream", &stream)], &s.frame_latency);
        }
    }
    e.family(
        "mogpu_e2e_latency_seconds",
        Kind::Histogram,
        "End-to-end frame latency (camera arrival to download end) the SLO judges.",
    );
    let mut merged = vec![LatencyHistogram::new(); devices.len()];
    for (&(device, snap), m) in devices.iter().zip(&mut merged) {
        for s in &snap.streams {
            let stream = s.stream.to_string();
            e.histogram(&[("device", device), ("stream", &stream)], &s.e2e_latency);
            m.merge(&s.e2e_latency);
        }
    }
    let name = "mogpu_pipeline_e2e_latency_seconds";
    e.family(name, Kind::Histogram, merged_help);
    for (&(device, _), m) in devices.iter().zip(&merged) {
        e.histogram(&[("device", device)], m);
    }
    let name = "mogpu_pipeline_e2e_latency_quantile_seconds";
    e.family(name, Kind::Gauge, quantile_help);
    for (&(device, _), m) in devices.iter().zip(&merged) {
        e.quantiles(&[("device", device)], m);
    }
}

/// The per-stream completion and SLO-violation counters.
pub(crate) fn counter_families(
    e: &mut Exposition,
    devices: &[DeviceSnapshot],
    completed_help: &str,
) {
    type Count = fn(&StreamServing) -> u64;
    let families: [(&'static str, &str, Count); 2] = [
        ("mogpu_frames_completed_total", completed_help, |s| {
            s.frames_completed
        }),
        (
            "mogpu_slo_violations_total",
            "Frames whose end-to-end latency exceeded the deadline, cumulative.",
            |s| s.slo_violations,
        ),
    ];
    for (name, help, count) in families {
        e.family(name, Kind::Counter, help);
        for &(device, snap) in devices {
            for s in &snap.streams {
                let stream = s.stream.to_string();
                e.sample(&[("device", device), ("stream", &stream)], count(s) as f64);
            }
        }
    }
}

/// The windowed per-stream burn rate, then the per-device
/// streams-at-SLO and streams-serving gauges.
pub(crate) fn window_families(
    e: &mut Exposition,
    devices: &[DeviceSnapshot],
    [burn_help, at_slo_help, serving_help]: [&str; 3],
) {
    e.family("mogpu_slo_burn_rate", Kind::Gauge, burn_help);
    for &(device, snap) in devices {
        for w in &snap.windows {
            let stream = w.stream.to_string();
            e.sample(&[("device", device), ("stream", &stream)], w.burn_rate);
        }
    }
    e.family("mogpu_streams_at_slo", Kind::Gauge, at_slo_help);
    for &(device, snap) in devices {
        e.sample(&[("device", device)], snap.streams_at_slo as f64);
    }
    e.family("mogpu_streams_serving", Kind::Gauge, serving_help);
    for &(device, snap) in devices {
        e.sample(&[("device", device)], snap.streams.len() as f64);
    }
}

/// Renders the serving metrics of one snapshot (by index into
/// `report.snapshots`; clamped to the last) in the Prometheus text
/// exposition format. Histogram families are proper `histogram` types
/// with cumulative `le` buckets; counters are cumulative through the
/// snapshot, so successive snapshots scrape as monotone counters.
///
/// [`serving_report`] always produces at least one snapshot, but a
/// truncated or hand-edited report JSON may not; an empty `snapshots`
/// renders a valid exposition whose families are present but carry no
/// per-stream samples, instead of panicking the metrics server.
pub fn prometheus_serving(report: &ServingReport, snapshot: usize) -> String {
    let empty = ServingSnapshot {
        t_s: report.makespan_s,
        streams: Vec::new(),
        windows: Vec::new(),
        streams_at_slo: 0,
        dram_bytes_total: 0.0,
    };
    let snap = report
        .snapshots
        .get(snapshot.min(report.snapshots.len().saturating_sub(1)))
        .unwrap_or(&empty);
    let devices = [(report.device.as_str(), snap)];
    let device = [("device", report.device.as_str())];
    let mut e = Exposition::new();
    latency_families(
        &mut e,
        &devices,
        [
            "End-to-end latency across all streams of the device (merged histogram).",
            "End-to-end latency quantiles reconstructed from the merged buckets (absent until a frame completes).",
        ],
    );
    counter_families(
        &mut e,
        &devices,
        "Frames completed (downloaded) per stream, cumulative on the schedule clock.",
    );
    e.family(
        "mogpu_slo_deadline_seconds",
        Kind::Gauge,
        "Configured end-to-end frame deadline.",
    );
    for s in &snap.streams {
        let stream = s.stream.to_string();
        e.sample(&[device[0], ("stream", &stream)], report.slo.deadline_s);
    }
    window_families(
        &mut e,
        &devices,
        [
            "Windowed error-budget burn rate (violation fraction over budget; >1 = out of SLO).",
            "Streams served at SLO in the current window (burn rate <= 1).",
            "Streams multiplexed onto the device.",
        ],
    );
    for (name, kind, help, value) in [
        (
            "mogpu_serving_window_seconds",
            Kind::Gauge,
            "Snapshot window length on the schedule clock.",
            report.window_s,
        ),
        (
            "mogpu_serving_clock_seconds",
            Kind::Gauge,
            "Schedule-clock time of the served snapshot (end of its window).",
            snap.t_s,
        ),
        (
            "mogpu_serving_dram_bytes_total",
            Kind::Counter,
            "Cumulative DRAM bytes through the snapshot, from the telemetry counter.",
            snap.dram_bytes_total,
        ),
    ] {
        e.family(name, kind, help).sample(&device, value);
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::streams::{StageTimes, StreamInput, StreamScheduler};

    fn schedule_of(n_streams: usize, frames: usize, period: f64) -> (StreamSchedule, Vec<f64>) {
        let inputs: Vec<StreamInput> = (0..n_streams)
            .map(|s| StreamInput {
                stages: vec![StageTimes::uniform(1e-3, 2e-3 + s as f64 * 1e-3, 1e-3); frames],
                arrival_period: period,
            })
            .collect();
        let sched = StreamScheduler::double_buffered().schedule(&inputs, &GpuConfig::tesla_c2075());
        (sched, vec![period; n_streams])
    }

    #[test]
    fn bucket_scheme_is_log_spaced_and_covers_the_range() {
        assert!((bucket_bound(0) - 1e-6).abs() < 1e-18);
        assert!((bucket_bound(NUM_BOUNDS - 1) - 1e2).abs() < 1e-10);
        for i in 1..NUM_BOUNDS {
            let ratio = bucket_bound(i) / bucket_bound(i - 1);
            assert!((ratio - 10f64.powf(0.25)).abs() < 1e-12, "bucket {i}");
        }
    }

    #[test]
    fn histogram_sum_count_and_mean_are_exact() {
        let samples = [0.001, 0.002, 0.0035, 0.9, 250.0];
        let h = LatencyHistogram::from_samples(&samples);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, samples.iter().sum::<f64>());
        assert_eq!(h.mean(), h.sum / 5.0);
        assert_eq!(h.min, 0.001);
        assert_eq!(h.max, 250.0);
        // 250 s overflows the finite range into the +Inf bucket.
        assert_eq!(h.counts[NUM_BOUNDS], 1);
        assert_eq!(h.cumulative(NUM_BOUNDS), h.count);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = [1e-4, 5e-4, 2e-3, 0.3];
        let b = [7e-5, 2e-3, 1.0, 300.0];
        let mut ha = LatencyHistogram::from_samples(&a);
        let hb = LatencyHistogram::from_samples(&b);
        ha.merge(&hb);
        let concat: Vec<f64> = a.iter().chain(&b).copied().collect();
        let hc = LatencyHistogram::from_samples(&concat);
        assert_eq!(ha, hc);
    }

    #[test]
    fn quantile_is_within_one_bucket_of_exact() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-5).collect();
        let h = LatencyHistogram::from_samples(&samples);
        for q in [0.5, 0.95, 0.99, 0.999] {
            let exact = LatencyPercentiles::from_samples(&samples);
            let exact_q = match q {
                0.5 => exact.p50,
                0.95 => exact.p95,
                0.99 => exact.p99,
                _ => exact.p999,
            };
            let (lo, hi) = h.quantile_bounds(q);
            assert!(
                exact_q > lo && exact_q <= hi,
                "q {q}: exact {exact_q} outside ({lo}, {hi}]"
            );
            let est = h.quantile(q);
            assert!((est - exact_q).abs() <= hi - lo, "q {q}");
        }
    }

    /// An empty histogram must answer quantile queries with the NaN
    /// no-data sentinel — `0.0` would read as a perfect p99 when an
    /// all-shed device's histogram is merged into a fleet report.
    #[test]
    fn empty_histogram_quantiles_are_the_nan_sentinel() {
        let h = LatencyHistogram::new();
        assert!(h.quantile(0.99).is_nan());
        let (lo, hi) = h.quantile_bounds(0.5);
        assert!(lo.is_nan() && hi.is_nan());
        assert_eq!(h.mean(), 0.0);
        // One sample flips it back to real answers.
        let h = LatencyHistogram::from_samples(&[0.010]);
        assert!(h.quantile(0.99) > 0.0);
        let (lo, hi) = h.quantile_bounds(0.99);
        assert!(lo < hi && !lo.is_nan());
    }

    #[test]
    fn report_counts_violations_and_orders_events() {
        let (sched, periods) = schedule_of(2, 6, 0.0);
        // Deadline below every sojourn: every frame violates.
        let slo = SloConfig {
            deadline_s: 1e-6,
            error_budget: 0.01,
        };
        let r = serving_report(
            &sched,
            &periods,
            "Tesla C2075",
            "level F",
            &slo,
            &ServingWindowConfig::default(),
            None,
        );
        assert_eq!(r.total_violations(), 12);
        assert_eq!(r.streams_at_slo(), 0);
        let violations = r
            .events
            .iter()
            .filter(|e| e.event == EventKind::SloViolation)
            .count();
        assert_eq!(violations, 12);
        for w in r.events.windows(2) {
            assert!(w[0].t_s <= w[1].t_s, "events out of order");
        }
        // A generous deadline: zero violations, all streams at SLO.
        let r2 = serving_report(
            &sched,
            &periods,
            "Tesla C2075",
            "level F",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        assert_eq!(r2.total_violations(), 0);
        assert_eq!(r2.streams_at_slo(), 2);
    }

    #[test]
    fn snapshots_are_monotone_and_end_at_totals() {
        let (sched, periods) = schedule_of(3, 8, 0.0);
        let r = serving_report(
            &sched,
            &periods,
            "dev0",
            "level F",
            &SloConfig {
                deadline_s: 3e-3,
                error_budget: 0.1,
            },
            &ServingWindowConfig { window_s: 0.004 },
            None,
        );
        assert!(r.snapshots.len() > 1, "expect several windows");
        for pair in r.snapshots.windows(2) {
            for (a, b) in pair[0].streams.iter().zip(&pair[1].streams) {
                assert!(b.frames_completed >= a.frames_completed);
                assert!(b.slo_violations >= a.slo_violations);
                for (ca, cb) in a.frame_latency.counts.iter().zip(&b.frame_latency.counts) {
                    assert!(cb >= ca, "histogram bucket decreased across snapshots");
                }
            }
        }
        let last = r.snapshots.last().unwrap();
        assert!((last.t_s - r.makespan_s).abs() < 1e-12);
        assert_eq!(last.streams, r.streams);
        let total: u64 = r.streams.iter().map(|s| s.frames_completed).sum();
        assert_eq!(total, sched.total_frames() as u64);
    }

    /// Regression: a window far shorter than the run used to make
    /// `ceil(makespan / window)` snapshots with no bound (12,990 for a
    /// 1e-5 ms window over two frames). The window is widened instead,
    /// and the snapshots still end at the run's totals.
    #[test]
    fn a_tiny_window_is_widened_to_the_snapshot_cap() {
        let (sched, periods) = schedule_of(2, 6, 0.0);
        let window = |window_s| ServingWindowConfig { window_s };
        let report = |w: &ServingWindowConfig| {
            serving_report(
                &sched,
                &periods,
                "d",
                "level F",
                &SloConfig::default(),
                w,
                None,
            )
        };
        let makespan = sched.makespan();
        for window_s in [
            1e-8,
            makespan / MAX_SNAPSHOTS as f64 / 3.0,
            f64::MIN_POSITIVE,
        ] {
            let r = report(&window(window_s));
            assert_eq!(r.snapshots.len(), MAX_SNAPSHOTS, "window {window_s}");
            assert_eq!(r.window_s, makespan / MAX_SNAPSHOTS as f64);
            assert!((r.snapshots.last().unwrap().t_s - makespan).abs() < 1e-12);
            assert_eq!(r.snapshots.last().unwrap().streams, r.streams);
        }
        // A window the cap allows is kept as asked.
        let r = report(&window(makespan / 10.0));
        assert_eq!(r.window_s, makespan / 10.0);
        assert!(r.snapshots.len() <= 11);
    }

    /// Snapshots copy every stream's cumulative state, so many streams
    /// get fewer windows: windows x streams stays within
    /// `MAX_STREAM_SNAPSHOTS`, for tiny and default windows alike, while
    /// a run the cap allows keeps the default 8 windows.
    #[test]
    fn many_streams_bound_windows_times_streams() {
        let report = |n_streams: usize, window_s: f64| {
            let (sched, periods) = schedule_of(n_streams, 2, 0.0);
            serving_report(
                &sched,
                &periods,
                "d",
                "level F",
                &SloConfig::default(),
                &ServingWindowConfig { window_s },
                None,
            )
        };
        for (n_streams, window_s, want) in [
            (64, 1e-8, MAX_STREAM_SNAPSHOTS / 64),
            (300, 0.0, MAX_STREAM_SNAPSHOTS / 300),
            (256, 0.0, 8),
            (5000, 1e-8, 1),
            (5000, 0.0, 1),
        ] {
            let r = report(n_streams, window_s);
            assert_eq!(
                r.snapshots.len(),
                want,
                "{n_streams} streams, window {window_s}"
            );
            assert!(r.snapshots.len() * n_streams <= MAX_STREAM_SNAPSHOTS.max(n_streams));
            assert!((r.snapshots.last().unwrap().t_s - r.makespan_s).abs() < 1e-12);
            assert_eq!(r.snapshots.last().unwrap().streams, r.streams);
        }
    }

    #[test]
    fn offline_streams_equate_e2e_with_sojourn_and_paced_streams_do_not() {
        let (sched, periods) = schedule_of(1, 5, 0.0);
        let r = serving_report(
            &sched,
            &periods,
            "d",
            "s",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        assert_eq!(r.streams[0].frame_latency, r.streams[0].e2e_latency);

        let (sched, periods) = schedule_of(1, 5, 0.5);
        let r = serving_report(
            &sched,
            &periods,
            "d",
            "s",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        // Paced arrivals: e2e is measured from i*period, not upload start.
        assert_eq!(r.streams[0].e2e_latency.count, 5);
    }

    #[test]
    fn jsonl_is_one_canonical_object_per_line() {
        let (sched, periods) = schedule_of(1, 3, 0.0);
        let r = serving_report(
            &sched,
            &periods,
            "d",
            "s",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        let text = events_jsonl(&r.events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), r.events.len());
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
            for key in ["t_s", "event", "device", "stream", "frame", "site"] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
        }
    }

    #[test]
    fn exact_percentiles_survive_non_finite_samples() {
        // Regression: sorting used partial_cmp().expect("finite
        // latencies") and panicked on NaN.
        let p = LatencyPercentiles::from_samples(&[0.1, f64::NAN, 0.2]);
        assert!((p.p50 - 0.2).abs() < 1e-12);
        let p = LatencyPercentiles::from_samples(&[0.1, f64::INFINITY, 0.2]);
        assert_eq!(p.p999, f64::INFINITY);
    }

    #[test]
    fn empty_snapshot_report_renders_valid_exposition() {
        // Regression: a truncated/hand-edited report with no snapshots
        // used to panic `prometheus_serving` via `snapshots[0]`.
        let (sched, periods) = schedule_of(1, 3, 0.0);
        let mut r = serving_report(
            &sched,
            &periods,
            "d",
            "s",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        assert!(!r.snapshots.is_empty(), "serving_report guarantees >= 1");
        r.snapshots.clear();
        let text = prometheus_serving(&r, 0);
        assert!(text.contains("# TYPE mogpu_frame_latency_seconds histogram"));
        assert!(text.contains("# TYPE mogpu_streams_at_slo gauge"));
        assert!(text.contains("mogpu_streams_serving{device=\"d\"} 0"));
        // Every non-comment line is a well-formed `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "bad sample line: {line}"
            );
        }
        // An empty-schedule report still carries one snapshot.
        let empty = serving_report(
            &StreamScheduler::double_buffered().schedule(&[], &GpuConfig::tesla_c2075()),
            &[],
            "d",
            "s",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        assert_eq!(empty.snapshots.len(), 1);
    }

    /// Satellite: the buffered event-log writer must leave a complete,
    /// parseable JSONL file even when the run terminates early — the
    /// writer is dropped mid-run without an explicit flush and the file
    /// must still hold every line written before the termination point.
    #[test]
    fn event_log_writer_leaves_a_complete_file_when_dropped_early() {
        let (sched, periods) = schedule_of(2, 4, 1.0 / 30.0);
        let r = serving_report(
            &sched,
            &periods,
            "d",
            "s",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        assert!(r.events.len() >= 8, "schedule produces a real event stream");
        let path = std::env::temp_dir().join(format!(
            "mogpu-eventlog-early-drop-{}.jsonl",
            std::process::id()
        ));
        {
            let mut w = EventLogWriter::create(&path).unwrap();
            w.write_events(&r.events).unwrap();
            // Simulated early termination: drop without flush.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // Byte-identical to the in-memory rendering, and every line
        // round-trips back into a ServingEvent.
        assert_eq!(text, events_jsonl(&r.events));
        let parsed: Vec<ServingEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("parseable line"))
            .collect();
        assert_eq!(parsed, r.events);
    }

    /// Satellite: quantile-derived gauges follow the histogram when it
    /// has data and are skipped entirely — family header only, no `NaN`
    /// sentinel samples — when it is empty.
    #[test]
    fn quantile_gauges_track_the_histogram_and_are_skipped_when_empty() {
        let (sched, periods) = schedule_of(2, 6, 0.0);
        let r = serving_report(
            &sched,
            &periods,
            "d",
            "s",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        let text = prometheus_serving(&r, usize::MAX);
        assert!(text.contains("# TYPE mogpu_pipeline_e2e_latency_quantile_seconds gauge"));
        let mut merged = LatencyHistogram::new();
        for s in &r.snapshots.last().unwrap().streams {
            merged.merge(&s.e2e_latency);
        }
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            let needle = format!(
                "mogpu_pipeline_e2e_latency_quantile_seconds{{device=\"d\",quantile=\"{label}\"}}"
            );
            let line = text
                .lines()
                .find(|l| l.starts_with(&needle))
                .unwrap_or_else(|| panic!("missing {needle}"));
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v.is_finite());
            assert_eq!(v, merged.quantile(q));
        }
        // Empty histogram: the family header stays, the samples go.
        let mut empty = r.clone();
        empty.snapshots.clear();
        let text = prometheus_serving(&empty, 0);
        assert!(text.contains("# TYPE mogpu_pipeline_e2e_latency_quantile_seconds gauge"));
        assert!(
            !text.contains("mogpu_pipeline_e2e_latency_quantile_seconds{"),
            "empty histogram must not expose the NaN sentinel"
        );
    }

    #[test]
    fn exposition_buckets_are_cumulative_and_inf_equals_count() {
        let (sched, periods) = schedule_of(2, 6, 0.0);
        let r = serving_report(
            &sched,
            &periods,
            "Tesla C2075",
            "level F",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        );
        let text = prometheus_serving(&r, usize::MAX);
        assert!(text.contains("# TYPE mogpu_frame_latency_seconds histogram"));
        assert!(text.contains("device=\"Tesla C2075\""));
        assert!(text.contains("stream=\"1\""));
        assert!(text.contains("le=\"+Inf\""));
        // The +Inf bucket of stream 0's frame-latency histogram equals
        // its _count sample.
        let find = |needle: &str| -> f64 {
            text.lines()
                .find(|l| l.starts_with(needle))
                .unwrap_or_else(|| panic!("missing {needle}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let inf = find(
            "mogpu_frame_latency_seconds_bucket{device=\"Tesla C2075\",stream=\"0\",le=\"+Inf\"}",
        );
        let count = find("mogpu_frame_latency_seconds_count{device=\"Tesla C2075\",stream=\"0\"}");
        assert_eq!(inf, count);
        assert_eq!(count, 6.0);
    }
}
