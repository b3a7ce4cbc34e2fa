//! Time-resolved telemetry: per-SM counter sampling over the pipeline
//! clock, and Prometheus text-exposition export.
//!
//! The simulator is *functional + analytic*: counters
//! ([`KernelStats`]) are launch-lifetime
//! aggregates and kernel time is the closed-form three-bound roofline of
//! [`timing`](crate::timing). There is no cycle-level execution to sample,
//! so time-resolved series are **synthesized** from the analytic model:
//!
//! * The **clock** is the pipeline schedule — the same `Span`s (seconds
//!   from pipeline start) that [`chrome_trace`](crate::chrome_trace)
//!   plots, so counter series and timeline line up in one view.
//! * Each kernel launch contributes its counters at a **constant rate**
//!   over its scheduled span (the analytic model resolves no intra-launch
//!   phases), attributed **per SM** by the launch's block count
//!   distributed round-robin — SM *i* of *S* receives
//!   `blocks/S + (i < blocks mod S)` blocks and the matching share of
//!   issue cycles, so launches that do not tile the machine evenly show
//!   genuinely uneven per-SM load.
//! * Time is bucketed into a **uniform quantum** `makespan / samples`
//!   (64 samples by default). A uniform quantum makes the integral
//!   identities exact: summing a rate series times the quantum recovers
//!   the aggregate counter to floating-point accuracy, which is what the
//!   consistency tests (and the CI regression gate) assert.
//!
//! Derived series semantics under this model:
//!
//! * `occupancy` — resident-warp occupancy of the SM *while it is busy*
//!   (0 when idle); its busy-time-weighted mean equals the aggregate
//!   occupancy exactly.
//! * `ipc` — weighted warp-instruction issue slots retired per clock on
//!   that SM (1.0 means the issue port is saturated).
//! * `eligible_warps` / `stalled_warps` — a modelled decomposition of the
//!   time-averaged resident warps: warps issuing per cycle (= ipc, capped
//!   at residency) are *eligible*, the remainder are *stalled* on memory.
//! * `dram_bandwidth` — device-wide bytes/s across the DRAM interface.
//! * `l2_hit_rate` — L2 hits over accesses in the quantum (0 when the
//!   cache model is off or the quantum has no traffic).
//! * `copy_engine_utilization` — busy copy-engine time over
//!   `quantum x copy_engines`.

use crate::config::GpuConfig;
use crate::dma::{FrameSpans, Span};
use crate::exposition::{Exposition, Kind};
use crate::occupancy::Occupancy;
use crate::stats::{DerivedMetrics, KernelStats};
use crate::streams::StreamSchedule;
use serde::{Deserialize, Serialize};

/// How a pipeline is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Number of uniform time quanta covering the pipeline makespan.
    pub samples: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        // 64 quanta resolve pipeline fill/drain and per-frame cadence at
        // typical run lengths while keeping exposition output compact
        // (14 SMs x 64 quanta x 4 series ~ 3.6k samples).
        TelemetryConfig { samples: 64 }
    }
}

/// One kernel launch (or an even share of one) placed on the pipeline
/// clock: the scheduled span plus the counter totals attributed to it.
#[derive(Debug, Clone)]
pub struct KernelSlice {
    /// Scheduled execution interval on the compute engine.
    pub span: Span,
    /// Per-SM share of this slice's counters (round-robin block
    /// distribution, sums to 1; 0 for SMs the launch never reached).
    pub sm_weights: Vec<f64>,
    /// Weighted warp-instruction issue cycles of the slice.
    pub issue_cycles: f64,
    /// Bytes moved across the DRAM interface by the slice.
    pub dram_bytes: f64,
    /// L2 line hits of the slice.
    pub l2_hits: f64,
    /// L2 line misses of the slice.
    pub l2_misses: f64,
    /// Resident warps per busy SM.
    pub resident_warps: f64,
    /// Resident-warp occupancy of busy SMs, in [0, 1].
    pub occupancy: f64,
}

impl KernelSlice {
    /// Builds a slice from launch counters: `share` of `stats` (1.0 for a
    /// whole launch, `1/group` for one frame of a grouped launch) placed
    /// at `span`. The per-SM weights always reflect the *whole* launch's
    /// round-robin block distribution.
    pub fn from_stats(
        span: Span,
        stats: &KernelStats,
        occ: &Occupancy,
        cfg: &GpuConfig,
        share: f64,
    ) -> Self {
        let sms = cfg.num_sms.max(1) as usize;
        let blocks = stats.blocks;
        let sm_weights = if blocks == 0 {
            vec![1.0 / sms as f64; sms]
        } else {
            (0..sms as u64)
                .map(|i| {
                    let b = blocks / sms as u64 + u64::from(i < blocks % sms as u64);
                    b as f64 / blocks as f64
                })
                .collect()
        };
        KernelSlice {
            span,
            sm_weights,
            issue_cycles: stats.issue_cycles * share,
            dram_bytes: stats.bytes_transacted(cfg) as f64 * share,
            l2_hits: stats.l2_hits as f64 * share,
            l2_misses: stats.l2_misses as f64 * share,
            resident_warps: occ.resident_warps as f64,
            occupancy: occ.occupancy,
        }
    }
}

/// Time series of one SM, one value per quantum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmSeries {
    /// SM index.
    pub sm: u32,
    /// Fraction of the quantum this SM executed a kernel, in [0, 1].
    pub active: Vec<f64>,
    /// Resident-warp occupancy while busy (0 when idle).
    pub occupancy: Vec<f64>,
    /// Weighted issue slots retired per clock.
    pub ipc: Vec<f64>,
    /// Modelled warps issuing per cycle (eligible), time-averaged.
    pub eligible_warps: Vec<f64>,
    /// Modelled resident-but-stalled warps, time-averaged.
    pub stalled_warps: Vec<f64>,
}

/// Per-SM and device-wide time series over one pipeline's makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTelemetry {
    /// Quantum length (seconds); `quantum * dram_bandwidth.len()` spans
    /// the makespan.
    pub quantum: f64,
    /// End of the last scheduled span (seconds).
    pub makespan: f64,
    /// SMs sampled.
    pub num_sms: u32,
    /// Per-SM series, indexed by SM.
    pub sm: Vec<SmSeries>,
    /// Device-wide DRAM bandwidth (bytes/s) per quantum.
    pub dram_bandwidth: Vec<f64>,
    /// Cumulative DRAM bytes through the end of each quantum (monotone).
    pub dram_bytes_cumulative: Vec<f64>,
    /// L2 hit fraction per quantum (0 without traffic or cache model).
    pub l2_hit_rate: Vec<f64>,
    /// Copy-engine busy fraction per quantum, over all engines.
    pub copy_engine_utilization: Vec<f64>,
}

impl PipelineTelemetry {
    /// Number of quanta.
    pub fn samples(&self) -> usize {
        self.dram_bandwidth.len()
    }

    /// Start time (seconds) of quantum `q`.
    pub fn quantum_start(&self, q: usize) -> f64 {
        q as f64 * self.quantum
    }

    /// Integral of the bandwidth series: total DRAM bytes. Matches the
    /// aggregate `bytes_transacted` of the sampled launches to
    /// floating-point accuracy.
    pub fn total_dram_bytes(&self) -> f64 {
        self.dram_bandwidth.iter().sum::<f64>() * self.quantum
    }

    /// Busy-time-weighted mean of the per-SM occupancy series. Matches
    /// the aggregate occupancy exactly when all sampled launches share
    /// one occupancy (the common case of a single-kernel pipeline).
    pub fn mean_busy_occupancy(&self) -> f64 {
        let mut weighted = 0.0;
        let mut busy = 0.0;
        for s in &self.sm {
            for (o, a) in s.occupancy.iter().zip(&s.active) {
                weighted += o * a;
                busy += a;
            }
        }
        if busy > 0.0 {
            weighted / busy
        } else {
            0.0
        }
    }
}

/// Samples a pipeline: kernel slices plus copy-engine spans, bucketed
/// into uniform quanta per [`TelemetryConfig`].
pub fn sample_pipeline(
    kernels: &[KernelSlice],
    copies: &[Span],
    cfg: &GpuConfig,
    tc: &TelemetryConfig,
) -> PipelineTelemetry {
    let makespan = kernels
        .iter()
        .map(|k| k.span.end())
        .chain(copies.iter().map(Span::end))
        .fold(0.0f64, f64::max);
    let sms = cfg.num_sms.max(1) as usize;
    let n = if makespan > 0.0 { tc.samples.max(1) } else { 0 };
    let quantum = if n > 0 { makespan / n as f64 } else { 0.0 };

    let mut busy_time = vec![vec![0.0f64; n]; sms];
    let mut occ_time = vec![vec![0.0f64; n]; sms];
    let mut warp_time = vec![vec![0.0f64; n]; sms];
    let mut issue = vec![vec![0.0f64; n]; sms];
    let mut dram_bytes = vec![0.0f64; n];
    let mut l2h = vec![0.0f64; n];
    let mut l2m = vec![0.0f64; n];
    let mut copy_busy = vec![0.0f64; n];

    // Distributes `span` over the quanta it overlaps, calling
    // `f(q, overlap_seconds)` for each.
    let spread = |span: &Span, f: &mut dyn FnMut(usize, f64)| {
        if span.dur <= 0.0 || n == 0 {
            return;
        }
        let first = ((span.start / quantum).floor() as usize).min(n - 1);
        let last = ((span.end() / quantum).ceil() as usize).clamp(first + 1, n);
        for q in first..last {
            let lo = q as f64 * quantum;
            let hi = if q + 1 == n { makespan } else { lo + quantum };
            let ov = span.end().min(hi) - span.start.max(lo);
            if ov > 0.0 {
                f(q, ov);
            }
        }
    };

    for k in kernels {
        spread(&k.span, &mut |q, ov| {
            let frac = ov / k.span.dur;
            dram_bytes[q] += k.dram_bytes * frac;
            l2h[q] += k.l2_hits * frac;
            l2m[q] += k.l2_misses * frac;
            for (i, &w) in k.sm_weights.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                busy_time[i][q] += ov;
                occ_time[i][q] += ov * k.occupancy;
                warp_time[i][q] += ov * k.resident_warps;
                issue[i][q] += k.issue_cycles * w * frac;
            }
        });
    }
    for c in copies {
        spread(c, &mut |q, ov| copy_busy[q] += ov);
    }

    let engines = cfg.copy_engines.max(1) as f64;
    let sm = (0..sms)
        .map(|i| {
            let mut s = SmSeries {
                sm: i as u32,
                active: Vec::with_capacity(n),
                occupancy: Vec::with_capacity(n),
                ipc: Vec::with_capacity(n),
                eligible_warps: Vec::with_capacity(n),
                stalled_warps: Vec::with_capacity(n),
            };
            for q in 0..n {
                let b = busy_time[i][q];
                s.active.push((b / quantum).min(1.0));
                s.occupancy
                    .push(if b > 0.0 { occ_time[i][q] / b } else { 0.0 });
                let ipc = issue[i][q] / (quantum * cfg.clock_hz);
                let resident = warp_time[i][q] / quantum;
                let eligible = ipc.min(resident);
                s.ipc.push(ipc);
                s.eligible_warps.push(eligible);
                s.stalled_warps.push((resident - eligible).max(0.0));
            }
            s
        })
        .collect();

    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &b in &dram_bytes {
        acc += b;
        cumulative.push(acc);
    }
    PipelineTelemetry {
        quantum,
        makespan,
        num_sms: sms as u32,
        sm,
        dram_bandwidth: dram_bytes
            .iter()
            .map(|b| b / quantum.max(f64::MIN_POSITIVE))
            .collect(),
        dram_bytes_cumulative: cumulative,
        l2_hit_rate: (0..n)
            .map(|q| {
                let total = l2h[q] + l2m[q];
                if total > 0.0 {
                    l2h[q] / total
                } else {
                    0.0
                }
            })
            .collect(),
        // Clamped like `active`: a fully saturated quantum can land one
        // ulp above 1.0 after the overlap accumulation.
        copy_engine_utilization: copy_busy
            .iter()
            .map(|b| (b / (quantum * engines)).min(1.0))
            .collect(),
    }
}

/// Samples a single-pipeline schedule whose launches all share one
/// counter aggregate: frame `j`'s kernel span receives the share of
/// `stats` proportional to its kernel duration.
pub fn sample_schedule(
    schedule: &[FrameSpans],
    stats: &KernelStats,
    occ: &Occupancy,
    cfg: &GpuConfig,
    tc: &TelemetryConfig,
) -> PipelineTelemetry {
    let kernel_total: f64 = schedule.iter().map(|f| f.kernel.dur).sum();
    let kernels: Vec<KernelSlice> = schedule
        .iter()
        .map(|f| {
            let share = if kernel_total > 0.0 {
                f.kernel.dur / kernel_total
            } else {
                0.0
            };
            KernelSlice::from_stats(f.kernel, stats, occ, cfg, share)
        })
        .collect();
    let copies: Vec<Span> = schedule.iter().flat_map(|f| [f.h2d, f.d2h]).collect();
    sample_pipeline(&kernels, &copies, cfg, tc)
}

/// Samples a multi-stream schedule; `per_stream` pairs each stream's
/// aggregate counters and occupancy, split over that stream's kernel
/// spans by duration.
pub fn sample_streams(
    schedule: &StreamSchedule,
    per_stream: &[(&KernelStats, &Occupancy)],
    cfg: &GpuConfig,
    tc: &TelemetryConfig,
) -> PipelineTelemetry {
    let mut kernels = Vec::new();
    let mut copies = Vec::new();
    for (frames, (stats, occ)) in schedule.streams.iter().zip(per_stream) {
        let kernel_total: f64 = frames.iter().map(|f| f.kernel.dur).sum();
        for f in frames {
            let share = if kernel_total > 0.0 {
                f.kernel.dur / kernel_total
            } else {
                0.0
            };
            kernels.push(KernelSlice::from_stats(f.kernel, stats, occ, cfg, share));
            copies.push(f.h2d);
            copies.push(f.d2h);
        }
    }
    sample_pipeline(&kernels, &copies, cfg, tc)
}

// ---- Prometheus text exposition ----

/// Per-kernel scalar gauges exported beside a pipeline's time series:
/// the derived profiler metrics plus the occupancy value and its
/// limiter label.
#[derive(Debug, Clone)]
pub struct KernelGauges {
    /// Derived profiler metrics of the kernel's summed counters.
    pub metrics: DerivedMetrics,
    /// Occupancy in [0, 1].
    pub occupancy: f64,
    /// What caps the resident warps, e.g. `Registers`.
    pub limiter: String,
}

impl KernelGauges {
    /// Bundles a kernel's derived metrics and occupancy for exposition.
    pub fn new(metrics: &DerivedMetrics, occ: &Occupancy) -> Self {
        KernelGauges {
            metrics: *metrics,
            occupancy: occ.occupancy,
            limiter: format!("{:?}", occ.limiter),
        }
    }
}

/// Renders one or more labelled pipelines in the Prometheus text
/// exposition format: one family per metric, samples grouped by family,
/// then pipeline, then SM, then quantum (deterministic). The optional
/// [`KernelGauges`] adds the per-kernel derived metrics and occupancy;
/// pipelines without one (e.g. stream aggregates) skip those samples
/// while the families are still declared.
pub fn prometheus(pipelines: &[(String, &PipelineTelemetry, Option<KernelGauges>)]) -> String {
    let mut e = Exposition::new();

    type Scalar = fn(&PipelineTelemetry) -> f64;
    let scalars: [(&str, &str, Scalar); 2] = [
        (
            "mogpu_quantum_seconds",
            "Telemetry sampling quantum of the pipeline (seconds).",
            |t| t.quantum,
        ),
        (
            "mogpu_makespan_seconds",
            "Pipeline makespan covered by the telemetry series (seconds).",
            |t| t.makespan,
        ),
    ];
    for (name, help, value) in scalars {
        e.family(name, Kind::Gauge, help);
        for (label, t, _) in pipelines {
            e.sample(&[("pipeline", label)], value(t));
        }
    }

    type PerSm = fn(&SmSeries) -> &[f64];
    let per_sm: [(&str, &str, PerSm); 4] = [
        (
            "mogpu_sm_occupancy",
            "Resident-warp occupancy of one SM while busy during quantum q (0 when idle).",
            |s| &s.occupancy,
        ),
        (
            "mogpu_sm_ipc",
            "Weighted warp-instruction issue slots retired per clock on one SM during quantum q.",
            |s| &s.ipc,
        ),
        (
            "mogpu_sm_eligible_warps",
            "Modelled warps issuing per cycle on one SM during quantum q (time-averaged).",
            |s| &s.eligible_warps,
        ),
        (
            "mogpu_sm_stalled_warps",
            "Modelled resident-but-stalled warps on one SM during quantum q (time-averaged).",
            |s| &s.stalled_warps,
        ),
    ];
    for (name, help, series) in per_sm {
        e.family(name, Kind::Gauge, help);
        for (label, t, _) in pipelines {
            for s in &t.sm {
                let sm = s.sm.to_string();
                for (q, &v) in series(s).iter().enumerate() {
                    e.sample(
                        &[("pipeline", label), ("sm", &sm), ("q", &q.to_string())],
                        v,
                    );
                }
            }
        }
    }

    type Device = fn(&PipelineTelemetry) -> &[f64];
    let device: [(&str, Kind, &str, Device); 4] = [
        (
            "mogpu_dram_bandwidth_bytes_per_second",
            Kind::Gauge,
            "Device-wide DRAM bandwidth during quantum q.",
            |t| &t.dram_bandwidth,
        ),
        (
            "mogpu_l2_hit_rate",
            Kind::Gauge,
            "L2 hits over L2 accesses during quantum q (0 without traffic or cache model).",
            |t| &t.l2_hit_rate,
        ),
        (
            "mogpu_copy_engine_utilization",
            Kind::Gauge,
            "Copy-engine busy fraction during quantum q, over all copy engines.",
            |t| &t.copy_engine_utilization,
        ),
        (
            "mogpu_dram_bytes_total",
            Kind::Counter,
            "Cumulative DRAM bytes through the end of quantum q (monotone in q).",
            |t| &t.dram_bytes_cumulative,
        ),
    ];
    for (name, kind, help, series) in device {
        e.family(name, kind, help);
        for (label, t, _) in pipelines {
            for (q, &v) in series(t).iter().enumerate() {
                e.sample(&[("pipeline", label), ("q", &q.to_string())], v);
            }
        }
    }

    type Gauge = fn(&DerivedMetrics) -> f64;
    let kernel: [(&str, &str, Gauge); 6] = [
        (
            "mogpu_kernel_branch_efficiency",
            "Non-divergent branch slots over branch slots for the pipeline's kernel.",
            |m| m.branch_efficiency,
        ),
        (
            "mogpu_kernel_gld_efficiency",
            "Requested over transacted global-load bytes for the pipeline's kernel.",
            |m| m.gld_efficiency,
        ),
        (
            "mogpu_kernel_gst_efficiency",
            "Requested over transacted global-store bytes for the pipeline's kernel.",
            |m| m.gst_efficiency,
        ),
        (
            "mogpu_kernel_mem_access_efficiency",
            "Requested over transacted DRAM bytes (all spaces) for the pipeline's kernel.",
            |m| m.mem_access_efficiency,
        ),
        (
            "mogpu_kernel_store_transactions",
            "DRAM store transactions of the pipeline's kernel over the run.",
            |m| m.store_transactions as f64,
        ),
        (
            "mogpu_kernel_total_transactions",
            "DRAM transactions of the pipeline's kernel over the run.",
            |m| m.total_transactions as f64,
        ),
    ];
    for (name, help, value) in kernel {
        e.family(name, Kind::Gauge, help);
        for (label, _, g) in pipelines {
            if let Some(g) = g {
                e.sample(&[("pipeline", label)], value(&g.metrics));
            }
        }
    }
    e.family(
        "mogpu_kernel_occupancy",
        Kind::Gauge,
        "Resident-warp occupancy of the pipeline's kernel; the limiter label names what caps it.",
    );
    for (label, _, g) in pipelines {
        if let Some(g) = g {
            e.sample(&[("pipeline", label), ("limiter", &g.limiter)], g.occupancy);
        }
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::{pipeline_schedule, OverlapMode};

    fn stats(blocks: u64) -> KernelStats {
        KernelStats {
            blocks,
            warps: blocks * 4,
            issue_cycles: 1e6,
            global_load_tx: 10_000,
            global_store_tx: 2_000,
            l2_hits: 500,
            l2_misses: 1_500,
            ..Default::default()
        }
    }

    fn occ() -> Occupancy {
        Occupancy {
            resident_blocks: 8,
            resident_warps: 32,
            resident_threads: 1024,
            occupancy: 32.0 / 48.0,
            limiter: crate::occupancy::Limiter::Blocks,
        }
    }

    #[test]
    fn integral_identities_hold() {
        let cfg = GpuConfig::tesla_c2075();
        let sched = pipeline_schedule(5, 1e-3, 2e-3, 1e-3, OverlapMode::DoubleBuffered, &cfg);
        let s = stats(150);
        let t = sample_schedule(&sched, &s, &occ(), &cfg, &TelemetryConfig::default());
        let total = s.bytes_transacted(&cfg) as f64;
        assert!(
            (t.total_dram_bytes() - total).abs() / total < 1e-9,
            "integral {} vs aggregate {}",
            t.total_dram_bytes(),
            total
        );
        assert!((t.mean_busy_occupancy() - occ().occupancy).abs() < 1e-9);
        // Cumulative counter is monotone and ends at the total.
        for w in t.dram_bytes_cumulative.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let last = *t.dram_bytes_cumulative.last().unwrap();
        assert!((last - total).abs() / total < 1e-9);
    }

    #[test]
    fn uneven_block_count_loads_sms_unevenly() {
        let cfg = GpuConfig::tesla_c2075(); // 14 SMs
        let span = Span {
            start: 0.0,
            dur: 1e-3,
        };
        // 15 blocks over 14 SMs: SM 0 gets 2, the rest 1.
        let k = KernelSlice::from_stats(span, &stats(15), &occ(), &cfg, 1.0);
        assert!((k.sm_weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(k.sm_weights[0] > k.sm_weights[1]);
        let t = sample_pipeline(&[k], &[], &cfg, &TelemetryConfig { samples: 4 });
        // SM 0 shows higher IPC than SM 13 in every busy quantum.
        for q in 0..t.samples() {
            if t.sm[0].active[q] > 0.0 {
                assert!(t.sm[0].ipc[q] > t.sm[13].ipc[q]);
            }
        }
    }

    #[test]
    fn idle_quanta_read_zero() {
        let cfg = GpuConfig::tesla_c2075();
        // One kernel in the first half; second half idle.
        let k = KernelSlice::from_stats(
            Span {
                start: 0.0,
                dur: 1.0,
            },
            &stats(28),
            &occ(),
            &cfg,
            1.0,
        );
        let copies = [Span {
            start: 1.0,
            dur: 1.0,
        }];
        let t = sample_pipeline(&[k], &copies, &cfg, &TelemetryConfig { samples: 4 });
        assert_eq!(t.samples(), 4);
        // Quanta 2-3 cover the copy tail: SMs idle, copy engine busy.
        for q in 2..4 {
            assert_eq!(t.sm[0].occupancy[q], 0.0);
            assert_eq!(t.sm[0].active[q], 0.0);
            assert_eq!(t.dram_bandwidth[q], 0.0);
            assert!(t.copy_engine_utilization[q] > 0.0);
        }
        // Quanta 0-1 are the inverse.
        for q in 0..2 {
            assert!(t.sm[0].active[q] > 0.99);
            assert!((t.sm[0].occupancy[q] - occ().occupancy).abs() < 1e-12);
        }
    }

    #[test]
    fn eligible_plus_stalled_is_residency() {
        let cfg = GpuConfig::tesla_c2075();
        let k = KernelSlice::from_stats(
            Span {
                start: 0.0,
                dur: 1e-3,
            },
            &stats(140),
            &occ(),
            &cfg,
            1.0,
        );
        let t = sample_pipeline(&[k], &[], &cfg, &TelemetryConfig { samples: 8 });
        for s in &t.sm {
            for q in 0..t.samples() {
                let resident = s.eligible_warps[q] + s.stalled_warps[q];
                // Time-averaged residency: active fraction x resident warps.
                let expect = s.active[q] * occ().resident_warps as f64;
                assert!(
                    (resident - expect).abs() < 1e-9,
                    "sm {} q {q}: {resident} vs {expect}",
                    s.sm
                );
            }
        }
    }

    #[test]
    fn empty_pipeline_yields_empty_series() {
        let cfg = GpuConfig::tesla_c2075();
        let t = sample_pipeline(&[], &[], &cfg, &TelemetryConfig::default());
        assert_eq!(t.samples(), 0);
        assert_eq!(t.total_dram_bytes(), 0.0);
        assert_eq!(t.mean_busy_occupancy(), 0.0);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let cfg = GpuConfig::tesla_c2075();
        let k = KernelSlice::from_stats(
            Span {
                start: 0.0,
                dur: 1e-3,
            },
            &stats(14),
            &occ(),
            &cfg,
            1.0,
        );
        let t = sample_pipeline(&[k], &[], &cfg, &TelemetryConfig { samples: 2 });
        let text = prometheus(&[("lev\\el \"W\"\n".to_string(), &t, None)]);
        assert!(text.contains("pipeline=\"lev\\\\el \\\"W\\\"\\n\""));
        // No raw newline inside any sample line (only as terminator).
        for line in text.lines() {
            assert!(!line.is_empty());
        }
    }

    #[test]
    fn prometheus_has_help_and_type_per_metric() {
        let cfg = GpuConfig::tesla_c2075();
        let sched = pipeline_schedule(3, 1e-3, 2e-3, 1e-3, OverlapMode::Sequential, &cfg);
        let t = sample_schedule(
            &sched,
            &stats(150),
            &occ(),
            &cfg,
            &TelemetryConfig::default(),
        );
        let gauges = KernelGauges::new(&DerivedMetrics::from_stats(&stats(150), &cfg), &occ());
        let text = prometheus(&[("level A".to_string(), &t, Some(gauges.clone()))]);
        let families = [
            ("mogpu_quantum_seconds", "gauge"),
            ("mogpu_makespan_seconds", "gauge"),
            ("mogpu_sm_occupancy", "gauge"),
            ("mogpu_sm_ipc", "gauge"),
            ("mogpu_sm_eligible_warps", "gauge"),
            ("mogpu_sm_stalled_warps", "gauge"),
            ("mogpu_dram_bandwidth_bytes_per_second", "gauge"),
            ("mogpu_l2_hit_rate", "gauge"),
            ("mogpu_copy_engine_utilization", "gauge"),
            ("mogpu_dram_bytes_total", "counter"),
            ("mogpu_kernel_branch_efficiency", "gauge"),
            ("mogpu_kernel_gld_efficiency", "gauge"),
            ("mogpu_kernel_gst_efficiency", "gauge"),
            ("mogpu_kernel_mem_access_efficiency", "gauge"),
            ("mogpu_kernel_store_transactions", "gauge"),
            ("mogpu_kernel_total_transactions", "gauge"),
            ("mogpu_kernel_occupancy", "gauge"),
        ];
        for (name, kind) in families {
            assert_eq!(
                text.matches(&format!("# HELP {name} ")).count(),
                1,
                "{name}"
            );
            assert_eq!(
                text.matches(&format!("# TYPE {name} {kind}\n")).count(),
                1,
                "{name}"
            );
        }
        assert_eq!(text.matches("# TYPE ").count(), families.len());
        // Per-kernel gauges carry the limiter label.
        assert!(text.contains("mogpu_kernel_occupancy{pipeline=\"level A\",limiter=\"Blocks\"}"));
        assert!(text.contains("mogpu_kernel_branch_efficiency{pipeline=\"level A\"}"));
        // Deterministic output.
        let again = prometheus(&[("level A".to_string(), &t, Some(gauges))]);
        assert_eq!(text, again);
    }
}
