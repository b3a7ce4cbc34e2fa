//! Fleet-scale serving: shards camera streams across M simulated devices
//! of heterogeneous [`GpuConfig`] classes, with per-device memory budgets
//! and load-aware admission control that *sheds* infeasible streams
//! instead of over-committing a device or erroring out.
//!
//! This is the layer the ROADMAP's "millions of users" north star asks
//! for on top of the single-device [`crate::streams::StreamScheduler`]:
//!
//! * **Device classes and instances.** A [`FleetClass`] is a scheduling
//!   view of one `GpuConfig` preset (its copy-engine count and default
//!   memory pool); a [`FleetDevice`] is one instance of a class with its
//!   own memory budget. A fleet of three classes — Fermi `c2075`,
//!   `embedded`, and the big-HBM `hbm` preset — exercises real `device`
//!   label cardinality in the Prometheus exposition.
//! * **Per-class stream demands.** Because the classes differ in compute
//!   and PCIe speed, one camera stream costs different stage times on
//!   each class. A [`FleetStream`] carries the stream's [`StreamInput`]
//!   *per class* plus its device-memory footprint per class, so the
//!   dispatcher can price a stream on any device it considers.
//! * **Load-aware sharding with admission control.** [`plan_fleet`]
//!   places streams greedily: each stream goes to the device where the
//!   resulting compute load is smallest among devices with enough free
//!   memory and enough engine headroom. A stream no device can hold is
//!   **shed**: every one of its frames becomes a `frame_dropped` event
//!   (the event kind [`crate::serving`] reserved for exactly this
//!   dispatcher) attributed to the device that came closest to admitting
//!   it, with a structured reason (`"load"` or `"memory"`).
//! * **Fleet-level report.** [`fleet_report`] schedules each device's
//!   admitted streams with the existing scheduler, builds one
//!   [`ServingReport`] per device (stream ids remapped to fleet-global
//!   ids), and aggregates: merged latency histograms (exact, because
//!   every histogram shares the fixed bucket scheme), fleet
//!   streams-at-SLO, drop totals, and a merged event log.
//!   [`prometheus_fleet`] renders one exposition with real `device`
//!   cardinality and the new `mogpu_frames_dropped_total` family.
//! * **Which device to buy next.** [`advise_fleet`] replays the
//!   dispatcher counterfactually with one extra device of each class and
//!   reports the gain in whole-run streams-served-at-SLO (and the drop
//!   in shed frames), ranked — answering the ROADMAP's capacity-planning
//!   question from the report alone.

use crate::config::GpuConfig;
use crate::exposition::{Exposition, Kind};
use crate::serving::{
    counter_families, latency_families, serving_report, window_families, DeviceSnapshot, EventKind,
    LatencyHistogram, ServingEvent, ServingReport, ServingWindowConfig, SloConfig,
};
use crate::streams::{
    validate_stream_inputs, ScheduleError, StreamInput, StreamSchedule, StreamScheduler,
};
use serde::{Deserialize, Serialize};

/// Schema version of [`FleetReport`].
pub const FLEET_SCHEMA: u32 = 1;

/// The scheduling view of one device class: everything the dispatcher
/// and the counterfactual advisor need, without carrying the full
/// [`GpuConfig`] through the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetClass {
    /// Short class key (a [`GpuConfig::preset`] name); device labels are
    /// `{key}-{ordinal}`.
    pub key: String,
    /// The preset's marketing name, for report headers.
    pub name: String,
    /// DMA copy engines (drives transfer overlap in the scheduler).
    pub copy_engines: u32,
    /// Default device memory pool of the class in bytes — the budget a
    /// new instance of this class would bring.
    pub device_mem_bytes: usize,
}

impl FleetClass {
    /// The scheduling view of `cfg`, keyed `key`.
    pub fn of(key: &str, cfg: &GpuConfig) -> Self {
        FleetClass {
            key: key.to_string(),
            name: cfg.name.clone(),
            copy_engines: cfg.copy_engines,
            device_mem_bytes: cfg.device_mem_bytes,
        }
    }

    /// A `GpuConfig` sufficient for [`StreamScheduler`] (which reads only
    /// the copy-engine count).
    fn scheduler_cfg(&self) -> GpuConfig {
        GpuConfig {
            copy_engines: self.copy_engines,
            ..GpuConfig::default()
        }
    }
}

/// One device instance of the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDevice {
    /// Fleet-wide device id (index into the spec's device list).
    pub id: usize,
    /// Index into the spec's class list.
    pub class: usize,
    /// The `device` label this instance's metrics carry (`{key}-{n}`).
    pub label: String,
    /// Device memory available to streams, in bytes.
    pub mem_budget: usize,
}

/// The fleet under simulation: its device classes and instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Distinct device classes.
    pub classes: Vec<FleetClass>,
    /// Device instances; `devices[i].id == i`.
    pub devices: Vec<FleetDevice>,
}

impl FleetSpec {
    /// Builds a fleet from preset keys (e.g. `["c2075", "embedded",
    /// "hbm", "hbm"]` — duplicates become additional instances of the
    /// class). Unknown keys list the accepted names in the error.
    pub fn from_preset_keys(keys: &[&str]) -> Result<(FleetSpec, Vec<GpuConfig>), String> {
        let mut classes: Vec<FleetClass> = Vec::new();
        let mut cfgs: Vec<GpuConfig> = Vec::new();
        let mut devices: Vec<FleetDevice> = Vec::new();
        for key in keys {
            let cfg = GpuConfig::preset(key).ok_or_else(|| {
                format!(
                    "unknown device class {key:?}; expected one of {}",
                    GpuConfig::preset_names().join(", ")
                )
            })?;
            let class = match classes.iter().position(|c| c.key == *key) {
                Some(c) => c,
                None => {
                    classes.push(FleetClass::of(key, &cfg));
                    cfgs.push(cfg.clone());
                    classes.len() - 1
                }
            };
            let ordinal = devices.iter().filter(|d| d.class == class).count();
            devices.push(FleetDevice {
                id: devices.len(),
                class,
                label: format!("{key}-{ordinal}"),
                mem_budget: cfg.device_mem_bytes,
            });
        }
        Ok((FleetSpec { classes, devices }, cfgs))
    }

    /// Overrides every device's memory budget (bytes) — used to force
    /// deterministic oversubscription in tests and demos.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        for d in &mut self.devices {
            d.mem_budget = bytes;
        }
        self
    }
}

/// One camera stream's demand, priced per device class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStream {
    /// `per_class[c]` is the stream's stage times and arrival pacing as
    /// it would run on class `c`.
    pub per_class: Vec<StreamInput>,
    /// `mem_per_class[c]` is the stream's device-memory footprint on
    /// class `c`, in bytes.
    pub mem_per_class: Vec<usize>,
}

impl FleetStream {
    /// A stream whose demand is identical on every class (convenient for
    /// synthetic fleets and tests).
    pub fn uniform(input: StreamInput, mem_bytes: usize, n_classes: usize) -> Self {
        FleetStream {
            per_class: vec![input; n_classes],
            mem_per_class: vec![mem_bytes; n_classes],
        }
    }

    /// Compute-engine utilization this stream demands on class `c`: mean
    /// kernel seconds per frame over the arrival period for live streams;
    /// an offline stream (period 0) wants a whole engine (1.0).
    pub fn utilization(&self, c: usize) -> f64 {
        let input = &self.per_class[c];
        let n = input.stages.len();
        if n == 0 {
            return 0.0;
        }
        let mean_kernel = input.stages.iter().map(|st| st.kernel).sum::<f64>() / n as f64;
        if input.arrival_period > 0.0 {
            mean_kernel / input.arrival_period
        } else {
            1.0
        }
    }
}

/// Where one stream landed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamPlacement {
    /// Fleet-global stream id.
    pub stream: usize,
    /// Admitting device id, or `None` when shed.
    pub device: Option<usize>,
    /// Why the stream was shed (`"load"` or `"memory"`); `None` when
    /// admitted.
    pub shed_reason: Option<String>,
}

/// The dispatcher's placement of every stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPlan {
    /// One placement per stream, in stream order.
    pub placements: Vec<StreamPlacement>,
    /// Final compute load (sum of admitted utilizations) per device.
    pub device_load: Vec<f64>,
    /// Final memory use per device, bytes.
    pub device_mem_used: Vec<usize>,
}

/// Shards `streams` across the fleet. Each stream is admitted to the
/// device where the resulting compute load is smallest among devices
/// with enough free memory and enough engine headroom (`load + demand <=
/// headroom`; 1.0 = never plan past engine saturation). A stream no
/// device can hold is shed, attributed to the device that came closest:
/// the least-loaded memory-feasible device, or — when memory was the
/// blocker everywhere — the device with the most free memory.
pub fn plan_fleet(spec: &FleetSpec, streams: &[FleetStream], headroom: f64) -> FleetPlan {
    let n_dev = spec.devices.len();
    let mut load = vec![0.0f64; n_dev];
    let mut mem_used = vec![0usize; n_dev];
    let mut placements = Vec::with_capacity(streams.len());
    for (s, stream) in streams.iter().enumerate() {
        let demand = |d: &FleetDevice| (stream.utilization(d.class), stream.mem_per_class[d.class]);
        let mut best: Option<(f64, usize)> = None; // (resulting load, device)
        for d in &spec.devices {
            let (util, mem) = demand(d);
            if mem_used[d.id] + mem > d.mem_budget {
                continue;
            }
            if load[d.id] + util > headroom + 1e-9 {
                continue;
            }
            let resulting = load[d.id] + util;
            if best.is_none_or(|(b, _)| resulting < b - 1e-12) {
                best = Some((resulting, d.id));
            }
        }
        match best {
            Some((resulting, id)) => {
                let (_, mem) = demand(&spec.devices[id]);
                load[id] = resulting;
                mem_used[id] += mem;
                placements.push(StreamPlacement {
                    stream: s,
                    device: Some(id),
                    shed_reason: None,
                });
            }
            None => {
                // Attribute the shed to the nearest-miss device.
                let mem_feasible: Vec<&FleetDevice> = spec
                    .devices
                    .iter()
                    .filter(|d| mem_used[d.id] + demand(d).1 <= d.mem_budget)
                    .collect();
                let (attributed, reason) = if let Some(d) = mem_feasible
                    .iter()
                    .min_by(|a, b| load[a.id].total_cmp(&load[b.id]))
                {
                    (d.id, "load")
                } else {
                    let d = spec
                        .devices
                        .iter()
                        .max_by_key(|d| d.mem_budget.saturating_sub(mem_used[d.id]))
                        .expect("fleet has at least one device");
                    (d.id, "memory")
                };
                let _ = attributed;
                placements.push(StreamPlacement {
                    stream: s,
                    device: None,
                    shed_reason: Some(reason.to_string()),
                });
            }
        }
    }
    FleetPlan {
        placements,
        device_load: load,
        device_mem_used: mem_used,
    }
}

/// One shed stream, as recorded in the [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShedStream {
    /// Fleet-global stream id.
    pub stream: usize,
    /// Device the drop events are attributed to (the nearest miss).
    pub device: usize,
    /// `"load"` or `"memory"`.
    pub reason: String,
    /// Frames dropped (the stream's whole frame sequence).
    pub frames: usize,
}

/// Per-device slice of the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDeviceReport {
    /// Fleet-wide device id.
    pub id: usize,
    /// Index into [`FleetReport::classes`].
    pub class: usize,
    /// The `device` label this instance's metrics carry.
    pub label: String,
    /// Memory budget in bytes.
    pub mem_budget: usize,
    /// Memory admitted streams occupy, bytes.
    pub mem_used: usize,
    /// Final compute load (sum of admitted utilizations).
    pub load: f64,
    /// Fleet-global ids of admitted streams, in local stream order.
    pub admitted: Vec<usize>,
    /// The device's serving report; stream ids are fleet-global.
    pub serving: ServingReport,
}

/// Knobs of [`fleet_report`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOptions {
    /// The SLO every stream is judged against.
    pub slo: SloConfig,
    /// Snapshot windowing of each device's serving report.
    pub window: ServingWindowConfig,
    /// In-flight buffers per stream on every device.
    pub buffers: usize,
    /// Attribution site label carried by all events.
    pub site: String,
    /// Dispatcher engine headroom (1.0 = plan up to saturation).
    pub headroom: f64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            slo: SloConfig::default(),
            window: ServingWindowConfig::default(),
            buffers: crate::streams::DOUBLE_BUFFER,
            site: "fleet".to_string(),
            headroom: 1.0,
        }
    }
}

/// The fleet-level serving report: per-device [`ServingReport`]s plus
/// the dispatcher's placements, shed records and drop events, and the
/// fleet-merged latency histograms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Report schema version ([`FLEET_SCHEMA`]).
    pub schema: u32,
    /// Attribution site label.
    pub site: String,
    /// The SLO judged against.
    pub slo: SloConfig,
    /// Dispatcher engine headroom used.
    pub headroom: f64,
    /// In-flight buffers per stream.
    pub buffers: usize,
    /// Device classes of the fleet.
    pub classes: Vec<FleetClass>,
    /// Per-device reports, in device-id order.
    pub devices: Vec<FleetDeviceReport>,
    /// Streams no device could admit.
    pub shed: Vec<ShedStream>,
    /// One `frame_dropped` event per frame of every shed stream,
    /// time-ordered, attributed to the nearest-miss device.
    pub drop_events: Vec<ServingEvent>,
    /// The stream demands the dispatcher placed — retained so
    /// [`advise_fleet`] can replay counterfactual fleets from the report
    /// alone.
    pub demands: Vec<FleetStream>,
    /// Largest device makespan, extended to cover the latest drop event.
    pub makespan_s: f64,
    /// All devices' frame-latency histograms merged.
    pub frame_latency: LatencyHistogram,
    /// All devices' end-to-end histograms merged.
    pub e2e_latency: LatencyHistogram,
}

impl FleetReport {
    /// Total frames dropped by admission control (equals
    /// `drop_events.len()`).
    pub fn frames_dropped(&self) -> u64 {
        self.shed.iter().map(|s| s.frames as u64).sum()
    }

    /// Whole-run streams served at SLO, summed across devices.
    pub fn streams_at_slo(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.serving.streams_at_slo())
            .sum()
    }

    /// Admitted stream count.
    pub fn streams_admitted(&self) -> usize {
        self.devices.iter().map(|d| d.admitted.len()).sum()
    }

    /// Total stream count (admitted + shed).
    pub fn streams_total(&self) -> usize {
        self.demands.len()
    }

    /// Every event of the run — each device's serving events plus the
    /// dispatcher's drop events — in one time-ordered log.
    pub fn all_events(&self) -> Vec<ServingEvent> {
        let mut events: Vec<ServingEvent> = self
            .devices
            .iter()
            .flat_map(|d| d.serving.events.iter().cloned())
            .chain(self.drop_events.iter().cloned())
            .collect();
        events.sort_by(|a, b| {
            a.t_s
                .total_cmp(&b.t_s)
                .then(a.stream.cmp(&b.stream))
                .then(a.frame.cmp(&b.frame))
        });
        events
    }
}

/// Plans the fleet, schedules every device, and assembles the
/// [`FleetReport`]. Stream demands are validated at admission
/// ([`StreamScheduler::try_schedule`] semantics): a non-finite or
/// negative stage time or arrival period on *any* class is a
/// [`ScheduleError`] naming the stream, not a panic later.
pub fn fleet_report(
    spec: &FleetSpec,
    streams: &[FleetStream],
    opts: &FleetOptions,
) -> Result<FleetReport, ScheduleError> {
    assert!(!spec.devices.is_empty(), "fleet needs at least one device");
    // Validate every class's view of every stream up front.
    let scheduler = StreamScheduler::new(opts.buffers);
    for c in 0..spec.classes.len() {
        let inputs: Vec<StreamInput> = streams.iter().map(|s| s.per_class[c].clone()).collect();
        validate_stream_inputs(&inputs)?;
    }

    let plan = plan_fleet(spec, streams, opts.headroom);

    let mut devices = Vec::with_capacity(spec.devices.len());
    for dev in &spec.devices {
        let admitted: Vec<usize> = plan
            .placements
            .iter()
            .filter(|p| p.device == Some(dev.id))
            .map(|p| p.stream)
            .collect();
        let inputs: Vec<StreamInput> = admitted
            .iter()
            .map(|&s| streams[s].per_class[dev.class].clone())
            .collect();
        let periods: Vec<f64> = inputs.iter().map(|i| i.arrival_period).collect();
        let class = &spec.classes[dev.class];
        let sched = scheduler.try_schedule(&inputs, &class.scheduler_cfg())?;
        let mut serving = serving_report(
            &sched,
            &periods,
            &dev.label,
            &opts.site,
            &opts.slo,
            &opts.window,
            None,
        );
        remap_stream_ids(&mut serving, &admitted);
        devices.push(FleetDeviceReport {
            id: dev.id,
            class: dev.class,
            label: dev.label.clone(),
            mem_budget: dev.mem_budget,
            mem_used: plan.device_mem_used[dev.id],
            load: plan.device_load[dev.id],
            admitted,
            serving,
        });
    }

    // Shed records and their drop events (frame i of a shed stream is
    // dropped the moment it would have arrived).
    let mut shed = Vec::new();
    let mut drop_events = Vec::new();
    for p in &plan.placements {
        let Some(reason) = &p.shed_reason else {
            continue;
        };
        let attributed = nearest_miss_device(spec, &plan, streams, p.stream);
        let class = spec.devices[attributed].class;
        let input = &streams[p.stream].per_class[class];
        shed.push(ShedStream {
            stream: p.stream,
            device: attributed,
            reason: reason.clone(),
            frames: input.stages.len(),
        });
        for i in 0..input.stages.len() {
            drop_events.push(ServingEvent {
                t_s: i as f64 * input.arrival_period,
                event: EventKind::FrameDropped,
                device: spec.devices[attributed].label.clone(),
                stream: p.stream,
                frame: i,
                site: opts.site.clone(),
                latency_s: None,
                e2e_s: None,
                deadline_s: None,
            });
        }
    }
    drop_events.sort_by(|a, b| {
        a.t_s
            .total_cmp(&b.t_s)
            .then(a.stream.cmp(&b.stream))
            .then(a.frame.cmp(&b.frame))
    });

    let mut frame_latency = LatencyHistogram::new();
    let mut e2e_latency = LatencyHistogram::new();
    let mut makespan = 0.0f64;
    for d in &devices {
        frame_latency.merge(&d.serving.pipeline_frame_latency);
        e2e_latency.merge(&d.serving.pipeline_e2e_latency);
        makespan = makespan.max(d.serving.makespan_s);
    }
    if let Some(last) = drop_events.last() {
        makespan = makespan.max(last.t_s);
    }

    Ok(FleetReport {
        schema: FLEET_SCHEMA,
        site: opts.site.clone(),
        slo: opts.slo,
        headroom: opts.headroom,
        buffers: opts.buffers,
        classes: spec.classes.clone(),
        devices,
        shed,
        drop_events,
        demands: streams.to_vec(),
        makespan_s: makespan,
        frame_latency,
        e2e_latency,
    })
}

/// The device a shed stream's drops are attributed to: least-loaded
/// memory-feasible device, else the device with the most free memory.
fn nearest_miss_device(
    spec: &FleetSpec,
    plan: &FleetPlan,
    streams: &[FleetStream],
    stream: usize,
) -> usize {
    let s = &streams[stream];
    spec.devices
        .iter()
        .filter(|d| plan.device_mem_used[d.id] + s.mem_per_class[d.class] <= d.mem_budget)
        .min_by(|a, b| plan.device_load[a.id].total_cmp(&plan.device_load[b.id]))
        .map(|d| d.id)
        .unwrap_or_else(|| {
            spec.devices
                .iter()
                .max_by_key(|d| d.mem_budget.saturating_sub(plan.device_mem_used[d.id]))
                .expect("fleet has at least one device")
                .id
        })
}

/// Rewrites a device-local serving report to fleet-global stream ids.
fn remap_stream_ids(report: &mut ServingReport, admitted: &[usize]) {
    let map = |local: usize| admitted.get(local).copied().unwrap_or(local);
    for s in &mut report.streams {
        s.stream = map(s.stream);
    }
    for snap in &mut report.snapshots {
        for s in &mut snap.streams {
            s.stream = map(s.stream);
        }
        for w in &mut snap.windows {
            w.stream = map(w.stream);
        }
    }
    for e in &mut report.events {
        e.stream = map(e.stream);
    }
}

// ---- Prometheus exposition with real device cardinality ----

/// Renders the fleet metrics of one replay snapshot in the Prometheus
/// text exposition format: the per-device serving families of
/// [`crate::serving::prometheus_serving`] under **one header per
/// family** (the format forbids repeating HELP/TYPE), plus the fleet
/// families — `mogpu_frames_dropped_total{device,stream}` and the
/// fleet-size gauges. `snapshot` indexes each device's snapshot list
/// (clamped per device); drop counters are cumulative through the fleet
/// replay clock so scrapes stay monotone.
pub fn prometheus_fleet(report: &FleetReport, snapshot: usize) -> String {
    let snaps: Vec<_> = report
        .devices
        .iter()
        .map(|d| {
            let n = d.serving.snapshots.len();
            d.serving.snapshots.get(snapshot.min(n.saturating_sub(1)))
        })
        .collect();
    let max_windows = report
        .devices
        .iter()
        .map(|d| d.serving.snapshots.len())
        .max()
        .unwrap_or(0);
    // The fleet replay clock: the furthest device clock, or the whole
    // makespan once every device has reached its final snapshot (so the
    // last drop event is always counted even when it lands after every
    // device finished).
    let clock = if max_windows == 0 || snapshot.saturating_add(1) >= max_windows {
        report.makespan_s
    } else {
        snaps.iter().flatten().map(|s| s.t_s).fold(0.0f64, f64::max)
    };
    // Devices with a snapshot to serve, as `(device label, snapshot)`.
    let devices: Vec<DeviceSnapshot> = report
        .devices
        .iter()
        .zip(&snaps)
        .filter_map(|(d, snap)| Some((d.label.as_str(), (*snap)?)))
        .collect();

    let mut e = Exposition::new();
    latency_families(
        &mut e,
        &devices,
        [
            "End-to-end latency across all streams of each device (merged histogram).",
            "Per-device end-to-end latency quantiles from the merged buckets (absent until a frame completes).",
        ],
    );
    let mut fleet_merged = LatencyHistogram::new();
    for (_, snap) in &devices {
        for s in &snap.streams {
            fleet_merged.merge(&s.e2e_latency);
        }
    }
    e.family(
        "mogpu_fleet_e2e_latency_seconds",
        Kind::Histogram,
        "End-to-end latency across the whole fleet (all devices merged).",
    )
    .histogram(&[], &fleet_merged);
    e.family(
        "mogpu_fleet_e2e_latency_quantile_seconds",
        Kind::Gauge,
        "Fleet-wide end-to-end latency quantiles from the merged buckets (absent until a frame completes).",
    )
    .quantiles(&[], &fleet_merged);

    counter_families(
        &mut e,
        &devices,
        "Frames completed (downloaded) per device and stream, cumulative.",
    );
    e.family(
        "mogpu_frames_dropped_total",
        Kind::Counter,
        "Frames shed by the fleet admission controller, per attributed device and stream.",
    );
    // Cumulative through the replay clock, grouped (device, stream) in
    // order of first drop.
    let mut dropped: Vec<((&str, usize), u64)> = Vec::new();
    for ev in report
        .drop_events
        .iter()
        .filter(|ev| ev.t_s <= clock + 1e-12)
    {
        let key = (ev.device.as_str(), ev.stream);
        match dropped.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => dropped.push((key, 1)),
        }
    }
    for ((device, stream), n) in dropped {
        e.sample(
            &[("device", device), ("stream", &stream.to_string())],
            n as f64,
        );
    }

    window_families(
        &mut e,
        &devices,
        [
            "Windowed error-budget burn rate per device and stream (>1 = out of SLO).",
            "Streams served at SLO in the current window, per device.",
            "Streams admitted to each device.",
        ],
    );
    type Planned = fn(&FleetDeviceReport) -> f64;
    let planned: [(&str, &str, Planned); 3] = [
        (
            "mogpu_device_mem_used_bytes",
            "Device memory occupied by admitted streams.",
            |d| d.mem_used as f64,
        ),
        (
            "mogpu_device_mem_budget_bytes",
            "Device memory budget available to streams.",
            |d| d.mem_budget as f64,
        ),
        (
            "mogpu_device_load",
            "Planned compute load per device (sum of admitted utilizations).",
            |d| d.load,
        ),
    ];
    for (name, help, value) in planned {
        e.family(name, Kind::Gauge, help);
        for d in &report.devices {
            e.sample(&[("device", &d.label)], value(d));
        }
    }

    let at_slo: u64 = devices.iter().map(|(_, s)| s.streams_at_slo).sum();
    for (name, help, value) in [
        (
            "mogpu_fleet_devices",
            "Devices in the fleet.",
            report.devices.len() as f64,
        ),
        (
            "mogpu_fleet_streams_total",
            "Streams offered to the fleet (admitted + shed).",
            report.streams_total() as f64,
        ),
        (
            "mogpu_fleet_streams_admitted",
            "Streams admitted across all devices.",
            report.streams_admitted() as f64,
        ),
        (
            "mogpu_fleet_streams_shed",
            "Streams shed by admission control.",
            report.shed.len() as f64,
        ),
        (
            "mogpu_fleet_streams_at_slo",
            "Streams served at SLO in the current window, fleet-wide.",
            at_slo as f64,
        ),
        (
            "mogpu_serving_clock_seconds",
            "Schedule-clock time of the served snapshot (fleet replay clock).",
            clock,
        ),
    ] {
        e.family(name, Kind::Gauge, help).sample(&[], value);
    }
    e.finish()
}

// ---- the "which device to buy" advisor ----

/// One counterfactual: what adding one device of `class` buys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAdvisory {
    /// Class key of the hypothetical new device.
    pub class: String,
    /// Whole-run streams-at-SLO with the device added.
    pub streams_at_slo_after: u64,
    /// Gain over the current fleet (can be 0).
    pub streams_at_slo_gain: i64,
    /// Frames dropped with the device added.
    pub frames_dropped_after: u64,
    /// Drop reduction over the current fleet (positive = fewer drops).
    pub frames_dropped_cut: i64,
    /// Human-readable finding.
    pub finding: String,
}

/// Replays the dispatcher with one extra device of each class and ranks
/// the classes by the whole-run streams-at-SLO they would add (ties:
/// larger drop reduction, then class order). The first advisory is the
/// device to buy next. Works from the report alone — the demands are
/// retained in it for exactly this purpose.
pub fn advise_fleet(report: &FleetReport) -> Vec<FleetAdvisory> {
    let spec = FleetSpec {
        classes: report.classes.clone(),
        devices: report
            .devices
            .iter()
            .map(|d| FleetDevice {
                id: d.id,
                class: d.class,
                label: d.label.clone(),
                mem_budget: d.mem_budget,
            })
            .collect(),
    };
    let base = fleet_summary(&spec, &report.demands, report);
    let mut advisories: Vec<FleetAdvisory> = report
        .classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let mut grown = spec.clone();
            let ordinal = grown.devices.iter().filter(|d| d.class == c).count();
            grown.devices.push(FleetDevice {
                id: grown.devices.len(),
                class: c,
                label: format!("{}-{}", class.key, ordinal),
                mem_budget: class.device_mem_bytes,
            });
            let with = fleet_summary(&grown, &report.demands, report);
            let gain = with.0 as i64 - base.0 as i64;
            let cut = base.1 as i64 - with.1 as i64;
            FleetAdvisory {
                class: class.key.clone(),
                streams_at_slo_after: with.0,
                streams_at_slo_gain: gain,
                frames_dropped_after: with.1,
                frames_dropped_cut: cut,
                finding: format!(
                    "adding one {} ({}) device moves fleet streams-at-SLO {} -> {} and dropped frames {} -> {}",
                    class.key, class.name, base.0, with.0, base.1, with.1
                ),
            }
        })
        .collect();
    advisories.sort_by(|a, b| {
        b.streams_at_slo_gain
            .cmp(&a.streams_at_slo_gain)
            .then(b.frames_dropped_cut.cmp(&a.frames_dropped_cut))
            .then(a.class.cmp(&b.class))
    });
    advisories
}

/// (whole-run streams-at-SLO, frames dropped) of a hypothetical fleet,
/// computed without building full serving reports.
fn fleet_summary(spec: &FleetSpec, streams: &[FleetStream], report: &FleetReport) -> (u64, u64) {
    let plan = plan_fleet(spec, streams, report.headroom);
    let scheduler = StreamScheduler::new(report.buffers);
    let mut at_slo = 0u64;
    let mut dropped = 0u64;
    for dev in &spec.devices {
        let admitted: Vec<&FleetStream> = plan
            .placements
            .iter()
            .filter(|p| p.device == Some(dev.id))
            .map(|p| &streams[p.stream])
            .collect();
        if admitted.is_empty() {
            continue;
        }
        let inputs: Vec<StreamInput> = admitted
            .iter()
            .map(|s| s.per_class[dev.class].clone())
            .collect();
        let class = &spec.classes[dev.class];
        let Ok(sched) = scheduler.try_schedule(&inputs, &class.scheduler_cfg()) else {
            continue;
        };
        at_slo += count_streams_at_slo(&sched, &inputs, &report.slo);
    }
    for p in &plan.placements {
        if p.shed_reason.is_some() {
            // Frame count is class-independent in well-formed demands;
            // use class 0's view.
            dropped += streams[p.stream].per_class[0].stages.len() as u64;
        }
    }
    (at_slo, dropped)
}

/// Streams whose whole-run end-to-end violation fraction stays within
/// the error budget.
fn count_streams_at_slo(sched: &StreamSchedule, inputs: &[StreamInput], slo: &SloConfig) -> u64 {
    sched
        .streams
        .iter()
        .zip(inputs)
        .filter(|(frames, input)| {
            if frames.is_empty() {
                return true;
            }
            let violations = frames
                .iter()
                .enumerate()
                .filter(|(i, f)| {
                    let e2e = if input.arrival_period > 0.0 {
                        f.d2h.end() - *i as f64 * input.arrival_period
                    } else {
                        f.d2h.end() - f.h2d.start
                    };
                    e2e > slo.deadline_s
                })
                .count();
            violations as f64 / frames.len() as f64 <= slo.error_budget
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::StageTimes;

    fn three_class_spec() -> (FleetSpec, Vec<GpuConfig>) {
        FleetSpec::from_preset_keys(&["c2075", "embedded", "hbm"]).unwrap()
    }

    fn live(kernel: f64, period: f64, frames: usize, mem: usize, n_classes: usize) -> FleetStream {
        FleetStream::uniform(
            StreamInput::live(
                vec![StageTimes::uniform(1e-4, kernel, 1e-4); frames],
                period,
            ),
            mem,
            n_classes,
        )
    }

    #[test]
    fn spec_from_keys_builds_instances_and_rejects_unknown() {
        let (spec, cfgs) = FleetSpec::from_preset_keys(&["c2075", "hbm", "hbm"]).unwrap();
        assert_eq!(spec.classes.len(), 2);
        assert_eq!(spec.devices.len(), 3);
        assert_eq!(spec.devices[1].label, "hbm-0");
        assert_eq!(spec.devices[2].label, "hbm-1");
        assert_eq!(cfgs.len(), 2);
        let err = FleetSpec::from_preset_keys(&["warp9"]).unwrap_err();
        assert!(err.contains("warp9") && err.contains("c2075"), "{err}");
    }

    #[test]
    fn dispatcher_balances_load_across_devices() {
        let (spec, _) = three_class_spec();
        // Six light streams: all admitted, spread so no device exceeds
        // the headroom and loads stay balanced.
        let streams: Vec<FleetStream> = (0..6)
            .map(|_| live(5e-3, 1.0 / 30.0, 10, 1 << 20, 3))
            .collect();
        let plan = plan_fleet(&spec, &streams, 1.0);
        assert!(plan.placements.iter().all(|p| p.device.is_some()));
        for load in &plan.device_load {
            assert!(*load <= 1.0 + 1e-9);
        }
        let used: usize = plan.placements.iter().filter_map(|p| p.device).count();
        assert_eq!(used, 6);
        // More than one device gets work.
        let distinct: std::collections::BTreeSet<usize> =
            plan.placements.iter().filter_map(|p| p.device).collect();
        assert!(distinct.len() >= 2, "load-aware sharding uses the fleet");
    }

    #[test]
    fn oversubscription_sheds_instead_of_overcommitting() {
        let (spec, _) = three_class_spec();
        // Each stream demands 60% of an engine: two fit per device at
        // headroom 1.0 is false (0.6+0.6 > 1), so 3 devices hold 3
        // streams and the rest shed.
        let streams: Vec<FleetStream> = (0..5)
            .map(|_| live(0.02, 1.0 / 30.0, 8, 1 << 20, 3))
            .collect();
        let plan = plan_fleet(&spec, &streams, 1.0);
        let admitted = plan
            .placements
            .iter()
            .filter(|p| p.device.is_some())
            .count();
        let shed = plan
            .placements
            .iter()
            .filter(|p| p.shed_reason.as_deref() == Some("load"))
            .count();
        assert_eq!(admitted, 3);
        assert_eq!(shed, 2);
    }

    #[test]
    fn memory_budget_gates_admission() {
        let (spec, _) = three_class_spec();
        let spec = spec.with_budget(10 << 20); // 10 MiB per device
        let streams: Vec<FleetStream> = (0..4)
            .map(|_| live(1e-3, 1.0 / 30.0, 4, 8 << 20, 3))
            .collect();
        let plan = plan_fleet(&spec, &streams, 1.0);
        let shed: Vec<&StreamPlacement> = plan
            .placements
            .iter()
            .filter(|p| p.shed_reason.is_some())
            .collect();
        assert_eq!(shed.len(), 1, "3 devices x 1 stream each, 1 shed");
        assert_eq!(shed[0].shed_reason.as_deref(), Some("memory"));
    }

    #[test]
    fn fleet_report_emits_attributed_drop_events_with_consistent_counts() {
        let (spec, _) = three_class_spec();
        let streams: Vec<FleetStream> = (0..5)
            .map(|_| live(0.02, 1.0 / 30.0, 8, 1 << 20, 3))
            .collect();
        let report = fleet_report(&spec, &streams, &FleetOptions::default()).unwrap();
        assert_eq!(report.shed.len(), 2);
        assert_eq!(report.frames_dropped(), 16);
        assert_eq!(report.drop_events.len(), 16);
        for e in &report.drop_events {
            assert_eq!(e.event, EventKind::FrameDropped);
            assert!(
                report.devices.iter().any(|d| d.label == e.device),
                "attributed to a real device: {}",
                e.device
            );
            assert_eq!(e.site, "fleet");
        }
        // The merged event log contains them, time-ordered.
        let all = report.all_events();
        let drops = all
            .iter()
            .filter(|e| e.event == EventKind::FrameDropped)
            .count();
        assert_eq!(drops as u64, report.frames_dropped());
        for w in all.windows(2) {
            assert!(w[0].t_s <= w[1].t_s);
        }
        // Prometheus final snapshot agrees.
        let text = prometheus_fleet(&report, usize::MAX);
        let total: f64 = text
            .lines()
            .filter(|l| l.starts_with("mogpu_frames_dropped_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert_eq!(total, 16.0);
    }

    #[test]
    fn fleet_merged_histogram_equals_pooled_samples() {
        let (spec, _) = three_class_spec();
        let streams: Vec<FleetStream> = (0..4)
            .map(|_| live(3e-3, 1.0 / 25.0, 10, 1 << 20, 3))
            .collect();
        let report = fleet_report(&spec, &streams, &FleetOptions::default()).unwrap();
        let mut pooled = LatencyHistogram::new();
        for d in &report.devices {
            for s in &d.serving.streams {
                pooled.merge(&s.e2e_latency);
            }
        }
        assert_eq!(report.e2e_latency, pooled);
        assert_eq!(
            report.e2e_latency.count,
            report
                .devices
                .iter()
                .map(|d| d
                    .serving
                    .streams
                    .iter()
                    .map(|s| s.frames_completed)
                    .sum::<u64>())
                .sum::<u64>()
        );
    }

    /// Satellite: a fleet that sheds *every* stream serves no frames, so
    /// every latency histogram is empty and every quantile-derived gauge
    /// must be skipped — the exposition must contain no `NaN` sentinel
    /// and every sample line must parse.
    #[test]
    fn all_shed_fleet_exposition_parses_without_nan_quantiles() {
        let (spec, _) = three_class_spec();
        let spec = spec.with_budget(1 << 20); // 1 MiB: below every demand
        let streams: Vec<FleetStream> = (0..4)
            .map(|_| live(1e-3, 1.0 / 30.0, 4, 8 << 20, 3))
            .collect();
        let report = fleet_report(&spec, &streams, &FleetOptions::default()).unwrap();
        assert_eq!(report.shed.len(), 4, "every stream sheds");
        assert_eq!(report.e2e_latency.count, 0);
        let text = prometheus_fleet(&report, usize::MAX);
        assert!(
            !text.contains("NaN"),
            "empty histograms must skip quantiles"
        );
        assert!(
            text.contains("# TYPE mogpu_fleet_e2e_latency_quantile_seconds gauge"),
            "family header survives the skip"
        );
        assert!(!text
            .lines()
            .any(|l| !l.starts_with('#') && l.contains("_quantile_seconds")));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unscrapeable sample line: {line}"
            );
        }
    }

    #[test]
    fn fleet_exposition_has_device_cardinality_and_one_header_per_family() {
        let (spec, _) = three_class_spec();
        let streams: Vec<FleetStream> = (0..6)
            .map(|_| live(5e-3, 1.0 / 30.0, 6, 1 << 20, 3))
            .collect();
        let report = fleet_report(&spec, &streams, &FleetOptions::default()).unwrap();
        let text = prometheus_fleet(&report, usize::MAX);
        let devices: std::collections::BTreeSet<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split("device=\"").nth(1))
            .filter_map(|rest| rest.split('"').next())
            .collect();
        assert!(
            devices.len() >= 2,
            "need device cardinality, got {devices:?}"
        );
        // One header per family.
        let mut seen = std::collections::BTreeMap::new();
        for l in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            *seen.entry(l.to_string()).or_insert(0u32) += 1;
        }
        for (l, n) in seen {
            assert_eq!(n, 1, "repeated header: {l}");
        }
        assert!(text.contains("# TYPE mogpu_frames_dropped_total counter"));
        assert!(text.contains("mogpu_fleet_devices 3"));
    }

    #[test]
    fn stream_ids_in_device_reports_are_fleet_global() {
        let (spec, _) = three_class_spec();
        let streams: Vec<FleetStream> = (0..5)
            .map(|_| live(5e-3, 1.0 / 30.0, 4, 1 << 20, 3))
            .collect();
        let report = fleet_report(&spec, &streams, &FleetOptions::default()).unwrap();
        let mut seen: Vec<usize> = Vec::new();
        for d in &report.devices {
            for s in &d.serving.streams {
                assert!(d.admitted.contains(&s.stream));
                seen.push(s.stream);
            }
            for e in &d.serving.events {
                assert!(d.admitted.contains(&e.stream));
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), report.streams_admitted());
    }

    #[test]
    fn advisor_names_the_class_that_recovers_shed_streams() {
        // One small embedded device, overloaded by streams that an HBM
        // device could absorb: the advisor must put a capacity class
        // first with a positive streams-at-SLO gain.
        let (spec, _) = FleetSpec::from_preset_keys(&["embedded"]).unwrap();
        let mut spec = spec;
        // Make the hypothetical alternatives visible to the advisor.
        let (all, _) = FleetSpec::from_preset_keys(&["embedded", "hbm"]).unwrap();
        spec.classes = all.classes.clone();
        let streams: Vec<FleetStream> = (0..4)
            .map(|_| {
                FleetStream {
                    // Heavy on embedded (60% util), light on hbm (6%).
                    per_class: vec![
                        StreamInput::live(
                            vec![StageTimes::uniform(1e-4, 0.02, 1e-4); 8],
                            1.0 / 30.0,
                        ),
                        StreamInput::live(
                            vec![StageTimes::uniform(1e-4, 0.002, 1e-4); 8],
                            1.0 / 30.0,
                        ),
                    ],
                    mem_per_class: vec![1 << 20, 1 << 20],
                }
            })
            .collect();
        let report = fleet_report(&spec, &streams, &FleetOptions::default()).unwrap();
        assert!(!report.shed.is_empty(), "setup must oversubscribe");
        let advisories = advise_fleet(&report);
        assert_eq!(advisories.len(), 2);
        let best = &advisories[0];
        assert_eq!(best.class, "hbm", "capacity class wins: {advisories:?}");
        assert!(best.streams_at_slo_gain > 0);
        assert!(best.frames_dropped_cut > 0);
        assert!(best.finding.contains("hbm"));
    }

    #[test]
    fn fleet_report_rejects_poisoned_demands_with_structured_error() {
        let (spec, _) = three_class_spec();
        let mut s = live(5e-3, 1.0 / 30.0, 4, 1 << 20, 3);
        s.per_class[1].stages[2].kernel = f64::NAN;
        let err = fleet_report(&spec, &[s], &FleetOptions::default()).unwrap_err();
        assert_eq!(err.field, "kernel");
        assert_eq!(err.frame, Some(2));
    }
}
