//! Integration tests of the differential-profiling engine (`sim::diff`):
//! exactness invariants on real profile reports, attribution quality on
//! the paper's A-vs-F gap, and the bench-gate drift attribution path.

use mogpu::bench::baseline::{
    attach_reports, attribute_failures, check, measure, write_baseline, BenchConfig, Tolerances,
};
use mogpu::bench::harness::{default_params, profile_level, standard_frames};
use mogpu::core::OptLevel;
use mogpu::json::Value;
use mogpu::sim::{diff_values, GpuConfig};
use proptest::prelude::*;

fn cfg() -> GpuConfig {
    GpuConfig::tesla_c2075()
}

/// Profiles one optimization level on the standard workload and returns
/// the serialized report — exactly what `mogpu profile --report-out`
/// writes.
fn report_value(level: OptLevel, frames: usize) -> Value {
    let frames = standard_frames(frames);
    let report = profile_level::<f64>(level, default_params(3), &frames);
    mogpu::json::to_value(&report).expect("report serializes")
}

#[test]
fn self_diff_is_all_zeros_and_byte_stable() {
    let a = report_value(OptLevel::F, 4);
    let d1 = diff_values(&a, &a, "run1", "run2", &cfg()).unwrap();
    assert_eq!(d1.kind, "profile");
    assert_eq!(d1.kernels.len(), 1);
    let k = &d1.kernels[0];
    assert_eq!(k.time_delta_s, 0.0);
    assert_eq!(k.stall_delta_sum_s, 0.0);
    assert_eq!(k.attributed_fraction, 1.0);
    for s in &k.stalls {
        assert_eq!(
            s.delta_s, 0.0,
            "stall bucket {} moved on a self-diff",
            s.reason
        );
    }
    for c in &k.counters {
        assert_eq!(c.delta, 0.0, "counter {} moved on a self-diff", c.counter);
        assert_eq!(c.contribution_s, 0.0);
    }

    // Canonical serialization is byte-stable across runs of the engine.
    let d2 = diff_values(&a, &a, "run1", "run2", &cfg()).unwrap();
    let t1 = mogpu::json::to_string_canonical_pretty(&d1).unwrap();
    let t2 = mogpu::json::to_string_canonical_pretty(&d2).unwrap();
    assert_eq!(t1, t2);
}

#[test]
fn diffs_compose_along_the_ladder() {
    // delta(A->C) + delta(C->F) must reproduce delta(A->F), bucket by
    // bucket: each delta is an independent subtraction of the same
    // per-side values, so composition holds to rounding error.
    let a = report_value(OptLevel::A, 4);
    let c = report_value(OptLevel::C, 4);
    let f = report_value(OptLevel::F, 4);
    let ac = &diff_values(&a, &c, "A", "C", &cfg()).unwrap().kernels[0];
    let cf = &diff_values(&c, &f, "C", "F", &cfg()).unwrap().kernels[0];
    let af = &diff_values(&a, &f, "A", "F", &cfg()).unwrap().kernels[0];

    let scale = af.time_a_s.abs().max(af.time_b_s.abs());
    assert!(
        ((ac.time_delta_s + cf.time_delta_s) - af.time_delta_s).abs() <= 1e-12 * scale,
        "kernel deltas do not compose: {} + {} != {}",
        ac.time_delta_s,
        cf.time_delta_s,
        af.time_delta_s
    );
    for ((x, y), z) in ac.stalls.iter().zip(&cf.stalls).zip(&af.stalls) {
        assert_eq!(x.reason, z.reason);
        assert!(
            ((x.delta_s + y.delta_s) - z.delta_s).abs() <= 1e-12 * scale,
            "bucket {} does not compose",
            z.reason
        );
    }
}

#[test]
fn a_vs_f_attributes_the_gap_to_named_stalls_with_file_line_evidence() {
    // The acceptance bar of the issue: diffing the unoptimized level A
    // against the fully optimized level F must attribute at least 90% of
    // the kernel-time delta to named stall buckets backed by file:line
    // site evidence, and the top counterfactually-priced counter must be
    // a global-memory coalescing counter (the paper's chief effect).
    let a = report_value(OptLevel::A, 8);
    let f = report_value(OptLevel::F, 8);
    let d = diff_values(&a, &f, "A", "F", &cfg()).unwrap();
    let k = &d.kernels[0];

    assert!(k.time_delta_s < 0.0, "F must be faster than A");
    // Conservation: stall buckets partition the kernel time on each side.
    let scale = k.time_a_s.max(k.time_b_s);
    assert!(
        (k.stall_delta_sum_s - k.time_delta_s).abs() <= 1e-9 * scale,
        "stall deltas ({}) do not sum to the kernel delta ({})",
        k.stall_delta_sum_s,
        k.time_delta_s
    );
    assert!(
        k.attributed_fraction >= 0.9,
        "only {:.1}% of the delta landed on resolved file:line sites",
        100.0 * k.attributed_fraction
    );
    let top_site = &k.sites[0];
    assert!(
        top_site.source.contains(".rs:"),
        "top site carries no file:line: {:?}",
        top_site.source
    );
    let top_counter = &k.counters[0];
    assert!(
        top_counter.counter.starts_with("global_"),
        "top priced counter is {:?}, expected a global-memory coalescing counter",
        top_counter.counter
    );
}

#[test]
fn mismatched_document_families_are_rejected() {
    let prof = report_value(OptLevel::F, 2);
    let bench = mogpu::json::to_value(&measure(
        &BenchConfig {
            frames: 2,
            k: 3,
            streams: 2,
        },
        Tolerances::default(),
    ))
    .unwrap();
    let err = diff_values(&prof, &bench, "a", "b", &cfg()).unwrap_err();
    assert!(err.contains("cannot diff"), "unexpected error: {err}");
}

#[test]
fn a_malformed_dataflow_graph_is_named_by_its_label_and_fault() {
    let graph = |edges: &str| -> Value {
        mogpu::json::from_str(&format!(r#"{{"nodes": [], "edges": {edges}}}"#)).unwrap()
    };
    let (good, bad) = (graph("[]"), graph("{}"));
    assert!(diff_values(&good, &good, "a.json", "b.json", &cfg()).is_ok());
    let err = diff_values(&good, &bad, "a.json", "b.json", &cfg()).unwrap_err();
    assert_eq!(err, "b.json: `edges` is not an array");
    let err = diff_values(&bad, &good, "a.json", "b.json", &cfg()).unwrap_err();
    assert_eq!(err, "a.json: `edges` is not an array");
}

#[test]
fn bench_gate_failure_names_the_moved_counter() {
    let dir = std::env::temp_dir().join("mogpu_diff_bench_attr");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.json");
    let config = BenchConfig {
        frames: 2,
        k: 3,
        streams: 2,
    };
    let mut baseline = measure(&config, Tolerances::default());
    attach_reports(&mut baseline, &path).unwrap();
    write_baseline(&baseline, &path).unwrap();
    assert_eq!(baseline.reports.len(), baseline.levels.len());

    // Seed a regression: the recorded fps says the code used to be 10%
    // faster, and the stored level-F report says stores used to coalesce
    // into fewer transactions. The gate must fail and the attribution
    // must name the moved counter.
    baseline.levels.get_mut("F").unwrap().fps *= 1.1;
    let stored = dir.join("reports").join("F.json");
    let mut doc: Value = mogpu::json::from_str(&std::fs::read_to_string(&stored).unwrap()).unwrap();
    {
        let Value::Object(entries) = &mut doc else {
            panic!("stored report is not an object")
        };
        let Value::Object(stats) = &mut entries
            .iter_mut()
            .find(|(k, _)| k == "stats")
            .expect("stored report has stats")
            .1
        else {
            panic!("stats is not an object")
        };
        let tx = &mut stats
            .iter_mut()
            .find(|(k, _)| k == "global_store_tx")
            .expect("stats has global_store_tx")
            .1;
        let old = tx.as_u64().unwrap();
        *tx = Value::U64(old / 2);
    }
    std::fs::write(
        &stored,
        mogpu::json::to_string_canonical_pretty(&doc).unwrap(),
    )
    .unwrap();

    let current = measure(&config, baseline.tolerances);
    let report = check(&baseline, &current);
    assert!(!report.pass, "seeded regression passed the gate");
    let diff = attribute_failures(&baseline, &report, &path)
        .unwrap()
        .expect("failing gate produces a diff");
    let k = diff
        .kernels
        .iter()
        .find(|k| k.a_level == "F")
        .expect("level F is attributed");
    assert_eq!(
        k.counters[0].counter, "global_store_tx",
        "top counter: {:?}",
        k.counters
    );
    assert!(k.counters[0].contribution_s > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a minimal profile document from raw counters; `timing` and
/// `stalls` are absent, so the engine recomputes both through
/// `kernel_time`/`kernel_stalls` — the same path the conservation
/// invariant must survive for arbitrary inputs.
fn raw_side(issue: f64, load_tx: u64, store_tx: u64, spill_tx: u64, warps: u64) -> Value {
    use mogpu::sim::{occupancy, KernelResources, KernelStats, LaunchConfig};
    let stats = KernelStats {
        issue_cycles: issue,
        warps,
        lanes: warps * 32,
        blocks: warps.div_ceil(8).max(1),
        global_load_tx: load_tx,
        global_store_tx: store_tx,
        local_load_tx: spill_tx,
        local_store_tx: spill_tx,
        global_load_bytes_requested: load_tx * 128,
        global_store_bytes_requested: store_tx * 128,
        ..Default::default()
    };
    let occ = occupancy(
        &cfg(),
        &LaunchConfig {
            blocks: stats.blocks as u32,
            threads_per_block: 256,
        },
        &KernelResources {
            regs_per_thread: 32,
            shared_bytes_per_block: 0,
            local_f64_slots: 0,
        },
    )
    .expect("valid launch");
    Value::Object(vec![
        ("stats".into(), mogpu::json::to_value(&stats).unwrap()),
        ("occupancy".into(), mogpu::json::to_value(&occ).unwrap()),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stall-bucket deltas always sum to the kernel-time delta, whatever
    /// the two sides' counters are.
    #[test]
    fn stall_deltas_always_conserve_the_kernel_delta(
        issue_a in 1.0e3f64..1.0e7,
        issue_b in 1.0e3f64..1.0e7,
        load_a in 1u64..1_000_000,
        load_b in 1u64..1_000_000,
        store_a in 0u64..1_000_000,
        store_b in 0u64..1_000_000,
        spill_a in 0u64..100_000,
        spill_b in 0u64..100_000,
        warps_a in 100u64..1_000_000,
        warps_b in 100u64..1_000_000,
    ) {
        let a = raw_side(issue_a, load_a, store_a, spill_a, warps_a);
        let b = raw_side(issue_b, load_b, store_b, spill_b, warps_b);
        let d = diff_values(&a, &b, "a", "b", &cfg()).unwrap();
        let k = &d.kernels[0];
        let scale = k.time_a_s.abs().max(k.time_b_s.abs()).max(1e-30);
        prop_assert!(
            (k.stall_delta_sum_s - k.time_delta_s).abs() <= 1e-9 * scale,
            "sum {} vs delta {}", k.stall_delta_sum_s, k.time_delta_s
        );
        // And per side: the buckets partition each side's kernel time.
        let sum_a: f64 = k.stalls.iter().map(|s| s.a_s).sum();
        let sum_b: f64 = k.stalls.iter().map(|s| s.b_s).sum();
        prop_assert!((sum_a - k.time_a_s).abs() <= 1e-9 * scale);
        prop_assert!((sum_b - k.time_b_s).abs() <= 1e-9 * scale);
    }
}
