//! End-to-end tests of the `mogpu` binary: help coverage, error paths,
//! the Prometheus metrics output, and the bench regression gate.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mogpu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mogpu"))
        .args(args)
        .output()
        .expect("spawn mogpu")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mogpu_cli_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_args_prints_help_listing_every_subcommand() {
    let out = mogpu(&[]);
    assert!(out.status.success(), "no-arg invocation must exit 0");
    let help = stdout(&out);
    for cmd in [
        "info", "demo", "ladder", "run", "profile", "advise", "diff", "dataflow", "streams",
        "fleet", "serve", "check", "metrics", "bench", "help",
    ] {
        assert!(
            help.contains(&format!("\n    {cmd} ")),
            "help does not list subcommand {cmd:?}:\n{help}"
        );
    }
    assert_eq!(stdout(&mogpu(&["help"])), help);
}

#[test]
fn unknown_command_fails_with_a_pointer_to_help() {
    let out = mogpu(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown command"), "stderr: {err}");
    assert!(err.contains("mogpu help"), "stderr: {err}");
}

#[test]
fn run_without_input_writes_prometheus_metrics() {
    let dir = temp_dir("metrics");
    let prom = dir.join("m.prom");
    let out = mogpu(&[
        "run",
        "--level",
        "W",
        "--frames",
        "5",
        "--metrics-out",
        prom.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.starts_with("# HELP "), "exposition head: {text:?}");
    assert!(text.contains("# TYPE mogpu_sm_occupancy gauge"));
    assert!(text.contains("mogpu_dram_bandwidth_bytes_per_second{pipeline=\"level W(8)\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_subcommand_emits_an_exposition_to_stdout() {
    let out = mogpu(&["metrics", "--frames", "4", "--level", "C"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("# HELP "));
    assert!(text.contains("# TYPE mogpu_dram_bytes_total counter"));
}

#[test]
fn metrics_exposition_includes_per_kernel_gauges() {
    let out = mogpu(&["metrics", "--frames", "4", "--level", "A"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("# TYPE mogpu_kernel_branch_efficiency gauge"));
    assert!(text.contains("mogpu_kernel_gld_efficiency{pipeline=\"level A\"}"));
    assert!(
        text.contains("mogpu_kernel_occupancy{pipeline=\"level A\",limiter=\"Registers\"}"),
        "missing occupancy gauge with limiter label:\n{text}"
    );
}

#[test]
fn advise_exits_zero_with_findings_and_ranks_the_papers_next_step() {
    let out = mogpu(&["advise", "--level", "A", "--frames", "8"]);
    assert!(
        out.status.success(),
        "findings must not fail the command; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("#1 coalesce-global-memory -> CoalesceMemory"));
    assert!(text.contains("site: "), "no file:line evidence:\n{text}");

    let json_out = mogpu(&["advise", "--level", "A", "--frames", "8", "--json"]);
    assert!(json_out.status.success());
    let doc: mogpu::json::Value = mogpu::json::from_str(stdout(&json_out).trim()).unwrap();
    assert_eq!(doc["launchable"], mogpu::json::Value::Bool(true));
    let advisories = doc["advisories"].as_array().unwrap();
    assert_eq!(
        advisories[0]["transform"],
        mogpu::json::Value::String("CoalesceMemory".into())
    );
}

#[test]
fn advise_at_level_f_ranks_kernel_fusion_from_the_dataflow_graph() {
    let out = mogpu(&["advise", "--level", "F", "--frames", "8", "--json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: mogpu::json::Value = mogpu::json::from_str(stdout(&out).trim()).unwrap();
    let advisories = doc["advisories"].as_array().unwrap();
    assert!(!advisories.is_empty(), "level F must still advise fusion");
    assert_eq!(
        advisories[0]["transform"],
        mogpu::json::Value::String("FuseKernels".into())
    );
    let benefit = advisories[0]["estimated_benefit_s"].as_f64().unwrap();
    assert!(benefit > 0.0, "fusion benefit must be positive: {benefit}");
}

#[test]
fn dataflow_rejects_unknown_options() {
    let out = mogpu(&["dataflow", "--frames", "6", "--bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown dataflow option"), "stderr: {err}");
}

#[test]
fn dataflow_json_is_byte_stable_and_dot_names_the_kernels() {
    let first = mogpu(&["dataflow", "--frames", "6", "--json"]);
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = mogpu(&["dataflow", "--frames", "6", "--json"]);
    assert!(second.status.success());
    assert_eq!(
        first.stdout, second.stdout,
        "dataflow --json must be byte-stable across identical runs"
    );
    let doc: mogpu::json::Value = mogpu::json::from_str(stdout(&first).trim()).unwrap();
    assert!(!doc["edges"].as_array().unwrap().is_empty());
    assert!(!doc["nodes"].as_array().unwrap().is_empty());

    let dot = stdout(&mogpu(&["dataflow", "--frames", "6"]));
    assert!(dot.starts_with("digraph dataflow {"), "dot head: {dot:?}");
    assert!(dot.contains("mog-update"), "dot must name the MoG kernel");
    assert!(dot.contains("morphology"), "dot must name the morph kernel");
}

#[test]
fn advise_reports_an_unlaunchable_kernel_structurally_and_exits_nonzero() {
    // 1024 threads/block at level B's 36 regs/thread exceeds the 32 K
    // register file: no block can become resident.
    let out = mogpu(&[
        "advise", "--level", "B", "--frames", "4", "--tpb", "1024", "--json",
    ]);
    assert!(
        !out.status.success(),
        "unlaunchable input must exit nonzero"
    );
    let doc: mogpu::json::Value = mogpu::json::from_str(stdout(&out).trim()).unwrap();
    assert_eq!(doc["launchable"], mogpu::json::Value::Bool(false));
    let advisories = doc["advisories"].as_array().unwrap();
    assert_eq!(
        advisories[0]["transform"],
        mogpu::json::Value::String("ShrinkLaunchFootprint".into())
    );
    assert_eq!(
        advisories[0]["rule"],
        mogpu::json::Value::String("unlaunchable-kernel".into())
    );
}

#[test]
fn bench_check_passes_on_an_unmodified_rerun_and_fails_on_a_seeded_regression() {
    let dir = temp_dir("bench");
    let baseline = dir.join("baseline.json");
    let path = baseline.to_str().unwrap();

    let rec = mogpu(&[
        "bench",
        "record",
        "--frames",
        "2",
        "--streams",
        "2",
        "--out",
        path,
    ]);
    assert!(
        rec.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&rec.stderr)
    );

    // Unmodified rerun: every metric diffs at exactly zero.
    let ok = mogpu(&["bench", "check", "--baseline", path]);
    assert!(ok.status.success(), "table:\n{}", stdout(&ok));
    assert!(stdout(&ok).contains("all metrics within tolerance"));

    // Seed a 10% fps regression into the recorded numbers: the fresh
    // measurement now reads 10% below baseline and must fail the gate.
    let mut b = mogpu::bench::baseline::read_baseline(&baseline).unwrap();
    b.levels.get_mut("F").unwrap().fps *= 1.1;
    mogpu::bench::baseline::write_baseline(&b, &baseline).unwrap();
    let bad = mogpu(&["bench", "check", "--baseline", path]);
    assert!(!bad.status.success(), "gate passed a seeded regression");
    assert!(stdout(&bad).contains("FAIL"), "table:\n{}", stdout(&bad));

    // --json mirrors the verdict machine-readably.
    let json_out = mogpu(&["bench", "check", "--baseline", path, "--json"]);
    assert!(!json_out.status.success());
    let doc: mogpu::json::Value = mogpu::json::from_str(stdout(&json_out).trim()).unwrap();
    assert_eq!(doc["pass"], mogpu::json::Value::Bool(false));

    // The failing gate wrote a drift attribution next to the baseline:
    // a schema-tagged DiffReport for the failing level, plus the text
    // rendering on stderr.
    let err = String::from_utf8_lossy(&json_out.stderr).into_owned();
    assert!(
        err.contains("wrote drift attribution"),
        "stderr does not announce the diff: {err}"
    );
    let diff_path = dir.join("diff.json");
    let diff: mogpu::json::Value =
        mogpu::json::from_str(&std::fs::read_to_string(&diff_path).unwrap()).unwrap();
    assert_eq!(diff["schema"].as_u64(), Some(1));
    assert!(
        diff["kernels"]
            .as_array()
            .unwrap()
            .iter()
            .any(|k| k["a_level"].as_str() == Some("F")),
        "diff does not attribute the failing level F"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_compares_two_profile_reports_byte_stably() {
    let dir = temp_dir("diff");
    let a = dir.join("a.json");
    let f = dir.join("f.json");
    for (level, path) in [("A", &a), ("F", &f)] {
        let out = mogpu(&[
            "profile",
            "--level",
            level,
            "--frames",
            "3",
            "--report-out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // A vs F: the text rendering names the moved stall buckets with
    // file:line evidence; --json is canonical and byte-stable.
    let text = mogpu(&["diff", a.to_str().unwrap(), f.to_str().unwrap()]);
    assert!(
        text.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&text.stderr)
    );
    let rendered = stdout(&text);
    assert!(
        rendered.contains(".rs:"),
        "no file:line evidence:\n{rendered}"
    );

    let j1 = mogpu(&["diff", a.to_str().unwrap(), f.to_str().unwrap(), "--json"]);
    let j2 = mogpu(&["diff", a.to_str().unwrap(), f.to_str().unwrap(), "--json"]);
    assert!(j1.status.success());
    assert_eq!(j1.stdout, j2.stdout, "diff --json is not byte-stable");
    let doc: mogpu::json::Value = mogpu::json::from_str(stdout(&j1).trim()).unwrap();
    assert_eq!(doc["kind"].as_str(), Some("profile"));
    let kernel = &doc["kernels"].as_array().unwrap()[0];
    assert!(
        kernel["counters"].as_array().unwrap()[0]["counter"]
            .as_str()
            .unwrap()
            .starts_with("global_"),
        "top counter is not a coalescing counter"
    );

    // Self-diff: every delta is zero and fully attributed.
    let selfd = mogpu(&["diff", f.to_str().unwrap(), f.to_str().unwrap(), "--json"]);
    assert!(selfd.status.success());
    let doc: mogpu::json::Value = mogpu::json::from_str(stdout(&selfd).trim()).unwrap();
    let kernel = &doc["kernels"].as_array().unwrap()[0];
    assert_eq!(kernel["time_delta_s"].as_f64(), Some(0.0));
    assert_eq!(kernel["attributed_fraction"].as_f64(), Some(1.0));

    // Strict flag parsing, mirroring the other subcommands.
    let bad = mogpu(&["diff", a.to_str().unwrap(), f.to_str().unwrap(), "--bogus"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--bogus"));
    let one = mogpu(&["diff", a.to_str().unwrap()]);
    assert!(!one.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// `mogpu streams` with serving flags writes a JSONL event log and a
/// report whose serving section `mogpu serve` can replay; violation
/// counts agree between the report JSON and the event log.
#[test]
fn streams_serving_outputs_round_trip_through_serve() {
    let dir = temp_dir("serving");
    let events = dir.join("events.jsonl");
    let report = dir.join("report.json");
    let out = mogpu(&[
        "streams",
        "--streams",
        "2",
        "--frames",
        "6",
        "--level",
        "C",
        "--slo-ms",
        "0.001", // 1 µs deadline: every frame violates
        "--events-out",
        events.to_str().unwrap(),
        "--report-out",
        report.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc: mogpu::json::Value =
        mogpu::json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let total = doc["slo_violations_total"].as_f64().unwrap() as u64;
    assert_eq!(total, 10, "2 streams x 5 frames, all violating");
    assert_eq!(doc["streams_at_slo"].as_f64().unwrap(), 0.0);

    // Event log: one slo_violation line per violation, stable schema.
    let log = std::fs::read_to_string(&events).unwrap();
    let violations = log
        .lines()
        .map(|l| mogpu::json::from_str::<mogpu::json::Value>(l).unwrap())
        .filter(|v| v["event"] == mogpu::json::Value::String("slo_violation".into()))
        .count() as u64;
    assert_eq!(violations, total);

    // `mogpu serve` accepts the report (bind port 0, serve briefly).
    let out = mogpu(&[
        "serve",
        "--report",
        report.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--serve-seconds",
        "0.2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("serving /metrics on http://127.0.0.1:"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a serving report whose `snapshots` array is empty (an
/// old recording, or a hand-edited file) used to panic the exposition
/// renderer with an out-of-bounds index. `mogpu serve` must replay it
/// as a valid, empty-but-well-formed exposition instead.
#[test]
fn serve_accepts_an_empty_snapshot_report_without_panicking() {
    let dir = temp_dir("empty_snapshots");
    let report = dir.join("report.json");
    let out = mogpu(&[
        "streams",
        "--streams",
        "2",
        "--frames",
        "4",
        "--report-out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Strip the snapshots, as an older or truncated recording would.
    // (The vendored Value has no IndexMut; walk the object entries.)
    let mut doc: mogpu::json::Value =
        mogpu::json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    {
        let mogpu::json::Value::Object(entries) = &mut doc else {
            panic!("report is not an object")
        };
        let serving = &mut entries
            .iter_mut()
            .find(|(k, _)| k == "serving")
            .expect("report has a serving section")
            .1;
        let mogpu::json::Value::Object(serving) = serving else {
            panic!("serving is not an object")
        };
        serving
            .iter_mut()
            .find(|(k, _)| k == "snapshots")
            .expect("serving has snapshots")
            .1 = mogpu::json::Value::Array(Vec::new());
    }
    std::fs::write(&report, mogpu::json::to_string_pretty(&doc).unwrap()).unwrap();

    let out = mogpu(&[
        "serve",
        "--report",
        report.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--serve-seconds",
        "0.2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("0 snapshot(s)"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: `--replay-ms 0` used to reach the replay clock as a zero
/// divisor. The CLI now rejects zero, negative and non-numeric values
/// up front on both subcommands that take the flag.
#[test]
fn replay_ms_must_be_positive() {
    for args in [
        &[
            "streams",
            "--streams",
            "2",
            "--frames",
            "4",
            "--replay-ms",
            "0",
        ][..],
        &["serve", "--report", "x.json", "--replay-ms", "-250"][..],
        &["serve", "--report", "x.json", "--replay-ms", "nan"][..],
    ] {
        let out = mogpu(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains("--replay-ms"),
            "{args:?} stderr does not name the flag: {err}"
        );
    }
}

#[test]
fn serve_requires_a_report() {
    let out = mogpu(&["serve"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--report"));
}

#[test]
fn bench_without_a_subcommand_errors() {
    let out = mogpu(&["bench"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("record|check"));
}

/// A numeric flag whose value does not parse is an error naming the
/// flag and the value, never a silent fall-back to the default.
#[test]
fn malformed_numeric_flags_are_rejected() {
    for (args, flag, value) in [
        (
            &["ladder", "--frames", "abc", "--k", "x"][..],
            "--frames",
            "abc",
        ),
        (&["ladder", "--frames", "4", "--k", "x"][..], "--k", "x"),
        (
            &["streams", "--streams", "2x", "--frames", "4"][..],
            "--streams",
            "2x",
        ),
        (
            &["streams", "--streams", "2", "--slo-ms", "fast"][..],
            "--slo-ms",
            "fast",
        ),
        (
            &["fleet", "--streams", "2", "--headroom", "1,5"][..],
            "--headroom",
            "1,5",
        ),
        (&["fleet", "--frames", "-3"][..], "--frames", "-3"),
    ] {
        let out = mogpu(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} ran: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains(&format!("bad {flag} {value:?}")),
            "{args:?} stderr does not name the flag and value: {err}"
        );
    }
}
