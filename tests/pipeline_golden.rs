//! Pins the host pipeline's observable outputs.
//!
//! `tests/data/pipeline_golden.json` holds, for `GpuMog` at levels A, F
//! and W(4) (profile + sanitize + dataflow + morphology on) and for
//! `AdaptiveGpuMog` (profile + sanitize + dataflow on), the canonical
//! JSON of the run's `ProfileReport`, `SanReport` and `DataflowGraph`,
//! plus a digest of the downloaded masks. It was captured before the two
//! pipeline structs were folded into one frame loop and is never
//! regenerated: any drift in what the loop launches, records or
//! assembles shows up here.
//!
//! Kernel edits move source lines, so both sides name kernel sites by
//! rank and put tied rows in rank order (`support/site_rank.rs`,
//! [`canonical`]); everything else must match exactly. The tests at the
//! end pin this compare on small synthetic documents.

#[path = "support/site_rank.rs"]
mod site_rank;

use std::collections::BTreeMap;

use mogpu::core::AdaptiveGpuMog;
use mogpu::json::{json, Value};
use mogpu::prelude::*;
use site_rank::{free_cut, lines_named, order_ties, rank_among, Lines, KERNELS};

const GOLDEN: &str = include_str!("data/pipeline_golden.json");

/// Scene seed of every golden run.
const SEED: u64 = 21;
/// Frames processed per run (one more is rendered to seed the model).
const FRAMES: usize = 4;

fn scene() -> Vec<Frame<u8>> {
    SceneBuilder::new(Resolution::TINY)
        .seed(SEED)
        .walkers(2)
        .build()
        .render_sequence(FRAMES + 1)
        .0
        .into_frames()
}

/// FNV-1a 64-bit over all mask bytes in frame order.
fn mask_digest(report: &RunReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for mask in &report.masks {
        for &b in mask.as_slice() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn entry(
    report: &RunReport,
    profile: Option<ProfileReport>,
    san: Option<SanReport>,
    graph: Option<mogpu::sim::DataflowGraph>,
) -> Value {
    Value::Object(vec![
        ("masks".into(), Value::String(mask_digest(report))),
        (
            "profile".into(),
            mogpu::json::to_value(&profile.expect("profiling was on")).unwrap(),
        ),
        (
            "san".into(),
            mogpu::json::to_value(&san.expect("sanitize was on")).unwrap(),
        ),
        (
            "dataflow".into(),
            graph.expect("dataflow was enabled").to_json(),
        ),
    ])
}

fn gpu_entry(level: OptLevel, frames: &[Frame<u8>]) -> Value {
    let mut gpu = GpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        level,
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    gpu.set_profile_mode(ProfileMode::On);
    gpu.set_sanitize(true);
    gpu.enable_dataflow();
    gpu.enable_morphology().unwrap();
    let report = gpu.process_all(&frames[1..]).unwrap();
    entry(
        &report,
        gpu.take_profile_report(),
        gpu.take_san_report(),
        gpu.dataflow_graph(),
    )
}

fn adaptive_entry(frames: &[Frame<u8>]) -> Value {
    let mut gpu = AdaptiveGpuMog::<f64>::new(
        Resolution::TINY,
        MogParams::default(),
        frames[0].as_slice(),
        GpuConfig::tesla_c2075(),
    )
    .unwrap();
    gpu.set_profile_mode(ProfileMode::On);
    gpu.set_sanitize(true);
    gpu.enable_dataflow();
    let report = gpu.process_all(&frames[1..]).unwrap();
    entry(
        &report,
        gpu.take_profile_report(),
        gpu.take_san_report(),
        gpu.dataflow_graph(),
    )
}

/// The whole golden document, as canonical pretty JSON.
fn document() -> String {
    let frames = scene();
    let mut runs = Vec::new();
    for level in [OptLevel::A, OptLevel::F, OptLevel::Windowed { group: 4 }] {
        runs.push((level.name(), gpu_entry(level, &frames)));
    }
    runs.push(("adaptive".to_string(), adaptive_entry(&frames)));
    let doc = Value::Object(vec![
        (
            "resolution".into(),
            Value::String(Resolution::TINY.to_string()),
        ),
        ("seed".into(), Value::U64(SEED)),
        ("frames".into(), Value::U64(FRAMES as u64)),
        ("runs".into(), Value::Object(runs)),
    ]);
    let mut out = mogpu::json::to_string_canonical_pretty(&doc).unwrap();
    out.push('\n');
    out
}

#[test]
fn pipeline_outputs_match_the_golden() {
    // The golden reads back to its own bytes, so comparing parsed
    // documents is as strict as comparing text.
    let golden: Value = mogpu::json::from_str(GOLDEN).unwrap();
    let reprinted = mogpu::json::to_string_canonical_pretty(&golden).unwrap() + "\n";
    assert!(reprinted == GOLDEN, "the golden no longer reads back");
    let (got, want) = (canonical(parse(&document())), canonical(golden));
    assert!(got == want, "drifted: {}", drift(&got, &want));
}

/// The first field where `got` departs from `want`, looked for first in
/// the hotspot counters by site, so a drifted counter is named at its site.
fn drift(got: &Value, want: &Value) -> String {
    let view = |d: &Value| {
        let runs = d["runs"].as_object().into_iter().flatten();
        let by_site = |run| Value::Object(hotspots(run).into_iter().collect());
        let runs = runs.map(|(name, run)| (name.clone(), by_site(run)));
        Value::Object(vec![
            ("hotspots".into(), Value::Object(runs.collect())),
            ("all".into(), d.clone()),
        ])
    };
    first_difference(&view(got), &view(want), "").unwrap_or_default()
}

/// The path and values of the first field where `got` and `want` differ.
fn first_difference(got: &Value, want: &Value, path: &str) -> Option<String> {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) if g.len() == w.len() => g
            .iter()
            .zip(w)
            .find_map(|((k, a), (_, b))| first_difference(a, b, &format!("{path}.{k}"))),
        _ => (got != want).then(|| format!("{path}:\n  got:  {got}\n  want: {want}")),
    }
}

/// The value at `path` in `v`, if there is one.
fn at<'a>(v: &'a mut Value, path: &[&str]) -> Option<&'a mut Value> {
    path.iter().try_fold(v, |v, key| match v {
        Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, x)| x),
        _ => None,
    })
}

/// The rows of the array at `path` in `v`; none if there is no such array.
fn rows<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut [Value] {
    match at(v, path) {
        Some(Value::Array(items)) => items,
        _ => &mut [],
    }
}

/// The hotspot counters of a run's profile, keyed by source.
fn hotspots(run: &Value) -> BTreeMap<String, Value> {
    let rows = run["profile"]["hotspots"].as_array().into_iter().flatten();
    rows.map(|r| (r["source"].to_string(), r["stats"].clone()))
        .collect()
}

/// The key the advisor ranks `rule`'s sites by, from a site's hotspot
/// counters (`top_sites` in `crates/sim/src/advisor.rs`).
fn advisory_key(rule: &str, stats: &Value) -> u64 {
    let n = |k: &str| stats[k].as_u64().expect(k);
    match rule {
        "coalesce-global-memory" => {
            let ideal = n("bytes_requested").div_ceil(GpuConfig::tesla_c2075().segment_bytes);
            n("transactions").saturating_sub(ideal)
        }
        "remove-rank-sort" | "predicate-branches" => n("divergent_branch_slots"),
        "tile-shared-memory" => n("transactions"),
        "pad-shared-records" => n("shared_replays"),
        _ => panic!("advisory {rule} names sites by a key this test does not know"),
    }
}

fn parse(text: &str) -> Value {
    mogpu::json::from_str(text).expect("document parses")
}

/// Calls `f` on every string in `v`, object keys included.
fn each_string(v: &mut Value, f: &mut dyn FnMut(&mut String)) {
    match v {
        Value::String(s) => f(s),
        Value::Array(items) => items.iter_mut().for_each(|x| each_string(x, f)),
        Value::Object(fields) => fields.iter_mut().for_each(|(k, x)| {
            f(k);
            each_string(x, f);
        }),
        _ => {}
    }
}

/// `doc`, a pipeline document, as both sides are compared: advisory
/// sites tied at the top-3 cut replaced by their key, kernel sites named
/// by rank, and rows that tie on their ranking key in rank order (hotspot
/// and site stall rows rank by issue cycles, advisory sites by rule key).
fn canonical(mut doc: Value) -> Value {
    // Applies `f` to every run with its hotspot counters by source.
    let each_run = |doc: &mut Value, f: &dyn Fn(&mut Value, &BTreeMap<String, Value>)| {
        if let Some(Value::Object(runs)) = at(doc, &["runs"]) {
            for (_, run) in runs {
                let stats = hotspots(run);
                f(run, &stats);
            }
        }
    };
    let each_advisory = |run: &mut Value, stats: &BTreeMap<String, Value>, cut: bool| {
        for advisory in rows(run, &["profile", "advisories"]) {
            let rule = advisory["rule"].as_str().unwrap_or_default().to_string();
            let key = |s: &Value| stats.get(&s.to_string()).map(|st| advisory_key(&rule, st));
            let sites = rows(advisory, &["sites"]);
            if cut {
                let tied = Value::String(format!("tied at {:?}", sites.last().map(key)));
                free_cut(sites, 3, key, |s| *s = tied.clone());
            } else {
                order_ties(sites, key, Value::to_string);
            }
        }
    };
    each_run(&mut doc, &|run, stats| each_advisory(run, stats, true));
    let mut lines = Lines::new();
    each_string(&mut doc, &mut |s| lines.extend(lines_named(s, KERNELS)));
    each_string(&mut doc, &mut |s| *s = rank_among(s, KERNELS, &lines));
    each_run(&mut doc, &|run, stats| {
        let source = |r: &Value| r["source"].to_string();
        let cycles = |r: &Value| stats.get(&source(r)).map(|s| s["issue_cycles"].clone());
        order_ties(rows(run, &["profile", "hotspots"]), cycles, source);
        order_ties(rows(run, &["profile", "site_stalls"]), cycles, source);
        each_advisory(run, stats, false);
    });
    doc
}

// ---- the compare on small synthetic documents ----

/// A one-run document: hotspot rows `(mod.rs line, issue cycles, n)` in
/// the given order, `n` being the row's divergent slots, and a branch
/// advisory naming the mod.rs lines `sites`.
fn synthetic(rows: &[(u32, u64, u64)], sites: &[u32]) -> String {
    let site = |line: &u32| format!("{KERNELS}mod.rs:{line}");
    let row = |(line, cycles, n): &(u32, u64, u64)| {
        let stats = json!({"issue_cycles": cycles, "divergent_branch_slots": n});
        json!({"source": site(line), "stats": stats})
    };
    let rows: Vec<Value> = rows.iter().map(row).collect();
    let sites: Vec<String> = sites.iter().map(site).collect();
    let advisory = json!({"rule": "predicate-branches", "sites": sites});
    let profile = json!({"hotspots": rows, "advisories": [advisory]});
    json!({"runs": json!({"A": json!({"profile": profile})})}).to_string()
}

/// Whether the compare accepts `got` for golden `want`.
fn accepts(got: &str, want: &str) -> bool {
    canonical(parse(got)) == canonical(parse(want))
}

#[test]
fn the_compare_accepts_order_preserving_moves() {
    // Tied rows sort by string: `:100` before `:99` in the golden,
    // `:100` before `:101` once every line moved down by one.
    let want = synthetic(&[(100, 5, 2), (99, 5, 1), (120, 3, 0)], &[100, 99]);
    let got = synthetic(&[(100, 5, 1), (101, 5, 2), (121, 3, 0)], &[101, 100]);
    assert!(accepts(&got, &want));
    let want = synthetic(&[(123, 9, 2), (12, 5, 1)], &[123, 12]);
    let got = synthetic(&[(130, 9, 2), (13, 5, 1)], &[130, 13]);
    assert!(accepts(&got, &want));
    let k = KERNELS;
    let text = format!("{k}mod.rs:123 {k}mod.rs:12, {k}scan.rs:40:7 {k}scan.rs:9:");
    let ranked = format!("{k}mod.rs:#1 {k}mod.rs:#0, {k}scan.rs:#1:7 {k}scan.rs:#0:");
    assert_eq!(rank_among(&text, k, &lines_named(&text, k)), ranked);
}

#[test]
fn the_compare_rejects_drifted_sites() {
    let doc = |rows: &[(u32, u64, u64)]| synthetic(rows, &[20, 10]);
    let want = doc(&[(10, 5, 1), (20, 5, 2), (30, 3, 1)]);
    assert!(accepts(&doc(&[(20, 5, 2), (10, 5, 1), (30, 3, 1)]), &want));
    let rejects = |what, got: String| assert!(!accepts(&got, &want), "accepted {what}");
    let added = doc(&[(10, 5, 1), (20, 5, 2), (30, 3, 1), (9, 1, 0)]);
    rejects("added", added);
    rejects("dropped", doc(&[(10, 5, 1), (20, 5, 2)]));
    rejects("swapped", doc(&[(10, 5, 2), (20, 5, 1), (30, 3, 1)]));
    rejects("untied rows", doc(&[(10, 5, 1), (30, 3, 1), (20, 5, 2)]));
    let sites = synthetic(&[(10, 5, 1), (20, 5, 2), (30, 3, 1)], &[10, 20]);
    rejects("untied sites", sites);
}

#[test]
fn a_top_three_cut_may_pick_any_tied_site() {
    let rows = [(10, 9, 4), (20, 8, 2), (30, 7, 2), (40, 6, 2), (50, 5, 1)];
    let want = synthetic(&rows, &[10, 20, 30]);
    assert!(accepts(&synthetic(&rows, &[10, 40, 20]), &want));
    assert!(!accepts(&synthetic(&rows, &[10, 20, 50]), &want));
    assert!(!accepts(&synthetic(&rows, &[20, 10, 30]), &want));
}
