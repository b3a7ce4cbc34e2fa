//! Serving-path observability: histogram algebra properties, and the
//! acceptance criteria end-to-end — a live `mogpu streams
//! --serve-metrics` scrape whose histogram-reconstructed p99 matches
//! the report JSON percentile within one bucket width, with SLO
//! violation counts agreeing exactly across the Prometheus export, the
//! report JSON, and the JSONL event log.

use mogpu::sim::serving::{bucket_bound, LatencyHistogram, NUM_BOUNDS};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Latency samples spanning the interesting decades (microseconds to
/// tens of seconds), including exact bucket edges.
fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((1e-7f64..1e2, 0usize..3, 0usize..NUM_BOUNDS), 1..200).prop_map(
        |raw: Vec<(f64, usize, usize)>| {
            raw.into_iter()
                .map(|(v, kind, i)| match kind {
                    0 => v,
                    1 => bucket_bound(i), // exact bucket edges
                    _ => 0.0,             // below the first bound
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-part histograms is exactly the histogram of the
    /// concatenated samples: same buckets, same sum, count, min, max.
    #[test]
    fn merge_equals_concat(
        parts in proptest::collection::vec(arb_samples(), 1..5),
    ) {
        let mut merged = LatencyHistogram::new();
        for part in &parts {
            merged.merge(&LatencyHistogram::from_samples(part));
        }
        let all: Vec<f64> = parts.concat();
        let concat = LatencyHistogram::from_samples(&all);
        prop_assert_eq!(&merged.counts, &concat.counts);
        prop_assert_eq!(merged.count, concat.count);
        prop_assert!((merged.sum - concat.sum).abs() <= 1e-9 * concat.sum.abs().max(1.0));
        prop_assert_eq!(merged.min.to_bits(), concat.min.to_bits());
        prop_assert_eq!(merged.max.to_bits(), concat.max.to_bits());
    }

    /// The bucket quantile brackets the exact nearest-rank statistic:
    /// the true value lies within the reporting bucket, i.e. within one
    /// bucket width of the estimate.
    #[test]
    fn quantile_is_within_one_bucket_of_exact(
        samples in arb_samples(),
        q in 0.01f64..1.0,
    ) {
        let h = LatencyHistogram::from_samples(&samples);
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let (lo, hi) = h.quantile_bounds(q);
        prop_assert!(
            exact >= lo && exact <= hi,
            "exact {exact} outside bucket [{lo}, {hi}] at q={q}"
        );
        prop_assert_eq!(h.quantile(q).to_bits(), hi.to_bits());
    }
}

// ---- live scrape acceptance test ----

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mogpu_serving_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One GET to `addr` at `path`; returns the body.
fn http_get(addr: &str, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect scrape endpoint");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("malformed response");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    body.to_string()
}

/// Sums the values of every sample of `family` in exposition `text`,
/// optionally restricted to one `stream` label.
fn sum_family(text: &str, family: &str, stream: Option<usize>) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(&format!("{family}{{")) || l.starts_with(&format!("{family} ")))
        .filter(|l| match stream {
            Some(s) => l.contains(&format!("stream=\"{s}\"")),
            None => true,
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

/// Reconstructs the nearest-rank quantile from a family's cumulative
/// `le` buckets for one stream: returns (lower bound, upper bound) of
/// the bucket holding the rank.
fn quantile_from_buckets(text: &str, family: &str, stream: usize, q: f64) -> (f64, f64) {
    let mut buckets: Vec<(f64, f64)> = text
        .lines()
        .filter(|l| l.starts_with(&format!("{family}_bucket{{")))
        .filter(|l| l.contains(&format!("stream=\"{stream}\"")))
        .map(|l| {
            let le_raw = l.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
            let le = if le_raw == "+Inf" {
                f64::INFINITY
            } else {
                le_raw.parse().unwrap()
            };
            (le, l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let count = buckets.last().expect("no buckets").1;
    assert!(count > 0.0, "{family} stream {stream}: empty histogram");
    let rank = (q * count).ceil().max(1.0);
    let idx = buckets.iter().position(|&(_, c)| c >= rank).unwrap();
    let lo = if idx == 0 { 0.0 } else { buckets[idx - 1].0 };
    (lo, buckets[idx].0)
}

/// ISSUE acceptance criteria: `mogpu streams --serve-metrics` serves a
/// scrapeable `/metrics` endpoint; p99 frame latency reconstructed from
/// the scraped histogram buckets matches the `MultiStreamReport` JSON
/// percentile within one bucket width; SLO violation counts agree
/// exactly across the Prometheus export, the report JSON, and the JSONL
/// event log.
#[test]
fn live_scrape_matches_report_json_and_event_log() {
    let dir = temp_dir("scrape");
    let events = dir.join("events.jsonl");
    let report = dir.join("report.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mogpu"))
        .args([
            "streams",
            "--streams",
            "2",
            "--frames",
            "7",
            "--level",
            "C",
            "--fps",
            "30",
            "--slo-ms",
            "0.001", // 1 µs deadline: every frame violates
            "--events-out",
            events.to_str().unwrap(),
            "--report-out",
            report.to_str().unwrap(),
            "--serve-metrics",
            "127.0.0.1:0",
            "--serve-seconds",
            "30",
            "--replay-ms",
            "10",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn mogpu streams");

    // The banner names the bound address; outputs are written before
    // the server starts, so report + events exist by now.
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "no serve banner");
        if let Some(rest) = line.trim().strip_prefix("serving /metrics on http://") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Let the 10 ms replay reach its final snapshot (<= 8 windows).
    std::thread::sleep(Duration::from_millis(300));
    let text = http_get(&addr, "/metrics");
    child.kill().ok();
    child.wait().ok();

    assert!(text.contains("# TYPE mogpu_frame_latency_seconds histogram"));
    assert!(text.contains("# TYPE mogpu_slo_violations_total counter"));

    let doc: mogpu::json::Value =
        mogpu::json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();

    // p99 within one bucket width, per stream, scrape vs report JSON.
    let per_stream = doc["per_stream"].as_array().unwrap();
    for (s, row) in per_stream.iter().enumerate() {
        let exact = row["latency_p99_ms"].as_f64().unwrap() / 1e3;
        let (lo, hi) = quantile_from_buckets(&text, "mogpu_frame_latency_seconds", s, 0.99);
        assert!(
            exact > lo - 1e-12 && exact <= hi + 1e-12,
            "stream {s}: exact p99 {exact} outside scraped bucket ({lo}, {hi}]"
        );
    }

    // SLO violations: Prometheus == report JSON == JSONL event log.
    let scraped = sum_family(&text, "mogpu_slo_violations_total", None) as u64;
    let reported = doc["slo_violations_total"].as_f64().unwrap() as u64;
    let logged = std::fs::read_to_string(&events)
        .unwrap()
        .lines()
        .map(|l| mogpu::json::from_str::<mogpu::json::Value>(l).unwrap())
        .filter(|e| e["event"] == mogpu::json::Value::String("slo_violation".into()))
        .count() as u64;
    assert_eq!(scraped, reported, "Prometheus vs report JSON");
    assert_eq!(logged, reported, "event log vs report JSON");
    assert!(reported > 0, "scenario should produce violations");

    // Per-stream violation counters also agree with the report rows.
    for (s, row) in per_stream.iter().enumerate() {
        let v = row["slo_violations"].as_f64().unwrap();
        assert_eq!(sum_family(&text, "mogpu_slo_violations_total", Some(s)), v);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A tiny window over many streams is widened until windows x streams
/// fits `MAX_STREAM_SNAPSHOTS`: this command line printed 256 snapshots
/// of 64 streams, a 33.3 MB document, before the bound. Each snapshot
/// stream is about 2 KB of JSON, so the document stays under 6 MB.
#[test]
fn many_stream_serving_report_stays_bounded() {
    let out = Command::new(env!("CARGO_BIN_EXE_mogpu"))
        .args([
            "streams",
            "--streams",
            "64",
            "--frames",
            "2",
            "--window-ms",
            "1e-5",
            "--json",
        ])
        .output()
        .expect("spawn mogpu");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout.len() < 6_000_000,
        "report is {} bytes",
        out.stdout.len()
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let doc: mogpu::json::Value = mogpu::json::from_str(text.trim()).unwrap();
    let snapshots = doc["serving"]["snapshots"].as_array().unwrap();
    let cap = mogpu::sim::serving::MAX_STREAM_SNAPSHOTS;
    assert_eq!(snapshots.len(), cap / 64);
    for snap in snapshots {
        assert_eq!(snap["streams"].as_array().unwrap().len(), 64);
    }
}
