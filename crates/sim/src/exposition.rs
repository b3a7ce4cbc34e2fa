//! The Prometheus text exposition format, written in one place.
//!
//! Every exposition mogpu produces (telemetry, serving, fleet, dataflow
//! and diff) is built with one [`Exposition`], the only writer of
//! `# HELP` / `# TYPE` lines. It writes one header per family, escapes
//! `\`, `"` and newline in label values, spells an `f64` as `{:?}` or
//! `+Inf` / `-Inf` / `NaN` and a `u64` as an exact integer, and writes
//! [`LatencyHistogram`]s as cumulative `le` buckets plus `_sum` and
//! `_count`. A family declared twice, or a sample written before any
//! family or of the wrong kind, is an emitter bug and panics.

use crate::serving::{bucket_bound, LatencyHistogram, NUM_BOUNDS};
use std::fmt::Write;

/// The `# TYPE` of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A value that can go up and down.
    Gauge,
    /// A monotone cumulative total.
    Counter,
    /// Cumulative `le` buckets plus `_sum` and `_count`.
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Gauge => "gauge",
            Kind::Counter => "counter",
            Kind::Histogram => "histogram",
        }
    }
}

/// A sample value: how a number is spelled in the exposition.
pub trait SampleValue: Copy {
    /// Appends the value's exposition spelling to `out`.
    fn write_to(self, out: &mut String);
}

impl SampleValue for f64 {
    fn write_to(self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else if self.is_nan() {
            out.push_str("NaN");
        } else if self > 0.0 {
            out.push_str("+Inf");
        } else {
            out.push_str("-Inf");
        }
    }
}

impl SampleValue for u64 {
    fn write_to(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

/// Quantiles [`Exposition::quantiles`] writes, with their label values.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// A Prometheus text exposition under construction.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    /// Families declared so far, in order; the last one is current.
    families: Vec<(&'static str, Kind)>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` and `# TYPE` lines of family `name` and makes
    /// it current. Panics if `name` was declared before.
    pub fn family(&mut self, name: &'static str, kind: Kind, help: &str) -> &mut Self {
        assert!(
            self.families.iter().all(|(n, _)| *n != name),
            "metric family {name} declared twice"
        );
        self.families.push((name, kind));
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.name());
        self
    }

    /// The current family, which must be of a sample-per-line kind
    /// (`histogram` families are written by [`Self::histogram`]).
    fn current(&self, histogram: bool) -> &'static str {
        let &(name, kind) = self
            .families
            .last()
            .expect("sample written before any metric family");
        assert_eq!(
            kind == Kind::Histogram,
            histogram,
            "{name} is a {} family",
            kind.name()
        );
        name
    }

    /// Writes one sample of the current gauge or counter family.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: impl SampleValue) -> &mut Self {
        let name = self.current(false);
        self.line(name, "", labels, None, value);
        self
    }

    /// Writes `h` as one series of the current histogram family:
    /// cumulative `_bucket` counts per finite bound and `+Inf`, then
    /// `_sum` and `_count`. Counts are written as floats (`3.0`).
    pub fn histogram(&mut self, labels: &[(&str, &str)], h: &LatencyHistogram) -> &mut Self {
        let name = self.current(true);
        let mut cum = 0u64;
        for i in 0..NUM_BOUNDS {
            cum += h.counts[i];
            let le = format!("{:?}", bucket_bound(i));
            self.line(name, "_bucket", labels, Some(("le", &le)), cum as f64);
        }
        let count = h.count as f64;
        self.line(name, "_bucket", labels, Some(("le", "+Inf")), count);
        self.line(name, "_sum", labels, None, h.sum);
        self.line(name, "_count", labels, None, count);
        self
    }

    /// Writes the p50, p95 and p99 of `h`, reconstructed from its
    /// buckets, as `quantile`-labelled samples of the current gauge
    /// family — and nothing while `h` is empty: its quantiles are the
    /// `NaN` no-data sentinel, which most scrapers reject.
    pub fn quantiles(&mut self, labels: &[(&str, &str)], h: &LatencyHistogram) -> &mut Self {
        let name = self.current(false);
        if h.count > 0 {
            for (q, label) in QUANTILES {
                self.line(name, "", labels, Some(("quantile", label)), h.quantile(q));
            }
        }
        self
    }

    /// The exposition text.
    pub fn finish(self) -> String {
        self.out
    }

    /// `{name}{suffix}{labels,extra} value\n`; no braces without labels.
    fn line(
        &mut self,
        name: &str,
        suffix: &str,
        labels: &[(&str, &str)],
        extra: Option<(&str, &str)>,
        value: impl SampleValue,
    ) {
        let out = &mut self.out;
        out.push_str(name);
        out.push_str(suffix);
        let mut first = true;
        for (key, v) in labels.iter().copied().chain(extra) {
            out.push(if first { '{' } else { ',' });
            first = false;
            out.push_str(key);
            out.push_str("=\"");
            escape_into(out, v);
            out.push('"');
        }
        if !first {
            out.push('}');
        }
        out.push(' ');
        value.write_to(out);
        out.push('\n');
    }
}

/// Appends `value` with `\`, `"` and newline escaped.
fn escape_into(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_one_header_per_family_and_escapes_labels() {
        let mut e = Exposition::new();
        e.family("m_total", Kind::Counter, "A counter.")
            .sample(&[("path", "a\"b\\c\nd")], 3u64)
            .sample(&[], 0.5);
        let text = e.finish();
        assert_eq!(
            text,
            "# HELP m_total A counter.\n# TYPE m_total counter\n\
             m_total{path=\"a\\\"b\\\\c\\nd\"} 3\nm_total 0.5\n"
        );
    }

    #[test]
    fn floats_use_the_round_trip_form_and_the_format_spellings() {
        let mut e = Exposition::new();
        e.family("g", Kind::Gauge, "g.");
        for v in [0.0, 3.0, 1.5e-7, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            e.sample(&[], v);
        }
        let values: Vec<String> = e
            .finish()
            .lines()
            .skip(2)
            .map(|l| l.split(' ').nth(1).unwrap().to_string())
            .collect();
        assert_eq!(values, ["0.0", "3.0", "1.5e-7", "+Inf", "-Inf", "NaN"]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_count() {
        let h = LatencyHistogram::from_samples(&[1e-3, 2e-3, 500.0]);
        let mut e = Exposition::new();
        e.family("lat_seconds", Kind::Histogram, "Latency.")
            .histogram(&[("stream", "0")], &h);
        let text = e.finish();
        let buckets: Vec<&str> = text.lines().filter(|l| l.contains("_bucket")).collect();
        assert_eq!(buckets.len(), NUM_BOUNDS + 1);
        assert_eq!(
            buckets.last().unwrap(),
            &"lat_seconds_bucket{stream=\"0\",le=\"+Inf\"} 3.0"
        );
        assert!(text.contains("lat_seconds_count{stream=\"0\"} 3.0\n"));
        assert!(text.ends_with("lat_seconds_count{stream=\"0\"} 3.0\n"));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let mut e = Exposition::new();
        e.family("q_seconds", Kind::Gauge, "Quantiles.")
            .quantiles(&[], &LatencyHistogram::new());
        assert_eq!(e.finish().lines().count(), 2);
        let mut e = Exposition::new();
        e.family("q_seconds", Kind::Gauge, "Quantiles.")
            .quantiles(&[], &LatencyHistogram::from_samples(&[0.01]));
        assert_eq!(e.finish().matches("quantile=").count(), 3);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn a_repeated_family_panics() {
        let mut e = Exposition::new();
        e.family("g", Kind::Gauge, "g.");
        e.family("g", Kind::Gauge, "g.");
    }

    #[test]
    #[should_panic(expected = "before any metric family")]
    fn an_orphan_sample_panics() {
        Exposition::new().sample(&[], 1.0);
    }

    #[test]
    #[should_panic(expected = "is a histogram family")]
    fn a_plain_sample_in_a_histogram_family_panics() {
        let mut e = Exposition::new();
        e.family("h", Kind::Histogram, "h.").sample(&[], 1.0);
    }
}
