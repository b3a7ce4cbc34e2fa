//! A small Prometheus text-format parser for round-trip checks.
//!
//! Independent of `mogpu::sim::exposition`, so the tests that parse an
//! exposition back do not trust the code that wrote it. Every line must
//! be a `# HELP`, a `# TYPE` or a sample; each family's HELP and TYPE
//! appear exactly once, before its first sample; label values are
//! unescaped (`\\`, `\"`, `\n`) and values read as `f64`.

// Each test crate that includes this file uses a different subset.
#![allow(dead_code)]

use std::collections::BTreeMap;

#[derive(Debug)]
pub struct Sample {
    pub labels: BTreeMap<String, String>,
    pub value: f64,
}

#[derive(Debug, Default)]
pub struct Exposition {
    /// `# HELP` texts keyed by metric name.
    pub help: BTreeMap<String, String>,
    /// `# TYPE` values ("gauge" / "counter" / "histogram") keyed by
    /// metric name.
    pub types: BTreeMap<String, String>,
    /// Samples keyed by metric name, in exposition order.
    pub samples: BTreeMap<String, Vec<Sample>>,
}

/// Unescapes a Prometheus label value: `\\`, `\"`, and `\n`.
pub fn unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                other => panic!("bad escape \\{other:?} in label value {s:?}"),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses a sample value; `NaN`, `+Inf` and `-Inf` are the format's
/// spellings of the non-finite values.
fn parse_value(text: &str, line: &str) -> f64 {
    match text {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        _ => text
            .parse()
            .unwrap_or_else(|_| panic!("unparsable value in {line:?}")),
    }
}

/// Splits `name{l1="v1",l2="v2"} value` into its parts, honoring escapes.
fn parse_sample_line(line: &str) -> (String, Sample) {
    let brace = line.find('{');
    let (name, rest) = match brace {
        Some(i) => (&line[..i], &line[i..]),
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next().unwrap();
            let value = parse_value(it.next().expect("value").trim(), line);
            return (
                name.to_string(),
                Sample {
                    labels: BTreeMap::new(),
                    value,
                },
            );
        }
    };
    // Scan the label block char by char; a raw '}' only terminates it
    // outside a quoted value.
    let mut labels = BTreeMap::new();
    let mut chars = rest.char_indices().skip(1).peekable();
    let mut end = None;
    loop {
        // Label name up to '='.
        let mut label = String::new();
        loop {
            match chars.next() {
                Some((i, '}')) => {
                    assert!(label.is_empty(), "dangling label name in {line:?}");
                    end = Some(i);
                    break;
                }
                Some((_, '=')) => break,
                Some((_, c)) => label.push(c),
                None => panic!("unterminated label block in {line:?}"),
            }
        }
        if label.is_empty() {
            break;
        }
        assert_eq!(chars.next().map(|(_, c)| c), Some('"'), "in {line:?}");
        let mut raw = String::new();
        loop {
            match chars.next() {
                Some((_, '\\')) => {
                    raw.push('\\');
                    raw.push(chars.next().expect("escaped char").1);
                }
                Some((_, '"')) => break,
                Some((_, c)) => raw.push(c),
                None => panic!("unterminated label value in {line:?}"),
            }
        }
        assert!(
            labels.insert(label.clone(), unescape(&raw)).is_none(),
            "duplicate label {label} in {line:?}"
        );
        if let Some(&(_, ',')) = chars.peek() {
            chars.next();
        }
    }
    let end = end.expect("label block must close");
    let value = parse_value(rest[end + 1..].trim(), line);
    (name.to_string(), Sample { labels, value })
}

/// Parses a full exposition, asserting the structural invariants: every
/// line is a comment or a sample, and each metric's `# HELP` and
/// `# TYPE` appear exactly once, before its first sample.
pub fn parse_exposition(text: &str) -> Exposition {
    let mut exp = Exposition::default();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap().to_string();
            let help = it.next().expect("help text").to_string();
            assert!(
                exp.help.insert(name.clone(), help).is_none(),
                "duplicate # HELP for {name}"
            );
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap().to_string();
            let ty = it.next().expect("type").to_string();
            assert!(
                ["gauge", "counter", "histogram"].contains(&ty.as_str()),
                "bad type {ty:?} for {name}"
            );
            assert!(
                exp.types.insert(name.clone(), ty).is_none(),
                "duplicate # TYPE for {name}"
            );
        } else {
            assert!(!line.starts_with('#'), "unrecognized comment {line:?}");
            let (name, sample) = parse_sample_line(line);
            // Histogram samples (`x_bucket`, `x_sum`, `x_count`) are
            // documented under their family name `x`.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| name.strip_suffix(suf))
                .filter(|base| exp.types.get(*base).map(String::as_str) == Some("histogram"))
                .map(|base| base.to_string())
                .unwrap_or_else(|| name.clone());
            assert!(
                exp.help.contains_key(&family) && exp.types.contains_key(&family),
                "sample for {name} before its # HELP/# TYPE"
            );
            exp.samples.entry(name).or_default().push(sample);
        }
    }
    exp
}

/// Asserts two expositions carry the same families (HELP and TYPE), the
/// same samples in the same order, the same label sets, and bit-equal
/// values; only the spelling of numbers may differ.
pub fn assert_same_exposition(got: &str, want: &str, what: &str) {
    let (g, w) = (parse_exposition(got), parse_exposition(want));
    assert_eq!(g.help, w.help, "{what}: HELP texts differ");
    assert_eq!(g.types, w.types, "{what}: TYPE lines differ");
    assert_eq!(
        g.samples.keys().collect::<Vec<_>>(),
        w.samples.keys().collect::<Vec<_>>(),
        "{what}: sample names differ"
    );
    for (name, gs) in &g.samples {
        let ws = &w.samples[name];
        assert_eq!(gs.len(), ws.len(), "{what}: {name} sample count");
        for (a, b) in gs.iter().zip(ws) {
            assert_eq!(a.labels, b.labels, "{what}: {name} labels");
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{what}: {name}{:?} value {} != {}",
                a.labels,
                a.value,
                b.value
            );
        }
    }
}
