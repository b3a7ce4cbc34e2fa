//! In-memory span recorder placed around the benchmark's calls into each
//! layer. Spans are kept until the run ends; nothing is written while the
//! workload runs. Disabled, `enter`/`exit` do nothing but one branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Rendering, construction and warm-up (repeated `SETUP_REPS` times).
    Setup,
    /// The measured loop.
    Timed,
    /// Reference computation and output checks after the measured loop.
    Verify,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub phase: Phase,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            phase: Phase::Setup,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            phase: self.phase,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`] (spans close innermost
    /// first).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Self seconds per span name within `phase`: each span's duration
    /// minus the part covered by its direct children.
    pub fn self_seconds(&self, phase: Phase) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.phase == phase {
                *out.entry(s.name).or_insert(0.0) +=
                    s.ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
            }
        }
        out
    }

    /// Seconds covered by top-level spans of `phase`.
    pub fn top_level_seconds(&self, phase: Phase) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.phase == phase)
            .map(|s| s.ns() as f64 * 1e-9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_phase(Phase::Timed);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        let s = t.self_seconds(Phase::Timed);
        assert!(s["inner"] >= 0.005);
        assert!(s["outer"] < s["inner"]);
        let top = t.top_level_seconds(Phase::Timed);
        assert!((top - s["outer"] - s["inner"]).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.self_seconds(Phase::Setup).is_empty());
    }
}
