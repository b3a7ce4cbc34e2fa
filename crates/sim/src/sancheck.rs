//! `sancheck` — compute-sanitizer-style dynamic checks for simulated
//! kernel launches.
//!
//! Enabled per launch via [`crate::kernel::LaunchOptions::sanitize`]
//! (off by default, like `profile_sites`), the sanitizer runs four checks
//! modelled on `compute-sanitizer`'s tools, each attributing its findings
//! to kernel source `file:line` through the same `#[track_caller]` site
//! registry the profiler uses ([`crate::trace`]):
//!
//! * **memcheck** — every global/local/shared access is validated against
//!   its [`crate::memory::Buffer`] (or the block's shared/local
//!   allocation). Out-of-bounds accesses are reported with the kernel
//!   site, the buffer identity, and the offending offset, and are
//!   *absorbed* (loads return 0, stores are dropped) so the rest of the
//!   launch can be checked. On the plain (unsanitized) path the same
//!   checks panic instead — an OOB access can never silently touch a
//!   neighboring allocation either way.
//! * **racecheck** — per-block shadow state over shared memory records,
//!   per byte, the last writing and last reading thread together with its
//!   *sync epoch* (how many `ctx.sync()` barriers that thread had
//!   executed). Conflicting accesses from different threads in the same
//!   epoch have no ordering barrier between them and are reported as
//!   races. Accesses whose shadow shows a conflicting access from a
//!   *later* epoch are reported too: they are barrier-ordered in CUDA
//!   semantics, but the simulator runs each warp to completion before
//!   the next, so a lane that reads what a later warp stores before the
//!   barrier sees a stale value. The shadow is fed thread by thread, so
//!   this check also reports a backward flow between lanes of one warp,
//!   which lockstep execution computes correctly: an over-report that
//!   splitting kernels into barrier phases would remove.
//! * **synccheck** — barrier divergence: at each barrier index, the
//!   threads that arrive must do so from the same `sync()` source site.
//!   A mismatch (the classic divergent-branch double-barrier bug) is
//!   attributed to the minority site. Threads that exit before a barrier
//!   are not counted, matching CUDA's semantics for early-returning
//!   threads.
//! * **initcheck** — reads of shared or global bytes that were never
//!   written: shared memory is undefined at block start; global bytes are
//!   defined only by host typed writes, H2D uploads, or published kernel
//!   stores (see `InitMask` in [`crate::memory`]).
//!
//! Findings are deduplicated by `(check, space, site)` with an occurrence
//! count, and blocks are merged in block order, so a sanitized launch's
//! report is deterministic.

use crate::lockstep::{Hit, LaneEvent};
use crate::trace::{register_site, site_source, Site, Space};
use serde::Serialize;
use std::panic::Location;

/// One class of sanitizer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Out-of-bounds access.
    Memcheck,
    /// Shared-memory hazard between threads of a block.
    Racecheck,
    /// Barrier divergence.
    Synccheck,
    /// Read of undefined memory.
    Initcheck,
}

impl CheckKind {
    /// Stable lowercase name (used in tables and JSON).
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Memcheck => "memcheck",
            CheckKind::Racecheck => "racecheck",
            CheckKind::Synccheck => "synccheck",
            CheckKind::Initcheck => "initcheck",
        }
    }
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One deduplicated sanitizer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which check fired.
    pub kind: CheckKind,
    /// Memory space of the offending access; `None` for synccheck (a
    /// barrier is not a memory access).
    pub space: Option<Space>,
    /// Site key of the offending kernel call.
    pub site: Site,
    /// Resolved `file:line` of the site.
    pub source: Option<String>,
    /// Block of the first occurrence.
    pub block: u32,
    /// Thread (within the block) of the first occurrence.
    pub thread: u32,
    /// Offending address of the first occurrence: a device byte address
    /// for global accesses, a byte offset for shared, a slot for local,
    /// the barrier index for synccheck.
    pub addr: u64,
    /// Access width in bytes (0 for synccheck).
    pub width: u8,
    /// Human-readable description of the first occurrence.
    pub message: String,
    /// How many dynamic occurrences were folded into this finding.
    pub occurrences: u64,
}

fn space_name(space: Option<Space>) -> &'static str {
    match space {
        Some(Space::Global) => "global",
        Some(Space::Local) => "local",
        Some(Space::Shared) => "shared",
        None => "-",
    }
}

impl Serialize for Finding {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(vec![
            ("check".into(), Value::String(self.kind.name().into())),
            ("space".into(), Value::String(space_name(self.space).into())),
            (
                "source".into(),
                self.source.clone().map_or(Value::Null, Value::String),
            ),
            ("block".into(), Value::U64(self.block as u64)),
            ("thread".into(), Value::U64(self.thread as u64)),
            ("addr".into(), Value::U64(self.addr)),
            ("width".into(), Value::U64(self.width as u64)),
            ("occurrences".into(), Value::U64(self.occurrences)),
            ("message".into(), Value::String(self.message.clone())),
        ])
    }
}

/// Deduplicated findings of a sanitized launch (or of several launches
/// merged by a pipeline).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanReport {
    findings: Vec<Finding>,
}

impl SanReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no check fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of distinct findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// True when there are no findings.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings, in first-occurrence order (block order within a
    /// launch, launch order across a run).
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Folds a finding in, merging with an existing one of the same
    /// `(check, space, site)`.
    pub(crate) fn absorb(&mut self, f: Finding) {
        match self
            .findings
            .iter_mut()
            .find(|e| e.kind == f.kind && e.space == f.space && e.site == f.site)
        {
            Some(e) => e.occurrences += f.occurrences,
            None => self.findings.push(f),
        }
    }

    /// Counts one more occurrence of an existing `(check, space, site)`
    /// finding without constructing a new one. Returns `false` when no
    /// such finding exists yet — the caller then builds the full
    /// [`Finding`] (message and source formatting happen only on that
    /// first occurrence, keeping repeated findings allocation-free).
    pub(crate) fn bump(&mut self, kind: CheckKind, space: Option<Space>, site: Site) -> bool {
        match self
            .findings
            .iter_mut()
            .find(|e| e.kind == kind && e.space == space && e.site == site)
        {
            Some(e) => {
                e.occurrences += 1;
                true
            }
            None => false,
        }
    }

    /// Merges another report into this one (same dedup rule).
    pub fn merge(&mut self, other: &SanReport) {
        for f in &other.findings {
            self.absorb(f.clone());
        }
    }

    /// Renders the findings as an aligned text table (empty string when
    /// clean).
    pub fn table(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            return out;
        }
        out.push_str(&format!(
            "{:<10} {:<7} {:<44} {:>6}  {}\n",
            "check", "space", "source", "count", "detail"
        ));
        for f in &self.findings {
            let source = f.source.as_deref().unwrap_or("<unresolved>");
            let shown = if source.len() > 44 {
                &source[source.len() - 44..]
            } else {
                source
            };
            out.push_str(&format!(
                "{:<10} {:<7} {:<44} {:>6}  {}\n",
                f.kind.name(),
                space_name(f.space),
                shown,
                f.occurrences,
                f.message,
            ));
        }
        out
    }
}

impl Serialize for SanReport {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(vec![
            ("clean".into(), Value::Bool(self.is_clean())),
            ("findings".into(), self.findings.to_json_value()),
        ])
    }
}

/// Formats a location as `file:line` for use inside finding messages
/// (same shape as [`site_source`]'s display, but without touching the
/// global site registry).
fn source_of(loc: &'static Location<'static>) -> String {
    format!(
        "{}:{}",
        crate::trace::workspace_path(loc.file()),
        loc.line()
    )
}

/// One shadow access record: who touched the byte, in which sync epoch,
/// from which site. The raw location is kept instead of a registered
/// [`Site`] so the hot shadow updates never touch the global site
/// registry's lock; registration happens only when a finding is emitted.
#[derive(Debug, Clone, Copy)]
struct Access {
    thread: u32,
    epoch: u32,
    loc: &'static Location<'static>,
}

/// Per-byte shadow state over a block's shared memory.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowCell {
    written: bool,
    last_write: Option<Access>,
    last_read: Option<Access>,
}

/// Per-block sanitizer state, fed one thread at a time by the warp's
/// [`LaneLog`](crate::lockstep::LaneLog) at the end of each warp (the
/// same replay that feeds dataflow's read collector), then folded into a
/// [`SanReport`] by [`BlockSan::into_report`].
#[derive(Debug)]
pub(crate) struct BlockSan {
    block: u32,
    thread: u32,
    epoch: u32,
    shared: Vec<ShadowCell>,
    /// Per-thread ordered sequence of `sync()` sites (synccheck input).
    sync_seqs: Vec<Vec<&'static Location<'static>>>,
    report: SanReport,
}

impl BlockSan {
    pub(crate) fn new(block: u32, threads_per_block: u32, shared_bytes: usize) -> Self {
        BlockSan {
            block,
            thread: 0,
            epoch: 0,
            shared: vec![ShadowCell::default(); shared_bytes],
            sync_seqs: vec![Vec::new(); threads_per_block as usize],
            report: SanReport::new(),
        }
    }

    /// Called when the launch loop starts executing thread `thread`.
    pub(crate) fn begin_thread(&mut self, thread: u32) {
        self.thread = thread;
        self.epoch = 0;
    }

    /// Records one occurrence of a `(check, space, site)` finding. The
    /// fast path — the finding already exists — is a counter bump; the
    /// site registration and the `source`/`message` strings are built
    /// only on a finding's first occurrence.
    fn emit(
        &mut self,
        kind: CheckKind,
        space: Option<Space>,
        loc: &'static Location<'static>,
        addr: u64,
        width: usize,
        message: impl FnOnce() -> String,
    ) {
        let site = loc as *const Location<'static> as usize;
        if self.report.bump(kind, space, site) {
            return;
        }
        register_site(site, loc);
        self.report.absorb(Finding {
            kind,
            space,
            site,
            source: site_source(site).map(|s| s.to_string()),
            block: self.block,
            thread: self.thread,
            addr,
            width: width as u8,
            message: message(),
            occurrences: 1,
        });
    }

    /// Applies one event of the current thread.
    pub(crate) fn observe(&mut self, event: LaneEvent) {
        match event {
            LaneEvent::Load { .. } => {}
            LaneEvent::Hit(hit) => {
                let Hit {
                    kind,
                    space,
                    loc,
                    addr,
                    width,
                    message,
                    ..
                } = *hit;
                self.emit(kind, Some(space), loc, addr, width, || message);
            }
            LaneEvent::Sync { loc } => self.on_sync(loc),
            LaneEvent::SharedRead { loc, off, width } => self.shared_read(loc, off, width),
            LaneEvent::SharedWrite { loc, off, width } => self.shared_write(loc, off, width),
        }
    }

    /// Records a barrier arrival and advances the thread's sync epoch.
    fn on_sync(&mut self, loc: &'static Location<'static>) {
        self.sync_seqs[self.thread as usize].push(loc);
        self.epoch += 1;
    }

    /// racecheck + shadow update for a shared-memory store.
    fn shared_write(&mut self, loc: &'static Location<'static>, off: usize, width: usize) {
        let (t, e) = (self.thread, self.epoch);
        let mut conflict: Option<(Access, bool)> = None; // (prior access, prior was a read)
        for cell in &mut self.shared[off..off + width] {
            if conflict.is_none() {
                if let Some(w) = cell.last_write {
                    if w.thread != t && w.epoch >= e {
                        conflict = Some((w, false));
                    }
                }
            }
            if conflict.is_none() {
                if let Some(r) = cell.last_read {
                    if r.thread != t && r.epoch >= e {
                        conflict = Some((r, true));
                    }
                }
            }
            cell.written = true;
            cell.last_write = Some(Access {
                thread: t,
                epoch: e,
                loc,
            });
        }
        if let Some((prior, prior_read)) = conflict {
            self.emit(
                CheckKind::Racecheck,
                Some(Space::Shared),
                loc,
                off as u64,
                width,
                || {
                    let what = if prior_read { "read" } else { "write" };
                    let other = source_of(prior.loc);
                    if prior.epoch == e {
                        format!(
                            "shared-memory race: write of {width} B at offset {off} conflicts \
                             with a {what} by thread {} at {other} in the same barrier interval \
                             (no ctx.sync() between)",
                            prior.thread
                        )
                    } else {
                        format!(
                            "cross-lane shared-memory dataflow the sequential-lane model cannot \
                             reproduce: write of {width} B at offset {off} in sync epoch {e} is \
                             barrier-ordered before a {what} thread {} already performed in \
                             epoch {} at {other}; the simulated value was stale",
                            prior.thread, prior.epoch
                        )
                    }
                },
            );
        }
    }

    /// racecheck + initcheck + shadow update for a shared-memory load.
    fn shared_read(&mut self, loc: &'static Location<'static>, off: usize, width: usize) {
        let (t, e) = (self.thread, self.epoch);
        let mut uninit = false;
        let mut conflict: Option<Access> = None;
        for cell in &mut self.shared[off..off + width] {
            uninit |= !cell.written;
            if conflict.is_none() {
                if let Some(w) = cell.last_write {
                    if w.thread != t && w.epoch >= e {
                        conflict = Some(w);
                    }
                }
            }
            cell.last_read = Some(Access {
                thread: t,
                epoch: e,
                loc,
            });
        }
        if uninit {
            self.emit(
                CheckKind::Initcheck,
                Some(Space::Shared),
                loc,
                off as u64,
                width,
                || {
                    format!(
                        "shared load of {width} B at offset {off} reads bytes no thread has \
                         written (shared memory is undefined at block start)"
                    )
                },
            );
        }
        if let Some(w) = conflict {
            self.emit(
                CheckKind::Racecheck,
                Some(Space::Shared),
                loc,
                off as u64,
                width,
                || {
                    let other = source_of(w.loc);
                    if w.epoch == e {
                        format!(
                            "shared-memory race: read of {width} B at offset {off} conflicts \
                             with a write by thread {} at {other} in the same barrier interval \
                             (no ctx.sync() between)",
                            w.thread
                        )
                    } else {
                        format!(
                            "cross-lane shared-memory dataflow the sequential-lane model cannot \
                             reproduce: read of {width} B at offset {off} in sync epoch {e} is \
                             barrier-ordered before a write thread {} already performed in \
                             epoch {} at {other}; the simulated value was stale",
                            w.thread, w.epoch
                        )
                    }
                },
            );
        }
    }

    /// Runs the synccheck analysis over the recorded barrier arrivals and
    /// returns the block's findings.
    ///
    /// At every barrier index the arriving threads must share one `sync()`
    /// source site; a mismatch is attributed to the *minority* site
    /// (deterministically: fewest arrivals, ties broken by resolved
    /// source position). Threads whose sequence is shorter — they exited
    /// before this barrier — are not counted, matching CUDA's treatment
    /// of early-returning threads. A thread that skips a barrier but
    /// keeps running is indistinguishable from an early exit in this
    /// model (a documented limit); its unordered shared accesses still
    /// surface through racecheck.
    pub(crate) fn into_report(mut self) -> SanReport {
        let rounds = self.sync_seqs.iter().map(|s| s.len()).max().unwrap_or(0);
        for n in 0..rounds {
            // site -> (arrivals, first arriving thread)
            let mut by_site: Vec<(&'static Location<'static>, u32, u32)> = Vec::new();
            for (t, seq) in self.sync_seqs.iter().enumerate() {
                if let Some(&loc) = seq.get(n) {
                    match by_site.iter_mut().find(|e| std::ptr::eq(e.0, loc)) {
                        Some(e) => e.1 += 1,
                        None => by_site.push((loc, 1, t as u32)),
                    }
                }
            }
            if by_site.len() < 2 {
                continue;
            }
            let total: u32 = by_site.iter().map(|e| e.1).sum();
            let sites = by_site.len();
            by_site.sort_by(|a, b| {
                a.1.cmp(&b.1).then_with(|| {
                    let key = |l: &'static Location<'static>| (l.file(), l.line(), l.column());
                    key(a.0).cmp(&key(b.0))
                })
            });
            let (loc, count, thread) = by_site[0];
            let site = loc as *const Location<'static> as usize;
            register_site(site, loc);
            let (block, source) = (self.block, site_source(site).map(|s| s.to_string()));
            self.report.absorb(Finding {
                kind: CheckKind::Synccheck,
                space: None,
                site,
                source,
                block,
                thread,
                addr: n as u64,
                width: 0,
                message: format!(
                    "barrier {n} reached through {sites} distinct sync() sites: only {count} \
                     of {total} arriving threads synced here (divergent __syncthreads)"
                ),
                occurrences: 1,
            });
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn dedup_folds_same_site_same_kind() {
        let loc = here();
        let mut san = BlockSan::new(0, 2, 8);
        san.begin_thread(0);
        san.emit(
            CheckKind::Memcheck,
            Some(Space::Global),
            loc,
            100,
            8,
            || "x".into(),
        );
        san.begin_thread(1);
        san.emit(
            CheckKind::Memcheck,
            Some(Space::Global),
            loc,
            108,
            8,
            || "y".into(),
        );
        let r = san.into_report();
        assert_eq!(r.len(), 1);
        assert_eq!(r.findings()[0].occurrences, 2);
        assert_eq!(r.findings()[0].thread, 0, "first occurrence wins");
        let src = r.findings()[0].source.as_deref().unwrap();
        assert!(src.contains("sancheck.rs"), "source = {src}");
    }

    #[test]
    fn same_epoch_cross_thread_conflict_is_a_race() {
        let (w, r) = (here(), here());
        let mut san = BlockSan::new(0, 2, 8);
        san.begin_thread(0);
        san.shared_write(w, 0, 8);
        san.begin_thread(1);
        san.shared_read(r, 0, 8);
        let rep = san.into_report();
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.findings()[0].kind, CheckKind::Racecheck);
        assert_eq!(rep.findings()[0].site, r as *const _ as usize);
    }

    #[test]
    fn barrier_separated_forward_flow_is_clean() {
        let (w, s, r) = (here(), here(), here());
        let mut san = BlockSan::new(0, 2, 8);
        san.begin_thread(0);
        san.shared_write(w, 0, 8);
        san.on_sync(s);
        san.begin_thread(1);
        san.on_sync(s);
        san.shared_read(r, 0, 8);
        assert!(san.into_report().is_clean());
    }

    #[test]
    fn backward_barrier_ordered_flow_is_reported_stale() {
        // Thread 0 reads in epoch 1 what thread 1 writes in epoch 0:
        // race-free under CUDA barriers, but the shadow sees thread 0's
        // read first — the write-side check must flag it.
        let (w, s, r) = (here(), here(), here());
        let mut san = BlockSan::new(0, 2, 8);
        san.begin_thread(0);
        san.on_sync(s);
        san.shared_read(r, 0, 8);
        san.begin_thread(1);
        san.shared_write(w, 0, 8);
        san.on_sync(s);
        let rep = san.into_report();
        assert_eq!(rep.len(), 2, "stale-order + uninit-read: {:?}", rep);
        assert!(rep.findings().iter().any(|f| f.kind == CheckKind::Racecheck
            && f.site == w as *const _ as usize
            && f.message.contains("stale")));
        assert!(rep
            .findings()
            .iter()
            .any(|f| f.kind == CheckKind::Initcheck));
    }

    #[test]
    fn own_thread_round_trip_is_clean() {
        let (w, r) = (here(), here());
        let mut san = BlockSan::new(0, 2, 16);
        for t in 0..2 {
            san.begin_thread(t);
            let off = t as usize * 8;
            san.shared_write(w, off, 8);
            san.shared_read(r, off, 8);
        }
        assert!(san.into_report().is_clean());
    }

    #[test]
    fn synccheck_flags_minority_site_once() {
        let (a, b) = (here(), here());
        let mut san = BlockSan::new(0, 4, 0);
        for t in 0..4 {
            san.begin_thread(t);
            san.on_sync(if t == 0 { a } else { b });
        }
        let rep = san.into_report();
        assert_eq!(rep.len(), 1);
        let f = &rep.findings()[0];
        assert_eq!(f.kind, CheckKind::Synccheck);
        assert_eq!(f.site, a as *const _ as usize);
        assert_eq!(f.thread, 0);
        assert_eq!(f.space, None);
    }

    #[test]
    fn early_exit_before_barrier_is_not_divergence() {
        let s = here();
        let mut san = BlockSan::new(0, 4, 0);
        for t in 0..3 {
            san.begin_thread(t);
            san.on_sync(s);
        }
        san.begin_thread(3); // guarded thread: returned before the sync
        assert!(san.into_report().is_clean());
    }

    #[test]
    fn report_merge_and_serialization() {
        let loc = here();
        let mut a = BlockSan::new(0, 1, 0);
        a.begin_thread(0);
        a.emit(CheckKind::Memcheck, Some(Space::Global), loc, 0, 4, || {
            "m".into()
        });
        let mut report = a.into_report();
        let mut b = BlockSan::new(1, 1, 0);
        b.begin_thread(0);
        b.emit(CheckKind::Memcheck, Some(Space::Global), loc, 4, 4, || {
            "m".into()
        });
        report.merge(&b.into_report());
        assert_eq!(report.len(), 1);
        assert_eq!(report.findings()[0].occurrences, 2);
        let json = report.to_json_value();
        assert_eq!(json.get("clean").and_then(|v| v.as_bool()), Some(false));
        let table = report.table();
        assert!(table.contains("memcheck"), "table:\n{table}");
        let clean = SanReport::new();
        assert!(clean.is_clean());
        assert_eq!(clean.table(), "");
        assert_eq!(
            clean.to_json_value().get("clean").and_then(|v| v.as_bool()),
            Some(true)
        );
    }
}
