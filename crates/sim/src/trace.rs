//! Trace event vocabulary and the per-lane site/occurrence bookkeeping.
//!
//! Every [`crate::lockstep::WarpCtx`] instruction records an *event*
//! identified by its **site** — the `#[track_caller]` source location of
//! the call — and each executing lane's per-site **occurrence index** (how
//! many times that lane has executed this site). The pair `(site, occurrence)`
//! identifies one *warp slot*: the 32 lanes of a warp executing the same
//! static instruction for the same loop iteration land in the same slot,
//! which is exactly the lockstep-execution alignment a real SIMT front end
//! enforces for structured control flow.
//!
//! Divergence needs no special machinery: lanes that branch differently
//! simply execute *different* sites afterwards, producing distinct slots —
//! each of which costs full issue cycles — so divergent paths are
//! serialized in the timing model just as Fermi serializes them.

use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

/// Identifies a static instruction: the address of the `#[track_caller]`
/// `Location` for the `WarpCtx` call. `Location` statics have stable
/// addresses for the program's lifetime, so pointer identity is a sound
/// site key.
pub type Site = usize;

/// Resolved source position of a [`Site`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSource {
    /// Source file path from its last `crates/` component on, so it
    /// does not depend on where the checkout lives.
    pub file: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub column: u32,
}

impl std::fmt::Display for SiteSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

fn site_registry() -> &'static RwLock<std::collections::HashMap<Site, SiteSource, BuildPtrHasher>> {
    static REGISTRY: OnceLock<RwLock<std::collections::HashMap<Site, SiteSource, BuildPtrHasher>>> =
        OnceLock::new();
    REGISTRY.get_or_init(Default::default)
}

/// Trims a compiler-recorded source path to its part from the last
/// `crates/` component on. `file!()` is relative inside the workspace
/// but absolute when the crate is built as a path dependency from
/// outside it, so without this trim a report's site keys would depend
/// on where the checkout lives. A path with no `crates/` component is
/// returned unchanged.
pub(crate) fn workspace_path(file: &'static str) -> &'static str {
    match file.rfind("/crates/") {
        Some(i) => &file[i + 1..],
        None => file,
    }
}

/// Registers a site's source position. Called when a profiling
/// accumulator folds a site's first slot contribution, and when the
/// sanitizer ([`crate::sancheck`]) records a finding at a site; plain
/// unprofiled launches never reach the registry.
#[cold]
pub(crate) fn register_site(site: Site, loc: &'static std::panic::Location<'static>) {
    let registry = site_registry();
    if registry
        .read()
        .expect("site registry poisoned")
        .contains_key(&site)
    {
        return;
    }
    registry.write().expect("site registry poisoned").insert(
        site,
        SiteSource {
            file: workspace_path(loc.file()),
            line: loc.line(),
            column: loc.column(),
        },
    );
}

/// Resolves a site to its source position. Returns `None` for sites never
/// executed under an active profile (including synthetic test sites), so
/// resolution never dereferences the site value.
pub fn site_source(site: Site) -> Option<SiteSource> {
    site_registry()
        .read()
        .expect("site registry poisoned")
        .get(&site)
        .copied()
}

/// Classification of an arithmetic event, used for both issue-cost
/// weighting (Fermi FP64 runs at half rate) and FLOP accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Integer / logic / address arithmetic.
    Int,
    /// Single-precision floating point.
    F32,
    /// Double-precision floating point.
    F64,
}

/// Memory space of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Off-chip global memory (device DRAM through L2).
    Global,
    /// Off-chip *local* memory (per-thread spill space; physically DRAM,
    /// laid out interleaved so that uniform per-lane slot accesses
    /// coalesce — faithful to Fermi).
    Local,
    /// On-chip shared memory (banked, no DRAM transactions).
    Shared,
}

/// Fast multiply-shift hasher for site pointers and slot keys. Sites are
/// `&'static Location` addresses — already well distributed — so SipHash's
/// DoS protection is pure overhead on this hot path (the performance-book
/// guidance on alternative hashers).
#[derive(Default)]
pub struct PtrHasher(u64);

impl Hasher for PtrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the high (well-mixed) bits of the product into the low bits
        // the hash table indexes with; aligned pointers otherwise collide.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fibonacci-style mixing over 8-byte chunks; inputs are small keys.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(buf)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = (self.0 ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`PtrHasher`].
pub type BuildPtrHasher = BuildHasherDefault<PtrHasher>;

/// Interns [`Site`] pointers to dense small indices so the lockstep
/// recorder and the slot fold can keep all per-site state in flat arrays
/// instead of hash maps (see [`crate::lockstep`]).
///
/// A kernel has a few dozen static sites, so the open-addressing table
/// stays tiny and the hot lookup is one multiply, one shift, and — for
/// well-distributed `Location` addresses — almost always a single probe.
#[derive(Debug)]
pub struct SiteInterner {
    /// Open-addressing key table; 0 marks an empty bucket (sites are
    /// `&'static Location` addresses and test constants, never null).
    keys: Vec<Site>,
    /// Dense index for the site in the same bucket of `keys`.
    dense: Vec<u32>,
    /// Dense index → site (insertion order).
    sites: Vec<Site>,
    /// Right-shift applied to the multiplied hash; `64 - log2(capacity)`.
    shift: u32,
}

impl SiteInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        let cap = 128usize;
        SiteInterner {
            keys: vec![0; cap],
            dense: vec![0; cap],
            sites: Vec::new(),
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Number of distinct sites interned.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site interned at dense index `d`.
    pub fn site(&self, d: u32) -> Site {
        self.sites[d as usize]
    }

    #[inline]
    fn bucket(&self, site: Site) -> usize {
        ((site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Returns the dense index of `site`, assigning the next one on first
    /// sight.
    #[inline]
    pub fn intern(&mut self, site: Site) -> u32 {
        debug_assert_ne!(site, 0, "null site");
        let mask = self.keys.len() - 1;
        let mut b = self.bucket(site);
        loop {
            let k = self.keys[b];
            if k == site {
                return self.dense[b];
            }
            if k == 0 {
                let d = self.sites.len() as u32;
                self.sites.push(site);
                self.keys[b] = site;
                self.dense[b] = d;
                // Capacity doubles at 1/2 load so probe chains stay short.
                if self.sites.len() * 2 > self.keys.len() {
                    self.grow();
                }
                return d;
            }
            b = (b + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        self.keys = vec![0; cap];
        self.dense = vec![0; cap];
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for (d, &site) in self.sites.iter().enumerate() {
            let mut b = ((site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
            while self.keys[b] != 0 {
                b = (b + 1) & mask;
            }
            self.keys[b] = site;
            self.dense[b] = d as u32;
        }
    }
}

impl Default for SiteInterner {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-lane site → occurrence-count map, cleared at the start of each lane.
#[derive(Debug, Default)]
pub struct SiteCounters {
    map: std::collections::HashMap<Site, u32, BuildPtrHasher>,
}

impl SiteCounters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the occurrence index for `site` and increments it.
    #[inline]
    pub fn next(&mut self, site: Site) -> u32 {
        let c = self.map.entry(site).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    /// Clears all counters (called when a new lane begins).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_path_drops_the_checkout_prefix() {
        assert_eq!(
            workspace_path("/home/ci/checkout/crates/core/src/kernels/mod.rs"),
            "crates/core/src/kernels/mod.rs"
        );
        assert_eq!(
            workspace_path("crates/core/src/kernels/mod.rs"),
            "crates/core/src/kernels/mod.rs"
        );
        assert_eq!(workspace_path("src/bin/mogpu.rs"), "src/bin/mogpu.rs");
    }

    #[test]
    fn occurrences_increment_per_site() {
        let mut c = SiteCounters::new();
        let a = 0x1000;
        let b = 0x2000;
        assert_eq!(c.next(a), 0);
        assert_eq!(c.next(a), 1);
        assert_eq!(c.next(b), 0);
        assert_eq!(c.next(a), 2);
        c.clear();
        assert_eq!(c.next(a), 0);
    }

    #[test]
    fn ptr_hasher_distributes_aligned_pointers() {
        // Aligned pointers differ only in high-ish bits; the hash must
        // still spread them across buckets.
        use std::hash::BuildHasher;
        let bh = BuildPtrHasher::default();
        let mut buckets = [0u32; 16];
        for i in 0..1024usize {
            let p = 0x5555_0000 + i * 64;
            buckets[(bh.hash_one(p) % 16) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        assert!(max < 3 * min.max(1), "poor distribution: {buckets:?}");
    }

    #[test]
    fn interner_assigns_dense_ids_in_first_sight_order() {
        let mut it = SiteInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.intern(0x1000), 0);
        assert_eq!(it.intern(0x2000), 1);
        assert_eq!(it.intern(0x1000), 0);
        assert_eq!(it.intern(0x3000), 2);
        assert_eq!(it.len(), 3);
        assert_eq!(it.site(1), 0x2000);
    }

    #[test]
    fn interner_survives_growth() {
        let mut it = SiteInterner::new();
        // Far past the initial capacity, with aligned-pointer-style keys.
        for i in 0..1000usize {
            assert_eq!(it.intern(0x4000_0000 + i * 64) as usize, i);
        }
        for i in 0..1000usize {
            assert_eq!(it.intern(0x4000_0000 + i * 64) as usize, i, "stable");
            assert_eq!(it.site(i as u32), 0x4000_0000 + i * 64);
        }
        assert_eq!(it.len(), 1000);
    }

    #[test]
    fn unknown_sites_resolve_to_none() {
        // Synthetic site values (as the warp tests use) must not resolve —
        // and in particular must not be dereferenced.
        assert_eq!(site_source(0x1000), None);
        assert_eq!(site_source(0), None);
    }

    #[track_caller]
    fn here() -> (&'static std::panic::Location<'static>, Site) {
        let loc = std::panic::Location::caller();
        (loc, loc as *const _ as usize)
    }

    #[test]
    fn registration_resolves_source_position() {
        let (loc, site) = here();
        // This call site is unique to this test, so it cannot have been
        // registered by anything else.
        assert_eq!(site_source(site), None);
        register_site(site, loc);
        register_site(site, loc); // idempotent
        let src = site_source(site).expect("registered site must resolve");
        assert!(src.file.ends_with("trace.rs"), "file = {}", src.file);
        assert!(src.line > 0);
        assert_eq!(format!("{src}"), format!("{}:{}", src.file, src.line));
    }

    #[test]
    fn location_sites_are_stable() {
        // Repeated executions of one call site share a Location; a
        // different call site differs.
        let mut sites = Vec::new();
        for _ in 0..2 {
            sites.push(here().1);
        }
        let c = here().1;
        assert_eq!(sites[0], sites[1]);
        assert_ne!(sites[0], c);
    }
}
