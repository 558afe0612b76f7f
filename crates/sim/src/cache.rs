//! Generic set-associative, write-back cache model.
//!
//! All caches in the simulated hierarchy (L1-D, L1-I, L2, the LLC slices)
//! are instances of [`Cache`]. A cache keeps a 32-bit tag per line and
//! matches on the tag; per-set validity, dirtiness and LRU order live in
//! the set headers that the TLBs and the BTB share (`assoc`). On top the
//! cache adds dirty-line accounting, write-backs, statistics and the
//! pseudo-LRU noise draw on a full set's victim. The attacks in
//! `tp-attacks` observe it purely through latency, exactly as on real
//! hardware.

use crate::assoc::{find_way, Assoc};
use crate::noise::NoiseRng;
use crate::params::CacheGeom;

pub use crate::assoc::MAX_WAYS;

/// Replacement policy for victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Strict least-recently-used.
    Lru,
    /// LRU with occasional random deviations, modelling undocumented
    /// pseudo-LRU hardware. `noise` is the deviation probability in 1/256
    /// units. This is what makes the paper's "manual" L1 flush brittle
    /// (footnote 6): priming a cache-sized buffer does not always evict
    /// every stale line.
    PseudoLru {
        /// Deviation probability in 1/256 units.
        noise: u8,
    },
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty victim line had to be written back.
    pub writeback: bool,
    /// The line address (`tag * sets + set`, in line units) of the evicted
    /// line, if a valid line was evicted. Used to propagate evictions to
    /// outer levels or victims to write-back paths.
    pub evicted: Option<EvictedLine>,
}

/// Description of a line evicted from a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line address in units of lines (i.e. `paddr / line_size`) for
    /// physically-indexed caches.
    pub line_addr: u64,
    /// Whether the line was dirty.
    pub dirty: bool,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Dirty lines written back due to eviction or flush.
    pub writebacks: u64,
    /// Lines invalidated by flush operations.
    pub flushed_lines: u64,
}

/// A set-associative cache.
///
/// Indexing is left to the caller: L1 caches are virtually indexed /
/// physically tagged (index from the virtual address), while L2/LLC are
/// physically indexed. The cache itself only sees `(set, tag)` pairs plus a
/// canonical line address used for write-back propagation.
///
/// State is 4 bytes per line (its tag) plus a 16-byte header per set
/// (LRU order and valid/dirty bitmasks). This bounds the model to
/// [`MAX_WAYS`] ways and 32-bit tags.
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    geom: CacheGeom,
    sets: usize,
    ways: usize,
    /// Per-line tags, `ways` per set (the hit-scan row).
    tags: Vec<u32>,
    /// Per-set recency, validity and dirtiness.
    assoc: Assoc,
    policy: Replacement,
    /// Valid dirty lines, maintained incrementally.
    dirty_count: u64,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache with the given geometry and policy.
    ///
    /// # Panics
    /// Panics if the geometry has more than [`MAX_WAYS`] ways
    /// (`PlatformConfig::validate` rejects such a platform).
    #[must_use]
    pub fn new(name: &'static str, geom: CacheGeom, policy: Replacement) -> Self {
        let sets = geom.sets() as usize;
        let ways = geom.ways as usize;
        Cache {
            name,
            geom,
            sets,
            ways,
            tags: vec![0; sets * ways],
            assoc: Assoc::new(name, sets, ways),
            policy,
            dirty_count: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The cache geometry.
    #[must_use]
    pub fn geom(&self) -> CacheGeom {
        self.geom
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Accumulated statistics. (Hits are derived — the hit fast path
    /// maintains only the access counter.)
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.accesses - self.stats.misses,
            ..self.stats
        }
    }

    /// Access the line `(set, tag)`; on a miss the line is filled, possibly
    /// evicting a victim. `write` marks the line dirty on hit or fill.
    ///
    /// `line_addr` is the canonical line address recorded for evictions.
    ///
    /// # Panics
    /// Panics if `set` is out of range or `tag` does not fit in 32 bits.
    pub fn access(
        &mut self,
        set: usize,
        tag: u64,
        line_addr: u64,
        write: bool,
        noise: &mut NoiseRng,
    ) -> AccessOutcome {
        debug_assert!(set < self.sets, "{}: set {set} out of range", self.name);
        let Ok(tag) = u32::try_from(tag) else {
            panic!("{}: tag {tag:#x} does not fit in 32 bits", self.name);
        };
        self.stats.accesses += 1;
        let ways = self.ways;
        let base = set * ways;
        let m = self.assoc.header(set);
        if let Some(way) = find_way(&self.tags[base..base + ways], m.valid, tag) {
            if write && m.dirty >> way & 1 == 0 {
                self.assoc.mark_dirty(set, way);
                self.dirty_count += 1;
            }
            self.assoc.touch(set, way);
            return AccessOutcome {
                hit: true,
                writeback: false,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let mut outcome = AccessOutcome {
            hit: false,
            writeback: false,
            evicted: None,
        };
        // Miss: the first invalid way, else the LRU way. An invalid way
        // consumes nothing from the noise stream; only pseudo-LRU draws
        // (so LRU caches never touch the stream at all).
        let policy = self.policy;
        let (way, evicted) = self.assoc.fill(set, |lru| match policy {
            Replacement::Lru => lru,
            Replacement::PseudoLru { noise: p } => {
                if noise.next_u8() < p {
                    noise.below(ways as u64) as usize
                } else {
                    lru
                }
            }
        });
        if let Some(dirty) = evicted {
            outcome.evicted = Some(EvictedLine {
                line_addr: u64::from(self.tags[base + way]) * self.sets as u64 + set as u64,
                dirty,
            });
            if dirty {
                outcome.writeback = true;
                self.stats.writebacks += 1;
                self.dirty_count -= 1;
            }
        }
        if write {
            self.assoc.mark_dirty(set, way);
            self.dirty_count += 1;
        }
        self.tags[base + way] = tag;
        debug_assert_eq!(line_addr % self.sets as u64, set as u64 % self.sets as u64);
        outcome
    }

    /// The way of set `set` holding a valid `tag`, if any.
    fn lookup(&self, set: usize, tag: u64) -> Option<usize> {
        let tag = u32::try_from(tag).ok()?;
        let base = set * self.ways;
        find_way(
            &self.tags[base..base + self.ways],
            self.assoc.header(set).valid,
            tag,
        )
    }

    /// Probe without filling: returns `true` on a hit (used by inclusive
    /// back-invalidation checks and tests).
    #[must_use]
    pub fn peek(&self, set: usize, tag: u64) -> bool {
        self.lookup(set, tag).is_some()
    }

    /// Invalidate the line `(set, tag)` if present; returns whether it was
    /// present and whether it was dirty.
    pub fn invalidate_line(&mut self, set: usize, tag: u64) -> (bool, bool) {
        let Some(way) = self.lookup(set, tag) else {
            return (false, false);
        };
        let dirty = self.assoc.invalidate(set, way);
        self.stats.flushed_lines += 1;
        if dirty {
            self.dirty_count -= 1;
            self.stats.writebacks += 1;
        }
        (true, dirty)
    }

    /// Clean-and-invalidate the whole cache (e.g. Arm `DCCISW` over all
    /// sets/ways, or the relevant part of x86 `wbinvd`).
    ///
    /// Returns `(valid_lines, dirty_lines)` — the dirty count drives the
    /// write-back latency that the paper's cache-flush channel (§5.3.4)
    /// modulates. O(1): no line is touched.
    pub fn flush_all(&mut self) -> (u64, u64) {
        let valid = self.assoc.flush_all();
        let dirty = std::mem::take(&mut self.dirty_count);
        self.stats.flushed_lines += valid;
        self.stats.writebacks += dirty;
        (valid, dirty)
    }

    /// Invalidate without cleaning (instruction caches have no dirty data).
    ///
    /// Returns the number of valid lines invalidated.
    pub fn invalidate_all(&mut self) -> u64 {
        let (valid, _) = self.flush_all();
        valid
    }

    /// Whether the cache holds no valid line. O(1), unlike
    /// [`Cache::valid_lines`], whose debug check rescans every set.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.assoc.is_empty()
    }

    /// Count of currently valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> u64 {
        self.assoc.valid()
    }

    /// Count of currently dirty lines.
    #[must_use]
    pub fn dirty_lines(&self) -> u64 {
        debug_assert!(self.assoc.live().all(|m| m.dirty & !m.valid == 0));
        debug_assert_eq!(
            self.dirty_count,
            self.assoc
                .live()
                .map(|m| u64::from(m.dirty.count_ones()))
                .sum::<u64>()
        );
        self.dirty_count
    }

    /// Count of valid lines in one set.
    #[must_use]
    pub fn valid_in_set(&self, set: usize) -> u64 {
        u64::from(self.assoc.header(set).valid.count_ones())
    }
}

/// Shift/mask indexing for one physically indexed cache geometry,
/// precomputed so hot paths (prefetch fills, back-invalidation, scalar
/// planning) never divide. `PlatformConfig::validate` pins the
/// power-of-two line size and set count this relies on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GeomIdx {
    pub(crate) line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
}

impl GeomIdx {
    pub(crate) fn new(g: CacheGeom) -> Self {
        let sets = g.sets();
        debug_assert!(g.line.is_power_of_two() && sets.is_power_of_two());
        let line_shift = g.line.trailing_zeros();
        GeomIdx {
            line_shift,
            set_mask: sets - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
        }
    }

    #[inline]
    pub(crate) fn set(&self, pa: u64) -> usize {
        ((pa >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    pub(crate) fn tag(&self, pa: u64) -> u64 {
        pa >> self.tag_shift
    }
}

/// Compute the set index for a physically indexed cache.
#[must_use]
pub fn phys_set(geom: CacheGeom, paddr: u64) -> usize {
    GeomIdx::new(geom).set(paddr)
}

/// Compute the tag for a physically indexed cache.
#[must_use]
pub fn phys_tag(geom: CacheGeom, paddr: u64) -> u64 {
    GeomIdx::new(geom).tag(paddr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::EPOCH_MAX;
    use crate::params::CacheGeom;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines.
        let geom = CacheGeom {
            size: 512,
            ways: 2,
            line: 64,
        };
        Cache::new("t", geom, Replacement::Lru)
    }

    fn rng() -> NoiseRng {
        NoiseRng::seeded(7)
    }

    /// The naive reference model: the cache as it was before the compact
    /// set state. Per-line `tag << 16 | epoch` keys, whole-cache epochs,
    /// and per-line `recency << 1 | dirty` stamps from a 31-bit clock; the
    /// victim of a full set is found by scanning every stamp.
    struct Model {
        sets: usize,
        ways: usize,
        keys: Vec<u64>,
        stamps: Vec<u32>,
        policy: Replacement,
        clock: u32,
        epoch: u64,
        stats: CacheStats,
    }

    /// Epoch field of a model key.
    const MODEL_EPOCH_MASK: u64 = 0xFFFF;

    impl Model {
        fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
            Model {
                sets,
                ways,
                keys: vec![0; sets * ways],
                stamps: vec![0; sets * ways],
                policy,
                clock: 0,
                epoch: 1,
                stats: CacheStats::default(),
            }
        }

        fn valid(&self, i: usize) -> bool {
            self.keys[i] & MODEL_EPOCH_MASK == self.epoch
        }

        fn row(&self, set: usize) -> std::ops::Range<usize> {
            set * self.ways..(set + 1) * self.ways
        }

        fn find(&self, set: usize, tag: u64) -> Option<usize> {
            let want = tag << 16 | self.epoch;
            self.row(set).find(|&i| self.keys[i] == want)
        }

        fn access(
            &mut self,
            set: usize,
            tag: u64,
            write: bool,
            noise: &mut NoiseRng,
        ) -> AccessOutcome {
            self.clock += 1;
            self.stats.accesses += 1;
            let stamp = self.clock << 1 | u32::from(write);
            if let Some(i) = self.find(set, tag) {
                self.stamps[i] = stamp | self.stamps[i] & 1;
                self.stats.hits += 1;
                return AccessOutcome {
                    hit: true,
                    writeback: false,
                    evicted: None,
                };
            }
            self.stats.misses += 1;
            let row = self.row(set);
            let i = match row.clone().find(|&i| !self.valid(i)) {
                Some(i) => i,
                None => {
                    let lru = row
                        .clone()
                        .min_by_key(|&i| (self.stamps[i] >> 1, i))
                        .unwrap();
                    match self.policy {
                        Replacement::Lru => lru,
                        Replacement::PseudoLru { noise: p } => {
                            if noise.next_u8() < p {
                                row.start + noise.below(self.ways as u64) as usize
                            } else {
                                lru
                            }
                        }
                    }
                }
            };
            let mut outcome = AccessOutcome {
                hit: false,
                writeback: false,
                evicted: None,
            };
            if self.valid(i) {
                let dirty = self.stamps[i] & 1 != 0;
                outcome.evicted = Some(EvictedLine {
                    line_addr: (self.keys[i] >> 16) * self.sets as u64 + set as u64,
                    dirty,
                });
                outcome.writeback = dirty;
                self.stats.writebacks += u64::from(dirty);
            }
            self.keys[i] = tag << 16 | self.epoch;
            self.stamps[i] = stamp;
            outcome
        }

        fn invalidate_line(&mut self, set: usize, tag: u64) -> (bool, bool) {
            let Some(i) = self.find(set, tag) else {
                return (false, false);
            };
            let dirty = self.stamps[i] & 1 != 0;
            self.keys[i] = 0;
            self.stamps[i] &= !1;
            self.stats.flushed_lines += 1;
            self.stats.writebacks += u64::from(dirty);
            (true, dirty)
        }

        fn flush_all(&mut self) -> (u64, u64) {
            let (valid, dirty) = (self.valid_lines(), self.dirty_lines());
            if self.epoch == MODEL_EPOCH_MASK {
                self.keys.fill(0);
                self.epoch = 0;
            }
            self.epoch += 1;
            self.stats.flushed_lines += valid;
            self.stats.writebacks += dirty;
            (valid, dirty)
        }

        fn valid_in_set(&self, set: usize) -> u64 {
            self.row(set).filter(|&i| self.valid(i)).count() as u64
        }

        fn valid_lines(&self) -> u64 {
            (0..self.keys.len()).filter(|&i| self.valid(i)).count() as u64
        }

        fn dirty_lines(&self) -> u64 {
            (0..self.keys.len())
                .filter(|&i| self.valid(i) && self.stamps[i] & 1 != 0)
                .count() as u64
        }
    }

    /// The compact cache behaves exactly like the naive model on random
    /// streams of accesses, probes, line invalidations and flushes, on
    /// 1–16 ways under every policy: every outcome, the statistics, the
    /// valid and dirty counts and the position of the noise stream. Each
    /// stream starts fresh, or with the epoch a few flushes short of
    /// exhaustion.
    #[test]
    fn matches_the_naive_model() {
        const SETS: usize = 4;
        let policies = [Replacement::Lru, Replacement::PseudoLru { noise: 64 }];
        let mut r = NoiseRng::seeded(0x5eed);
        for ways in 1..=MAX_WAYS as usize {
            for policy in policies {
                for near_exhaustion in [false, true] {
                    let geom = CacheGeom {
                        size: (SETS * ways * 64) as u64,
                        ways: ways as u32,
                        line: 64,
                    };
                    let mut c = Cache::new("c", geom, policy);
                    let mut m = Model::new(SETS, ways, policy);
                    if near_exhaustion {
                        c.assoc.set_epoch(EPOCH_MAX - 2);
                        m.epoch = MODEL_EPOCH_MASK - 2;
                    }
                    let (mut nc, mut nm) =
                        (NoiseRng::seeded(ways as u64), NoiseRng::seeded(ways as u64));
                    // Tags from a range a little wider than a set, so
                    // hits, fills and evictions all happen.
                    let tags = ways as u64 + 3;
                    for step in 0..3_000 {
                        let set = r.below(SETS as u64) as usize;
                        let tag = r.below(tags);
                        let ctx = format!("ways {ways} {policy:?} {near_exhaustion} step {step}");
                        match r.below(100) {
                            0 => assert_eq!(c.flush_all(), m.flush_all(), "{ctx}"),
                            1..=5 => assert_eq!(
                                c.invalidate_line(set, tag),
                                m.invalidate_line(set, tag),
                                "{ctx}"
                            ),
                            6..=15 => {
                                assert_eq!(c.peek(set, tag), m.find(set, tag).is_some(), "{ctx}")
                            }
                            _ => {
                                let write = r.below(3) == 0;
                                let line_addr = tag * SETS as u64 + set as u64;
                                assert_eq!(
                                    c.access(set, tag, line_addr, write, &mut nc),
                                    m.access(set, tag, write, &mut nm),
                                    "{ctx}"
                                );
                            }
                        }
                        assert_eq!(c.stats(), m.stats, "{ctx}");
                        assert_eq!(c.valid_in_set(set), m.valid_in_set(set), "{ctx}");
                        assert_eq!(c.valid_lines(), m.valid_lines(), "{ctx}");
                        assert_eq!(c.dirty_lines(), m.dirty_lines(), "{ctx}");
                        assert_eq!(nc, nm, "{ctx}: noise stream position");
                    }
                }
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let mut r = rng();
        let out = c.access(0, 1, 4, false, &mut r);
        assert!(!out.hit);
        let out = c.access(0, 1, 4, false, &mut r);
        assert!(out.hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        let mut r = rng();
        c.access(0, 1, 4, false, &mut r);
        c.access(0, 2, 8, false, &mut r);
        // Touch tag 1 so tag 2 is LRU.
        c.access(0, 1, 4, false, &mut r);
        let out = c.access(0, 3, 12, false, &mut r);
        assert!(!out.hit);
        assert_eq!(out.evicted.unwrap().line_addr, 2 * 4);
        assert!(c.peek(0, 1));
        assert!(!c.peek(0, 2));
        assert!(c.peek(0, 3));
    }

    #[test]
    fn dirty_line_writes_back_on_eviction() {
        let mut c = small();
        let mut r = rng();
        c.access(0, 1, 4, true, &mut r);
        c.access(0, 2, 8, false, &mut r);
        let out = c.access(0, 3, 12, false, &mut r);
        assert!(out.writeback, "dirty LRU victim must write back");
        assert!(out.evicted.unwrap().dirty);
    }

    #[test]
    fn flush_reports_dirty_counts() {
        let mut c = small();
        let mut r = rng();
        c.access(0, 1, 4, true, &mut r);
        c.access(1, 1, 5, false, &mut r);
        c.access(2, 9, 38, true, &mut r);
        let (valid, dirty) = c.flush_all();
        assert_eq!(valid, 3);
        assert_eq!(dirty, 2);
        assert_eq!(c.valid_lines(), 0);
        // Idempotent.
        assert_eq!(c.flush_all(), (0, 0));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        let mut r = rng();
        c.access(0, 1, 4, false, &mut r);
        assert_eq!(c.dirty_lines(), 0);
        c.access(0, 1, 4, true, &mut r);
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn invalidate_line_hits_only_target() {
        let mut c = small();
        let mut r = rng();
        c.access(0, 1, 4, true, &mut r);
        c.access(0, 2, 8, false, &mut r);
        let (present, dirty) = c.invalidate_line(0, 1);
        assert!(present && dirty);
        assert!(!c.peek(0, 1));
        assert!(c.peek(0, 2));
        let (present, _) = c.invalidate_line(0, 1);
        assert!(!present);
    }

    #[test]
    fn phys_indexing_helpers() {
        let geom = CacheGeom {
            size: 256 * 1024,
            ways: 8,
            line: 64,
        };
        assert_eq!(geom.sets(), 512);
        assert_eq!(phys_set(geom, 0), 0);
        assert_eq!(phys_set(geom, 64), 1);
        assert_eq!(phys_set(geom, 64 * 512), 0);
        assert_eq!(phys_tag(geom, 64 * 512), 1);
    }

    #[test]
    fn pseudo_lru_fills_invalid_ways_first() {
        let geom = CacheGeom {
            size: 512,
            ways: 2,
            line: 64,
        };
        // Noise 255: nearly every victim choice deviates from LRU.
        let mut c = Cache::new("r", geom, Replacement::PseudoLru { noise: 255 });
        let mut r = rng();
        c.access(0, 1, 4, false, &mut r);
        let out = c.access(0, 2, 8, false, &mut r);
        assert!(out.evicted.is_none(), "second way was free");
        assert!(c.peek(0, 1) && c.peek(0, 2));
    }
}
