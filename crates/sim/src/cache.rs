//! Generic set-associative, write-back cache model.
//!
//! All caches in the simulated hierarchy (L1-D, L1-I, L2, the LLC slices)
//! are instances of [`Cache`]. The model tracks per-line validity, dirtiness
//! and recency; the attacks in `tp-attacks` observe it purely through
//! latency, exactly as on real hardware.

use crate::noise::NoiseRng;
use crate::params::CacheGeom;

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
    /// Uniformly random victim.
    Random,
}

/// Validity-epoch width inside a packed line key: the key is
/// `tag << EPOCH_BITS | epoch`, and a line is valid iff its epoch field
/// equals the cache's current epoch. A whole-cache flush is then an epoch
/// bump plus the counters instead of touching every line (`wbinvd` on a
/// multi-megabyte LLC used to dominate the full-flush experiment cells),
/// and — because tag and validity live in one word — the hit scan is a
/// single integer compare per way over a contiguous `u64` row, the
/// simulator's innermost loop.
const EPOCH_BITS: u32 = 16;
/// Mask of the epoch field.
const EPOCH_MASK: u64 = (1 << EPOCH_BITS) - 1;
/// Largest usable epoch; reaching it triggers a physical clear.
const EPOCH_MAX: u64 = EPOCH_MASK;

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
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    geom: CacheGeom,
    sets: usize,
    ways: usize,
    /// Per-line `tag << EPOCH_BITS | epoch` keys (the scan array).
    keys: Vec<u64>,
    /// Per-line `recency << 1 | dirty` words. The recency clock is
    /// truncated to 31 bits and renormalised before it wraps, so LRU order
    /// is never ambiguous; the dirty flag rides in the LSB (clock values
    /// are unique per access, so ordering is unaffected).
    stamps: Vec<u32>,
    policy: Replacement,
    clock: u32,
    /// Current validity epoch (starts at 1; a zeroed key is invalid).
    epoch: u64,
    /// Valid lines, maintained incrementally (O(1) flush accounting).
    valid_count: u64,
    /// Valid dirty lines, maintained incrementally.
    dirty_count: u64,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache with the given geometry and policy.
    #[must_use]
    pub fn new(name: &'static str, geom: CacheGeom, policy: Replacement) -> Self {
        let sets = geom.sets() as usize;
        let ways = geom.ways as usize;
        Cache {
            name,
            geom,
            sets,
            ways,
            keys: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            policy,
            clock: 0,
            epoch: 1,
            valid_count: 0,
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

    /// Number of ways.
    #[must_use]
    pub fn num_ways(&self) -> usize {
        self.ways
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

    /// Reset statistics (state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Access the line `(set, tag)`; on a miss the line is filled, possibly
    /// evicting a victim. `write` marks the line dirty on hit or fill.
    ///
    /// `line_addr` is the canonical line address recorded for evictions.
    ///
    /// # Panics
    /// Panics if `set` is out of range.
    pub fn access(
        &mut self,
        set: usize,
        tag: u64,
        line_addr: u64,
        write: bool,
        noise: &mut NoiseRng,
    ) -> AccessOutcome {
        debug_assert!(set < self.sets, "{}: set {set} out of range", self.name);
        if self.clock == u32::MAX >> 1 {
            // Renormalise recency before the 31-bit clock wraps (every ~2G
            // accesses per cache): clear the recency bits (keeping dirty
            // flags), restart the clock. Deterministic, and only the
            // relative order within a set matters for LRU.
            for s in &mut self.stamps {
                *s &= 1;
            }
            self.clock = 0;
        }
        self.clock += 1;
        let clock = self.clock;
        self.stats.accesses += 1;
        let ways = self.ways;
        let policy = self.policy;
        let epoch = self.epoch;
        let base = set * ways;
        let want = (tag << EPOCH_BITS) | epoch;
        // Hit scan: one integer compare per way over the contiguous key
        // row (stamps and dirty flags are only touched on the hit way).
        for (i, k) in self.keys[base..base + ways].iter().enumerate() {
            if *k == want {
                let old = self.stamps[base + i];
                if write && old & 1 == 0 {
                    self.dirty_count += 1;
                }
                self.stamps[base + i] = (clock << 1) | (old & 1) | u32::from(write);
                return AccessOutcome {
                    hit: true,
                    writeback: false,
                    evicted: None,
                };
            }
        }
        self.stats.misses += 1;
        // Miss: the first invalid way, else the LRU way. An invalid way
        // consumes nothing from the noise stream; only the noisy policies
        // draw (so LRU caches never touch the stream at all).
        let (way, free) = victim(
            &self.keys[base..base + ways],
            &self.stamps[base..base + ways],
            epoch,
        );
        let victim_idx = if free {
            way
        } else {
            match policy {
                Replacement::Lru => way,
                Replacement::PseudoLru { noise: p } => {
                    if noise.next_u8() < p {
                        noise.below(ways as u64) as usize
                    } else {
                        way
                    }
                }
                Replacement::Random => noise.below(ways as u64) as usize,
            }
        };
        let vkey = self.keys[base + victim_idx];
        let vdirty = self.stamps[base + victim_idx] & 1 != 0;
        let mut outcome = AccessOutcome {
            hit: false,
            writeback: false,
            evicted: None,
        };
        if vkey & EPOCH_MASK == epoch {
            outcome.evicted = Some(EvictedLine {
                line_addr: (vkey >> EPOCH_BITS) * self.sets as u64 + set as u64,
                dirty: vdirty,
            });
            if vdirty {
                outcome.writeback = true;
                self.stats.writebacks += 1;
                self.dirty_count -= 1;
            }
        } else {
            self.valid_count += 1;
        }
        if write {
            self.dirty_count += 1;
        }
        self.keys[base + victim_idx] = want;
        self.stamps[base + victim_idx] = (clock << 1) | u32::from(write);
        debug_assert_eq!(line_addr % self.sets as u64, set as u64 % self.sets as u64);
        outcome
    }

    /// Probe without filling: returns `true` on a hit (used by inclusive
    /// back-invalidation checks and tests).
    #[must_use]
    pub fn peek(&self, set: usize, tag: u64) -> bool {
        let base = set * self.ways;
        let want = (tag << EPOCH_BITS) | self.epoch;
        self.keys[base..base + self.ways].contains(&want)
    }

    /// Invalidate the line `(set, tag)` if present; returns whether it was
    /// present and whether it was dirty.
    pub fn invalidate_line(&mut self, set: usize, tag: u64) -> (bool, bool) {
        let base = set * self.ways;
        let want = (tag << EPOCH_BITS) | self.epoch;
        for i in 0..self.ways {
            if self.keys[base + i] == want {
                let dirty = self.stamps[base + i] & 1 != 0;
                self.keys[base + i] = 0;
                self.stamps[base + i] &= !1;
                self.valid_count -= 1;
                self.stats.flushed_lines += 1;
                if dirty {
                    self.dirty_count -= 1;
                    self.stats.writebacks += 1;
                }
                return (true, dirty);
            }
        }
        (false, false)
    }

    /// Clean-and-invalidate the whole cache (e.g. Arm `DCCISW` over all
    /// sets/ways, or the relevant part of x86 `wbinvd`).
    ///
    /// Returns `(valid_lines, dirty_lines)` — the dirty count drives the
    /// write-back latency that the paper's cache-flush channel (§5.3.4)
    /// modulates. O(1): validity is epoch-tagged and the counts are
    /// maintained incrementally, so no line is touched.
    pub fn flush_all(&mut self) -> (u64, u64) {
        let valid = self.valid_count;
        let dirty = self.dirty_count;
        if self.epoch == EPOCH_MAX {
            // Epoch exhaustion (every ~65k flushes): physically clear once
            // and restart. Deterministic and invisible to callers.
            for k in &mut self.keys {
                *k = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.valid_count = 0;
        self.dirty_count = 0;
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
    /// [`Cache::valid_lines`], whose debug check rescans every line.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.valid_count == 0
    }

    /// Count of currently valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> u64 {
        debug_assert_eq!(
            self.valid_count,
            self.keys
                .iter()
                .filter(|k| *k & EPOCH_MASK == self.epoch)
                .count() as u64
        );
        self.valid_count
    }

    /// Count of currently dirty lines.
    #[must_use]
    pub fn dirty_lines(&self) -> u64 {
        debug_assert_eq!(
            self.dirty_count,
            self.keys
                .iter()
                .zip(&self.stamps)
                .filter(|(k, s)| **k & EPOCH_MASK == self.epoch && **s & 1 != 0)
                .count() as u64
        );
        self.dirty_count
    }

    /// Count of valid lines in one set.
    #[must_use]
    pub fn valid_in_set(&self, set: usize) -> u64 {
        let base = set * self.ways;
        self.keys[base..base + self.ways]
            .iter()
            .filter(|k| *k & EPOCH_MASK == self.epoch)
            .count() as u64
    }
}

/// Victim choice over one set row: `(way, free)`, where `way` is the first
/// invalid way (`free`), else the first valid way of least recency.
///
/// A branch-free minimum over packed `(recency + 1) << 8 | way` keys picks
/// the same way but measured slower on the miss paths that dominate
/// (DESIGN.md § Miss path), so the loop stays.
#[inline]
fn victim(keys: &[u64], stamps: &[u32], epoch: u64) -> (usize, bool) {
    let mut invalid_idx = None;
    let mut lru_idx = 0usize;
    let mut lru_stamp = u32::MAX;
    for (i, (k, s)) in keys.iter().zip(stamps).enumerate() {
        if k & EPOCH_MASK == epoch {
            if s >> 1 < lru_stamp {
                lru_stamp = s >> 1;
                lru_idx = i;
            }
        } else if invalid_idx.is_none() {
            invalid_idx = Some(i);
        }
    }
    match invalid_idx {
        Some(i) => (i, true),
        None => (lru_idx, false),
    }
}

/// Compute the set index for a physically indexed cache.
#[must_use]
pub fn phys_set(geom: CacheGeom, paddr: u64) -> usize {
    ((paddr / geom.line) % geom.sets()) as usize
}

/// Compute the tag for a physically indexed cache.
#[must_use]
pub fn phys_tag(geom: CacheGeom, paddr: u64) -> u64 {
    paddr / geom.line / geom.sets()
}

/// Compute the set index for a virtually indexed cache (L1 VIPT).
#[must_use]
pub fn virt_set(geom: CacheGeom, vaddr: u64) -> usize {
    ((vaddr / geom.line) % geom.sets()) as usize
}

/// The tag of a VIPT cache comes from the physical address; we use the full
/// physical line address so aliases are impossible in the model.
#[must_use]
pub fn vipt_tag(geom: CacheGeom, paddr: u64) -> u64 {
    paddr / geom.line
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// [`victim`]'s rule written as its specification: the first invalid
    /// way, else the valid way of least `(recency, index)`.
    fn victim_spec(keys: &[u64], stamps: &[u32], epoch: u64) -> (usize, bool) {
        let ways = 0..keys.len();
        match ways.clone().find(|&w| keys[w] & EPOCH_MASK != epoch) {
            Some(w) => (w, true),
            None => (ways.min_by_key(|&w| (stamps[w] >> 1, w)).unwrap(), false),
        }
    }

    /// The victim loop picks the way its specification picks, on random
    /// rows of 1–16 ways that mix valid, stale-epoch and zeroed lines.
    /// Recency is drawn from a tiny range (ties are common) or the full 31
    /// bits, or is 0 on every line: the state right after a clock
    /// renormalisation.
    #[test]
    fn victim_matches_its_specification() {
        let mut r = NoiseRng::seeded(0x5eed);
        for case in 0..20_000u64 {
            let ways = 1 + r.below(16) as usize;
            let epoch = 1 + r.below(EPOCH_MAX - 1);
            let mut keys = Vec::with_capacity(ways);
            let mut stamps = Vec::with_capacity(ways);
            for w in 0..ways as u64 {
                keys.push(match r.below(3) {
                    0 => 0,
                    1 => (w + 9) << EPOCH_BITS | (epoch - 1),
                    _ => (w + 9) << EPOCH_BITS | epoch,
                });
                let recency = match case % 3 {
                    0 => 0,
                    1 => r.below(4) as u32,
                    _ => r.below(1 << 31) as u32,
                };
                stamps.push(recency << 1 | r.below(2) as u32);
            }
            assert_eq!(
                victim(&keys, &stamps, epoch),
                victim_spec(&keys, &stamps, epoch),
                "keys {keys:?} stamps {stamps:?} epoch {epoch}"
            );
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
    fn random_policy_fills_invalid_ways_first() {
        let geom = CacheGeom {
            size: 512,
            ways: 2,
            line: 64,
        };
        let mut c = Cache::new("r", geom, Replacement::Random);
        let mut r = rng();
        c.access(0, 1, 4, false, &mut r);
        let out = c.access(0, 2, 8, false, &mut r);
        assert!(out.evicted.is_none(), "second way was free");
        assert!(c.peek(0, 1) && c.peek(0, 2));
    }
}
