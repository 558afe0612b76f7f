//! TLB model: first-level I/D TLBs backed by a unified second-level TLB.
//!
//! Entries are tagged with an ASID unless they are *global* mappings. The
//! distinction matters for the paper's Table 5: the baseline seL4 kernel
//! maps its own text globally, while a clone-capable ("colour-ready")
//! kernel must use per-ASID kernel mappings, which on the Sabre's 2-way
//! second-level TLB causes measurable extra conflict misses on IPC.

use crate::params::TlbGeom;
use crate::Asid;

/// One TLB entry, packed to 16 bytes (the lookup scan is on the simulator's
/// per-access hot path). `meta` packs the ASID (bits 0..16), the global
/// flag (bit 16) and the valid flag (bit 17); `stamp` is the recency clock
/// truncated to 32 bits, renormalised before it can wrap.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    vpn: u64,
    stamp: u32,
    meta: u32,
}

const META_GLOBAL: u32 = 1 << 16;
const META_VALID: u32 = 1 << 17;

impl Entry {
    #[inline]
    fn valid(self) -> bool {
        self.meta & META_VALID != 0
    }

    #[inline]
    fn global(self) -> bool {
        self.meta & META_GLOBAL != 0
    }

    #[inline]
    fn asid(self) -> u16 {
        self.meta as u16
    }
}

/// Where a translation was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLevel {
    /// Hit in the first-level TLB: no extra latency.
    L1,
    /// Hit in the second-level TLB.
    L2,
    /// Full miss: page-table walk required.
    Walk,
}

/// A single TLB array (used for I-TLB, D-TLB and the second level).
#[derive(Debug, Clone)]
pub struct TlbArray {
    name: &'static str,
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two: the per-access
    /// set-index computation is then a mask instead of a division.
    set_mask: Option<u64>,
    entries: Vec<Entry>,
    clock: u32,
    hits: u64,
    misses: u64,
}

impl TlbArray {
    /// Create an empty TLB with the given geometry.
    #[must_use]
    pub fn new(name: &'static str, geom: TlbGeom) -> Self {
        let sets = geom.sets() as usize;
        let ways = geom.ways as usize;
        TlbArray {
            name,
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            entries: vec![Entry::default(); sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The TLB name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        match self.set_mask {
            Some(m) => (vpn & m) as usize,
            None => (vpn % self.sets as u64) as usize,
        }
    }

    /// Renormalise recency stamps before the 32-bit clock wraps (every
    /// ~4G lookups); deterministic, and only relative order matters.
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            for e in &mut self.entries {
                e.stamp = 0;
            }
            self.clock = 0;
        }
        self.clock += 1;
        self.clock
    }

    /// Fused lookup-or-fill: one pass that returns `true` on a hit (global
    /// entries match any ASID) and otherwise installs the translation into
    /// the first invalid (else LRU) way. The hierarchy walk fills every
    /// level it misses, so a separate lookup and fill would scan each set
    /// twice.
    pub fn access(&mut self, asid: Asid, vpn: u64, global: bool) -> bool {
        let clock = self.tick();
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let slice = &mut self.entries[base..base + self.ways];
        let mut victim = 0usize;
        let mut best = u32::MAX;
        let mut found_invalid = false;
        for (i, e) in slice.iter_mut().enumerate() {
            if e.valid() {
                if e.vpn == vpn && (e.global() || e.asid() == asid.0) {
                    e.stamp = clock;
                    self.hits += 1;
                    return true;
                }
                if !found_invalid && e.stamp < best {
                    best = e.stamp;
                    victim = i;
                }
            } else if !found_invalid {
                found_invalid = true;
                victim = i;
            }
        }
        self.misses += 1;
        slice[victim] = Entry {
            vpn,
            stamp: clock,
            meta: u32::from(asid.0) | if global { META_GLOBAL } else { 0 } | META_VALID,
        };
        false
    }

    /// Invalidate everything; returns the number of valid entries dropped.
    pub fn flush_all(&mut self) -> u64 {
        let mut n = 0;
        for e in &mut self.entries {
            if e.valid() {
                n += 1;
                e.meta &= !META_VALID;
            }
        }
        n
    }

    /// Invalidate all non-global entries of one ASID.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        let mut n = 0;
        for e in &mut self.entries {
            if e.valid() && !e.global() && e.asid() == asid.0 {
                n += 1;
                e.meta &= !META_VALID;
            }
        }
        n
    }

    /// Number of valid entries.
    #[must_use]
    pub fn valid_entries(&self) -> u64 {
        self.entries.iter().filter(|e| e.valid()).count() as u64
    }

    /// Hit/miss counters `(hits, misses)`.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The full per-core TLB hierarchy.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    /// First-level instruction TLB.
    pub itlb: TlbArray,
    /// First-level data TLB.
    pub dtlb: TlbArray,
    /// Unified second-level TLB.
    pub stlb: TlbArray,
}

impl TlbHierarchy {
    /// Build the hierarchy from platform geometry.
    #[must_use]
    pub fn new(itlb: TlbGeom, dtlb: TlbGeom, stlb: TlbGeom) -> Self {
        TlbHierarchy {
            itlb: TlbArray::new("itlb", itlb),
            dtlb: TlbArray::new("dtlb", dtlb),
            stlb: TlbArray::new("stlb", stlb),
        }
    }

    /// Translate `vpn` for an instruction (`insn = true`) or data access,
    /// filling the missed levels. Returns where the translation was found.
    pub fn translate(&mut self, asid: Asid, vpn: u64, insn: bool, global: bool) -> TlbLevel {
        // Every missed level is filled, so each array uses the fused
        // single-pass lookup-or-fill.
        let l1 = if insn { &mut self.itlb } else { &mut self.dtlb };
        if l1.access(asid, vpn, global) {
            return TlbLevel::L1;
        }
        if self.stlb.access(asid, vpn, global) {
            TlbLevel::L2
        } else {
            TlbLevel::Walk
        }
    }

    /// Flush the complete hierarchy (Arm `TLBIALL`, x86 `invpcid` all).
    /// Returns entries dropped.
    pub fn flush_all(&mut self) -> u64 {
        self.itlb.flush_all() + self.dtlb.flush_all() + self.stlb.flush_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`TlbArray::access`] against a naive model that spells its rule
    /// out: a hit is the first valid entry of the set with the VPN and a
    /// matching ASID (or global); a miss fills the first invalid way, else
    /// the way of least `(stamp, index)`. Random accesses and flushes on
    /// arrays of 1–2 sets and 1–6 ways; a clock near its wrap point covers
    /// the renormalisation, after which every stamp is 0.
    #[test]
    fn access_matches_a_naive_model() {
        let mut r = crate::NoiseRng::seeded(0x71b);
        for case in 0..300u64 {
            let ways = 1 + r.below(6) as u32;
            let sets = 1 + r.below(2) as u32;
            let mut t = TlbArray::new(
                "t",
                TlbGeom {
                    entries: sets * ways,
                    ways,
                },
            );
            if case % 4 == 0 {
                t.clock = u32::MAX - 20;
            }
            let mut model = t.entries.clone();
            for _ in 0..200 {
                let (asid, vpn, global) = (r.below(3) as u16, r.below(12), r.below(8) == 0);
                match r.below(40) {
                    0 => {
                        t.flush_all();
                        model.iter_mut().for_each(|e| e.meta &= !META_VALID);
                        continue;
                    }
                    1 => {
                        t.flush_asid(Asid(asid));
                        for e in &mut model {
                            if !e.global() && e.asid() == asid {
                                e.meta &= !META_VALID;
                            }
                        }
                        continue;
                    }
                    _ => {}
                }
                if t.clock == u32::MAX {
                    model.iter_mut().for_each(|e| e.stamp = 0);
                }
                let clock = t.clock.wrapping_add(1).max(1);
                let base = (vpn % u64::from(sets)) as usize * ways as usize;
                let row = &mut model[base..base + ways as usize];
                let hit = row
                    .iter()
                    .position(|e| e.valid() && e.vpn == vpn && (e.global() || e.asid() == asid));
                let slot = hit.unwrap_or_else(|| {
                    let ways = 0..row.len();
                    ways.clone()
                        .find(|&w| !row[w].valid())
                        .unwrap_or_else(|| ways.min_by_key(|&w| (row[w].stamp, w)).unwrap())
                });
                if hit.is_none() {
                    let g = if global { META_GLOBAL } else { 0 };
                    row[slot] = Entry {
                        vpn,
                        stamp: 0,
                        meta: u32::from(asid) | g | META_VALID,
                    };
                }
                row[slot].stamp = clock;
                assert_eq!(
                    t.access(Asid(asid), vpn, global),
                    hit.is_some(),
                    "case {case}"
                );
                for (a, b) in t.entries.iter().zip(&model) {
                    assert_eq!(
                        (a.vpn, a.stamp, a.meta),
                        (b.vpn, b.stamp, b.meta),
                        "case {case}"
                    );
                }
            }
        }
    }

    fn hier() -> TlbHierarchy {
        TlbHierarchy::new(
            TlbGeom {
                entries: 4,
                ways: 2,
            },
            TlbGeom {
                entries: 4,
                ways: 2,
            },
            TlbGeom {
                entries: 8,
                ways: 2,
            },
        )
    }

    #[test]
    fn walk_then_l1_hit() {
        let mut t = hier();
        assert_eq!(t.translate(Asid(1), 100, false, false), TlbLevel::Walk);
        assert_eq!(t.translate(Asid(1), 100, false, false), TlbLevel::L1);
    }

    #[test]
    fn asid_isolation() {
        let mut t = hier();
        t.translate(Asid(1), 100, false, false);
        // A different ASID must not hit a non-global entry.
        assert_eq!(t.translate(Asid(2), 100, false, false), TlbLevel::Walk);
    }

    #[test]
    fn global_entries_match_all_asids() {
        let mut t = hier();
        t.translate(Asid(1), 100, false, true);
        assert_eq!(t.translate(Asid(2), 100, false, false), TlbLevel::L1);
    }

    #[test]
    fn l2_backs_l1_evictions() {
        let mut t = hier();
        // D-TLB has 2 sets x 2 ways; vpns 0,2,4 collide in set 0.
        for vpn in [0u64, 2, 4] {
            t.translate(Asid(1), vpn, false, false);
        }
        // vpn 0 was evicted from the D-TLB but still lives in the L2 TLB.
        assert_eq!(t.translate(Asid(1), 0, false, false), TlbLevel::L2);
    }

    #[test]
    fn flush_asid_spares_globals_and_others() {
        let mut t = hier();
        t.translate(Asid(1), 1, false, false);
        t.translate(Asid(2), 2, false, false);
        t.translate(Asid(1), 3, false, true);
        t.dtlb.flush_asid(Asid(1));
        t.stlb.flush_asid(Asid(1));
        assert_eq!(t.translate(Asid(1), 1, false, false), TlbLevel::Walk);
        assert_ne!(t.translate(Asid(2), 2, false, false), TlbLevel::Walk);
        assert_ne!(t.translate(Asid(1), 3, false, false), TlbLevel::Walk);
    }

    #[test]
    fn flush_all_empties() {
        let mut t = hier();
        for vpn in 0..4 {
            t.translate(Asid(1), vpn, vpn % 2 == 0, false);
        }
        assert!(t.flush_all() > 0);
        assert_eq!(t.itlb.valid_entries(), 0);
        assert_eq!(t.dtlb.valid_entries(), 0);
        assert_eq!(t.stlb.valid_entries(), 0);
    }
}
