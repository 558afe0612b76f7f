//! TLB model: first-level I/D TLBs backed by a unified second-level TLB.
//!
//! Entries are tagged with an ASID unless they are *global* mappings. The
//! distinction matters for the paper's Table 5: the baseline seL4 kernel
//! maps its own text globally, while a clone-capable ("colour-ready")
//! kernel must use per-ASID kernel mappings, which on the Sabre's 2-way
//! second-level TLB causes measurable extra conflict misses on IPC.
//!
//! A [`TlbArray`] keeps a VPN row and an ASID|global row and its match
//! rule; recency and validity are the set headers it shares with the
//! caches and the BTB (`assoc`), so flushing a whole array is O(1).

use crate::assoc::Assoc;
use crate::params::TlbGeom;
use crate::Asid;

/// Bit of an entry's id marking a global mapping (the ASID is bits 0..16).
const GLOBAL: u32 = 1 << 16;

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
    ways: usize,
    /// `sets - 1`: `PlatformConfig::validate` pins power-of-two set counts.
    set_mask: u64,
    /// Per-entry VPNs, `ways` per set.
    vpns: Vec<u64>,
    /// Per-entry ids: the ASID, or'ed with [`GLOBAL`] for a global mapping.
    ids: Vec<u32>,
    /// Per-set recency and validity.
    assoc: Assoc,
}

impl TlbArray {
    /// Create an empty TLB with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry has more than [`crate::cache::MAX_WAYS`]
    /// ways (`PlatformConfig::validate` rejects such a platform).
    #[must_use]
    pub fn new(name: &'static str, geom: TlbGeom) -> Self {
        let sets = geom.sets() as usize;
        let ways = geom.ways as usize;
        debug_assert!(sets.is_power_of_two());
        TlbArray {
            name,
            ways,
            set_mask: sets as u64 - 1,
            vpns: vec![0; sets * ways],
            ids: vec![0; sets * ways],
            assoc: Assoc::new(name, sets, ways),
        }
    }

    /// The TLB name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Fused lookup-or-fill: returns `true` on a hit and otherwise installs
    /// the translation into the first invalid (else LRU) way. A hit is the
    /// first valid way in way order with the VPN and the ASID, or global:
    /// a global and a per-ASID entry for one VPN can coexist. The
    /// hierarchy walk fills every level it misses, so a separate lookup and
    /// fill would scan each set twice.
    pub fn access(&mut self, asid: Asid, vpn: u64, global: bool) -> bool {
        let set = (vpn & self.set_mask) as usize;
        let base = set * self.ways;
        let valid = self.assoc.header(set).valid;
        let id = u32::from(asid.0);
        let row = self.vpns[base..base + self.ways]
            .iter()
            .zip(&self.ids[base..]);
        let hit = row.enumerate().position(|(w, (&v, &i))| {
            v == vpn && valid >> w & 1 != 0 && (i == id || i & GLOBAL != 0)
        });
        if let Some(way) = hit {
            self.assoc.touch(set, way);
            return true;
        }
        let (way, _) = self.assoc.fill(set, |lru| lru);
        self.vpns[base + way] = vpn;
        self.ids[base + way] = id | if global { GLOBAL } else { 0 };
        false
    }

    /// Invalidate everything; returns the number of valid entries dropped.
    pub fn flush_all(&mut self) -> u64 {
        self.assoc.flush_all()
    }

    /// Invalidate all non-global entries of one ASID.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        let mut n = 0;
        for (set, ids) in self.ids.chunks_exact(self.ways).enumerate() {
            let valid = self.assoc.header(set).valid;
            for (way, &i) in ids.iter().enumerate() {
                if valid >> way & 1 != 0 && i == u32::from(asid.0) {
                    self.assoc.invalidate(set, way);
                    n += 1;
                }
            }
        }
        n
    }

    /// Number of valid entries.
    #[must_use]
    pub fn valid_entries(&self) -> u64 {
        self.assoc.valid()
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

    /// One entry of the naive model: the TLB entry as it was before the
    /// shared set headers, with a per-entry recency stamp.
    #[derive(Debug, Clone, Copy, Default)]
    struct Entry {
        vpn: u64,
        stamp: u32,
        asid: u16,
        global: bool,
        valid: bool,
    }

    /// [`TlbArray`] against a naive model that spells its rule out: a hit
    /// is the first valid entry of the set with the VPN and a matching
    /// ASID (or global); a miss fills the first invalid way, else the way
    /// of least `(stamp, index)`. Random accesses and flushes on arrays of
    /// 1–2 sets and 1–6 ways: every access's outcome, every flush's count,
    /// the valid count and the VPN and id of every valid entry.
    #[test]
    fn access_matches_a_naive_model() {
        let mut r = crate::NoiseRng::seeded(0x71b);
        for case in 0..300u64 {
            let ways = 1 + r.below(6) as u32;
            let sets = 1 << r.below(2) as u32;
            let mut t = TlbArray::new(
                "t",
                TlbGeom {
                    entries: sets * ways,
                    ways,
                },
            );
            let mut model = vec![Entry::default(); (sets * ways) as usize];
            let mut clock = 0;
            for _ in 0..200 {
                let (asid, vpn, global) = (r.below(3) as u16, r.below(12), r.below(8) == 0);
                match r.below(40) {
                    0 => {
                        let n = model.iter().filter(|e| e.valid).count() as u64;
                        model.iter_mut().for_each(|e| e.valid = false);
                        assert_eq!(t.flush_all(), n, "case {case}");
                    }
                    1 => {
                        let mut n = 0;
                        for e in &mut model {
                            if e.valid && !e.global && e.asid == asid {
                                e.valid = false;
                                n += 1;
                            }
                        }
                        assert_eq!(t.flush_asid(Asid(asid)), n, "case {case}");
                    }
                    _ => {
                        clock += 1;
                        let base = (vpn % u64::from(sets)) as usize * ways as usize;
                        let row = &mut model[base..base + ways as usize];
                        let hit = row
                            .iter()
                            .position(|e| e.valid && e.vpn == vpn && (e.global || e.asid == asid));
                        let slot = hit.unwrap_or_else(|| {
                            let ways = 0..row.len();
                            ways.clone()
                                .find(|&w| !row[w].valid)
                                .unwrap_or_else(|| ways.min_by_key(|&w| (row[w].stamp, w)).unwrap())
                        });
                        if hit.is_none() {
                            row[slot] = Entry {
                                vpn,
                                stamp: 0,
                                asid,
                                global,
                                valid: true,
                            };
                        }
                        row[slot].stamp = clock;
                        assert_eq!(
                            t.access(Asid(asid), vpn, global),
                            hit.is_some(),
                            "case {case}"
                        );
                    }
                }
                let valid = model.iter().filter(|e| e.valid).count() as u64;
                assert_eq!(t.valid_entries(), valid, "case {case}");
                for (i, e) in model.iter().enumerate().filter(|(_, e)| e.valid) {
                    let id = u32::from(e.asid) | if e.global { GLOBAL } else { 0 };
                    let ways = ways as usize;
                    assert!(
                        t.assoc.header(i / ways).valid >> (i % ways) & 1 != 0,
                        "case {case}"
                    );
                    assert_eq!((t.vpns[i], t.ids[i]), (e.vpn, id), "case {case}");
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
