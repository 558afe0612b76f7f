//! Branch-prediction state: BTB and global-history predictor (BHB + PHT).
//!
//! Two of the paper's intra-core channels (Table 3) target this state: the
//! **BTB channel** measures evictions of branch-target entries, and the
//! **BHB channel** reproduces Evtyushkin et al.'s residual-state channel,
//! where the sender's taken/not-taken history biases the receiver's
//! conditional-branch latency. Both are reset by Arm `BPIALL` or the x86
//! IBC (indirect branch control) feature, as used in §4.3. The BTB is one
//! of the model's three set-associative arrays, with the caches and TLBs:
//! it keys on the branch's instruction word and flushes in O(1).

use crate::assoc::{find_way, Assoc};
use crate::params::TlbGeom;

/// Branch-target buffer: a set-associative cache of branch targets keyed by
/// the branch instruction's virtual address. It keeps a tag row; recency
/// and validity are the set headers it shares with the caches and TLBs.
#[derive(Debug, Clone)]
pub struct Btb {
    ways: usize,
    /// `sets - 1`: `PlatformConfig::validate` pins power-of-two set counts.
    set_mask: u64,
    /// `log2(sets)`: the tag is the instruction word number above the set.
    tag_shift: u32,
    /// Per-entry tags, `ways` per set.
    tags: Vec<u64>,
    /// Per-set recency and validity.
    assoc: Assoc,
}

impl Btb {
    /// Create an empty BTB with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry has more than [`crate::cache::MAX_WAYS`]
    /// ways (`PlatformConfig::validate` rejects such a platform).
    #[must_use]
    pub fn new(geom: TlbGeom) -> Self {
        let sets = geom.sets() as usize;
        let ways = geom.ways as usize;
        debug_assert!(sets.is_power_of_two());
        Btb {
            ways,
            set_mask: sets as u64 - 1,
            tag_shift: sets.trailing_zeros(),
            tags: vec![0; sets * ways],
            assoc: Assoc::new("btb", sets, ways),
        }
    }

    /// Look up a branch at `pc`; on a miss its entry is installed into the
    /// first invalid (else LRU) way. Only presence is modelled: a hit
    /// predicts the target, a miss costs.
    ///
    /// Returns `true` on a BTB hit.
    pub fn access(&mut self, pc: u64) -> bool {
        let word = pc >> 2;
        let (set, tag) = ((word & self.set_mask) as usize, word >> self.tag_shift);
        let base = set * self.ways;
        let valid = self.assoc.header(set).valid;
        if let Some(way) = find_way(&self.tags[base..base + self.ways], valid, tag) {
            self.assoc.touch(set, way);
            return true;
        }
        let (way, _) = self.assoc.fill(set, |lru| lru);
        self.tags[base + way] = tag;
        false
    }

    /// Invalidate all entries (BPIALL / IBC); returns how many were valid.
    pub fn flush(&mut self) -> u64 {
        self.assoc.flush_all()
    }

    /// Number of valid entries.
    #[must_use]
    pub fn valid_entries(&self) -> u64 {
        self.assoc.valid()
    }
}

/// Global-history direction predictor: a global history register (the
/// "branch history buffer") indexing a pattern-history table of 2-bit
/// saturating counters, gshare style.
#[derive(Debug, Clone)]
pub struct HistoryPredictor {
    ghr: u64,
    ghr_mask: u64,
    pht: Vec<u8>,
    pht_mask: u64,
}

impl HistoryPredictor {
    /// Create a predictor with `ghr_bits` of global history and a PHT of
    /// `2^pht_bits` counters, initialised to weakly-not-taken.
    #[must_use]
    pub fn new(ghr_bits: u32, pht_bits: u32) -> Self {
        HistoryPredictor {
            ghr: 0,
            ghr_mask: (1u64 << ghr_bits) - 1,
            pht: vec![1u8; 1usize << pht_bits],
            pht_mask: (1u64 << pht_bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.ghr) & self.pht_mask) as usize
    }

    /// Predict and update for a conditional branch at `pc` with actual
    /// outcome `taken`. Returns `true` if the prediction was correct.
    pub fn predict_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let counter = self.pht[idx];
        let predicted_taken = counter >= 2;
        // 2-bit saturating update.
        self.pht[idx] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & self.ghr_mask;
        predicted_taken == taken
    }

    /// Reset all history (BPIALL / IBC). Counters return to weakly-not-taken
    /// and the history register clears.
    pub fn flush(&mut self) {
        self.ghr = 0;
        for c in &mut self.pht {
            *c = 1;
        }
    }

    /// The current global history register value (tests only).
    #[must_use]
    pub fn history(&self) -> u64 {
        self.ghr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_hit_after_install() {
        let mut b = Btb::new(TlbGeom {
            entries: 16,
            ways: 2,
        });
        assert!(!b.access(0x400));
        assert!(b.access(0x400));
        assert_eq!(b.valid_entries(), 1);
    }

    #[test]
    fn btb_conflict_eviction() {
        // 8 sets x 2 ways; pcs 4*(8*k) map to set 0.
        let mut b = Btb::new(TlbGeom {
            entries: 16,
            ways: 2,
        });
        for k in 0..3u64 {
            b.access(4 * 8 * k);
        }
        // First entry evicted by the third.
        assert!(!b.access(0));
    }

    #[test]
    fn btb_flush_clears() {
        let mut b = Btb::new(TlbGeom {
            entries: 16,
            ways: 2,
        });
        for k in 0..10u64 {
            b.access(4 * k);
        }
        assert!(b.flush() > 0);
        assert_eq!(b.valid_entries(), 0);
    }

    /// The BTB as it was before the shared set headers: per-entry
    /// `(tag, valid, stamp)` from a 64-bit clock, and a full set's victim
    /// the way of least stamp.
    struct StampBtb {
        sets: u64,
        ways: usize,
        entries: Vec<(u64, bool, u64)>,
        clock: u64,
    }

    impl StampBtb {
        fn access(&mut self, pc: u64) -> bool {
            self.clock += 1;
            let word = pc >> 2;
            let base = (word % self.sets) as usize * self.ways;
            let tag = word / self.sets;
            let row = &mut self.entries[base..base + self.ways];
            if let Some(e) = row.iter_mut().find(|e| e.1 && e.0 == tag) {
                e.2 = self.clock;
                return true;
            }
            let way = row
                .iter()
                .position(|e| !e.1)
                .unwrap_or_else(|| (0..row.len()).min_by_key(|&w| row[w].2).unwrap());
            row[way] = (tag, true, self.clock);
            false
        }

        fn valid(&self) -> u64 {
            self.entries.iter().filter(|e| e.1).count() as u64
        }
    }

    /// [`Btb`] against the stamp BTB on random pcs and flushes, on 1–4
    /// ways and 1–8 sets: every access's outcome, every flush's count, the
    /// valid count and the tag of every valid entry.
    #[test]
    fn btb_matches_a_stamp_model() {
        let mut r = crate::NoiseRng::seeded(0xb7b);
        for case in 0..200 {
            let ways = 1 + r.below(4) as u32;
            let sets = 1 << r.below(4) as u32;
            let mut b = Btb::new(TlbGeom {
                entries: sets * ways,
                ways,
            });
            let mut model = StampBtb {
                sets: u64::from(sets),
                ways: ways as usize,
                entries: vec![(0, false, 0); (sets * ways) as usize],
                clock: 0,
            };
            for step in 0..400 {
                if r.below(50) == 0 {
                    let n = model.valid();
                    model.entries.iter_mut().for_each(|e| e.1 = false);
                    assert_eq!(b.flush(), n, "case {case} step {step}");
                } else {
                    // Word numbers a little wider than the array, so hits,
                    // fills and evictions all happen.
                    let pc = 4 * r.below(u64::from(sets * (ways + 2)));
                    assert_eq!(b.access(pc), model.access(pc), "case {case} step {step}");
                }
                assert_eq!(b.valid_entries(), model.valid(), "case {case} step {step}");
                for (i, e) in model.entries.iter().enumerate().filter(|(_, e)| e.1) {
                    let ways = ways as usize;
                    assert!(b.assoc.header(i / ways).valid >> (i % ways) & 1 != 0);
                    assert_eq!(b.tags[i], e.0, "case {case} step {step}");
                }
            }
        }
    }

    #[test]
    fn predictor_learns_a_loop() {
        let mut p = HistoryPredictor::new(8, 10);
        let pc = 0x1234;
        // Always-taken branch: after warm-up (history register saturates
        // after `ghr_bits` iterations, then the counter trains) it should
        // predict correctly.
        for _ in 0..12 {
            p.predict_update(pc, true);
        }
        assert!(p.predict_update(pc, true));
    }

    #[test]
    fn sender_history_biases_receiver() {
        // The BHB channel: sender trains an aliasing PHT entry; receiver's
        // first prediction on the aliased slot reflects the sender's bit.
        let mut p = HistoryPredictor::new(8, 10);
        let pc = 0x4000;
        // Sender drives the counter to strongly-taken from neutral history.
        for _ in 0..4 {
            p.ghr = 0;
            p.predict_update(pc, true);
        }
        p.ghr = 0;
        // Receiver briefly probes the same slot with a not-taken branch:
        // misprediction reveals the sender's activity.
        assert!(!p.predict_update(pc, false));
        p.flush();
        p.ghr = 0;
        // After a flush the counter is weakly-not-taken: correctly predicted.
        assert!(p.predict_update(pc, false));
    }

    #[test]
    fn flush_resets_history() {
        let mut p = HistoryPredictor::new(8, 10);
        for i in 0..20 {
            p.predict_update(0x100 + i * 4, i % 3 == 0);
        }
        p.flush();
        assert_eq!(p.history(), 0);
    }
}
