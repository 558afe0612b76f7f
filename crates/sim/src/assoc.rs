//! Per-set recency and validity, shared by every set-associative array of
//! the model: the caches ([`crate::cache::Cache`]), the TLBs
//! ([`crate::tlb::TlbArray`]) and the BTB ([`crate::branch::Btb`]).
//!
//! Each array keeps only its key rows (tags, VPNs, ASIDs) and its match
//! rule. [`Assoc`] keeps one 16-byte [`SetMeta`] header per set: the set's
//! LRU order as a move-to-front list of way numbers, so a full set's
//! victim is one shift, and its valid and dirty bitmasks. A fill takes the
//! first invalid way, else the least recent one, which is the victim a
//! per-entry recency stamp would pick. Validity is epoch-tagged per set
//! and counted incrementally, so flushing a whole array is O(1).

/// A set's recency order as 4-bit way numbers can hold this many ways.
pub const MAX_WAYS: u32 = 16;

/// Largest usable epoch; reaching it triggers a physical clear of every
/// set's header.
pub(crate) const EPOCH_MAX: u32 = u32::MAX;

/// Per-set state: recency order, validity and dirtiness in 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetMeta {
    /// The set's ways as 4-bit way numbers, most recent in the low nibble
    /// and least recent in nibble `ways - 1`; nibbles above are zero.
    order: u64,
    /// Bit `w` set iff way `w` holds a valid entry.
    pub(crate) valid: u16,
    /// Bit `w` set iff way `w` holds a dirty line (a subset of `valid`;
    /// only caches mark lines dirty).
    pub(crate) dirty: u16,
    /// The array epoch this header belongs to. A stale header reads as an
    /// empty set, whatever its other fields hold, until the set's next
    /// fill.
    epoch: u32,
}

const _: () = assert!(std::mem::size_of::<SetMeta>() == 16);

/// The headers of one set-associative array and its array-wide state.
#[derive(Debug, Clone)]
pub(crate) struct Assoc {
    meta: Vec<SetMeta>,
    ways: usize,
    /// Current validity epoch (starts at 1; headers start at 0, stale).
    epoch: u32,
    /// The order of a set nobody touched: way 0 least recent, way
    /// `ways - 1` most recent.
    fresh_order: u64,
    /// Mask of a full set's `valid` bits.
    full: u16,
    /// Valid entries, maintained incrementally (O(1) flush accounting).
    valid_count: u64,
}

impl Assoc {
    /// `sets` empty sets of `ways` ways.
    ///
    /// # Panics
    /// Panics unless `1 <= ways <= MAX_WAYS` (`PlatformConfig::validate`
    /// rejects such a platform).
    pub(crate) fn new(name: &str, sets: usize, ways: usize) -> Self {
        assert!(
            (1..=MAX_WAYS as usize).contains(&ways),
            "{name}: {ways} ways (the model holds 1..={MAX_WAYS})"
        );
        Assoc {
            meta: vec![SetMeta::default(); sets],
            ways,
            epoch: 1,
            fresh_order: (0..ways as u64).fold(0, |order, w| order << 4 | w),
            full: (u32::MAX >> (32 - ways)) as u16,
            valid_count: 0,
        }
    }

    /// The live header of `set`: a header of an earlier epoch reads as an
    /// empty set.
    #[inline]
    pub(crate) fn header(&self, set: usize) -> SetMeta {
        let m = self.meta[set];
        if m.epoch == self.epoch {
            m
        } else {
            SetMeta {
                order: self.fresh_order,
                valid: 0,
                dirty: 0,
                epoch: self.epoch,
            }
        }
    }

    /// Make the valid way `way` of `set` the most recent.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        let m = &mut self.meta[set];
        debug_assert!(m.epoch == self.epoch && m.valid >> way & 1 != 0);
        // Repeated hits on a set's newest way skip the reorder.
        if m.order & 0xF != way as u64 {
            m.order = to_front(m.order, way);
        }
    }

    /// Pick the way a miss in `set` fills and make it valid, clean and
    /// most recent: the first invalid way, else `evict(lru)`, where `lru`
    /// is the least recent way and the result the way to evict. Returns
    /// the way and, if it held a valid entry, whether that was dirty.
    #[inline]
    pub(crate) fn fill(
        &mut self,
        set: usize,
        evict: impl FnOnce(usize) -> usize,
    ) -> (usize, Option<bool>) {
        let mut m = self.header(set);
        let (way, evicted) = if m.valid != self.full {
            self.valid_count += 1;
            ((!m.valid).trailing_zeros() as usize, None)
        } else {
            let way = evict((m.order >> (4 * (self.ways - 1))) as usize & 0xF);
            (way, Some(m.dirty >> way & 1 != 0))
        };
        let bit = 1 << way;
        m.valid |= bit;
        m.dirty &= !bit;
        m.order = to_front(m.order, way);
        self.meta[set] = m;
        (way, evicted)
    }

    /// Mark the valid way `way` of `set` dirty.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, set: usize, way: usize) {
        let m = &mut self.meta[set];
        debug_assert!(m.epoch == self.epoch && m.valid >> way & 1 != 0);
        m.dirty |= 1 << way;
    }

    /// Invalidate the valid way `way` of `set`; returns whether it was
    /// dirty. Its place in the recency order is kept: the set's next fill
    /// takes it before any valid way.
    pub(crate) fn invalidate(&mut self, set: usize, way: usize) -> bool {
        let m = &mut self.meta[set];
        debug_assert!(m.epoch == self.epoch && m.valid >> way & 1 != 0);
        let bit = 1 << way;
        let dirty = m.dirty & bit != 0;
        m.valid &= !bit;
        m.dirty &= !bit;
        self.valid_count -= 1;
        dirty
    }

    /// Invalidate every entry; returns how many were valid. O(1): the
    /// epoch moves on, and every header reads as empty until its set's
    /// next fill.
    pub(crate) fn flush_all(&mut self) -> u64 {
        if self.epoch == EPOCH_MAX {
            // Epoch exhaustion (every ~4G flushes): mark every header
            // stale and restart. Deterministic and invisible to callers.
            for m in &mut self.meta {
                m.epoch = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        std::mem::take(&mut self.valid_count)
    }

    /// Whether no entry is valid. O(1), unlike [`Assoc::valid`], whose
    /// debug check rescans every set.
    pub(crate) fn is_empty(&self) -> bool {
        self.valid_count == 0
    }

    /// Count of valid entries.
    pub(crate) fn valid(&self) -> u64 {
        debug_assert_eq!(
            self.valid_count,
            self.live()
                .map(|m| u64::from(m.valid.count_ones()))
                .sum::<u64>()
        );
        self.valid_count
    }

    /// The headers of the current epoch.
    pub(crate) fn live(&self) -> impl Iterator<Item = &SetMeta> + '_ {
        self.meta.iter().filter(|m| m.epoch == self.epoch)
    }

    /// Start at `epoch` instead of 1 (tests of epoch exhaustion).
    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// The first way of `row` whose `valid` bit is set and whose key is `key`.
/// An invalid way may still hold a matching stale key, so validity is
/// checked on a key match only.
#[inline]
pub(crate) fn find_way<K: Copy + PartialEq>(row: &[K], valid: u16, key: K) -> Option<usize> {
    row.iter()
        .enumerate()
        .position(|(w, k)| *k == key && valid >> w & 1 != 0)
}

/// Move way `way` to the front (most recent, low nibble) of a recency
/// order, shifting the ways that were more recent one nibble up. Branch
/// free: the nibble-wise zero test of `order ^ way·0x11…1` finds the
/// way's position exactly at its lowest match, and the way occurs once
/// below any zero padding nibble.
#[inline]
fn to_front(order: u64, way: usize) -> u64 {
    const ONES: u64 = 0x1111_1111_1111_1111;
    let way = way as u64;
    let x = order ^ (way * ONES);
    let zero = x.wrapping_sub(ONES) & !x & (ONES << 3);
    let shift = zero.trailing_zeros() & !3;
    let below = (1u64 << shift) - 1;
    let through = below << 4 | 0xF;
    order & !through | (order & below) << 4 | way
}
