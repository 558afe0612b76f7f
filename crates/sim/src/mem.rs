//! Physical memory, page colours and address-space mappings.
//!
//! Page colouring (§2.3) exploits the overlap of physical-page-number bits
//! and cache set-selector bits: a frame's colour decides which section of a
//! physically-indexed cache its lines can occupy. The OS partitions the
//! cache by handing out disjoint colours to security domains.

use crate::{Asid, PAddr, VAddr};

/// Page/frame size in bytes (both platforms use 4 KiB pages).
pub const FRAME_SIZE: u64 = 4096;

/// The colour of a physical frame for a cache with `n_colors` colours.
#[must_use]
pub fn color_of_frame(pfn: u64, n_colors: u64) -> u64 {
    pfn % n_colors.max(1)
}

/// A set of page colours, as a bitmask (at most 64 colours — enough for
/// both platforms: 8/32 on Haswell, 16 on Sabre).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColorSet(pub u64);

impl ColorSet {
    /// The empty colour set.
    pub const EMPTY: ColorSet = ColorSet(0);

    /// All `n` colours.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[must_use]
    pub fn all(n: u64) -> Self {
        assert!(n <= 64, "at most 64 colours supported");
        if n == 64 {
            ColorSet(u64::MAX)
        } else {
            ColorSet((1u64 << n) - 1)
        }
    }

    /// A contiguous range of colours `[lo, hi)`.
    #[must_use]
    pub fn range(lo: u64, hi: u64) -> Self {
        let mut s = ColorSet::EMPTY;
        for c in lo..hi {
            s = s.with(c);
        }
        s
    }

    /// This set plus colour `c`.
    #[must_use]
    pub fn with(self, c: u64) -> Self {
        ColorSet(self.0 | (1u64 << c))
    }

    /// Whether colour `c` is in the set.
    #[must_use]
    pub fn contains(self, c: u64) -> bool {
        self.0 & (1u64 << c) != 0
    }

    /// Number of colours in the set.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the two sets share any colour.
    #[must_use]
    pub fn intersects(self, other: ColorSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: ColorSet) -> Self {
        ColorSet(self.0 | other.0)
    }

    /// Set difference (`self` minus `other`).
    #[must_use]
    pub fn minus(self, other: ColorSet) -> Self {
        ColorSet(self.0 & !other.0)
    }

    /// Iterate over the colours in the set.
    pub fn iter(self) -> impl Iterator<Item = u64> {
        (0..64).filter(move |c| self.contains(*c))
    }
}

/// A mapping attribute for a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// The physical frame number.
    pub pfn: u64,
    /// Whether the mapping is global (matches every ASID in the TLB).
    pub global: bool,
    /// Whether the mapping is writable.
    pub writable: bool,
}

/// A functional page table: virtual page number → mapping.
///
/// The simulator's TLBs model translation *timing*; this map models
/// translation *function*. The kernel (`tp-core`) owns one per VSpace.
///
/// Storage is a flat frame-indexed table (a `Vec` of slots offset by the
/// lowest mapped VPN) rather than a search tree: user mappings are handed
/// out as dense VPN ranges, so lookups — the innermost operation of every
/// simulated load — are a bounds check and an index. A generation counter
/// bumps whenever an existing translation changes (replace or unmap), so a
/// caller can tell whether a translation it took earlier still holds;
/// *fresh* mappings of previously unmapped pages leave the generation
/// untouched. `tp-core` folds it into the kernel's state hash.
#[derive(Debug, Clone, Default)]
pub struct PhysMap {
    asid: u16,
    base_vpn: u64,
    slots: Vec<Option<Mapping>>,
    mapped: usize,
    generation: u64,
}

impl PhysMap {
    /// Create an empty address space with the given ASID.
    #[must_use]
    pub fn new(asid: Asid) -> Self {
        PhysMap {
            asid: asid.0,
            base_vpn: 0,
            slots: Vec::new(),
            mapped: 0,
            generation: 0,
        }
    }

    /// The address space's ASID.
    #[must_use]
    pub fn asid(&self) -> Asid {
        Asid(self.asid)
    }

    /// The translation generation: bumped whenever an existing mapping is
    /// replaced or removed. A cached positive translation taken at
    /// generation `g` is still valid while `generation() == g`.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Install a mapping. Replaces any existing mapping of the page.
    pub fn map(&mut self, vpn: u64, mapping: Mapping) {
        if self.slots.is_empty() {
            self.base_vpn = vpn;
        } else if vpn < self.base_vpn {
            // Rare (mappings grow upwards from a fixed user base): shift the
            // table down to the new lowest VPN.
            let shift = (self.base_vpn - vpn) as usize;
            let mut slots = vec![None; shift + self.slots.len()];
            slots[shift..].copy_from_slice(&self.slots);
            self.slots = slots;
            self.base_vpn = vpn;
        }
        let idx = (vpn - self.base_vpn) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        if self.slots[idx].replace(mapping).is_none() {
            self.mapped += 1;
        } else {
            self.generation += 1;
        }
    }

    /// Remove a mapping; returns the old mapping if present.
    pub fn unmap(&mut self, vpn: u64) -> Option<Mapping> {
        let idx = vpn.checked_sub(self.base_vpn)? as usize;
        let old = self.slots.get_mut(idx)?.take();
        if old.is_some() {
            self.mapped -= 1;
            self.generation += 1;
        }
        old
    }

    /// Translate a virtual address; `None` on a page fault.
    #[inline]
    #[must_use]
    pub fn translate(&self, va: VAddr) -> Option<PAddr> {
        self.lookup(va.vpn())
            .map(|m| PAddr(m.pfn * FRAME_SIZE + va.page_offset()))
    }

    /// Look up the mapping of a page.
    #[inline]
    #[must_use]
    pub fn lookup(&self, vpn: u64) -> Option<Mapping> {
        let idx = vpn.checked_sub(self.base_vpn)? as usize;
        *self.slots.get(idx)?
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterate over all mappings.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Mapping)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|m| (self.base_vpn + i as u64, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colorset_basics() {
        let s = ColorSet::all(8);
        assert_eq!(s.count(), 8);
        assert!(s.contains(0) && s.contains(7) && !s.contains(8));
        let lo = ColorSet::range(0, 4);
        let hi = ColorSet::range(4, 8);
        assert!(!lo.intersects(hi));
        assert_eq!(lo.union(hi), s);
        assert_eq!(s.minus(lo), hi);
        assert_eq!(lo.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn frame_colors_cycle() {
        assert_eq!(color_of_frame(0, 8), 0);
        assert_eq!(color_of_frame(7, 8), 7);
        assert_eq!(color_of_frame(8, 8), 0);
        assert_eq!(color_of_frame(13, 1), 0);
    }

    #[test]
    fn physmap_translate() {
        let mut pm = PhysMap::new(Asid(3));
        pm.map(
            5,
            Mapping {
                pfn: 42,
                global: false,
                writable: true,
            },
        );
        let pa = pm.translate(VAddr(5 * FRAME_SIZE + 123)).unwrap();
        assert_eq!(pa, PAddr(42 * FRAME_SIZE + 123));
        assert!(pm.translate(VAddr(6 * FRAME_SIZE)).is_none());
        assert_eq!(pm.unmap(5).unwrap().pfn, 42);
        assert!(pm.translate(VAddr(5 * FRAME_SIZE)).is_none());
    }

    #[test]
    fn colorset_all_64() {
        let s = ColorSet::all(64);
        assert_eq!(s.count(), 64);
    }

    #[test]
    fn physmap_grows_downwards_and_tracks_generation() {
        let mut pm = PhysMap::new(Asid(1));
        let map = |pfn| Mapping {
            pfn,
            global: false,
            writable: true,
        };
        pm.map(100, map(1));
        pm.map(200, map(2));
        let g0 = pm.generation();
        // Fresh mappings (even below the base) leave the generation alone.
        pm.map(50, map(3));
        assert_eq!(pm.generation(), g0);
        assert_eq!(pm.lookup(50).unwrap().pfn, 3);
        assert_eq!(pm.lookup(100).unwrap().pfn, 1);
        assert_eq!(pm.lookup(200).unwrap().pfn, 2);
        assert_eq!(pm.mapped_pages(), 3);
        // Replacing and unmapping bump it.
        pm.map(100, map(9));
        assert_eq!(pm.generation(), g0 + 1);
        assert!(pm.unmap(200).is_some());
        assert_eq!(pm.generation(), g0 + 2);
        assert!(pm.unmap(200).is_none());
        assert_eq!(pm.generation(), g0 + 2);
        assert_eq!(pm.mapped_pages(), 2);
        assert_eq!(pm.iter().count(), 2);
    }
}
