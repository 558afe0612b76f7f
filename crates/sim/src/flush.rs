//! Architected flush operations (§4.3 and Table 2 of the paper).
//!
//! On Arm, the kernel can flush the L1 caches (`DCCISW`, `ICIALLU`), the
//! TLBs (`TLBIALL`) and the branch predictor (`BPIALL`) directly; a *full
//! flush* additionally cleans/invalidates the L2.
//!
//! On x86 there is **no architected selective L1 flush**: the kernel must
//! flush "manually" by marching a cache-sized buffer through the L1-D and
//! chasing jumps through an L1-I-sized code buffer (each jump
//! mispredicted). The manual flush is brittle — it relies on the
//! undocumented replacement policy and can leave stale lines behind (the
//! `PseudoLru` noise models this). `wbinvd` flushes the whole hierarchy at
//! enormous cost, and the IBC feature resets the branch predictor.
//!
//! All functions charge their cycle cost to the core and return it.

use crate::cache::GeomIdx;
use crate::machine::Machine;
use crate::{Asid, PAddr, VAddr};

/// Fixed pipeline/serialisation cost of issuing a flush sequence.
const FLUSH_BASE: u64 = 200;

/// Report of a flush's work, used by tests and by the padding analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushWork {
    /// Valid lines invalidated by an architected flush. The x86 manual
    /// walks only displace lines and report 0 here; [`foreign_lines`]
    /// counts what a walk left behind.
    pub lines: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Cycles charged.
    pub cycles: u64,
}

/// Arm `DCCISW` over all sets/ways of the L1-D: clean and invalidate.
/// The cost depends on the number of dirty lines — the root cause of the
/// paper's cache-flush channel (§5.3.4, Requirement 4).
pub fn flush_l1d_arch(m: &mut Machine, core: usize) -> FlushWork {
    let lat = m.cfg.lat;
    let (valid, dirty) = m.cores[core].l1d.flush_all();
    let total_lines = m.cfg.l1d.lines();
    let cycles = FLUSH_BASE + total_lines * lat.maint_per_line + dirty * lat.writeback;
    m.advance(core, cycles);
    FlushWork {
        lines: valid,
        writebacks: dirty,
        cycles,
    }
}

/// Arm `ICIALLU`: invalidate the whole L1-I (no dirty data).
pub fn flush_l1i_arch(m: &mut Machine, core: usize) -> FlushWork {
    let lat = m.cfg.lat;
    let valid = m.cores[core].l1i.invalidate_all();
    let cycles = FLUSH_BASE + m.cfg.l1i.lines() * lat.maint_per_line / 2;
    m.advance(core, cycles);
    FlushWork {
        lines: valid,
        writebacks: 0,
        cycles,
    }
}

/// Flush all TLB levels (`TLBIALL` / `invpcid` all-contexts).
pub fn flush_tlbs(m: &mut Machine, core: usize) -> FlushWork {
    let dropped = m.cores[core].tlb.flush_all();
    let cycles = FLUSH_BASE / 2 + dropped;
    m.advance(core, cycles);
    FlushWork {
        lines: dropped,
        writebacks: 0,
        cycles,
    }
}

/// Reset the branch predictor (`BPIALL` on Arm, IBC on x86).
pub fn flush_branch_predictor(m: &mut Machine, core: usize) -> FlushWork {
    let n = m.cores[core].btb.flush();
    m.cores[core].bhb.flush();
    let cycles = FLUSH_BASE / 2;
    m.advance(core, cycles);
    FlushWork {
        lines: n,
        writebacks: 0,
        cycles,
    }
}

/// x86 "manual" L1-D flush: load one word per line of an L1-D-sized kernel
/// buffer at physical `buf_pa`. Under a pseudo-LRU policy this can leave
/// stale lines resident (footnote 6); [`foreign_lines`] counts them.
pub fn manual_flush_l1d(m: &mut Machine, core: usize, buf_pa: PAddr) -> FlushWork {
    let line = m.cfg.line;
    let start = m.cycles(core);
    // Kernel data accesses: global mapping, kernel ASID.
    for i in 0..m.cfg.l1d.lines() {
        let pa = buf_pa.0 + i * line;
        m.data_access(core, Asid::KERNEL, VAddr(pa), PAddr(pa), false, true);
    }
    FlushWork {
        lines: 0,
        writebacks: 0,
        cycles: m.cycles(core) - start,
    }
}

/// x86 "manual" L1-I flush: follow a chain of jumps through an L1-I-sized
/// buffer; every jump is mispredicted (this is why the measured direct cost
/// in Table 2 is a surprisingly high 26 µs). Also pollutes part of the BTB,
/// "indirectly flushing" it.
pub fn manual_flush_l1i(m: &mut Machine, core: usize, buf_pa: PAddr) -> FlushWork {
    let line = m.cfg.line;
    let jump_cost = m.cfg.lat.manual_jump;
    let start = m.cycles(core);
    for i in 0..m.cfg.l1i.lines() {
        let pa = buf_pa.0 + i * line;
        m.insn_fetch(core, Asid::KERNEL, VAddr(pa), PAddr(pa), true);
        // The chained jump: mispredicted, BTB entry installed.
        m.branch(core, VAddr(pa), VAddr(pa + line), true, false);
        m.advance(core, jump_cost);
    }
    FlushWork {
        lines: 0,
        writebacks: 0,
        cycles: m.cycles(core) - start,
    }
}

/// Valid lines of the L1-I (`insn`) or L1-D that are not lines of the
/// cache-sized flush buffer at `buf_pa`: after a manual walk, the stale
/// lines it failed to displace. A diagnostic over every buffer line, so
/// the switch path never calls it.
#[must_use]
pub fn foreign_lines(m: &Machine, core: usize, buf_pa: PAddr, insn: bool) -> u64 {
    let c = &m.cores[core];
    let cache = if insn { &c.l1i } else { &c.l1d };
    let geom = cache.geom();
    let idx = GeomIdx::new(geom);
    // Foreign lines = valid lines that are not buffer lines. The buffer is
    // cache-sized and line-aligned, so its line addresses are distinct.
    let mut buffer_resident = 0;
    for i in 0..geom.lines() {
        let pa = buf_pa.0 + i * geom.line;
        if cache.peek(idx.set(pa), idx.tag(pa)) {
            buffer_resident += 1;
        }
    }
    cache.valid_lines() - buffer_resident
}

/// x86 `wbinvd`: write back and invalidate the entire hierarchy, including
/// every LLC slice (a global operation). Extremely expensive (Table 2).
pub fn wbinvd(m: &mut Machine, core: usize) -> FlushWork {
    let lat = m.cfg.lat;
    let mut lines = 0;
    let mut dirty = 0;
    let (v, d) = m.cores[core].l1d.flush_all();
    lines += v;
    dirty += d;
    lines += m.cores[core].l1i.invalidate_all();
    if let Some(l2) = &mut m.cores[core].l2 {
        let (v, d) = l2.flush_all();
        lines += v;
        dirty += d;
    }
    let slices = if m.cfg.llc.is_some() {
        m.cfg.llc_slices as usize
    } else {
        1
    };
    for s in 0..slices {
        let (v, d) = shared_flush(m, s);
        lines += v;
        dirty += d;
    }
    m.cores[core].dpf.reset();
    m.cores[core].ipf.reset();
    // Cost scales with the full hierarchy capacity plus write-back traffic.
    let capacity_lines = m.cfg.l1d.lines()
        + m.cfg.l1i.lines()
        + m.cfg.l2.lines()
        + m.cfg.llc.map_or(0, |l| l.lines());
    let cycles = FLUSH_BASE + capacity_lines * lat.maint_per_line + dirty * lat.writeback;
    m.advance(core, cycles);
    FlushWork {
        lines,
        writebacks: dirty,
        cycles,
    }
}

/// Arm full flush: L1 flushes plus clean/invalidate of the (shared) L2,
/// plus BP and prefetcher disable — the paper's *full flush* scenario.
pub fn arm_full_flush(m: &mut Machine, core: usize) -> FlushWork {
    let lat = m.cfg.lat;
    let l1 = flush_l1d_arch(m, core);
    let l1i = flush_l1i_arch(m, core);
    let (v, d) = shared_flush(m, 0);
    let l2_cycles = m.cfg.l2.lines() * lat.maint_per_line + d * lat.writeback;
    m.advance(core, l2_cycles);
    let bp = flush_branch_predictor(m, core);
    let tlb = flush_tlbs(m, core);
    FlushWork {
        lines: l1.lines + l1i.lines + v + bp.lines + tlb.lines,
        writebacks: l1.writebacks + d,
        cycles: l1.cycles + l1i.cycles + l2_cycles + bp.cycles + tlb.cycles,
    }
}

fn shared_flush(m: &mut Machine, slice: usize) -> (u64, u64) {
    m.flush_shared_slice(slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Platform;

    fn dirty_l1(m: &mut Machine, core: usize, lines: u64) {
        let sz = m.cfg.line;
        for i in 0..lines {
            let a = 0x50_0000 + i * sz;
            m.data_access(core, Asid(1), VAddr(a), PAddr(a), true, false);
        }
    }

    #[test]
    fn arch_flush_cost_scales_with_dirtiness() {
        let cfg = Platform::Sabre.config();
        let mut m = Machine::new(cfg, 1);
        dirty_l1(&mut m, 0, 16);
        let low = flush_l1d_arch(&mut m, 0);
        dirty_l1(&mut m, 0, 512);
        let high = flush_l1d_arch(&mut m, 0);
        assert!(
            high.cycles > low.cycles,
            "{} vs {}",
            high.cycles,
            low.cycles
        );
        assert_eq!(m.cores[0].l1d.valid_lines(), 0);
    }

    #[test]
    fn manual_l1d_flush_mostly_empties() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        dirty_l1(&mut m, 0, 400);
        let before = m.cores[0].l1d.valid_lines();
        manual_flush_l1d(&mut m, 0, PAddr(0x10_0000));
        // Pseudo-LRU noise may leave a few stale lines, but the bulk must go.
        let flushed = before - foreign_lines(&m, 0, PAddr(0x10_0000), false);
        assert!(flushed > 350, "flushed only {flushed} lines");
    }

    #[test]
    fn manual_l1i_flush_cost_matches_table2_scale() {
        let cfg = Platform::Haswell.config();
        let mut m = Machine::new(cfg, 1);
        for i in 0..400u64 {
            let a = 0x60_0000 + i * cfg.line;
            m.insn_fetch(0, Asid(1), VAddr(a), PAddr(a), false);
        }
        let w = manual_flush_l1i(&mut m, 0, PAddr(0x20_0000));
        let us = cfg.cycles_to_us(w.cycles);
        // Paper Table 2: ~26 µs dominated by mispredicted jumps.
        assert!((15.0..45.0).contains(&us), "manual L1-I flush {us} µs");
        let stale = foreign_lines(&m, 0, PAddr(0x20_0000), true);
        assert!(stale < 50, "manual L1-I flush left {stale} stale lines");
    }

    #[test]
    fn wbinvd_empties_hierarchy_and_is_expensive() {
        let cfg = Platform::Haswell.config();
        let mut m = Machine::new(cfg, 1);
        for i in 0..4096u64 {
            let a = 0x100_0000 + i * 64;
            m.data_access(0, Asid(1), VAddr(a), PAddr(a), true, false);
        }
        let w = wbinvd(&mut m, 0);
        assert_eq!(m.cores[0].l1d.valid_lines(), 0);
        assert_eq!(m.shared_slice(0).valid_lines(), 0);
        let us = cfg.cycles_to_us(w.cycles);
        // Table 2: full flush direct cost in the hundreds of µs.
        assert!(us > 100.0, "wbinvd too cheap: {us} µs");
    }

    #[test]
    fn bp_flush_clears_predictors() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        for i in 0..32u64 {
            m.branch(0, VAddr(0x400 + i * 4), VAddr(0x800), true, true);
        }
        assert!(m.cores[0].btb.valid_entries() > 0);
        flush_branch_predictor(&mut m, 0);
        assert_eq!(m.cores[0].btb.valid_entries(), 0);
        assert_eq!(m.cores[0].bhb.history(), 0);
    }

    #[test]
    fn arm_full_flush_much_more_expensive_than_l1() {
        let cfg = Platform::Sabre.config();
        let mut m = Machine::new(cfg, 1);
        dirty_l1(&mut m, 0, 512);
        let l1 = flush_l1d_arch(&mut m, 0);
        dirty_l1(&mut m, 0, 512);
        let full = arm_full_flush(&mut m, 0);
        assert!(full.cycles > 5 * l1.cycles);
    }
}
