//! The multi-core machine: cores, shared last-level cache, memory bus.
//!
//! All timed operations go through [`Machine`]: data accesses, instruction
//! fetches and branches. Each returns (and internally accounts) the cycle
//! cost on the issuing core, walking TLB → L1 → L2 → LLC → DRAM with the
//! platform's latency table, dirty write-backs, prefetcher interaction and
//! cross-core bus contention.
//!
//! # The sweep fast path
//!
//! Mastik-style prime&probe walks thousands of fixed addresses per sample.
//! Re-deriving every cache set index, tag and slice from the physical
//! address on each of those accesses is pure waste: the addresses never
//! change. A [`SweepPlan`] precomputes the per-line geometry once
//! ([`Machine::plan_sweep`]) and [`Machine::access_batch`] walks the
//! hierarchy over the plan in one tight loop. The scalar path
//! ([`Machine::data_access`] / [`Machine::insn_fetch`]) derives only the
//! L1 set and tag up front and the outer levels' geometry only on an L1
//! miss, but runs the *same* two halves of the walk as
//! [`Machine::access_planned`], so batch and scalar are bit-identical by
//! construction — a contract the workspace property tests pin down.
//!
//! Plans are held by their users (the engine's per-probe-buffer plans and
//! the benchmark's probes); the machine keeps none. The x86 manual L1
//! flushes walk their kernel buffer through the scalar path: a cached plan
//! per flush buffer saves no measurable time end to end and costs memory
//! for every kernel clone (DESIGN.md § Fast-path audit).

use crate::cache::{Cache, GeomIdx, Replacement};
use crate::corestate::CoreState;
use crate::noise::NoiseRng;
use crate::params::PlatformConfig;
use crate::tlb::TlbLevel;
use crate::{Asid, PAddr, VAddr};
use std::ops::ControlFlow;

/// Extra latency charged to a demand miss per resumed stale prefetch
/// stream (the §5.3.2 residual-channel mechanism).
const PREFETCH_RESUME_COST: u64 = 12;

/// Window (in cycles) within which another core's DRAM access contends.
const BUS_WINDOW: u64 = 400;

/// Maximum number of contending accesses counted per DRAM access.
const BUS_MAX_CONTENDERS: u64 = 6;

/// Per-core ring depth of recent DRAM-access stamps. A core advances by at
/// least the DRAM latency (≫ `BUS_WINDOW` / `BUS_RING` cycles) per DRAM
/// access, so at most a handful of its stamps can ever fall inside one
/// contention window; 8 is comfortably above that bound for every
/// registered platform (checked by `PlatformConfig::validate`-adjacent
/// latency invariants: `lat.dram ≥ 60` everywhere).
const BUS_RING: usize = 8;

/// Sentinel for an empty bus-ring slot.
const BUS_EMPTY: u64 = u64::MAX;

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 hit.
    L1,
    /// Private L2 hit (x86).
    L2,
    /// Shared LLC hit.
    Llc,
    /// DRAM access.
    Dram,
}

/// The slice-selection hash: XOR-fold of the line address (a simplified
/// Intel LLC slice hash). Public so attackers can reconstruct slice
/// placement during their (untimed) eviction-set profiling phase, as the
/// reverse-engineered hash of Yarom et al. (2015) allows on real hardware.
/// `slices` is a power of two (`PlatformConfig::validate` pins it).
#[must_use]
pub fn slice_index(line_addr: u64, slices: u64) -> usize {
    debug_assert!(slices.is_power_of_two());
    let h = line_addr ^ (line_addr >> 7) ^ (line_addr >> 13) ^ (line_addr >> 19);
    (h & (slices - 1)) as usize
}

/// Precomputed geometry of one access: everything a hierarchy walk derives
/// from the physical address, computed once per probe line instead of once
/// per access.
#[derive(Debug, Clone, Copy)]
pub struct PlannedLine {
    /// The physical address (the frame number and canonical line address
    /// are single shifts away and derived at access time, keeping the
    /// plan row compact — the plan itself is streamed on every sweep).
    pub pa: u64,
    /// L1 tag.
    l1_tag: u64,
    /// Private-L2 tag.
    l2_tag: u64,
    /// Shared-slice tag.
    sh_tag: u64,
    /// L1 set index (for the I- or D-side geometry the plan was built for).
    l1_set: u32,
    /// Private-L2 set index (unused on platforms without a private L2).
    l2_set: u32,
    /// Shared-cache slice.
    slice: u16,
    /// Set index within the shared slice.
    sh_set: u32,
}

/// A precomputed probe sweep: per-line geometry tuples for a fixed list of
/// physical addresses, valid for one machine configuration and one access
/// side (instruction vs data — their L1 geometries may differ).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    insn: bool,
    lines: Vec<PlannedLine>,
}

impl SweepPlan {
    /// Whether the plan was built for instruction fetches.
    #[must_use]
    pub fn is_insn(&self) -> bool {
        self.insn
    }

    /// The planned lines.
    #[must_use]
    pub fn lines(&self) -> &[PlannedLine] {
        &self.lines
    }

    /// Number of planned lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Scratch outputs of a batch sweep; both fields optional so callers pay
/// only for what they read.
#[derive(Debug, Default)]
pub struct BatchOut<'a> {
    /// Per-line cycle costs, appended in plan order.
    pub costs: Option<&'a mut Vec<u64>>,
    /// Per-line hit levels, appended in plan order.
    pub levels: Option<&'a mut Vec<HitLevel>>,
}

/// The simulated machine.
///
/// `Clone` snapshots the entire micro-architectural state (caches, TLBs,
/// predictors, noise-stream position, bus rings); a clone resumed from the
/// same point produces a bit-identical future, which is what makes
/// `tp-core`'s replay snapshots sound.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Platform configuration.
    pub cfg: PlatformConfig,
    /// Per-core state.
    pub cores: Vec<CoreState>,
    /// Shared last-level cache slices (the LLC on x86, the L2 on Arm).
    shared: Vec<Cache>,
    rng: NoiseRng,
    /// Shift/mask indexers for the fixed geometries (no divisions on the
    /// fill/invalidate hot paths).
    idx_l1d: GeomIdx,
    idx_l1i: GeomIdx,
    idx_l2: GeomIdx,
    idx_sh: GeomIdx,
    /// Per-core rings of recent DRAM-access cycle stamps (bus contention).
    bus: Vec<[u64; BUS_RING]>,
    /// Next write position per bus ring.
    bus_pos: Vec<u8>,
    dram_accesses: u64,
}

impl Machine {
    /// Build a machine with pristine state and a deterministic noise-stream
    /// seed.
    #[must_use]
    pub fn new(cfg: PlatformConfig, seed: u64) -> Self {
        let slices = if cfg.llc.is_some() { cfg.llc_slices } else { 1 };
        let slice_geom = match cfg.llc {
            Some(llc) => crate::params::CacheGeom {
                size: llc.size / u64::from(slices),
                ways: llc.ways,
                line: llc.line,
            },
            None => cfg.l2,
        };
        let shared: Vec<Cache> = (0..slices)
            .map(|_| Cache::new("llc", slice_geom, Replacement::Lru))
            .collect();
        let cores: Vec<CoreState> = (0..cfg.cores).map(|i| CoreState::new(i, &cfg)).collect();
        let n = cores.len();
        Machine {
            cfg,
            cores,
            rng: NoiseRng::seeded(seed),
            idx_l1d: GeomIdx::new(cfg.l1d),
            idx_l1i: GeomIdx::new(cfg.l1i),
            idx_l2: GeomIdx::new(cfg.l2),
            idx_sh: GeomIdx::new(slice_geom),
            shared,
            bus: vec![[BUS_EMPTY; BUS_RING]; n],
            bus_pos: vec![0; n],
            dram_accesses: 0,
        }
    }

    /// The per-slice geometry of the shared cache.
    #[must_use]
    pub fn shared_geom(&self) -> crate::params::CacheGeom {
        self.shared[0].geom()
    }

    /// Which LLC slice a physical address maps to (hash-distributed on
    /// x86, single slice on Arm).
    #[must_use]
    pub fn slice_of(&self, pa: PAddr) -> usize {
        slice_index(pa.0 >> self.idx_l1d.line_shift, self.shared.len() as u64)
    }

    /// Immutable view of a shared-cache slice (tests and diagnostics).
    #[must_use]
    pub fn shared_slice(&self, idx: usize) -> &Cache {
        &self.shared[idx]
    }

    /// Number of shared-cache slices.
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.shared.len()
    }

    /// Clean and invalidate one shared-cache slice; returns
    /// `(valid, dirty)` counts. Used by the architected flush operations.
    pub fn flush_shared_slice(&mut self, slice: usize) -> (u64, u64) {
        self.shared[slice].flush_all()
    }

    /// Current cycle counter of `core`.
    #[must_use]
    pub fn cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles
    }

    /// Advance `core`'s cycle counter by `n` (pure compute).
    pub fn advance(&mut self, core: usize, n: u64) {
        self.cores[core].advance(n);
    }

    /// Total DRAM accesses (diagnostics).
    #[must_use]
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// The machine's deterministic noise stream, for timing jitter that is
    /// conceptually part of the hardware (e.g. cycle-counter read jitter).
    /// Attack input generation must *not* draw from this — it would couple
    /// the inputs to the simulated noise.
    pub fn rng(&mut self) -> &mut NoiseRng {
        &mut self.rng
    }

    /// Count other-core DRAM accesses inside the contention window and
    /// record this one. O(cores × ring) — constant — instead of the old
    /// linear scan over a shared `VecDeque` of every recent access.
    fn bus_contention(&mut self, core: usize) -> u64 {
        let now = self.cores[core].cycles;
        let floor = now.saturating_sub(BUS_WINDOW);
        let mut contenders = 0u64;
        for (c, ring) in self.bus.iter().enumerate() {
            // Each core writes its ring in cycle order, so when the newest
            // stamp is empty or out of the window no older one counts.
            let newest = ring[(usize::from(self.bus_pos[c]) + BUS_RING - 1) % BUS_RING];
            if c == core || newest == BUS_EMPTY || newest < floor {
                continue;
            }
            for &t in ring {
                if t != BUS_EMPTY && t >= floor {
                    contenders += 1;
                }
            }
        }
        let pos = usize::from(self.bus_pos[core]);
        self.bus[core][pos] = now;
        self.bus_pos[core] = ((pos + 1) % BUS_RING) as u8;
        contenders.min(BUS_MAX_CONTENDERS) * self.cfg.lat.bus_contend
    }

    /// Back-invalidate a line evicted from the inclusive shared cache from
    /// every core's private caches.
    fn back_invalidate(&mut self, line_addr: u64) {
        let pa = line_addr << self.idx_l1d.line_shift;
        let (d, i, l2i) = (self.idx_l1d, self.idx_l1i, self.idx_l2);
        // Invalidating in an empty cache is a no-op, so skip those: an
        // idle core's private caches cost nothing here.
        for core in &mut self.cores {
            if !core.l1d.is_empty() {
                core.l1d.invalidate_line(d.set(pa), d.tag(pa));
            }
            if !core.l1i.is_empty() {
                core.l1i.invalidate_line(i.set(pa), i.tag(pa));
            }
            if let Some(l2) = core.l2.as_mut().filter(|l2| !l2.is_empty()) {
                l2.invalidate_line(l2i.set(pa), l2i.tag(pa));
            }
        }
    }

    /// Fill `pa` into the shared cache without charging latency (prefetch
    /// path). Evictions still back-invalidate.
    fn shared_fill(&mut self, pa: PAddr, write: bool) {
        let slice = self.slice_of(pa);
        let set = self.idx_sh.set(pa.0);
        let tag = self.idx_sh.tag(pa.0);
        let line_addr = pa.0 >> self.idx_sh.line_shift;
        let out = self.shared[slice].access(set, tag, line_addr, write, &mut self.rng);
        if let Some(ev) = out.evicted {
            // The evicted line address is within-slice; reconstruct only for
            // back-invalidation, where the (set, tag) pair per private cache
            // is derived from a canonical address. Slice-local reconstruction
            // is exact because set+tag encode the full line address.
            self.back_invalidate(ev.line_addr);
        }
    }

    /// Precompute the hierarchy geometry of one access.
    #[inline]
    #[must_use]
    pub fn plan_line(&self, insn: bool, pa: PAddr) -> PlannedLine {
        let mut ln = self.plan_l1(insn, pa);
        self.plan_outer(&mut ln);
        ln
    }

    /// The L1 part of [`Machine::plan_line`]; the outer levels' fields stay
    /// zero until [`Machine::plan_outer`] fills them. Only
    /// [`Machine::access_l1`] may read such a row.
    #[inline]
    fn plan_l1(&self, insn: bool, pa: PAddr) -> PlannedLine {
        let l1 = if insn { self.idx_l1i } else { self.idx_l1d };
        PlannedLine {
            pa: pa.0,
            l1_tag: l1.tag(pa.0),
            l2_tag: 0,
            sh_tag: 0,
            l1_set: l1.set(pa.0) as u32,
            l2_set: 0,
            slice: 0,
            sh_set: 0,
        }
    }

    /// Fill in the private-L2 and shared-slice geometry of `ln`.
    #[inline]
    fn plan_outer(&self, ln: &mut PlannedLine) {
        ln.l2_tag = self.idx_l2.tag(ln.pa);
        ln.sh_tag = self.idx_sh.tag(ln.pa);
        ln.l2_set = self.idx_l2.set(ln.pa) as u32;
        ln.slice = self.slice_of(PAddr(ln.pa)) as u16;
        ln.sh_set = self.idx_sh.set(ln.pa) as u32;
    }

    /// Precompute a sweep plan for a fixed probe-address list. `insn`
    /// selects the instruction-side L1 geometry.
    #[must_use]
    pub fn plan_sweep(&self, insn: bool, pas: &[PAddr]) -> SweepPlan {
        SweepPlan {
            insn,
            lines: pas.iter().map(|&pa| self.plan_line(insn, pa)).collect(),
        }
    }

    /// A data access: walk the hierarchy, account all costs, return the
    /// cycles consumed. `global` marks a global (kernel) mapping in the TLB.
    pub fn data_access(
        &mut self,
        core: usize,
        asid: Asid,
        va: VAddr,
        pa: PAddr,
        write: bool,
        global: bool,
    ) -> u64 {
        let _ = va; // Physically-indexed model; see corestate docs.
        self.access_with_level(core, asid, pa, write, global, false)
            .0
    }

    /// An instruction fetch at `pa`.
    pub fn insn_fetch(
        &mut self,
        core: usize,
        asid: Asid,
        va: VAddr,
        pa: PAddr,
        global: bool,
    ) -> u64 {
        let _ = va;
        self.access_with_level(core, asid, pa, false, global, true)
            .0
    }

    /// A scalar access that also reports where it was satisfied — the
    /// reference oracle the batch-equivalence property tests compare
    /// against. Only the L1 set and tag are derived up front; the outer
    /// levels' geometry only on an L1 miss.
    pub fn access_with_level(
        &mut self,
        core: usize,
        asid: Asid,
        pa: PAddr,
        write: bool,
        global: bool,
        insn: bool,
    ) -> (u64, HitLevel) {
        let mut ln = self.plan_l1(insn, pa);
        match self.access_l1(core, asid, &ln, write, global, insn) {
            ControlFlow::Break(cost) => (cost, HitLevel::L1),
            ControlFlow::Continue(cost) => {
                self.plan_outer(&mut ln);
                self.access_outer(core, &ln, cost, write, insn)
            }
        }
    }

    /// Run a whole sweep plan as one tight loop; returns the total cycle
    /// cost and optionally records per-line costs/levels into `out`.
    ///
    /// Bit-identical to issuing the same accesses through the scalar path:
    /// both funnel into [`Machine::access_planned`] and consume the noise
    /// stream in the same order.
    pub fn access_batch(
        &mut self,
        core: usize,
        asid: Asid,
        plan: &SweepPlan,
        write: bool,
        global: bool,
        out: &mut BatchOut<'_>,
    ) -> u64 {
        let mut total = 0u64;
        for ln in &plan.lines {
            let (c, lvl) = self.access_planned(core, asid, ln, write, global, plan.insn);
            total += c;
            if let Some(costs) = out.costs.as_deref_mut() {
                costs.push(c);
            }
            if let Some(levels) = out.levels.as_deref_mut() {
                levels.push(lvl);
            }
        }
        total
    }

    /// The hierarchy walk for one planned access: translation timing, L1,
    /// prefetcher hooks, private L2, shared cache, DRAM + bus. Scalar and
    /// batch paths both run its two halves, `access_l1` and
    /// `access_outer`.
    pub fn access_planned(
        &mut self,
        core: usize,
        asid: Asid,
        ln: &PlannedLine,
        write: bool,
        global: bool,
        insn: bool,
    ) -> (u64, HitLevel) {
        match self.access_l1(core, asid, ln, write, global, insn) {
            ControlFlow::Break(cost) => (cost, HitLevel::L1),
            ControlFlow::Continue(cost) => self.access_outer(core, ln, cost, write, insn),
        }
    }

    /// Translation timing and the L1: `Break(cost)` on an L1 hit, with the
    /// core already advanced; `Continue(cost so far)` on a miss, for
    /// `access_outer` to finish. Reads only the L1 fields of `ln`.
    #[inline(always)]
    fn access_l1(
        &mut self,
        core: usize,
        asid: Asid,
        ln: &PlannedLine,
        write: bool,
        global: bool,
        insn: bool,
    ) -> ControlFlow<u64, u64> {
        let lat = self.cfg.lat;
        let mut cost = 0u64;

        // 1. Translation timing.
        let vpn = ln.pa / crate::FRAME_SIZE;
        let level = self.cores[core].tlb.translate(asid, vpn, insn, global);
        cost += match level {
            TlbLevel::L1 => 0,
            TlbLevel::L2 => lat.tlb_l2,
            TlbLevel::Walk => lat.tlb_walk,
        };

        // 2. L1.
        let set = ln.l1_set as usize;
        let tag = ln.l1_tag;
        let line_addr = ln.pa >> self.idx_l1d.line_shift;
        let l1_out = {
            let c = &mut self.cores[core];
            let l1 = if insn { &mut c.l1i } else { &mut c.l1d };
            l1.access(set, tag, line_addr, write, &mut self.rng)
        };
        cost += lat.l1_hit;
        if l1_out.hit {
            self.cores[core].advance(cost);
            return ControlFlow::Break(cost);
        }
        if l1_out.writeback {
            cost += lat.writeback;
        }
        ControlFlow::Continue(cost)
    }

    /// The rest of the walk after an L1 miss that has cost `cost` so far:
    /// prefetchers, private L2, shared cache, DRAM + bus.
    #[inline]
    fn access_outer(
        &mut self,
        core: usize,
        ln: &PlannedLine,
        mut cost: u64,
        write: bool,
        insn: bool,
    ) -> (u64, HitLevel) {
        let lat = self.cfg.lat;
        let line = self.cfg.line;
        let line_addr = ln.pa >> self.idx_l1d.line_shift;

        // The instruction prefetcher sits at the L1-I (next-line fetch).
        // The targets live in a small inline buffer — this path runs on
        // every miss and must not allocate.
        let mut prefetch_fills = crate::prefetch::PrefetchLines::default();
        if insn {
            let (pf, resumed) = self.cores[core].ipf.on_fetch_miss(line_addr);
            cost += resumed * PREFETCH_RESUME_COST;
            if let Some(l) = pf {
                prefetch_fills.push(l);
            }
        }

        // 3. Private L2 (x86).
        let mut l2_hit = false;
        if self.cores[core].l2.is_some() {
            let out = {
                let c = &mut self.cores[core];
                c.l2.as_mut().unwrap().access(
                    ln.l2_set as usize,
                    ln.l2_tag,
                    line_addr,
                    write,
                    &mut self.rng,
                )
            };
            cost += lat.l2_hit;
            if out.writeback {
                cost += lat.writeback;
            }
            l2_hit = out.hit;
        }

        // The stream data prefetcher sits at the L2, like Intel's
        // streamer: it observes (and resumes stale streams against) demand
        // misses that leave the private L2, not every L1 miss — an
        // L2-resident sweep neither trains nor re-fills.
        if !insn && !l2_hit {
            let (pf, resumed) = self.cores[core].dpf.on_demand_miss(ln.pa, line);
            cost += resumed * PREFETCH_RESUME_COST;
            prefetch_fills = pf;
        }

        // 4. Shared cache.
        let mut hit_level = HitLevel::L2;
        if !l2_hit {
            let out = self.shared[ln.slice as usize].access(
                ln.sh_set as usize,
                ln.sh_tag,
                line_addr,
                write,
                &mut self.rng,
            );
            cost += if self.cores[core].l2.is_some() {
                lat.llc_hit
            } else {
                lat.l2_hit
            };
            if out.writeback {
                cost += lat.writeback;
            }
            if let Some(ev) = out.evicted {
                self.back_invalidate(ev.line_addr);
            }
            hit_level = if out.hit {
                HitLevel::Llc
            } else {
                HitLevel::Dram
            };
        }

        // 5. DRAM with bus contention and a little jitter.
        if hit_level == HitLevel::Dram {
            self.dram_accesses += 1;
            cost += lat.dram;
            cost += self.bus_contention(core);
            cost += self.rng.below(6);
        }

        // Prefetch fills go into L2 + shared, free of charge to this access.
        for &la in &prefetch_fills {
            let fpa = PAddr(la * line);
            if let Some(l2) = &mut self.cores[core].l2 {
                let s = self.idx_l2.set(fpa.0);
                let t = self.idx_l2.tag(fpa.0);
                l2.access(s, t, la, false, &mut self.rng);
            }
            self.shared_fill(fpa, false);
        }

        self.cores[core].advance(cost);
        (cost, hit_level)
    }

    /// Execute a branch instruction at `pc`; returns the cycle cost. The
    /// BTB models only whether `pc` is present, so `_target` is not kept.
    pub fn branch(
        &mut self,
        core: usize,
        pc: VAddr,
        _target: VAddr,
        taken: bool,
        conditional: bool,
    ) -> u64 {
        let lat = self.cfg.lat;
        let mut cost = 1;
        let c = &mut self.cores[core];
        let btb_hit = c.btb.access(pc.0);
        if taken && !btb_hit {
            cost += lat.btb_miss;
        }
        if conditional {
            let correct = c.bhb.predict_update(pc.0, taken);
            if !correct {
                cost += lat.mispredict;
            }
        }
        c.advance(cost);
        cost
    }

    /// Tell prefetchers a security-domain switch happened on `core` (stale
    /// stream state remains live; see [`crate::prefetch`]).
    pub fn note_domain_switch(&mut self, core: usize) {
        let c = &mut self.cores[core];
        c.dpf.note_domain_switch();
        c.ipf.note_domain_switch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{phys_set, phys_tag};
    use crate::params::Platform;

    fn pa(x: u64) -> PAddr {
        PAddr(x)
    }
    fn va(x: u64) -> VAddr {
        VAddr(x)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        let c1 = m.data_access(0, Asid(1), va(0x1000), pa(0x1000), false, false);
        let c2 = m.data_access(0, Asid(1), va(0x1000), pa(0x1000), false, false);
        assert!(
            c1 > c2,
            "cold miss ({c1}) must cost more than L1 hit ({c2})"
        );
        assert_eq!(c2, m.cfg.lat.l1_hit);
    }

    #[test]
    fn cycle_counter_advances() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        let c = m.data_access(0, Asid(1), va(0x1000), pa(0x1000), false, false);
        assert_eq!(m.cycles(0), c);
        m.advance(0, 10);
        assert_eq!(m.cycles(0), c + 10);
    }

    #[test]
    fn llc_visible_across_cores() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // Core 0 pulls a line into the (shared, inclusive) LLC.
        m.data_access(0, Asid(1), va(0x2000), pa(0x2000), false, false);
        // Core 1 misses its private caches but hits the LLC: cheaper than
        // core 1 pulling an uncached line from DRAM.
        let llc_hit = m.data_access(1, Asid(1), va(0x2000), pa(0x2000), false, false);
        let dram = m.data_access(1, Asid(1), va(0x8000_0000), pa(0x8000_0000), false, false);
        assert!(llc_hit < dram, "LLC hit {llc_hit} vs DRAM {dram}");
    }

    #[test]
    fn arm_l2_is_shared() {
        let mut m = Machine::new(Platform::Sabre.config(), 1);
        m.data_access(0, Asid(1), va(0x3000), pa(0x3000), false, false);
        let shared_hit = m.data_access(1, Asid(1), va(0x3000), pa(0x3000), false, false);
        let dram = m.data_access(1, Asid(1), va(0x9000_0000), pa(0x9000_0000), false, false);
        assert!(shared_hit < dram);
    }

    #[test]
    fn back_invalidation_enforces_inclusion() {
        let cfg = Platform::Sabre.config(); // single slice, no private L2
        let sets = cfg.l2.sets();
        let ways = cfg.l2.ways as u64;
        let mut m = Machine::new(cfg, 1);
        // Fill one shared set with ways+1 conflicting lines; the first must
        // be evicted and back-invalidated from core 0's L1.
        let stride = sets * cfg.line;
        for k in 0..=ways {
            let a = 0x10_0000 + k * stride;
            m.data_access(0, Asid(1), va(a), pa(a), false, false);
        }
        // Re-access of the first line must miss L1 (it was back-invalidated)
        // and go to DRAM.
        let c = m.data_access(0, Asid(1), va(0x10_0000), pa(0x10_0000), false, false);
        assert!(c >= m.cfg.lat.dram, "expected DRAM-level cost, got {c}");
    }

    #[test]
    fn slice_hash_distributes() {
        let m = Machine::new(Platform::Haswell.config(), 1);
        let mut counts = [0usize; 4];
        for i in 0..4096u64 {
            counts[m.slice_of(pa(i * 64))] += 1;
        }
        for &c in &counts {
            assert!(c > 512, "slice distribution too skewed: {counts:?}");
        }
    }

    #[test]
    fn bus_contention_charges_cross_core_dram() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // Uncontended DRAM access.
        let base = m.data_access(0, Asid(1), va(0x100_0000), pa(0x100_0000), false, false);
        // Storm of DRAM accesses from core 1 at similar cycle stamps.
        for k in 0..8u64 {
            let a = 0x200_0000 + k * 4096 * 64;
            m.data_access(1, Asid(1), va(a), pa(a), false, false);
        }
        // Align core 0's clock with core 1's so the window overlaps.
        let lag = m.cycles(1).saturating_sub(m.cycles(0));
        m.advance(0, lag);
        let contended = m.data_access(0, Asid(1), va(0x300_0000), pa(0x300_0000), false, false);
        assert!(
            contended > base + m.cfg.lat.bus_contend / 2,
            "contended {contended} vs base {base}"
        );
    }

    #[test]
    fn bus_contention_window_expires() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        for k in 0..4u64 {
            let a = 0x200_0000 + k * 4096 * 64;
            m.data_access(1, Asid(1), va(a), pa(a), false, false);
        }
        // Far beyond the window: the stale stamps must not contend.
        m.advance(0, m.cycles(1) + 100 * BUS_WINDOW);
        let quiet = m.data_access(0, Asid(1), va(0x300_0000), pa(0x300_0000), false, false);
        assert!(
            quiet < m.cfg.lat.dram + m.cfg.lat.tlb_walk + m.cfg.lat.l1_hit + 200,
            "stale bus stamps still charged: {quiet}"
        );
    }

    #[test]
    fn bus_contention_skips_rings_out_of_the_window() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // Core 1 wraps its ring with DRAM stamps; core 0 then probes the
        // contention at clocks from before the oldest stamp to far past
        // the newest, and where each stamp sits exactly on the window's
        // edge, so core 1's ring is wholly in the window, partly and
        // wholly out. The count must match a scan of every slot.
        for k in 0..(BUS_RING as u64 + 3) {
            let a = 0x200_0000 + k * 4096 * 64;
            m.data_access(1, Asid(1), va(a), pa(a), false, false);
        }
        let ring = m.bus[1];
        let newest = *ring.iter().max().unwrap();
        let edges = ring
            .iter()
            .flat_map(|&t| [t + BUS_WINDOW, t + BUS_WINDOW + 1]);
        for now in (0..newest + 3 * BUS_WINDOW).step_by(37).chain(edges) {
            let mut probe = m.clone();
            probe.cores[0].cycles = now;
            let floor = now.saturating_sub(BUS_WINDOW);
            let expect = ring
                .iter()
                .filter(|&&t| t != BUS_EMPTY && t >= floor)
                .count() as u64;
            assert_eq!(
                probe.bus_contention(0),
                expect.min(BUS_MAX_CONTENDERS) * m.cfg.lat.bus_contend,
                "now {now}, ring {ring:?}"
            );
        }
        // Only out-of-window stamps: no contention at all.
        m.cores[0].cycles = newest + BUS_WINDOW + 1;
        assert_eq!(m.bus_contention(0), 0);
    }

    #[test]
    fn back_invalidation_reaches_another_cores_private_caches() {
        for p in Platform::ALL {
            let cfg = p.config();
            let mut m = Machine::new(cfg, 1);
            // Core 1 loads and fetches the first line, so its L1-D, L1-I
            // and private L2 (if any) hold it. Core 0 then streams enough
            // lines of the same shared slice and set to evict it there.
            let first = 0x10_0000;
            m.data_access(1, Asid(1), va(first), pa(first), false, false);
            m.insn_fetch(1, Asid(1), va(first), pa(first), false);
            let span = m.shared_geom().sets() * cfg.line;
            let conflicting: Vec<u64> = (1..)
                .map(|k| first + k * span)
                .filter(|&a| m.slice_of(pa(a)) == m.slice_of(pa(first)))
                .take(m.shared_geom().ways as usize)
                .collect();
            for a in conflicting {
                m.data_access(0, Asid(1), va(a), pa(a), false, false);
            }
            let c = &m.cores[1];
            let (l1d, l1i) = (c.l1d.geom(), c.l1i.geom());
            assert!(!c.l1d.peek(phys_set(l1d, first), phys_tag(l1d, first)));
            assert!(!c.l1i.peek(phys_set(l1i, first), phys_tag(l1i, first)));
            assert_eq!(c.l1d.stats().flushed_lines, 1, "{}", p.key());
            assert_eq!(c.l1i.stats().flushed_lines, 1, "{}", p.key());
            if let Some(l2) = &c.l2 {
                assert_eq!(l2.stats().flushed_lines, 1, "{}", p.key());
            }
            let cost = m.data_access(1, Asid(1), va(first), pa(first), false, false);
            assert!(
                cost >= cfg.lat.dram,
                "{}: DRAM-level cost, got {cost}",
                p.key()
            );
        }
    }

    #[test]
    fn branch_costs() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // Unconditional taken branch, cold BTB: pays the BTB miss.
        let cold = m.branch(0, va(0x400), va(0x800), true, false);
        let warm = m.branch(0, va(0x400), va(0x800), true, false);
        assert!(cold > warm);
        assert_eq!(warm, 1);
    }

    #[test]
    fn conditional_branch_learns() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        let mut last = 0;
        // Warm-up must exceed the 16-bit global history length plus counter
        // training.
        for _ in 0..24 {
            last = m.branch(0, va(0x400), va(0x800), true, true);
        }
        assert_eq!(last, 1, "trained branch must be predicted");
    }

    #[test]
    fn sequential_reads_train_prefetcher() {
        let mut m = Machine::new(Platform::Haswell.config(), 1);
        // March through a page sequentially twice; second pass of the next
        // lines should hit prefetched data rather than DRAM.
        for l in 0..16u64 {
            let a = 0x40_0000 + l * 64;
            m.data_access(0, Asid(1), va(a), pa(a), false, false);
        }
        assert!(m.cores[0].dpf.issued() > 0, "prefetcher should have fired");
    }

    #[test]
    fn batch_equals_scalar_on_a_probe_sweep() {
        // Two identical machines, one swept scalar, one batched: totals,
        // per-line costs and hit levels must agree bit-for-bit.
        for p in Platform::ALL {
            let cfg = p.config();
            let mut ms = Machine::new(cfg, 99);
            let mut mb = Machine::new(cfg, 99);
            let pas: Vec<PAddr> = (0..64).map(|i| PAddr(0x40_0000 + i * cfg.line)).collect();
            let plan = mb.plan_sweep(false, &pas);
            for round in 0..3 {
                let write = round == 1;
                let mut costs = Vec::new();
                let mut levels = Vec::new();
                let total_b = mb.access_batch(
                    0,
                    Asid(1),
                    &plan,
                    write,
                    false,
                    &mut BatchOut {
                        costs: Some(&mut costs),
                        levels: Some(&mut levels),
                    },
                );
                let mut total_s = 0;
                for (i, &pa) in pas.iter().enumerate() {
                    let (c, lvl) = ms.access_with_level(0, Asid(1), pa, write, false, false);
                    total_s += c;
                    assert_eq!(c, costs[i], "{}: line {i} cost", p.key());
                    assert_eq!(lvl, levels[i], "{}: line {i} level", p.key());
                }
                assert_eq!(total_s, total_b, "{}: round {round}", p.key());
                assert_eq!(ms.cycles(0), mb.cycles(0), "{}", p.key());
            }
        }
    }
}
