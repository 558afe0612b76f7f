//! Prime&probe machinery (after Mastik [Yarom 2017]).
//!
//! A probe buffer is an ordered list of virtual addresses covering a chosen
//! part of a cache: for the (physically-page-sized-indexed) L1s the page
//! offset selects the set directly; for physically-indexed L2/LLC sets the
//! attacker needs lines whose *physical* addresses map to the target sets,
//! found during an untimed profiling phase (the [`tp_core::UserEnv::translate`]
//! oracle stands in for timing-based eviction-set construction).

use std::cell::OnceCell;
use tp_core::{EnvPlan, UserEnv};
use tp_sim::cache::phys_set;
use tp_sim::machine::slice_index;
use tp_sim::{CacheGeom, VAddr, FRAME_SIZE};

/// An ordered set of probe addresses.
///
/// All probe entry points run through the environment's batched sweep API:
/// the buffer lazily builds one translated [`EnvPlan`] per access side (the
/// I- and D-side L1 geometries can differ) on first use and keeps it, so a
/// probe takes the scheduler turn once per sweep instead of once per line
/// and never re-translates its lines. A plan
/// cannot go stale: user mappings are append-only (see [`EnvPlan`]). The
/// `*_scalar` siblings keep the original line-at-a-time path as a
/// reference oracle — the workspace property tests pin batch and scalar to
/// bit-identical cycle totals and machine state.
#[derive(Debug, Clone)]
pub struct ProbeBuf {
    /// The probe addresses, grouped by target set.
    pub lines: Vec<VAddr>,
    /// Lines per target set.
    pub per_set: usize,
    /// The data-side (`[0]`) and instruction-side (`[1]`) plans.
    plans: [OnceCell<EnvPlan>; 2],
}

impl ProbeBuf {
    /// Build a probe buffer from an ordered address list.
    #[must_use]
    pub fn new(lines: Vec<VAddr>, per_set: usize) -> Self {
        ProbeBuf {
            lines,
            per_set,
            plans: Default::default(),
        }
    }

    /// The plan for the chosen side, built by the first sweep that needs
    /// it.
    async fn plan(&self, env: &UserEnv, insn: bool) -> &EnvPlan {
        let cell = &self.plans[usize::from(insn)];
        if let Some(plan) = cell.get() {
            return plan;
        }
        let plan = env.build_plan(&self.lines, insn).await;
        cell.get_or_init(|| plan)
    }

    /// Probe with loads; returns the total latency in cycles.
    #[must_use]
    pub async fn probe(&self, env: &UserEnv) -> u64 {
        let plan = self.plan(env, false).await;
        env.probe_batch(plan, usize::MAX, false, None).await
    }

    /// Probe with stores (dirties the lines).
    #[must_use]
    pub async fn probe_write(&self, env: &UserEnv) -> u64 {
        let plan = self.plan(env, false).await;
        env.probe_batch(plan, usize::MAX, true, None).await
    }

    /// Probe with instruction fetches.
    #[must_use]
    pub async fn probe_exec(&self, env: &UserEnv) -> u64 {
        let plan = self.plan(env, true).await;
        env.probe_batch(plan, usize::MAX, false, None).await
    }

    /// Probe with loads, counting accesses slower than `threshold` (cache
    /// misses at the monitored level).
    #[must_use]
    pub async fn probe_misses(&self, env: &UserEnv, threshold: u64) -> u64 {
        let mut costs = Vec::with_capacity(self.lines.len());
        let plan = self.plan(env, false).await;
        env.probe_batch(plan, usize::MAX, false, Some(&mut costs))
            .await;
        costs.iter().filter(|&&c| c >= threshold).count() as u64
    }

    /// Probe a sub-range `[0, n)` of the buffer's lines with loads.
    #[must_use]
    pub async fn probe_prefix(&self, env: &UserEnv, n: usize) -> u64 {
        let plan = self.plan(env, false).await;
        env.probe_batch(plan, n, false, None).await
    }

    /// Dirty the first `n` lines (the §5.3.4 sender).
    pub async fn dirty_prefix(&self, env: &UserEnv, n: usize) {
        let plan = self.plan(env, false).await;
        env.probe_batch(plan, n, true, None).await;
    }

    /// Line-at-a-time load probe: the reference oracle for
    /// [`ProbeBuf::probe`].
    #[must_use]
    pub async fn probe_scalar(&self, env: &UserEnv) -> u64 {
        let mut total = 0;
        for &va in &self.lines {
            total += env.load(va).await;
        }
        total
    }

    /// Line-at-a-time store probe: the reference oracle for
    /// [`ProbeBuf::probe_write`].
    #[must_use]
    pub async fn probe_write_scalar(&self, env: &UserEnv) -> u64 {
        let mut total = 0;
        for &va in &self.lines {
            total += env.store(va).await;
        }
        total
    }

    /// Line-at-a-time fetch probe: the reference oracle for
    /// [`ProbeBuf::probe_exec`].
    #[must_use]
    pub async fn probe_exec_scalar(&self, env: &UserEnv) -> u64 {
        let mut total = 0;
        for &va in &self.lines {
            total += env.exec(va).await;
        }
        total
    }

    /// Number of probe lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Build a probe buffer covering the L1 cache (`sets × ways` lines). The L1
/// set index is a pure page-offset function, so any `ways` pages suffice.
#[must_use]
pub async fn l1_probe(env: &UserEnv, geom: CacheGeom) -> ProbeBuf {
    let sets = geom.sets();
    let ways = geom.ways as u64;
    let line = geom.line;
    let lines_per_page = FRAME_SIZE / line;
    let pages_per_way = (sets * line).div_ceil(FRAME_SIZE).max(1);
    let (va, _) = env.map_pages((ways * pages_per_way) as usize).await;
    let mut lines = Vec::with_capacity((sets * ways) as usize);
    for set in 0..sets {
        for w in 0..ways {
            // The address within way-w's page group whose offset selects
            // `set`.
            let page = w * pages_per_way + set / lines_per_page;
            let off = (set % lines_per_page) * line;
            lines.push(VAddr(va.0 + page * FRAME_SIZE + off));
        }
    }
    ProbeBuf::new(lines, ways as usize)
}

/// Build a probe buffer for a set of physically-indexed cache sets.
///
/// Allocates `pool_pages` pages from the domain pool and selects, per
/// target set, up to `ways` lines whose physical addresses map there
/// (profiling phase; untimed). Target sets with no reachable lines (e.g.
/// off-colour sets under partitioning) are simply not covered — exactly the
/// situation of a coloured attacker.
#[must_use]
pub async fn phys_probe(
    env: &UserEnv,
    geom: CacheGeom,
    target_sets: &[usize],
    ways: usize,
    pool_pages: usize,
) -> ProbeBuf {
    let line = geom.line;
    let lines_per_page = FRAME_SIZE / line;
    let (va, frames) = env.map_pages(pool_pages).await;
    // Direct set → target-slot table: the profiling scan visits every line
    // of the pool, so membership tests must be O(1) (a linear
    // `contains` over hundreds of target sets made this scan quadratic).
    let mut slot_of: Vec<Option<u32>> = vec![None; geom.sets() as usize];
    for (slot, &s) in target_sets.iter().enumerate() {
        slot_of[s] = Some(slot as u32);
    }
    let mut per_set: Vec<Vec<VAddr>> = vec![Vec::new(); target_sets.len()];
    let mut filled = 0usize;
    'outer: for (pi, pfn) in frames.iter().enumerate() {
        for l in 0..lines_per_page {
            let pa = pfn * FRAME_SIZE + l * line;
            let set = phys_set(geom, pa);
            if let Some(slot) = slot_of[set] {
                let v = &mut per_set[slot as usize];
                if v.len() < ways {
                    v.push(VAddr(va.0 + pi as u64 * FRAME_SIZE + l * line));
                    if v.len() == ways {
                        filled += 1;
                        if filled == target_sets.len() {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    let mut lines = Vec::new();
    for v in per_set {
        lines.extend_from_slice(&v);
    }
    ProbeBuf::new(lines, ways)
}

/// Build a probe buffer for one (slice, set) position of the sliced LLC —
/// the cross-core attack's monitored set (§5.3.3).
#[must_use]
pub async fn llc_slice_probe(
    env: &UserEnv,
    per_slice_geom: CacheGeom,
    slices: u64,
    target_slice: usize,
    target_set: usize,
    ways: usize,
    pool_pages: usize,
) -> ProbeBuf {
    let line = per_slice_geom.line;
    let lines_per_page = FRAME_SIZE / line;
    let (va, frames) = env.map_pages(pool_pages).await;
    let mut lines = Vec::new();
    'outer: for (pi, pfn) in frames.iter().enumerate() {
        for l in 0..lines_per_page {
            let pa = pfn * FRAME_SIZE + l * line;
            if phys_set(per_slice_geom, pa) == target_set
                && slice_index(pa / line, slices) == target_slice
            {
                lines.push(VAddr(va.0 + pi as u64 * FRAME_SIZE + l * line));
                if lines.len() >= ways {
                    break 'outer;
                }
            }
        }
    }
    ProbeBuf::new(lines, ways)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use tp_core::{ProtectionConfig, SystemBuilder};
    use tp_sim::Platform;

    #[test]
    fn l1_probe_covers_every_set() {
        let hits: Rc<RefCell<(usize, u64, u64)>> = Rc::new(RefCell::new((0, 0, 0)));
        let hits2 = Rc::clone(&hits);
        let mut b =
            SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw()).max_cycles(50_000_000);
        let d = b.domain(None);
        b.spawn(d, 0, 100, async move |env: &mut UserEnv| {
            let geom = env.platform().l1d;
            let buf = l1_probe(env, geom).await;
            let cold = buf.probe(env).await;
            let warm = buf.probe(env).await;
            *hits2.borrow_mut() = (buf.len(), cold, warm);
        });
        let _ = b.run();
        let (len, cold, warm) = *hits.borrow();
        assert_eq!(len, 512, "64 sets x 8 ways");
        // Second pass must be nearly all L1 hits: the buffer exactly fills
        // the cache.
        assert!(warm < cold / 2, "warm {warm} vs cold {cold}");
        assert!(warm <= 512 * 8, "warm probe {warm} not hitting L1");
    }

    #[test]
    fn phys_probe_respects_colour_partitioning() {
        let found: Rc<RefCell<(usize, usize)>> = Rc::new(RefCell::new((0, 0)));
        let found2 = Rc::clone(&found);
        let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected())
            .max_cycles(50_000_000);
        let d0 = b.domain(None); // colours 0..4
        let _d1 = b.domain(None); // colours 4..8
        b.spawn(d0, 0, 100, async move |env: &mut UserEnv| {
            let geom = env.platform().l2;
            // L2 colour = set/64 on Haswell (512 sets, 8 colours).
            // Sets 0..64 are colour 0 (ours); sets 256..320 are colour 4
            // (the other domain's).
            let ours: Vec<usize> = (0..64).collect();
            let theirs: Vec<usize> = (256..320).collect();
            let buf_ours = phys_probe(env, geom, &ours, 8, 128).await;
            let buf_theirs = phys_probe(env, geom, &theirs, 8, 128).await;
            *found2.borrow_mut() = (buf_ours.len(), buf_theirs.len());
        });
        let _ = b.run();
        let (ours, theirs) = *found.borrow();
        assert_eq!(ours, 64 * 8, "full coverage of own-colour sets");
        assert_eq!(theirs, 0, "no reachable lines in foreign colours");
    }

    #[test]
    fn llc_slice_probe_finds_target() {
        let found: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
        let found2 = Rc::clone(&found);
        let mut b =
            SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw()).max_cycles(50_000_000);
        let d = b.domain(None);
        b.spawn(d, 0, 100, async move |env: &mut UserEnv| {
            let cfg = *env.platform();
            let llc = cfg.llc.unwrap();
            let per_slice = CacheGeom {
                size: llc.size / u64::from(cfg.llc_slices),
                ..llc
            };
            let buf =
                llc_slice_probe(env, per_slice, cfg.llc_slices.into(), 2, 100, 16, 4096).await;
            *found2.borrow_mut() = buf.len();
        });
        let _ = b.run();
        assert_eq!(*found.borrow(), 16, "eviction set must reach full ways");
    }
}
