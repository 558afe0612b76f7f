//! Property-based tests (proptest) on the core data structures and
//! estimators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use time_protection::analysis::{mutual_information, mutual_information_naive, Dataset, MiContext};
use time_protection::attacks::elgamal::{key_bits, modexp_with_hook, BigUint, ExpOp};
use tp_sim::cache::{phys_set, phys_tag, Cache, Replacement};
use tp_sim::{CacheGeom, ColorSet, NoiseRng};

proptest! {
    /// A cache never holds more valid lines than its capacity, never more
    /// dirty than valid, and a line just accessed is always resident.
    #[test]
    fn cache_capacity_and_residency_invariants(
        accesses in proptest::collection::vec((0u64..4096, any::<bool>()), 1..300),
        seed in any::<u64>(),
    ) {
        let geom = CacheGeom { size: 4 * 1024, ways: 4, line: 64 };
        let mut c = Cache::new("p", geom, Replacement::Lru);
        let mut rng = NoiseRng::seeded(seed);
        for (line_idx, write) in accesses {
            let pa = line_idx * 64;
            let set = phys_set(geom, pa);
            let tag = phys_tag(geom, pa);
            c.access(set, tag, line_idx, write, &mut rng);
            prop_assert!(c.peek(set, tag), "just-accessed line must be resident");
            prop_assert!(c.valid_lines() <= geom.lines());
            prop_assert!(c.dirty_lines() <= c.valid_lines());
            prop_assert!(c.valid_in_set(set) <= u64::from(geom.ways));
        }
        let (valid, dirty) = c.flush_all();
        prop_assert!(dirty <= valid);
        prop_assert_eq!(c.valid_lines(), 0);
    }

    /// Flushing is complete: after flush_all, no previously accessed line
    /// remains.
    #[test]
    fn flush_is_complete(lines in proptest::collection::vec(0u64..1024, 1..100)) {
        let geom = CacheGeom { size: 8 * 1024, ways: 8, line: 64 };
        let mut c = Cache::new("f", geom, Replacement::Lru);
        let mut rng = NoiseRng::seeded(1);
        for &l in &lines {
            c.access(phys_set(geom, l * 64), phys_tag(geom, l * 64), l, true, &mut rng);
        }
        c.flush_all();
        for &l in &lines {
            prop_assert!(!c.peek(phys_set(geom, l * 64), phys_tag(geom, l * 64)));
        }
    }

    /// ColorSet algebra: union/minus/intersects are consistent.
    #[test]
    fn colorset_algebra(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        let (sa, sb) = (ColorSet(a), ColorSet(b));
        prop_assert_eq!(sa.union(sb).0, a | b);
        prop_assert_eq!(sa.minus(sb).0, a & !b);
        prop_assert_eq!(sa.intersects(sb), a & b != 0);
        prop_assert!(!sa.minus(sb).intersects(sb));
        prop_assert_eq!(sa.union(sb).count(), (a | b).count_ones());
    }

    /// MI is non-negative and bounded by the input entropy.
    #[test]
    fn mi_bounds(
        pairs in proptest::collection::vec((0usize..4, -1000.0f64..1000.0), 24..400),
    ) {
        let mut d = Dataset::new(4);
        for (s, o) in pairs {
            d.push(s, o);
        }
        let mi = mutual_information(&d);
        prop_assert!(mi.bits >= 0.0);
        prop_assert!(mi.bits <= 2.0 + 0.2, "MI {} exceeds log2(4)", mi.bits);
    }

    /// The optimised MI path (banded-convolution KDE over a shared
    /// context) agrees with the naive reference oracle to within 1e-9
    /// bits on arbitrary datasets — the correctness contract of the
    /// shuffle-test fast path.
    #[test]
    fn fast_mi_matches_naive_oracle(
        pairs in proptest::collection::vec((0usize..6, -500.0f64..500.0), 12..300),
    ) {
        let mut d = Dataset::new(6);
        for (s, o) in pairs {
            d.push(s, o);
        }
        let fast = mutual_information(&d).bits;
        let naive = mutual_information_naive(&d).bits;
        prop_assert!(
            (fast - naive).abs() < 1e-9,
            "fast {fast} vs naive {naive} (n = {})", d.len()
        );
    }

    /// The shared-context shuffled estimate agrees with re-estimating the
    /// permuted dataset from scratch with the naive oracle.
    #[test]
    fn fast_shuffled_mi_matches_naive_oracle(
        pairs in proptest::collection::vec((0usize..4, -100.0f64..100.0), 16..200),
        rot in 1usize..13,
    ) {
        let mut d = Dataset::new(4);
        for (s, o) in pairs {
            d.push(s, o);
        }
        // A rotation is always a permutation, whatever the length.
        let n = d.len();
        let perm: Vec<usize> = (0..n).map(|j| (j + rot) % n).collect();
        let ctx = MiContext::new(&d);
        let fast = ctx.mi_shuffled(&perm);
        let naive = mutual_information_naive(&d.permuted(&perm)).bits;
        prop_assert!(
            (fast - naive).abs() < 1e-9,
            "fast {fast} vs naive {naive} (n = {n}, rot = {rot})"
        );
    }

    /// MI of outputs independent of inputs stays near zero.
    #[test]
    fn mi_of_constant_outputs_is_zero(
        symbols in proptest::collection::vec(0usize..4, 40..200),
        value in -100.0f64..100.0,
    ) {
        let mut d = Dataset::new(4);
        for s in symbols {
            d.push(s, value);
        }
        let mi = mutual_information(&d);
        prop_assert!(mi.bits < 0.02, "constant outputs gave MI {}", mi.bits);
    }

    /// Multi-precision arithmetic agrees with u128 on small operands.
    #[test]
    fn bignum_matches_u128(a in 1u64.., b in 1u64.., m in 2u64..) {
        let (ba, bb, bm) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(m));
        let expect = (u128::from(a) * u128::from(b)) % u128::from(m);
        let got = ba.modmul(&bb, &bm);
        prop_assert!(got.limbs().len() <= 2);
        let got128 = got.limbs().iter().rev().fold(0u128, |acc, &l| (acc << 64) | u128::from(l));
        prop_assert_eq!(got128, expect);
    }

    /// The square/multiply operation sequence exactly encodes the exponent
    /// bits: squares = bits(exp)-1, multiplies = ones below the MSB.
    #[test]
    fn modexp_hook_sequence_encodes_exponent(exp in 2u64.., base in 2u64.., m in 3u64..) {
        let e = BigUint::from_u64(exp);
        let mut squares = 0u32;
        let mut muls = 0u32;
        let _ = modexp_with_hook(
            &BigUint::from_u64(base),
            &e,
            &BigUint::from_u64(m),
            |op| match op {
                ExpOp::Square => squares += 1,
                ExpOp::Multiply => muls += 1,
            },
        );
        let bits = key_bits(&e);
        prop_assert_eq!(squares as usize, bits.len());
        prop_assert_eq!(muls as usize, bits.iter().filter(|&&b| b == 1).count());
    }

    /// Frame colours partition the frame space evenly.
    #[test]
    fn colours_partition_frames(n_colors in 1u64..64, frames in 1u64..10_000) {
        let mut counts = vec![0u64; n_colors as usize];
        for f in 0..frames {
            counts[tp_sim::color_of_frame(f, n_colors) as usize] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "colour imbalance: {counts:?}");
    }
}

/// The reference colour-pool carving: one whole-pool `retain` pass over
/// the free list, taking up to `max` matching frames.
fn carve_by_retain(free: &mut Vec<u64>, max: usize, mut pred: impl FnMut(u64) -> bool) -> Vec<u64> {
    let mut taken = Vec::new();
    free.retain(|&f| {
        if taken.len() < max && pred(f) {
            taken.push(f);
            false
        } else {
            true
        }
    });
    taken
}

proptest! {
    /// `Untyped::take_matching` stops scanning at the `max`-th match, yet
    /// carves exactly what the whole-pool `retain` oracle carves and
    /// leaves the same free-list order (which `state_hash` folds and
    /// allocation pops from), through random colour predicates and pools
    /// perturbed by `alloc` and `free`. A clone carries the same live
    /// list.
    #[test]
    fn take_matching_matches_retain_oracle(
        frames in proptest::collection::vec(0u64..2048, 0..300),
        ops in proptest::collection::vec((0u8..3, any::<u64>(), 0usize..80), 1..24),
        n_colors in 1u64..17,
    ) {
        use time_protection::core::objects::Untyped;
        let mut pool = Untyped::new(frames.clone(), ColorSet::all(n_colors));
        let mut oracle = frames;
        oracle.sort_unstable_by(|a, b| b.cmp(a));
        let mut held = Vec::new();
        for (op, bits, n) in ops {
            match op {
                0 => {
                    let colors = ColorSet(bits);
                    let pred = |f| colors.contains(tp_sim::color_of_frame(f, n_colors));
                    let got = pool.take_matching(n, pred);
                    prop_assert_eq!(got, carve_by_retain(&mut oracle, n, pred));
                }
                1 => {
                    let got = pool.alloc(n);
                    let want = (oracle.len() >= n).then(|| oracle.split_off(oracle.len() - n));
                    prop_assert_eq!(&got, &want);
                    held.extend(got.unwrap_or_default());
                }
                _ => {
                    let back: Vec<u64> = held.drain(..n.min(held.len())).collect();
                    pool.free(back.iter().copied());
                    oracle.extend(back);
                }
            }
            prop_assert_eq!(pool.free_frames(), oracle.as_slice());
            prop_assert_eq!(pool.available(), oracle.len());
            let twin = pool.clone();
            prop_assert_eq!(twin.free_frames(), pool.free_frames());
            prop_assert_eq!(twin.available(), pool.available());
        }
    }
}

proptest! {
    /// The batch sweep is bit-identical to the scalar access path: same
    /// per-line cycle costs, same hit levels, same machine state — for
    /// random address mixes on the data and the instruction side, read and
    /// write rounds, with the platform itself drawn as a strategy over the
    /// whole registry. This is the correctness contract that lets the probe
    /// machinery run through `Machine::access_batch`, and it must survive
    /// the scalar path planning only the L1 up front.
    ///
    /// The addresses stride over whole shared-cache set spans, up to twice
    /// as many tags as the shared cache has ways across its slices, so
    /// they span far more than the platform's L2 and reach DRAM, prefetch
    /// fills and shared-cache evictions. Rounds alternate between cores 0
    /// and 1, so back-invalidation meets the other core's non-empty
    /// private caches (in a quarter to nine tenths of the cases,
    /// depending on the platform) and DRAM stamps contend on the bus. DRAM
    /// counts and every cache's statistics must agree too.
    #[test]
    fn batch_sweep_matches_scalar_accesses(
        p in proptest::sample::select(tp_sim::Platform::ALL),
        lines in proptest::collection::vec((0u64..2, any::<u64>()), 8..200),
        writes in proptest::collection::vec(any::<bool>(), 3),
        insn in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use tp_sim::{Asid, BatchOut, Machine, PAddr, SweepPlan};
        let cfg = p.config();
        let mut ms = Machine::new(cfg, seed);
        let mut mb = Machine::new(cfg, seed);
        let span = ms.shared_geom().sets() * cfg.line;
        let tags = 2 * u64::from(ms.shared_geom().ways) * ms.num_slices() as u64;
        let pas: Vec<PAddr> = lines
            .iter()
            .map(|&(off, k)| PAddr(0x40_0000 + off * cfg.line + k % tags * span))
            .collect();
        let plan: SweepPlan = mb.plan_sweep(insn, &pas);
        for (round, &write) in writes.iter().enumerate() {
            let core = round % 2;
            let write = write && !insn;
            let mut costs = Vec::new();
            let mut levels = Vec::new();
            let total_b = mb.access_batch(
                core,
                Asid(1),
                &plan,
                write,
                false,
                &mut BatchOut { costs: Some(&mut costs), levels: Some(&mut levels) },
            );
            let mut total_s = 0u64;
            for (i, &pa) in pas.iter().enumerate() {
                let (c, lvl) = ms.access_with_level(core, Asid(1), pa, write, false, insn);
                total_s += c;
                prop_assert_eq!(c, costs[i], "{}: line {} cost", p.key(), i);
                prop_assert_eq!(lvl, levels[i], "{}: line {} level", p.key(), i);
            }
            prop_assert_eq!(total_s, total_b, "{}", p.key());
            prop_assert_eq!(ms.cycles(core), mb.cycles(core), "{}", p.key());
        }
        prop_assert_eq!(ms.dram_accesses(), mb.dram_accesses(), "{}", p.key());
        for (cs, cb) in ms.cores.iter().zip(&mb.cores) {
            prop_assert_eq!(cs.l1d.stats(), cb.l1d.stats(), "{}", p.key());
            prop_assert_eq!(cs.l1i.stats(), cb.l1i.stats(), "{}", p.key());
            prop_assert_eq!(cs.l2.as_ref().map(|c| c.stats()), cb.l2.as_ref().map(|c| c.stats()));
        }
        for i in 0..ms.num_slices() {
            prop_assert_eq!(ms.shared_slice(i).stats(), mb.shared_slice(i).stats(), "{}", p.key());
        }
    }

    /// The SplitMix noise stream is counter-based: the i-th value is a
    /// pure function of (seed, i), so fanning the index range out over any
    /// number of rayon workers reproduces the sequential stream exactly.
    /// This is the property that makes simulator noise independent of
    /// `TP_THREADS`.
    #[test]
    fn noise_stream_is_position_determined(seed in any::<u64>()) {
        use tp_sim::NoiseRng;
        let mut rng = NoiseRng::seeded(seed);
        let sequential: Vec<u64> = (0..256).map(|_| rng.next_u64()).collect();
        // Recompute out of order via the closed form, in parallel chunks.
        let chunks: Vec<usize> = (0..8).collect();
        let parallel: Vec<Vec<u64>> = rayon::par_map(&chunks, |&c| {
            (0..32).map(|i| tp_sim::noise::nth(seed, (c * 32 + i) as u64)).collect()
        });
        let flat: Vec<u64> = parallel.into_iter().flatten().collect();
        prop_assert_eq!(sequential, flat);
    }
}

/// End-to-end batch-vs-scalar equivalence through the engine. Two threads
/// on two cores sweep probe buffers with every batched entry point
/// (`ProbeBuf::probe*`, `dirty_prefix`, `probe_misses` and the splash
/// path `UserEnv::access_sweep` with compute between accesses) in one
/// system; an identically-seeded twin issues the same accesses line by
/// line through scalar `load`/`store`/`exec`/`compute`. While both cores
/// run, every sweep step takes the gate's slow path through token
/// rotations; once one thread finishes, the other runs on the fast path.
/// Per-call totals, final cycle counters and the kernel state hash must
/// agree bit-for-bit.
#[test]
fn engine_probe_batch_matches_scalar_oracle() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use time_protection::attacks::probe::l1_probe;
    use tp_core::{ProtectionConfig, SystemBuilder, UserEnv};
    use tp_sim::{VAddr, FRAME_SIZE};

    async fn sweeps(env: &UserEnv, batch: bool, rounds: usize) -> Vec<u64> {
        let dbuf = l1_probe(env, env.platform().l1d).await;
        let ibuf = l1_probe(env, env.platform().l1i).await;
        let threshold = env.platform().lat.l1_hit + 1;
        let mut totals = Vec::new();
        for round in 0..rounds {
            let n = 100 + round;
            // The splash-style sweep runs over fresh pages, so its
            // accesses go to DRAM and contend for the bus with the other
            // core's; every third access stores. With 1000 compute cycles
            // after each access, the window token changes hands every few
            // accesses while both cores run.
            let (base, _) = env.map_pages(8).await;
            let line = env.platform().line;
            let ops: Vec<(VAddr, bool)> = (0..8 * FRAME_SIZE / line)
                .map(|k| (VAddr(base.0 + k * line), k % 3 == 0))
                .collect();
            if batch {
                totals.push(dbuf.probe(env).await);
                totals.push(dbuf.probe_prefix(env, n).await);
                totals.push(dbuf.probe_write(env).await);
                totals.push(ibuf.probe_exec(env).await);
                // Data loads over the I-side buffer miss the L1-D that
                // `dbuf` fills.
                totals.push(ibuf.probe_misses(env, threshold).await);
                dbuf.dirty_prefix(env, n).await;
                totals.push(env.now().await);
                totals.push(env.access_sweep(&ops, 1000).await);
            } else {
                totals.push(dbuf.probe_scalar(env).await);
                let mut prefix = 0;
                for &va in &dbuf.lines[..n] {
                    prefix += env.load(va).await;
                }
                totals.push(prefix);
                totals.push(dbuf.probe_write_scalar(env).await);
                totals.push(ibuf.probe_exec_scalar(env).await);
                let mut misses = 0;
                for &va in &ibuf.lines {
                    misses += u64::from(env.load(va).await >= threshold);
                }
                totals.push(misses);
                for &va in &dbuf.lines[..n] {
                    env.store(va).await;
                }
                totals.push(env.now().await);
                let mut sum = 0;
                for &(va, write) in &ops {
                    sum += if write {
                        env.store(va).await
                    } else {
                        env.load(va).await
                    };
                    env.compute(1000).await;
                }
                totals.push(sum);
            }
        }
        totals
    }

    for platform in tp_sim::Platform::ALL {
        assert!(platform.config().cores >= 2, "{}", platform.key());
        let run = |batch: bool| {
            let out: Rc<RefCell<[Vec<u64>; 2]>> = Rc::default();
            let mut b = SystemBuilder::new(platform, ProtectionConfig::raw())
                .seed(0xBA7C)
                .max_cycles(400_000_000);
            let d = b.domain(None);
            // Core 1 finishes first, leaving core 0 alone for its last
            // round.
            for (core, rounds) in [(0, 3), (1, 2)] {
                let out2 = Rc::clone(&out);
                b.spawn(d, core, 100, async move |env: &mut UserEnv| {
                    let totals = sweeps(env, batch, rounds).await;
                    out2.borrow_mut()[core] = totals;
                });
            }
            let r = b.run();
            let totals = out.take();
            (totals, r.state_hash(), r.cycles)
        };
        let batched = run(true);
        let scalar = run(false);
        assert_eq!(
            [batched.0[0].len(), batched.0[1].len()],
            [21, 14],
            "{}: programs did not finish",
            platform.key()
        );
        assert_eq!(batched, scalar, "{}", platform.key());
    }
}

/// The shuffle test's false-positive rate is controlled: channels built
/// from pure noise rarely report leaks.
#[test]
fn shuffle_test_controls_false_positives() {
    use rand::Rng;
    let mut leaks = 0;
    let trials = 12;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(900 + t);
        let mut d = Dataset::new(4);
        for _ in 0..300 {
            let s = rng.gen_range(0..4);
            let o: f64 = rng.gen_range(0.0..100.0);
            d.push(s, o);
        }
        if time_protection::analysis::leakage_test(&d, 1000 + t).leaks {
            leaks += 1;
        }
    }
    // 95% bound => ~5% false positives expected; allow generous slack.
    assert!(leaks <= 3, "{leaks}/{trials} false positives");
}

proptest! {
    /// Any power-of-two cache geometry has a power-of-two set count, at
    /// least one page colour, and consistent line accounting — the same
    /// invariants `PlatformConfig::validate` enforces on the registry.
    #[test]
    fn cache_geometry_invariants(
        size_kib_log2 in 3u32..15, // 8 KiB .. 16 MiB
        ways_log2 in 0u32..5,
        line_log2 in 5u32..8,      // 32 .. 128 B
    ) {
        let geom = tp_sim::CacheGeom {
            size: (1u64 << size_kib_log2) * 1024,
            ways: 1 << ways_log2,
            line: 1 << line_log2,
        };
        if geom.size < geom.line * u64::from(geom.ways) {
            return; // degenerate: fewer than one set
        }
        prop_assert!(geom.sets().is_power_of_two());
        prop_assert!(geom.colors(4096) >= 1);
        prop_assert_eq!(geom.sets() * u64::from(geom.ways), geom.lines());
        prop_assert_eq!(geom.lines() * geom.line, geom.size);
    }
}

/// Every platform in the registry satisfies the structural invariants:
/// power-of-two cache sets, at least one colour, L1 ≤ L2 ≤ LLC ≤ DRAM
/// latency ordering, and one line size across all levels.
#[test]
fn registered_platforms_satisfy_invariants() {
    use tp_sim::Platform;
    for p in Platform::ALL {
        let cfg = p.config();
        let errs = cfg.validate();
        assert!(errs.is_empty(), "{} invalid: {errs:?}", p.key());
        // Spot-check the load-bearing invariants directly, independent of
        // validate()'s own implementation.
        for geom in [cfg.l1d, cfg.l1i, cfg.l2].into_iter().chain(cfg.llc) {
            assert!(
                geom.sets().is_power_of_two(),
                "{}: {} sets",
                p.key(),
                geom.sets()
            );
            assert!(geom.colors(cfg.page) >= 1, "{}: zero colours", p.key());
            assert_eq!(geom.line, cfg.line, "{}: mixed line sizes", p.key());
        }
        assert!(cfg.lat.l1_hit <= cfg.lat.l2_hit, "{}", p.key());
        assert!(cfg.lat.l2_hit <= cfg.lat.llc_hit, "{}", p.key());
        assert!(cfg.lat.llc_hit <= cfg.lat.dram, "{}", p.key());
        assert!(cfg.partition_colors() >= 1, "{}", p.key());
    }
}

/// validate() actually rejects broken configurations (the registry's
/// configurations pass it, checked above).
#[test]
fn validate_rejects_broken_configs() {
    use tp_sim::Platform;
    let mut cfg = Platform::Haswell.config();
    cfg.lat.dram = 1; // DRAM faster than LLC: nonsense
    assert!(!cfg.validate().is_empty());

    let mut cfg = Platform::Haswell.config();
    cfg.l1d.size = 3 * 1024; // 6 sets: not a power of two
    assert!(!cfg.validate().is_empty());

    let mut cfg = Platform::Sabre.config();
    cfg.l2.line = 64; // mixed line sizes (platform line is 32)
    assert!(!cfg.validate().is_empty());

    let mut cfg = Platform::Haswell.config();
    cfg.line = 96; // kernel line addressing splits pages by shift and mask
    assert!(cfg.validate().iter().any(|e| e.contains("line size 96")));
}

/// Build-and-run one fixed multi-environment workload; used by the pinned
/// executor tests below. Three domains on one core — a probing primary, a
/// computing daemon and a paging daemon — exercise preemption, batched
/// sweeps and kernel allocation paths.
fn executor_fixture(
    platform: tp_sim::Platform,
    seed: u64,
) -> Result<tp_core::SystemReport, tp_core::SimError> {
    use std::cell::RefCell;
    use std::rc::Rc;
    use time_protection::attacks::probe::l1_probe;
    use tp_core::{ProtectionConfig, SystemBuilder, UserEnv};

    let obs: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let obs2 = Rc::clone(&obs);
    let mut b = SystemBuilder::new(platform, ProtectionConfig::protected())
        .seed(seed)
        .slice_us(30.0)
        .max_cycles(600_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    let d2 = b.domain(None);
    b.spawn(d0, 0, 100, async move |env: &mut UserEnv| {
        let buf = l1_probe(env, env.platform().l1d).await;
        for _ in 0..6 {
            let lat = buf.probe(env).await;
            obs2.borrow_mut().push(lat);
            let _ = env.wait_preempt().await;
        }
    });
    b.spawn_daemon(d1, 0, 100, async move |env: &mut UserEnv| loop {
        env.compute(10_000).await;
        env.sleep_slice().await;
    });
    b.spawn_daemon(d2, 0, 100, async move |env: &mut UserEnv| {
        let (va, _) = env.map_pages(4).await;
        loop {
            env.load(va).await;
            env.store(va).await;
            let _ = env.wait_preempt().await;
        }
    });
    b.try_run()
}

/// `(platform, seed, state_hash, per-core cycles)` of a clean
/// [`executor_fixture`] run, captured from the thread-per-environment
/// engine the single-thread driver replaced (the cooperative executor
/// agreed with it at every worker count).
const FIXTURE_PINS: [(tp_sim::Platform, u64, u64, &[u64]); 8] = {
    use tp_sim::Platform::{Haswell, HiKey, Sabre, Skylake};
    const S: u64 = 0x9e37_79b9_7f4a_7c15;
    [
        (Haswell, 0, 0x00e9_7060_6bce_34da, &[5_699_211, 0, 0, 0]),
        (Haswell, S, 0xad4e_3e45_42f1_9bec, &[5_698_947, 0, 0, 0]),
        (Sabre, 0, 0x3e9f_9a6a_9662_c2da, &[5_711_034, 0, 0, 0]),
        (Sabre, S, 0x70ac_c065_b51f_3991, &[5_711_037, 0, 0, 0]),
        (Skylake, 0, 0xdb85_2921_aeef_1dd0, &[4_453_707, 0, 0, 0]),
        (Skylake, S, 0xad6e_ce8e_ef43_9e8f, &[4_443_242, 0, 0, 0]),
        (
            HiKey,
            0,
            0xe799_9c75_4e3e_17e9,
            &[2_280_161, 0, 0, 0, 0, 0, 0, 0],
        ),
        (
            HiKey,
            S,
            0xefb9_9dc2_6509_5011,
            &[2_280_159, 0, 0, 0, 0, 0, 0, 0],
        ),
    ]
};

/// The single-thread driver replays the retired executors step for step:
/// final kernel state hash and per-core cycle counts of the fixture on
/// every platform and two seeds match the values pinned from the
/// thread-per-environment engine. One changed simulated step moves the
/// hash.
#[test]
fn executor_fixture_matches_pinned_state() {
    for (p, seed, hash, cycles) in FIXTURE_PINS {
        let r = executor_fixture(p, seed).expect("fixture run");
        assert_eq!(
            r.state_hash(),
            hash,
            "{} seed {seed:#x}: state hash",
            p.key()
        );
        assert_eq!(r.cycles, cycles, "{} seed {seed:#x}: cycle counts", p.key());
    }
}

/// How an `env-panic@at` run of the fixture ends: the survivors' final
/// state hash, per-core cycles and `Debug` of the `env_outcomes`, or the
/// error string when the panic landed on the primary.
type IsolationPin = Result<(u64, &'static [u64], &'static str), &'static str>;

/// `(platform, at, outcome)` of [`executor_fixture`] at seed 0 with
/// `env-panic@at` armed, pinned from the thread-per-environment engine.
/// The rows cover a death of each daemon, a death of the primary and an
/// ordinal past the run's last interaction on every platform family.
const ISOLATION_PINS: [(tp_sim::Platform, u64, IsolationPin); 10] = {
    use tp_sim::Platform::{Haswell, HiKey, Sabre, Skylake};
    [
        (
            Haswell,
            2,
            Ok((
                0x1654_b02f_979c_0c62,
                &[5_699_487, 0, 0, 0],
                "[Completed, Completed, Failed { env: 2, message: \"injected fault: env-panic at syscall 2\" }]",
            )),
        ),
        (
            Haswell,
            3,
            Err("simulated program failed: injected fault: env-panic at syscall 3 (env 0)"),
        ),
        (
            Haswell,
            4,
            Ok((
                0x409a_2c9d_1036_d440,
                &[5_699_433, 0, 0, 0],
                "[Completed, Failed { env: 1, message: \"injected fault: env-panic at syscall 4\" }, Completed]",
            )),
        ),
        (
            Sabre,
            2,
            Ok((
                0x8521_d042_9cda_cffc,
                &[5_636_004, 0, 0, 0],
                "[Completed, Failed { env: 1, message: \"injected fault: env-panic at syscall 2\" }, Completed]",
            )),
        ),
        (
            Sabre,
            3,
            Ok((
                0x4427_e506_cba9_550f,
                &[5_710_989, 0, 0, 0],
                "[Completed, Completed, Failed { env: 2, message: \"injected fault: env-panic at syscall 3\" }]",
            )),
        ),
        (
            Skylake,
            5,
            Err("simulated program failed: injected fault: env-panic at syscall 5 (env 0)"),
        ),
        (
            Skylake,
            17,
            Ok((
                0xdb85_2921_aeef_1dd0,
                &[4_453_707, 0, 0, 0],
                "[Completed, Completed, Completed]",
            )),
        ),
        (
            HiKey,
            9,
            Err("simulated program failed: injected fault: env-panic at syscall 9 (env 0)"),
        ),
        (
            HiKey,
            13,
            Ok((
                0xbeb4_d92d_e253_ac97,
                &[2_280_161, 0, 0, 0, 0, 0, 0, 0],
                "[Completed, Failed { env: 1, message: \"injected fault: env-panic at syscall 13\" }, Completed]",
            )),
        ),
        (
            HiKey,
            1_000_000,
            Ok((
                0xe799_9c75_4e3e_17e9,
                &[2_280_161, 0, 0, 0, 0, 0, 0, 0],
                "[Completed, Completed, Completed]",
            )),
        ),
    ]
};

/// Per-environment failure isolation reproduces the retired executors'
/// outcomes exactly: arm an `env-panic` at each pinned interaction ordinal
/// and the dying environment, the survivors' state hash, cycle counts and
/// typed [`tp_core::EnvOutcome`] list — or, when the primary dies, the
/// error — match the pins. A panic that lands on a daemon must never
/// abort the run, and an ordinal the run never reaches must leave no
/// trace at all.
#[test]
fn env_failure_isolation_matches_pinned_outcomes() {
    use tp_core::{fault, EnvOutcome, FaultKind};
    for (p, at, pin) in ISOLATION_PINS {
        fault::arm(Some(FaultKind::EnvPanic { at }));
        let got = executor_fixture(p, 0);
        fault::arm(None);
        match (got, pin) {
            (Ok(r), Ok((hash, cycles, outcomes))) => {
                assert_eq!(r.state_hash(), hash, "{} env-panic@{at}: hash", p.key());
                assert_eq!(r.cycles, cycles, "{} env-panic@{at}: cycles", p.key());
                assert_eq!(format!("{:?}", r.env_outcomes), outcomes);
                let failed = r
                    .env_outcomes
                    .iter()
                    .filter(|o| matches!(o, EnvOutcome::Failed { .. }))
                    .count();
                if failed == 0 {
                    // Inert: identical to the clean run.
                    let clean = executor_fixture(p, 0).expect("clean fixture");
                    assert_eq!(
                        r.state_hash(),
                        clean.state_hash(),
                        "{}: inert env-panic@{at} perturbed the run",
                        p.key()
                    );
                } else {
                    // Contained, not collapsed: at least one sibling survived.
                    assert!(
                        failed < r.env_outcomes.len(),
                        "{}: env-panic@{at} took the whole fleet down",
                        p.key()
                    );
                }
            }
            (Err(e), Err(msg)) => assert_eq!(e.to_string(), msg),
            (got, pin) => panic!(
                "{} env-panic@{at}: got {:?}, pinned {pin:?}",
                p.key(),
                got.map(|r| r.env_outcomes)
            ),
        }
    }
}
