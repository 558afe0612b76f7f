//! Intra-core cache channels: L1-D, L1-I and L2 (§5.3.2, Table 3).
//!
//! Prime&probe: the receiver fills the target cache with its own lines;
//! the sender, during its slice, touches a number of cache sets
//! proportional to the symbol; the receiver then re-probes and the total
//! latency reveals how many of its lines were evicted.

use crate::harness::{try_measure_channel, ChannelOutcome, IntraCoreSpec, Receiver};
use crate::probe::{l1_probe, phys_probe, ProbeBuf};
use tp_core::SimError;
use tp_core::UserEnv;
use tp_sim::PlatformConfig;

/// Symbols used by the cache channels (16 ⇒ up to 4 bits).
pub const CACHE_SYMBOLS: usize = 16;

/// Upper bound on the number of *lines* in an L2 probe buffer, so the
/// probe fits comfortably inside a slice on every platform (the whole
/// 4096-line Haswell L2; a quarter of the Sabre's 1 MiB L2).
const L2_PROBE_LINES: usize = 4096;

/// The L1-D channel: sender dirties `k` sets, receiver probes the full
/// cache with loads.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_l1d_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    let n = spec.n_symbols;
    let mut sbuf: Option<ProbeBuf> = None;
    try_measure_channel(
        spec,
        move |env: &mut UserEnv, sym: usize| {
            let geom = env.platform().l1d;
            let buf = sbuf.get_or_insert_with(|| l1_probe(env, geom));
            let sets = geom.sets() as usize;
            let ways = geom.ways as usize;
            let k = sets * sym / n.max(1);
            buf.dirty_prefix(env, k * ways);
        },
        Receiver {
            setup: |env: &mut UserEnv| {
                let geom = env.platform().l1d;
                let buf = l1_probe(env, geom);
                // Warm the backing L2/LLC so probe misses are L2-bounded.
                let _ = buf.probe(env);
                buf
            },
            measure: |env: &mut UserEnv, buf: &mut ProbeBuf| buf.probe(env) as f64,
        },
    )
}

/// The L1-I channel: as L1-D but with instruction fetches on both sides.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_l1i_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    let n = spec.n_symbols;
    let mut sbuf: Option<ProbeBuf> = None;
    try_measure_channel(
        spec,
        move |env: &mut UserEnv, sym: usize| {
            let geom = env.platform().l1i;
            let buf = sbuf.get_or_insert_with(|| l1_probe(env, geom));
            let sets = geom.sets() as usize;
            let ways = geom.ways as usize;
            let k = sets * sym / n.max(1);
            for va in &buf.lines[..(k * ways).min(buf.lines.len())] {
                env.exec(*va);
            }
        },
        Receiver {
            setup: |env: &mut UserEnv| {
                let geom = env.platform().l1i;
                let buf = l1_probe(env, geom);
                let _ = buf.probe_exec(env);
                buf
            },
            measure: |env: &mut UserEnv, buf: &mut ProbeBuf| buf.probe_exec(env) as f64,
        },
    )
}

/// How many L2 sets each side works with on a platform: as many sets as
/// keep the probe buffer within `L2_PROBE_LINES` (4096) lines, derived
/// from the cache geometry rather than a per-platform table.
#[must_use]
pub fn l2_probe_sets(cfg: &PlatformConfig) -> usize {
    (cfg.l2.sets() as usize).min(L2_PROBE_LINES / (cfg.l2.ways as usize).max(1))
}

/// Slice length (µs) that leaves the L2 probe ~3× headroom on this
/// platform, rounded up to a 50 µs grid (50 µs on the Haswell, 400 µs on
/// the slower-clocked Sabre — the values the paper-pinned runs used).
#[must_use]
pub fn l2_slice_us(cfg: &PlatformConfig) -> f64 {
    let probe_lines = (l2_probe_sets(cfg) * cfg.l2.ways as usize) as u64;
    let probe_us = cfg.cycles_to_us(probe_lines * cfg.lat.l2_hit);
    ((3.0 * probe_us) / 50.0).ceil().max(1.0) * 50.0
}

/// The L2 channel: physically-indexed, so colouring (not flushing) is the
/// defence — and the residual x86 channel via the data prefetcher lives
/// here (§5.3.2).
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_l2_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    let n = spec.n_symbols;
    let n_sets = l2_probe_sets(&spec.platform.config());
    let mut sbuf: Option<ProbeBuf> = None;
    try_measure_channel(
        spec,
        move |env: &mut UserEnv, sym: usize| {
            let buf = sbuf.get_or_insert_with(|| {
                let geom = env.platform().l2;
                let targets: Vec<usize> = (0..n_sets.min(geom.sets() as usize)).collect();
                let ways = geom.ways as usize;
                let b = phys_probe(env, geom, &targets, ways, 4 * n_sets.max(64));
                // Warm the whole buffer once so per-slice footprints are
                // L2-bounded and fit within the slice.
                let _ = b.probe(env);
                b
            });
            let per_set = buf.per_set.max(1);
            let covered = buf.len() / per_set;
            let k = covered * sym / n.max(1);
            buf.dirty_prefix(env, k * per_set);
        },
        Receiver {
            setup: move |env: &mut UserEnv| {
                let geom = env.platform().l2;
                let targets: Vec<usize> = (0..n_sets.min(geom.sets() as usize)).collect();
                let ways = geom.ways as usize;
                let buf = phys_probe(env, geom, &targets, ways, 4 * n_sets.max(64));
                let _ = buf.probe(env);
                buf
            },
            measure: |env: &mut UserEnv, buf: &mut ProbeBuf| buf.probe(env) as f64,
        },
    )
}

/// The §5.3.2 residual-channel ablation: the sender walks `2·symbol` pages
/// sequentially, leaving that many *confidently trained* streams in the
/// data prefetcher. The on-core flush (manual L1 flush + IBC) does not
/// reset the prefetcher; its stale streams resume against the receiver's
/// first demand misses, perturbing the probe time in proportion to the
/// sender's stream count. Disabling the prefetcher (MSR 0x1A4) removes the
/// effect — the paper's follow-up experiment.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_l2_prefetcher_residual(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    let n = spec.n_symbols;
    let mut sender_buf: Option<tp_sim::VAddr> = None;
    try_measure_channel(
        spec,
        move |env: &mut UserEnv, sym: usize| {
            let pages = 2 * n;
            let base = *sender_buf.get_or_insert_with(|| env.map_pages(pages).0);
            let line = env.platform().line;
            let lines_per_page = tp_sim::FRAME_SIZE / line;
            // Walk `2·sym` pages sequentially: one trained stream each.
            for p in 0..(2 * sym) as u64 {
                for l in 0..lines_per_page {
                    env.load(tp_sim::VAddr(base.0 + p * tp_sim::FRAME_SIZE + l * line));
                }
            }
        },
        Receiver {
            setup: move |env: &mut UserEnv| {
                let geom = env.platform().l2;
                let targets: Vec<usize> = (0..256).collect();
                let buf = phys_probe(env, geom, &targets, geom.ways as usize, 1024);
                let _ = buf.probe(env);
                buf
            },
            measure: |env: &mut UserEnv, buf: &mut ProbeBuf| buf.probe(env) as f64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scenario;
    use tp_sim::Platform;

    #[test]
    fn l2_probe_sizing_matches_pinned_runs() {
        // The geometry-derived sizes must reproduce the hand-picked values
        // of the pinned paper runs exactly.
        let h = Platform::Haswell.config();
        let a = Platform::Sabre.config();
        assert_eq!(l2_probe_sets(&h), 512);
        assert_eq!(l2_probe_sets(&a), 256);
        assert!((l2_slice_us(&h) - 50.0).abs() < 1e-9);
        assert!((l2_slice_us(&a) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn l1d_raw_leaks_and_protected_does_not() {
        let raw = try_l1d_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::Raw,
            8,
            120,
        ))
        .expect("sim run failed");
        assert!(raw.verdict.leaks, "raw L1-D: {}", raw.summary());
        assert!(
            raw.verdict.m.bits > 0.5,
            "raw L1-D too weak: {}",
            raw.summary()
        );

        let prot = try_l1d_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::Protected,
            8,
            120,
        ))
        .expect("sim run failed");
        assert!(
            prot.verdict.m.bits < raw.verdict.m.bits / 5.0,
            "protection ineffective: raw {} vs protected {}",
            raw.summary(),
            prot.summary()
        );
    }

    #[test]
    fn l1i_raw_leaks_on_arm() {
        let raw = try_l1i_channel(&IntraCoreSpec::new(Platform::Sabre, Scenario::Raw, 8, 100))
            .expect("sim run failed");
        assert!(raw.verdict.leaks, "raw L1-I: {}", raw.summary());
    }

    #[test]
    fn l2_full_flush_closes_channel() {
        let raw = try_l2_channel(
            &IntraCoreSpec::new(Platform::Haswell, Scenario::Raw, 8, 100).with_slice_us(60.0),
        )
        .expect("sim run failed");
        let ff = try_l2_channel(
            &IntraCoreSpec::new(Platform::Haswell, Scenario::FullFlush, 8, 100).with_slice_us(60.0),
        )
        .expect("sim run failed");
        assert!(raw.verdict.leaks, "raw L2: {}", raw.summary());
        assert!(
            ff.verdict.m.bits < raw.verdict.m.bits / 5.0,
            "full flush ineffective: {} vs {}",
            raw.summary(),
            ff.summary()
        );
    }
}
