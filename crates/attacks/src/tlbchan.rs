//! The TLB channel (§5.3.2, after Gras et al. (2018) / Hund et al. (2013)).
//!
//! The sender touches an integer on each of `k` consecutive pages, evicting
//! the receiver's TLB entries; the receiver probes one load per page of its
//! own working set and observes the extra page-walk latency. Flushing the
//! TLBs on domain switch (invpcid / TLBIALL) closes the channel.

use crate::harness::{run_channel, ChannelOutcome, IntraCoreSpec, Receiver, Sender};
use tp_core::SimError;
use tp_core::UserEnv;
use tp_sim::{PlatformConfig, VAddr, FRAME_SIZE};

/// Capacity of the innermost TLB level large enough to host a stable
/// probe set. Micro-TLBs of a dozen entries (e.g. the A53's) thrash under
/// the probe itself and saturate after a handful of sender pages, so on
/// such platforms the channel works through the main (second-level) TLB —
/// as the Armv8 TLB attacks do in practice.
fn tlb_probe_capacity(cfg: &PlatformConfig) -> usize {
    let dtlb = cfg.dtlb.entries as usize;
    if dtlb >= 32 {
        dtlb
    } else {
        (cfg.stlb.entries as usize).min(128)
    }
}

/// Number of pages the *receiver* probes: three quarters of the probed
/// TLB level's capacity, so the probe set is TLB-resident when
/// undisturbed and every sender-induced eviction shows up as
/// second-level/walk latency. (48 of the 64 D-TLB entries on Haswell, 24
/// of 32 on the Sabre — and scaled automatically for any registered
/// platform.)
#[must_use]
pub fn tlb_probe_pages(cfg: &PlatformConfig) -> usize {
    (tlb_probe_capacity(cfg) * 3 / 4).max(4)
}

/// Number of pages the *sender* sweeps over (its working-set signal):
/// twice the probed capacity, enough to displace the whole level.
#[must_use]
pub fn tlb_sweep_pages(cfg: &PlatformConfig) -> usize {
    (tlb_probe_capacity(cfg) * 2).max(8)
}

/// Run the TLB channel.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_tlb_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    let cfg = spec.platform.config();
    let pages = tlb_probe_pages(&cfg);
    let sweep = tlb_sweep_pages(&cfg);
    let n = spec.n_symbols;
    let sender = Sender {
        core: 0,
        setup: async |_: &mut UserEnv| None,
        encode: async move |env: &mut UserEnv, base: &mut Option<VAddr>, sym: usize, _| {
            let base = match *base {
                Some(base) => base,
                None => *base.insert(env.map_pages(sweep).await.0),
            };
            let k = sweep * sym / n.max(1);
            for p in 0..k {
                env.load(VAddr(base.0 + p as u64 * FRAME_SIZE)).await;
            }
            let _ = env.wait_preempt().await;
        },
    };
    let receiver = Receiver {
        setup: async move |env: &mut UserEnv| {
            let (base, _) = env.map_pages(pages).await;
            // Warm the pages into caches so the residual signal is TLB
            // latency, not cache misses.
            for _ in 0..2 {
                for p in 0..pages {
                    env.load(VAddr(base.0 + p as u64 * FRAME_SIZE)).await;
                }
            }
            base
        },
        measure: async move |env: &mut UserEnv, base: &mut VAddr, _| {
            let mut total = 0u64;
            for p in 0..pages {
                total += env.load(VAddr(base.0 + p as u64 * FRAME_SIZE)).await;
            }
            total as f64
        },
    };
    run_channel(spec, spec.builder(), sender, receiver.program(spec.samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scenario;
    use tp_sim::Platform;

    #[test]
    fn tlb_raw_leaks_protected_closed() {
        let raw = try_tlb_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::Raw,
            8,
            120,
        ))
        .expect("sim run failed");
        assert!(raw.verdict.leaks, "raw TLB: {}", raw.summary());
        let prot = try_tlb_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::Protected,
            8,
            120,
        ))
        .expect("sim run failed");
        // Protected outputs are near-constant, which makes the absolute MI
        // estimate noise-dominated; the §5.1 criterion is M ≤ M0.
        assert!(
            !prot.verdict.leaks,
            "TLB protection ineffective: {}",
            prot.summary()
        );
    }
}
