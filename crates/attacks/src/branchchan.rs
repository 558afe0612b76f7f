//! Branch-predictor channels: BTB and BHB (§5.3.2, Table 3).
//!
//! **BTB**: the sender executes `k` taken branches whose addresses collide
//! with the receiver's probe branches in the branch target buffer; the
//! receiver's probe latency grows with the evictions (after Evtyushkin et
//! al.; the paper probes 3584–3712 branches on Haswell, 0–512 on Sabre).
//!
//! **BHB**: the residual-state channel of Evtyushkin et al. (2016): the
//! sender either takes or skips a conditional jump, biasing a shared
//! pattern-history counter; the receiver senses the bias as a
//! (mis)prediction on an aliasing conditional jump. `BPIALL`/IBC reset the
//! predictor and close both channels.

use crate::harness::{try_measure_channel, ChannelOutcome, IntraCoreSpec, Receiver};
use tp_core::SimError;
use tp_core::UserEnv;
use tp_sim::{PlatformConfig, VAddr};

/// Shared virtual code region both parties use for branch probes (the BTB
/// is indexed by virtual address, and the covert-channel parties cooperate
/// on the layout).
const BRANCH_BASE: u64 = 0x40_0000;

/// Branch slots the receiver probes: an eighth of the BTB, floored at 128
/// so small predictors still yield a measurable probe (512 slots of the
/// Haswell's 4096-entry BTB, 128 of the Sabre's 512 — and scaled
/// automatically for any registered platform).
#[must_use]
pub fn btb_probe_slots(cfg: &PlatformConfig) -> usize {
    (cfg.btb.entries as usize / 8).max(128)
}

/// Total branch slots the sender sweeps. (The paper sweeps absolute probe
/// counts of 3584–3712 on Haswell and 0–512 on Sabre; here the sender
/// covers the receiver's probe slots, which carries the same signal —
/// conflict evictions proportional to the sender's branch working set —
/// while fitting in a slice.)
#[must_use]
pub fn btb_sweep_slots(cfg: &PlatformConfig) -> usize {
    btb_probe_slots(cfg)
}

fn slot_pc(i: usize) -> VAddr {
    // 4-byte spaced branch instructions.
    VAddr(BRANCH_BASE + (i as u64) * 4)
}

/// Run the BTB channel.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_btb_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    let n = spec.n_symbols;
    let cfg = spec.platform.config();
    let sweep = btb_sweep_slots(&cfg);
    let slots = btb_probe_slots(&cfg);
    let ways = u64::from(cfg.btb.ways);
    try_measure_channel(
        spec,
        move |env: &mut UserEnv, sym: usize| {
            // The sender's branches live at *different* code addresses that
            // collide with the receiver's probe slots in the BTB index but
            // differ in tag — filling all ways of the first `k` sets and
            // evicting the receiver's entries.
            let k = sweep * sym / n.max(1);
            for w in 1..=ways {
                for i in 0..k {
                    let pc = VAddr(slot_pc(i).0 + w * 0x100_0000);
                    env.branch(pc, VAddr(pc.0 + 8), true, false);
                }
            }
        },
        Receiver {
            setup: move |env: &mut UserEnv| {
                // Warm the receiver's probe slots.
                for i in 0..slots {
                    let pc = slot_pc(i);
                    env.branch(pc, VAddr(pc.0 + 8), true, false);
                }
            },
            measure: move |env: &mut UserEnv, (): &mut ()| {
                let mut total = 0u64;
                for i in 0..slots {
                    let pc = slot_pc(i);
                    total += env.branch(pc, VAddr(pc.0 + 8), true, false);
                }
                total as f64
            },
        },
    )
}

/// Drive the global history register to a known (all-zero) state by
/// executing `n` never-taken conditional branches at a scratch pc.
///
/// The scratch pc must not alias the probe pc in the pattern-history table
/// (indices are `pc/4 xor history` modulo the PHT size), or the zeroing
/// itself would erase the trained state.
fn zero_history(env: &mut UserEnv, n: u32) {
    let pc = VAddr(BRANCH_BASE + 0x44);
    for _ in 0..n {
        env.branch(pc, VAddr(pc.0 + 8), false, true);
    }
}

/// Run the BHB channel: 1-bit symbols.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_bhb_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    let ghr_bits = spec.platform.config().ghr_bits;
    let probe_pc = VAddr(BRANCH_BASE + 0x80);
    try_measure_channel(
        spec,
        move |env: &mut UserEnv, sym: usize| {
            // Repeatedly train the aliased PHT entry towards taken (1) or
            // not-taken (0), always from zeroed history so the same counter
            // is hit.
            for _ in 0..6 {
                zero_history(env, ghr_bits + 2);
                env.branch(probe_pc, VAddr(probe_pc.0 + 8), sym == 1, true);
            }
        },
        Receiver {
            setup: move |_env: &mut UserEnv| (),
            measure: move |env: &mut UserEnv, (): &mut ()| {
                zero_history(env, ghr_bits + 2);
                // Probe with a taken branch: fast iff the sender trained
                // the counter to taken.
                let lat = env.branch(probe_pc, VAddr(probe_pc.0 + 8), true, true);
                lat as f64
            },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scenario;
    use tp_sim::Platform;

    #[test]
    fn btb_raw_leaks_on_haswell() {
        let raw = try_btb_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::Raw,
            8,
            120,
        ))
        .expect("sim run failed");
        assert!(raw.verdict.leaks, "raw BTB: {}", raw.summary());
        let prot = try_btb_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::Protected,
            8,
            120,
        ))
        .expect("sim run failed");
        assert!(
            prot.verdict.m.bits < raw.verdict.m.bits / 4.0,
            "BTB protection ineffective: {} vs {}",
            raw.summary(),
            prot.summary()
        );
    }

    #[test]
    fn bhb_raw_leaks_and_flush_closes() {
        let raw = try_bhb_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::Raw,
            2,
            150,
        ))
        .expect("sim run failed");
        assert!(raw.verdict.leaks, "raw BHB: {}", raw.summary());
        assert!(raw.verdict.m.bits > 0.3, "raw BHB weak: {}", raw.summary());
        let ff = try_bhb_channel(&IntraCoreSpec::new(
            Platform::Haswell,
            Scenario::FullFlush,
            2,
            150,
        ))
        .expect("sim run failed");
        assert!(
            !ff.verdict.leaks || ff.verdict.m.bits < 0.05,
            "full flush BHB: {}",
            ff.summary()
        );
    }
}
