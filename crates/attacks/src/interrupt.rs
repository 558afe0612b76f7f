//! The interrupt channel (§5.3.5, Figure 6).
//!
//! The Trojan programs a one-shot timer to fire 13–17 ms after the start of
//! its slice (with a 10 ms tick, i.e. 3–7 ms into the spy's slice) and
//! sleeps. Without interrupt partitioning the kernel handles the interrupt
//! during the *spy's* slice; the spy, watching its cycle counter, sees its
//! online period cut at a symbol-dependent point — a ~0.9 bit per slice
//! channel. With `Kernel_SetInt` partitioning (Requirement 5) the interrupt
//! stays masked until the Trojan's kernel is next active, and the spy's
//! slice is uninterrupted.

use crate::harness::{run_channel, ChannelOutcome, IntraCoreSpec, ReceiverLog, Sender};
use tp_core::{CapObject, Capability, ProtectionConfig, Rights, SimError, UserEnv};

/// The IRQ line the Trojan's timer uses.
pub const TROJAN_IRQ: u32 = 3;

/// Timer values the Trojan encodes (ms), Figure 6's x-axis.
pub const TIMER_VALUES_MS: [f64; 5] = [13.0, 14.0, 15.0, 16.0, 17.0];

/// Interrupt-channel configurations: `partitioned = false` reproduces the
/// raw channel, `true` the defence.
#[must_use]
pub fn interrupt_config(partitioned: bool) -> ProtectionConfig {
    let mut p = ProtectionConfig::protected();
    p.irq_partition = partitioned;
    // The channel is orthogonal to flushing; keep switches cheap so the
    // online time is dominated by the interrupt placement.
    p.flush = tp_core::FlushMode::None;
    p.pad_us = None;
    p
}

/// Run the interrupt channel. Outputs are the spy's online-period lengths
/// (cycles); inputs index [`TIMER_VALUES_MS`].
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
///
/// # Panics
/// Panics if `spec.n_symbols` does not match [`TIMER_VALUES_MS`].
pub fn try_interrupt_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    assert_eq!(spec.n_symbols, TIMER_VALUES_MS.len());
    let mut b = spec.builder();
    // Bind the Trojan's timer IRQ to its kernel image and hand it the IRQ
    // handler capability. TCBs are [trojan, spy].
    b.setup(Box::new(|k, _m, tcbs, domains| {
        let trojan = tcbs[0];
        let image = k.domains.get(domains[1].0).expect("trojan domain").image;
        let ntfn = k.create_notification(domains[1]).expect("ntfn");
        k.kernel_set_int(image, TROJAN_IRQ, Some(ntfn))
            .expect("set_int");
        let cap = k.grant_cap(
            trojan,
            Capability {
                obj: CapObject::IrqHandler(TROJAN_IRQ),
                rights: Rights::rw(),
            },
        );
        assert_eq!(cap, 0);
    }));

    let trojan = Sender {
        core: 0,
        setup: async |_: &mut UserEnv| (),
        encode: async |env: &mut UserEnv, (): &mut (), symbol: usize, _| {
            let _ = env.set_timer_us(0, TIMER_VALUES_MS[symbol] * 1000.0).await;
            // Sleep for the rest of the slice.
            env.sleep_slice().await;
        },
    };

    let samples = spec.samples;
    let slot_cycles = spec.platform.config().us_to_cycles(spec.slice_us);
    let spy = async move |env: &mut UserEnv, log: ReceiverLog| {
        let mut last_resume: Option<u64> = None;
        let mut prev_offline = u64::MAX; // before the first resume: a slot boundary
        let mut taken = 0usize;
        while taken < samples + 1 {
            let (gap_start, resume) = env.wait_preempt().await;
            // Record the *first* online period of each of our slots: the
            // one whose start followed a long (slot-boundary) offline
            // period. Its length is where the Trojan's interrupt landed.
            if let Some(lr) = last_resume {
                if prev_offline > slot_cycles / 2 {
                    let online = (gap_start - lr) as f64;
                    log.borrow_mut().push((gap_start, online));
                    taken += 1;
                }
            }
            prev_offline = resume - gap_start;
            last_resume = Some(resume);
        }
    };
    run_channel(spec, b, trojan, spy)
}

/// The paper's spec: 10 ms tick.
#[must_use]
pub fn paper_spec(platform: tp_sim::Platform, partitioned: bool, samples: usize) -> IntraCoreSpec {
    IntraCoreSpec {
        platform,
        prot: interrupt_config(partitioned),
        n_symbols: TIMER_VALUES_MS.len(),
        samples,
        slice_us: 10_000.0,
        seed: 0x5EED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_sim::Platform;

    #[test]
    fn unpartitioned_interrupts_leak() {
        let raw = try_interrupt_channel(&paper_spec(Platform::Haswell, false, 150))
            .expect("sim run failed");
        assert!(
            raw.verdict.leaks,
            "raw interrupt channel: {}",
            raw.summary()
        );
        assert!(raw.verdict.m.bits > 0.4, "weak: {}", raw.summary());
    }

    #[test]
    fn partitioning_closes_the_channel() {
        let raw = try_interrupt_channel(&paper_spec(Platform::Haswell, false, 120))
            .expect("sim run failed");
        let part = try_interrupt_channel(&paper_spec(Platform::Haswell, true, 120))
            .expect("sim run failed");
        assert!(
            part.verdict.m.bits < raw.verdict.m.bits / 5.0,
            "partitioning ineffective: {} vs {}",
            raw.summary(),
            part.summary()
        );
    }
}
