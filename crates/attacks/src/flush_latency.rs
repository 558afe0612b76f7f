//! The cache-flush latency channel (§5.3.4, Figure 5, Table 4).
//!
//! Flushing the L1-D on a domain switch writes back all dirty lines, so the
//! switch latency depends on how much dirty data the outgoing domain left
//! behind — execution history leaks through the *flush itself*. The sender
//! modulates the number of dirty cache sets; the receiver watches its cycle
//! counter for the preemption jump and measures *online* time (between
//! jumps) and *offline* time (the jump length). Requirement 4: padding the
//! switch to its worst-case latency closes the channel.

use crate::harness::{run_channel, ChannelOutcome, IntraCoreSpec, ReceiverLog, Sender};
use crate::probe::{l1_probe, ProbeBuf};
use tp_core::{ProtectionConfig, SimError, UserEnv};
use tp_sim::Platform;

/// Which side of the preemption jump the receiver reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Time between jumps (the uninterrupted period).
    Online,
    /// The jump length.
    Offline,
}

/// The padding values used in Table 4 — read from the platform registry
/// ([`tp_sim::PlatformConfig::switch_pad_us`]), so every registered
/// platform carries its own worst-case switch bound.
#[must_use]
pub fn table4_pad_us(platform: Platform) -> f64 {
    platform.config().switch_pad_us
}

/// The flush-channel protection configuration: full time protection with or
/// without padding.
#[must_use]
pub fn flush_channel_config(pad_us: Option<f64>) -> ProtectionConfig {
    let mut p = ProtectionConfig::protected();
    p.pad_us = pad_us;
    p
}

/// Run the cache-flush channel and report the chosen timing.
///
/// # Errors
/// Returns the [`SimError`] if the simulation fails.
pub fn flush_channel(spec: &IntraCoreSpec, timing: Timing) -> Result<ChannelOutcome, SimError> {
    let n_symbols = spec.n_symbols;
    let samples = spec.samples;
    let sender = Sender {
        core: 0,
        setup: async |env: &mut UserEnv| l1_probe(env, env.platform().l1d).await,
        encode: async move |env: &mut UserEnv, buf: &mut ProbeBuf, symbol: usize, _| {
            // Dirty `k` cache sets: the flush on the switch away from us
            // will write them all back.
            let geom = env.platform().l1d;
            let k = geom.sets() as usize * symbol / n_symbols.max(1);
            buf.dirty_prefix(env, k * geom.ways as usize).await;
            let _ = env.wait_preempt().await;
        },
    };
    let receiver = async move |env: &mut UserEnv, log: ReceiverLog| {
        let mut last_resume: Option<u64> = None;
        let mut taken = 0usize;
        while taken < samples + 1 {
            let (gap_start, resume) = env.wait_preempt().await;
            // Pairing timestamps: the offline period *contains* the sender
            // slice that modulated the flush, so it is stamped at its end
            // (resume); the online period follows the switch-in from the
            // previous sender slice, so it is stamped at its end too —
            // which still precedes the next sender slice's log entry.
            let value = match timing {
                Timing::Offline => Some(((resume - gap_start) as f64, resume)),
                Timing::Online => last_resume.map(|lr| ((gap_start - lr) as f64, gap_start)),
            };
            if let Some((v, ts)) = value {
                log.borrow_mut().push((ts, v));
                taken += 1;
            }
            last_resume = Some(resume);
        }
    };
    run_channel(spec, spec.builder(), sender, receiver)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(platform: Platform, pad: Option<f64>, samples: usize) -> IntraCoreSpec {
        IntraCoreSpec {
            platform,
            prot: flush_channel_config(pad),
            n_symbols: 8,
            samples,
            slice_us: 50.0,
            seed: 0x5EED,
        }
    }

    #[test]
    fn unpadded_offline_time_leaks_on_arm() {
        let no_pad =
            flush_channel(&spec(Platform::Sabre, None, 150), Timing::Offline).expect("simulation");
        assert!(no_pad.verdict.leaks, "no-pad offline: {}", no_pad.summary());
        assert!(
            no_pad.verdict.m.bits > 0.2,
            "no-pad channel weak: {}",
            no_pad.summary()
        );
    }

    #[test]
    fn padding_closes_the_offline_channel() {
        let pad = table4_pad_us(Platform::Sabre);
        let no_pad =
            flush_channel(&spec(Platform::Sabre, None, 120), Timing::Offline).expect("simulation");
        let padded = flush_channel(&spec(Platform::Sabre, Some(pad), 120), Timing::Offline)
            .expect("simulation");
        assert!(
            no_pad.verdict.leaks,
            "no-pad must leak: {}",
            no_pad.summary()
        );
        // With near-constant padded outputs the absolute MI estimate is
        // noise-dominated; the §5.1 criterion is M ≤ M0.
        assert!(
            !padded.verdict.leaks,
            "padding ineffective: {}",
            padded.summary()
        );
    }
}
