//! The cache-flush latency channel (§5.3.4, Figure 5, Table 4).
//!
//! Flushing the L1-D on a domain switch writes back all dirty lines, so the
//! switch latency depends on how much dirty data the outgoing domain left
//! behind — execution history leaks through the *flush itself*. The sender
//! modulates the number of dirty cache sets; the receiver watches its cycle
//! counter for the preemption jump and measures *online* time (between
//! jumps) and *offline* time (the jump length). Requirement 4: padding the
//! switch to its worst-case latency closes the channel.

use crate::harness::{pair_logs, ChannelOutcome, IntraCoreSpec, ReceiverLog, SenderLog};
use crate::probe::{l1_probe, ProbeBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use tp_analysis::leakage_test;
use tp_core::{ProtectionConfig, SimError, SystemBuilder, UserEnv};
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
    let sender_log = SenderLog::default();
    let receiver_log = ReceiverLog::default();

    let mut b = SystemBuilder::new(spec.platform, spec.prot)
        .seed(spec.seed)
        .slice_us(spec.slice_us)
        .max_cycles(spec.cycle_budget());
    let d_recv = b.domain(None);
    let d_send = b.domain(None);

    let n_symbols = spec.n_symbols;
    let samples = spec.samples;
    let seed = spec.seed;

    let slog = Rc::clone(&sender_log);
    b.spawn_daemon(d_send, 0, 100, async move |env: &mut UserEnv| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
        let geom = env.platform().l1d;
        let buf: ProbeBuf = l1_probe(env, geom).await;
        loop {
            let symbol = rng.gen_range(0..n_symbols);
            let t0 = env.now().await;
            slog.borrow_mut().push((t0, symbol));
            // Dirty `k` cache sets: the flush on the switch away from us
            // will write them all back.
            let per_set = geom.ways as usize;
            let k = geom.sets() as usize * symbol / n_symbols.max(1);
            buf.dirty_prefix(env, k * per_set).await;
            let _ = env.wait_preempt().await;
        }
    });

    let rlog = Rc::clone(&receiver_log);
    b.spawn(d_recv, 0, 100, async move |env: &mut UserEnv| {
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
                rlog.borrow_mut().push((ts, v));
                taken += 1;
            }
            last_resume = Some(resume);
        }
    });

    let _ = b.try_run()?;
    let dataset = pair_logs(n_symbols, &sender_log.borrow(), &receiver_log.borrow());
    let verdict = leakage_test(&dataset, spec.seed ^ 0x0F0F_F0F0);
    Ok(ChannelOutcome { dataset, verdict })
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
