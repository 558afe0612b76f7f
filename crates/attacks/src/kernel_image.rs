//! The kernel-image covert channel (§5.3.1, Figure 3).
//!
//! Colouring userland partitions all *dynamic* kernel data (it lives in
//! user-supplied memory), but kernel text, stack and global data remain
//! shared. The sender encodes symbols by invoking different system calls —
//! `Signal` (0), `TCB_SetPriority` (1), `Poll` (2) or idling (3) — whose
//! handlers occupy distinct kernel text lines.
//!
//! The receiver measures *through the kernel itself*, as the paper's
//! receiver does: it times a fixed sequence of the same three system
//! calls, then evicts the handlers' lines from its core's L1-I (an
//! instruction-sized probe) and from the unified L2 (a data probe over the
//! handler sets). A handler the sender invoked during its slice was
//! re-fetched into the L2; one the sender left alone answers from the LLC.
//! The timed sequence therefore speeds up by (LLC − L2) per line of
//! whichever handler the sender used — a pure capacity/inclusion effect of
//! the shared kernel image. Cloned kernels place each domain's kernel in
//! its own colours (and the receiver only ever times its own clone), so
//! the channel disappears.

use crate::harness::{run_channel, ChannelOutcome, IntraCoreSpec, Receiver, Sender};
use crate::probe::{l1_probe, phys_probe, ProbeBuf};
use tp_core::{CapObject, Capability, ProtectionConfig, Rights, SimError, Syscall, UserEnv};

/// Symbol names for the channel matrix (Figure 3's x-axis).
pub const SYMBOLS: [&str; 4] = ["Signal", "SetPriority", "Poll", "idle"];

/// Syscall repetitions per sender slice.
const REPS: usize = 24;

/// Figure 3 (top): the *coloured userland only* configuration — user
/// memory is coloured but the kernel is shared and nothing is flushed.
#[must_use]
pub fn coloured_userland_config() -> ProtectionConfig {
    ProtectionConfig {
        color_userland: true,
        ..ProtectionConfig::raw()
    }
}

/// The L2/LLC sets the boot (shared) kernel serves the four symbol
/// syscalls — plus the tick path — from: the receiver's "attack sets".
#[must_use]
pub fn kernel_attack_sets(cfg: &tp_sim::PlatformConfig) -> Vec<usize> {
    use tp_core::kernel::{foot, FootKind, BOOT_IMAGE_PFN};
    let sets = cfg.l2.sets();
    let text_line0 = BOOT_IMAGE_PFN * (tp_sim::FRAME_SIZE / cfg.line);
    let mut targets = std::collections::BTreeSet::new();
    for kind in [
        FootKind::Signal,
        FootKind::SetPriority,
        FootKind::Poll,
        FootKind::Tick,
        FootKind::Nop,
    ] {
        let f = foot(kind);
        for i in 0..f.text {
            targets.insert(((text_line0 + f.off + i) % sets) as usize);
        }
    }
    targets.into_iter().collect()
}

/// Run the kernel-image channel; returns the outcome (use
/// [`tp_analysis::ChannelMatrix`] on the dataset for the Figure 3 heat
/// map).
///
/// # Errors
/// Returns the [`SimError`] if the simulation fails.
///
/// # Panics
/// Panics if `n_symbols` does not match [`SYMBOLS`] — a misuse of the
/// API, not a simulation outcome.
pub fn kernel_image_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    assert_eq!(spec.n_symbols, SYMBOLS.len(), "the channel has 4 symbols");
    let mut b = spec.builder();
    // Grant both sides a notification and a TCB capability for their
    // syscalls (the receiver times the same handlers the sender exercises).
    // TCBs are ordered [sender, receiver].
    b.setup(Box::new(|k, _m, tcbs, domains| {
        for (i, &tcb) in tcbs.iter().enumerate().take(2) {
            let ntfn = k.create_notification(domains[1 - i]).expect("ntfn");
            let c0 = k.grant_cap(
                tcb,
                Capability {
                    obj: CapObject::Notification(ntfn),
                    rights: Rights::all(),
                },
            );
            let c1 = k.grant_cap(
                tcb,
                Capability {
                    obj: CapObject::Tcb(tcb),
                    rights: Rights::all(),
                },
            );
            assert_eq!((c0, c1), (0, 1));
        }
    }));

    let sender = Sender {
        core: 0,
        setup: async |_: &mut UserEnv| (),
        encode: async |env: &mut UserEnv, (): &mut (), symbol: usize, _| {
            for _ in 0..REPS {
                match symbol {
                    0 => {
                        let _ = env.syscall(Syscall::Signal { cap: 0 }).await;
                    }
                    1 => {
                        let _ = env
                            .syscall(Syscall::TcbSetPriority { cap: 1, prio: 100 })
                            .await;
                    }
                    2 => {
                        let _ = env.syscall(Syscall::Poll { cap: 0 }).await;
                    }
                    _ => env.compute(400).await,
                }
            }
            let _ = env.wait_preempt().await;
        },
    };

    let receiver = Receiver {
        setup: async |env: &mut UserEnv| {
            let cfg = *env.platform();
            // The eviction machinery: a data probe over exactly the
            // unified-L2 sets the candidate handlers are served from (the
            // real attack finds these with the §5.3.1 profiling phase), and
            // an instruction-sized exec probe that clears the L1-I. Running
            // both after each timed measurement leaves every handler line
            // cold in the receiver's private hierarchy, so the next
            // measurement reads purely what the *sender* re-fetched.
            let targets = kernel_attack_sets(&cfg);
            let ways = cfg.l2.ways as usize;
            let dbuf = phys_probe(env, cfg.l2, &targets, ways, 6 * targets.len()).await;
            let ibuf = l1_probe(env, cfg.l1i).await;
            let _ = dbuf.probe(env).await;
            let _ = ibuf.probe_exec(env).await;
            (dbuf, ibuf)
        },
        measure: async |env: &mut UserEnv, (dbuf, ibuf): &mut (ProbeBuf, ProbeBuf), t0| {
            // Time the three handler syscalls back to back; the sum drops
            // by (LLC − L2 latency) × footprint for the handler the sender
            // kept warm.
            let _ = env.syscall(Syscall::Signal { cap: 0 }).await;
            let _ = env
                .syscall(Syscall::TcbSetPriority { cap: 1, prio: 100 })
                .await;
            let _ = env.syscall(Syscall::Poll { cap: 0 }).await;
            let t1 = env.now().await;
            // Evict the handlers from the L2 (data probe over their sets)
            // and from the L1-I, re-arming the measurement.
            let _ = dbuf.probe(env).await;
            let _ = ibuf.probe_exec(env).await;
            (t1 - t0) as f64
        },
    };
    run_channel(spec, b, sender, receiver.program(spec.samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_sim::Platform;

    fn spec(prot: ProtectionConfig, samples: usize) -> IntraCoreSpec {
        IntraCoreSpec {
            platform: Platform::Haswell,
            prot,
            n_symbols: 4,
            samples,
            slice_us: 50.0,
            seed: 0x5EED,
        }
    }

    #[test]
    fn shared_kernel_leaks_cloned_kernel_does_not() {
        let raw = kernel_image_channel(&spec(coloured_userland_config(), 150)).expect("simulation");
        assert!(raw.verdict.leaks, "shared kernel: {}", raw.summary());
        assert!(raw.verdict.m.bits > 0.3, "weak channel: {}", raw.summary());

        let prot =
            kernel_image_channel(&spec(ProtectionConfig::protected(), 150)).expect("simulation");
        assert!(
            prot.verdict.m.bits < raw.verdict.m.bits / 5.0,
            "cloning ineffective: {} vs {}",
            raw.summary(),
            prot.summary()
        );
    }
}
