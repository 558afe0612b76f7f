//! Deterministic replay: reduce `(genesis, commits)` back to kernel state.
//!
//! A logged run is fully described by a [`Genesis`] (the deterministic
//! boot) and the [`Commit`] sequence its gateways emitted. [`replay`]
//! re-executes the commits against a freshly booted machine/kernel pair;
//! because every gateway is deterministic in its arguments and the
//! machine state, the result satisfies
//! `state_hash(replay(log)) == state_hash(original)` *bit-for-bit* —
//! including timing-derived fields such as `CoreSched::slice_start` and
//! the flush/pad cycle accounting, since the replayed machine observes
//! the exact same access stream.
//!
//! This holds for runs whose machine traffic flows entirely through
//! logged kernel gateways (the [`ScriptDriver`] harness and the `replay`
//! CLI). Engine runs additionally issue *user* program accesses that are
//! not logged; their commit logs are an audit trail for localizing
//! divergence, not a replayable image.
//!
//! [`Snapshot`] adds time travel: capture `(state_hash, commit cursor,
//! machine+kernel image)` at any commit boundary and resume from there;
//! [`replay_diff`] walks a recorded hash trace and pinpoints the first
//! diverging commit.

use crate::commit::Commit;
use crate::config::ProtectionConfig;
use crate::kernel::{Kernel, Syscall};
use crate::objects::{CapObject, Capability, DomainId, Rights, TcbId, ThreadState};
use tp_sim::{ColorSet, Machine, Platform};

/// The IRQ line the boot scenario binds for timer/interrupt ops.
pub const SCRIPT_IRQ: u32 = 5;

/// Everything needed to deterministically reconstruct a run's starting
/// state: platform, protection config, noise seed and boot parameters.
#[derive(Debug, Clone)]
pub struct Genesis {
    /// The simulated platform.
    pub platform: Platform,
    /// The time-protection configuration.
    pub prot: ProtectionConfig,
    /// Noise-stream seed for the machine.
    pub seed: u64,
    /// Physical frames of simulated RAM.
    pub ram_frames: u64,
    /// Preemption-slice length in cycles.
    pub slice_cycles: u64,
}

/// A booted run: the machine, the kernel and the [`ScriptDriver`] holding
/// the object handles the boot created.
#[derive(Debug)]
pub struct Booted {
    /// The simulated machine.
    pub machine: Machine,
    /// The kernel, logging disabled (enable `kernel.log` to record).
    pub kernel: Kernel,
    /// Handles for driving scripted operations against the boot objects.
    pub driver: ScriptDriver,
}

impl Genesis {
    /// Default genesis for a platform: protected configuration, fixed
    /// seed, 16 Ki frames, ~1 ms slice.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        Genesis {
            platform,
            prot: ProtectionConfig::protected(),
            seed: 0xC0FFEE,
            ram_frames: 16_384,
            slice_cycles: 3_400_000,
        }
    }

    /// Boot the standard two-domain scenario: colours split in half, a
    /// cloned kernel per domain (when the configuration clones), two
    /// threads per domain on core 0, a shared endpoint and notification,
    /// and [`SCRIPT_IRQ`] bound to domain 0's kernel. Entirely
    /// deterministic in `self`; runs with logging disabled so the boot
    /// prefix stays out of the commit log.
    ///
    /// # Panics
    /// Panics if boot-time allocation fails (cannot happen with the
    /// default `ram_frames`).
    #[must_use]
    pub fn boot(&self) -> Booted {
        let cfg = self.platform.config();
        let mut m = Machine::new(cfg, self.seed);
        let mut k = Kernel::new(cfg, self.prot, self.ram_frames, self.slice_cycles);

        let n_colors = cfg.partition_colors();
        let half = (n_colors / 2).max(1);
        let d0 = k
            .create_domain(ColorSet::range(0, half), 2048)
            .expect("boot domain 0");
        let d1 = k
            .create_domain(ColorSet::range(half, n_colors), 2048)
            .expect("boot domain 1");
        if self.prot.clone_kernel {
            k.clone_kernel_for_domain(&mut m, 0, d0).expect("clone d0");
            k.clone_kernel_for_domain(&mut m, 0, d1).expect("clone d1");
        }

        let ep = k.create_endpoint(d0).expect("boot endpoint");
        let ntfn = k.create_notification(d0).expect("boot notification");

        let mut threads = Vec::new();
        for &d in &[d0, d1] {
            for _ in 0..2 {
                let t = k.create_thread(d, 0, 100).expect("boot thread");
                // CSpace layout fixed by ScriptDriver::{EP_CAP, ...}.
                k.grant_cap(
                    t,
                    Capability {
                        obj: CapObject::Endpoint(ep),
                        rights: Rights::all(),
                    },
                );
                k.grant_cap(
                    t,
                    Capability {
                        obj: CapObject::Notification(ntfn),
                        rights: Rights::all(),
                    },
                );
                k.grant_cap(
                    t,
                    Capability {
                        obj: CapObject::Tcb(t),
                        rights: Rights::all(),
                    },
                );
                k.grant_cap(
                    t,
                    Capability {
                        obj: CapObject::IrqHandler(SCRIPT_IRQ),
                        rights: Rights::all(),
                    },
                );
                threads.push(t);
            }
        }

        let img0 = k.domains.get(d0.0).expect("live domain").image;
        k.kernel_set_int(img0, SCRIPT_IRQ, Some(ntfn))
            .expect("bind irq");

        // Start with domain 0's slot active and a thread current.
        k.cores[0].slot_idx = 0;
        k.cores[0].cur_domain = Some(k.cores[0].slots[0]);
        k.schedule_same_slot(&mut m, 0);

        Booted {
            machine: m,
            kernel: k,
            driver: ScriptDriver {
                domains: vec![d0, d1],
                threads,
            },
        }
    }
}

/// Drives scripted kernel operations from opaque `(x, y, z)` tuples — the
/// shared harness behind the replay property tests and the `replay` CLI.
/// Each step decodes one of [`ScriptDriver::OPS`] operation kinds and
/// issues it through the logged kernel gateways; any machine traffic it
/// causes flows through those gateways, keeping runs replayable.
#[derive(Debug, Clone)]
pub struct ScriptDriver {
    /// The boot domains (`[d0, d1]`).
    pub domains: Vec<DomainId>,
    /// The boot threads (two per domain, CSpace laid out per the
    /// `*_CAP` constants).
    pub threads: Vec<TcbId>,
}

impl ScriptDriver {
    /// CSpace index of the shared endpoint capability.
    pub const EP_CAP: usize = 0;
    /// CSpace index of the shared notification capability.
    pub const NTFN_CAP: usize = 1;
    /// CSpace index of the thread's own TCB capability.
    pub const TCB_CAP: usize = 2;
    /// CSpace index of the IRQ-handler capability.
    pub const IRQ_CAP: usize = 3;
    /// Number of distinct operation kinds `step` decodes.
    pub const OPS: u64 = 15;

    /// Execute one scripted operation. `x` selects the operation kind,
    /// `y` the acting thread, `z` an operation payload.
    pub fn step(&self, m: &mut Machine, k: &mut Kernel, x: u64, y: u64, z: u64) {
        let t = self.threads[(y as usize) % self.threads.len()];
        match x % Self::OPS {
            0 => {
                k.syscall(m, 0, t, Syscall::Nop);
            }
            1 => {
                k.syscall(
                    m,
                    0,
                    t,
                    Syscall::Signal {
                        cap: Self::NTFN_CAP,
                    },
                );
            }
            2 => {
                k.syscall(
                    m,
                    0,
                    t,
                    Syscall::Poll {
                        cap: Self::NTFN_CAP,
                    },
                );
            }
            3 => {
                k.syscall(
                    m,
                    0,
                    t,
                    Syscall::Wait {
                        cap: Self::NTFN_CAP,
                    },
                );
            }
            4 => {
                let prio = (z % 200) as u8 + 10;
                k.syscall(
                    m,
                    0,
                    t,
                    Syscall::TcbSetPriority {
                        cap: Self::TCB_CAP,
                        prio,
                    },
                );
            }
            5 => {
                k.syscall(
                    m,
                    0,
                    t,
                    Syscall::Call {
                        cap: Self::EP_CAP,
                        msg: z,
                    },
                );
            }
            6 => {
                k.syscall(
                    m,
                    0,
                    t,
                    Syscall::ReplyRecv {
                        cap: Self::EP_CAP,
                        msg: z,
                    },
                );
            }
            7 => {
                k.syscall(m, 0, t, Syscall::Recv { cap: Self::EP_CAP });
            }
            8 => {
                k.syscall(m, 0, t, Syscall::Yield);
            }
            9 => {
                k.syscall(m, 0, t, Syscall::SleepSlice);
            }
            10 => {
                let us = (z % 50 + 1) as f64;
                k.syscall(
                    m,
                    0,
                    t,
                    Syscall::SetTimer {
                        cap: Self::IRQ_CAP,
                        us,
                    },
                );
            }
            11 => {
                k.handle_tick(m, 0);
            }
            12 => {
                k.irq_arrives(m, 0, 1 + (z % 15) as u32);
            }
            13 => {
                // Wake only if actually blocked: waking a Ready thread
                // would double-queue it. The guard reads original-run
                // state; replay re-applies the logged Wake commits.
                let blocked = k.tcbs.get(t.0).is_some_and(|tc| {
                    !matches!(tc.state, ThreadState::Ready | ThreadState::Exited)
                });
                if blocked {
                    k.wake(t);
                }
            }
            _ => {
                // Out-of-range capability: exercises the error path
                // (state-deterministic, still a logged commit).
                k.syscall(m, 0, t, Syscall::Signal { cap: 99 });
            }
        }
    }
}

/// Re-apply one commit to a replaying machine/kernel pair. Gateways are
/// deterministic in their arguments, so discarding results is sound:
/// the original's outcome (including errors) is reproduced by state.
pub fn apply(m: &mut Machine, k: &mut Kernel, c: &Commit) {
    match c.clone() {
        Commit::AllocFrames { domain, n } => {
            let _ = k.alloc_frames(domain, n);
        }
        Commit::CreateDomain { colors, max_frames } => {
            let _ = k.create_domain(colors, max_frames);
        }
        Commit::CreateThread { domain, core, prio } => {
            let _ = k.create_thread(domain, core, prio);
        }
        Commit::CreateEndpoint { domain } => {
            let _ = k.create_endpoint(domain);
        }
        Commit::CreateNotification { domain } => {
            let _ = k.create_notification(domain);
        }
        Commit::GrantCap { t, cap } => {
            let _ = k.grant_cap(t, cap);
        }
        Commit::MapUserPages { t, n } => {
            let _ = k.map_user_pages(t, n);
        }
        Commit::Kexec {
            core,
            image,
            kind,
            asid,
            objs,
        } => k.kexec(m, core, image, kind, asid, &objs),
        Commit::Wake { t } => k.wake(t),
        Commit::ScheduleSameSlot { core } => {
            let _ = k.schedule_same_slot(m, core);
        }
        Commit::MakeCurrent { core, t, direct } => k.make_current(m, core, t, direct),
        Commit::SwitchImageFast { core, from, to } => k.switch_image_fast(m, core, from, to),
        Commit::Syscall { core, t, sys } => {
            let _ = k.syscall(m, core, t, sys);
        }
        Commit::Signal { ntfn, badge } => k.do_signal(ntfn, badge),
        Commit::ThreadExited { t } => k.thread_exited(m, t),
        Commit::IrqArrives { core, irq } => {
            let _ = k.irq_arrives(m, core, irq);
        }
        Commit::DeliverIrq { core, irq } => k.deliver_irq(m, core, irq),
        Commit::KernelSetInt { image, irq, ntfn } => {
            let _ = k.kernel_set_int(image, irq, ntfn);
        }
        Commit::SetPadCycles { image, cycles } => k.set_pad_cycles(image, cycles),
        Commit::SetMode { core, mode } => k.set_mode(core, mode),
        Commit::SetCurrent { core, t } => k.set_current(core, t),
        Commit::SetCurrentImage { core, image } => k.set_current_image(core, image),
        Commit::Tick { core } => {
            let _ = k.handle_tick(m, core);
        }
        Commit::DeliverPendingFor { core, image } => k.deliver_pending_for(m, core, image),
        Commit::Flush { core, new_image } => k.do_flush(m, core, new_image),
        Commit::PrefetchShared { core } => k.prefetch_shared(m, core),
        Commit::MeasureSwitchCost { core, to_image } => {
            let _ = k.measure_switch_cost(m, core, to_image);
        }
        Commit::CloneKernelForDomain { core, domain } => {
            let _ = k.clone_kernel_for_domain(m, core, domain);
        }
        Commit::KernelClone { core, src, kmem } => {
            let _ = k.kernel_clone(m, core, src, kmem);
        }
        Commit::KernelDestroy { core, target } => {
            let _ = k.kernel_destroy(m, core, target);
        }
        Commit::GrantImageCap {
            t,
            image,
            clone_right,
        } => {
            let _ = k.grant_image_cap(t, image, clone_right);
        }
        Commit::KernelCloneInvocation {
            core,
            caller,
            image_cap,
            kmem_cap,
        } => {
            let _ = k.kernel_clone_invocation(m, core, caller, image_cap, kmem_cap);
        }
        Commit::KernelRevoke { core, target } => {
            let _ = k.kernel_revoke(m, core, target);
        }
        Commit::MoveColor { from, to, color } => {
            let _ = k.move_color(from, to, color);
        }
        Commit::CreateNestedDomain { parent, colors } => {
            let _ = k.create_nested_domain(parent, colors);
        }
        // Engine-side state only; nothing to re-apply to the kernel.
        Commit::TokenRotate { .. } => {}
    }
}

/// Reduce `(genesis, commits)` to the final machine/kernel state.
#[must_use]
pub fn replay(genesis: &Genesis, commits: &[Commit]) -> (Machine, Kernel) {
    let Booted {
        mut machine,
        mut kernel,
        ..
    } = genesis.boot();
    for c in commits {
        apply(&mut machine, &mut kernel, c);
    }
    (machine, kernel)
}

/// The per-commit state-hash trace of a replayed run: `trace[i]` is the
/// hash *after* applying `commits[i]`. Recorded by the `replay` CLI and
/// consumed by [`replay_diff`] to localize divergence.
#[must_use]
pub fn hash_trace(genesis: &Genesis, commits: &[Commit]) -> Vec<u64> {
    let Booted {
        mut machine,
        mut kernel,
        ..
    } = genesis.boot();
    let mut trace = Vec::with_capacity(commits.len());
    for c in commits {
        apply(&mut machine, &mut kernel, c);
        trace.push(kernel.state_hash());
    }
    trace
}

/// The first point at which a replay's state hash departs from a
/// recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the diverging commit.
    pub index: usize,
    /// The commit whose application diverged.
    pub commit: Commit,
    /// The recorded (original-run) hash after this commit.
    pub expected: u64,
    /// The replayed hash after this commit.
    pub actual: u64,
}

/// Replay `commits` and diff the state hash against `expected` at every
/// commit, returning the first divergence (`None` when the whole run
/// matches). This is the time-travel debugger for verdict flips: the
/// returned index names the exact mutation where histories split.
#[must_use]
pub fn replay_diff(genesis: &Genesis, commits: &[Commit], expected: &[u64]) -> Option<Divergence> {
    let Booted {
        mut machine,
        mut kernel,
        ..
    } = genesis.boot();
    for (i, c) in commits.iter().enumerate() {
        apply(&mut machine, &mut kernel, c);
        let actual = kernel.state_hash();
        match expected.get(i) {
            Some(&e) if e == actual => {}
            Some(&e) => {
                return Some(Divergence {
                    index: i,
                    commit: c.clone(),
                    expected: e,
                    actual,
                })
            }
            None => return None,
        }
    }
    None
}

/// A resumable checkpoint: the state hash, the commit cursor it was taken
/// at, and a full machine+kernel image. The in-memory clone *is* the
/// serialized kernel state — the simulation is process-local, so no byte
/// encoding is needed to resume from it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Number of commits applied before this snapshot was taken.
    pub cursor: usize,
    /// `state_hash()` of the kernel at the snapshot point.
    pub hash: u64,
    machine: Machine,
    kernel: Kernel,
}

impl Snapshot {
    /// Capture the current state at commit cursor `cursor`.
    #[must_use]
    pub fn take(m: &Machine, k: &Kernel, cursor: usize) -> Self {
        Snapshot {
            cursor,
            hash: k.state_hash(),
            machine: m.clone(),
            kernel: k.clone(),
        }
    }

    /// Resume: a fresh machine/kernel pair that continues bit-identically
    /// from the snapshot point. The snapshot itself stays reusable.
    #[must_use]
    pub fn resume(&self) -> (Machine, Kernel) {
        (self.machine.clone(), self.kernel.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_is_deterministic() {
        let g = Genesis::new(Platform::Haswell);
        let a = g.boot();
        let b = g.boot();
        assert_eq!(a.kernel.state_hash(), b.kernel.state_hash());
        assert_eq!(a.driver.threads.len(), 4);
    }

    #[test]
    fn scripted_run_replays_bit_for_bit() {
        let g = Genesis::new(Platform::Sabre);
        let Booted {
            mut machine,
            mut kernel,
            driver,
        } = g.boot();
        kernel.log.enable();
        for i in 0..40u64 {
            driver.step(&mut machine, &mut kernel, i * 7 + 3, i, i * 13 + 1);
        }
        let commits = kernel.log.take();
        assert!(!commits.is_empty());
        let (rm, rk) = replay(&g, &commits);
        assert_eq!(kernel.state_hash(), rk.state_hash());
        assert_eq!(machine.cycles(0), rm.cycles(0));
    }

    #[test]
    fn replay_diff_localizes_a_flipped_commit() {
        let g = Genesis::new(Platform::Haswell);
        let Booted {
            mut machine,
            mut kernel,
            driver,
        } = g.boot();
        kernel.log.enable();
        for i in 0..20u64 {
            driver.step(&mut machine, &mut kernel, i, i, i);
        }
        let mut commits = kernel.log.take();
        let trace = hash_trace(&g, &commits);
        assert!(replay_diff(&g, &commits, &trace).is_none());
        // Flip one commit: the diff must point at it (or earlier —
        // never later).
        let flip = commits.len() / 2;
        commits[flip] = Commit::Signal {
            ntfn: crate::objects::NtfnId(0),
            badge: 0xDEAD,
        };
        let d = replay_diff(&g, &commits, &trace).expect("must diverge");
        assert!(
            d.index <= flip + 1,
            "diverged at {} not near {}",
            d.index,
            flip
        );
    }

    #[test]
    fn snapshot_resume_matches_straight_through() {
        let g = Genesis::new(Platform::Skylake);
        let Booted {
            mut machine,
            mut kernel,
            driver,
        } = g.boot();
        kernel.log.enable();
        for i in 0..30u64 {
            driver.step(&mut machine, &mut kernel, i * 3 + 1, i * 5, i);
            if i == 14 {
                let snap = Snapshot::take(&machine, &kernel, kernel.log.len());
                assert_eq!(snap.hash, kernel.state_hash());
                // Resume and fast-forward with the same script suffix.
                let (mut m2, mut k2) = snap.resume();
                for j in 15..30u64 {
                    driver.step(&mut m2, &mut k2, j * 3 + 1, j * 5, j);
                }
                // Straight-through finishes below; stash for comparison.
                let mut m1 = machine.clone();
                let mut k1 = kernel.clone();
                for j in 15..30u64 {
                    driver.step(&mut m1, &mut k1, j * 3 + 1, j * 5, j);
                }
                assert_eq!(k1.state_hash(), k2.state_hash());
                assert_eq!(m1.cycles(0), m2.cycles(0));
                break;
            }
        }
    }
}
