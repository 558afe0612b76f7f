//! The commit log: a typed record of every kernel state mutation.
//!
//! Every public state-mutating entry point of [`Kernel`] is a *gateway*:
//! it emits one [`Commit`] describing the operation and its arguments
//! before running. The pair `(genesis, commits)` is then a complete,
//! replayable account of a run — [`mod@crate::replay`] reduces it back to a
//! kernel whose [`Kernel::state_hash`] matches the original bit-for-bit.
//!
//! Two rules keep the log faithful without perturbing what it observes:
//!
//! 1. **Depth suppression.** Gateways call other gateways (a `syscall`
//!    reschedules, a tick flushes). Only the outermost call is recorded;
//!    nested calls are implied by replaying it. Each gateway holds a
//!    [`Gate`] from [`CommitLog::enter`] for its whole body, so it is left
//!    on every return path and on unwind.
//! 2. **No timing feedback.** Logging only appends to a `Vec`; it never
//!    touches the [`Machine`](tp_sim::Machine), so enabling it cannot
//!    change a single simulated timestamp (pinned by the engine
//!    regression test in `tests/replay.rs`).

use crate::kernel::{FootKind, Kernel, Syscall};
use crate::objects::{Capability, DomainId, ImageId, KmemId, NtfnId, TcbId, ThreadState};
use std::cell::Cell;
use std::rc::Rc;
use tp_sim::{Asid, ColorSet, PAddr};

/// One logged kernel state mutation: the gateway that ran and the
/// arguments it ran with. Replaying a commit re-invokes the same gateway
/// with the same arguments (see [`crate::replay::apply`]); commits whose
/// effects live outside the kernel (e.g. [`Commit::TokenRotate`]) replay
/// as no-ops and exist for the audit trail.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names mirror the gateway parameters 1:1
pub enum Commit {
    // ------------------------------------------------ kernel.rs gateways
    /// `Kernel::alloc_frames`.
    AllocFrames { domain: DomainId, n: usize },
    /// `Kernel::create_domain`.
    CreateDomain { colors: ColorSet, max_frames: usize },
    /// `Kernel::create_thread`.
    CreateThread {
        domain: DomainId,
        core: usize,
        prio: u8,
    },
    /// `Kernel::create_endpoint`.
    CreateEndpoint { domain: DomainId },
    /// `Kernel::create_notification`.
    CreateNotification { domain: DomainId },
    /// `Kernel::grant_cap`.
    GrantCap { t: TcbId, cap: Capability },
    /// `Kernel::map_user_pages`.
    MapUserPages { t: TcbId, n: usize },
    /// `Kernel::kexec` (a kernel code path run directly, e.g. by benches).
    Kexec {
        core: usize,
        image: ImageId,
        kind: FootKind,
        asid: Asid,
        objs: Vec<PAddr>,
    },
    /// `Kernel::wake`.
    Wake { t: TcbId },
    /// `Kernel::schedule_same_slot`.
    ScheduleSameSlot { core: usize },
    /// `Kernel::make_current`.
    MakeCurrent { core: usize, t: TcbId, direct: bool },
    /// `Kernel::switch_image_fast`.
    SwitchImageFast {
        core: usize,
        from: ImageId,
        to: ImageId,
    },
    /// `Kernel::syscall` — the main gateway.
    Syscall { core: usize, t: TcbId, sys: Syscall },
    /// `Kernel::do_signal`.
    Signal { ntfn: NtfnId, badge: u64 },
    /// `Kernel::thread_exited`.
    ThreadExited { t: TcbId },
    /// `Kernel::irq_arrives`.
    IrqArrives { core: usize, irq: u32 },
    /// `Kernel::deliver_irq`.
    DeliverIrq { core: usize, irq: u32 },
    /// `Kernel::kernel_set_int`.
    KernelSetInt {
        image: ImageId,
        irq: u32,
        ntfn: Option<NtfnId>,
    },
    /// `Kernel::set_pad_cycles`.
    SetPadCycles { image: ImageId, cycles: u64 },
    // ------------------------------------------------ switch.rs gateways
    /// `Kernel::handle_tick` — the preemption/domain-switch path.
    Tick { core: usize },
    /// `Kernel::deliver_pending_for`.
    DeliverPendingFor { core: usize, image: ImageId },
    /// `Kernel::do_flush`.
    Flush { core: usize, new_image: ImageId },
    /// `Kernel::prefetch_shared`.
    PrefetchShared { core: usize },
    /// `Kernel::measure_switch_cost`.
    MeasureSwitchCost { core: usize, to_image: ImageId },
    // ------------------------------------------------ kimage.rs gateways
    /// `Kernel::clone_kernel_for_domain`.
    CloneKernelForDomain { core: usize, domain: DomainId },
    /// `Kernel::kernel_clone`.
    KernelClone {
        core: usize,
        src: ImageId,
        kmem: KmemId,
    },
    /// `Kernel::kernel_destroy`.
    KernelDestroy { core: usize, target: ImageId },
    /// `Kernel::grant_image_cap`.
    GrantImageCap {
        t: TcbId,
        image: ImageId,
        clone_right: bool,
    },
    /// `Kernel::kernel_clone_invocation`.
    KernelCloneInvocation {
        core: usize,
        caller: TcbId,
        image_cap: usize,
        kmem_cap: usize,
    },
    /// `Kernel::kernel_revoke`.
    KernelRevoke { core: usize, target: ImageId },
    /// `Kernel::move_color`.
    MoveColor {
        from: DomainId,
        to: DomainId,
        color: u64,
    },
    /// `Kernel::create_nested_domain`.
    CreateNestedDomain { parent: DomainId, colors: ColorSet },
    // ------------------------------------------------ engine audit trail
    /// The engine rotated the measurement token to `core` (state lives in
    /// the engine, not the kernel; replays as a no-op).
    TokenRotate { core: usize },
}

/// The per-run commit log. Disabled (and free) by default; enable with
/// [`CommitLog::enable`]. Each gateway opens with [`CommitLog::enter`];
/// only depth-0 calls are recorded.
///
/// The depth counter is shared with the [`Gate`]s it hands out, so it is
/// an `Rc<Cell>`: a gate must outlive the `&mut Kernel` borrow its
/// gateway body takes. That makes the log (and the kernel) `!Send`, like
/// the rest of one run's state. [`Clone`] gives the copy its own counter.
#[derive(Debug, Default)]
pub struct CommitLog {
    enabled: bool,
    depth: Rc<Cell<u32>>,
    commits: Vec<Commit>,
}

impl Clone for CommitLog {
    fn clone(&self) -> Self {
        CommitLog {
            enabled: self.enabled,
            depth: Rc::new(Cell::new(self.depth.get())),
            commits: self.commits.clone(),
        }
    }
}

/// A gateway's bracket in the [`CommitLog`], returned by
/// [`CommitLog::enter`]. Dropping it leaves the gateway, on every return
/// path and on unwind.
#[must_use = "the gateway is left when the gate drops; bind it with `let _gate`"]
#[derive(Debug)]
pub struct Gate(Rc<Cell<u32>>);

impl Drop for Gate {
    fn drop(&mut self) {
        self.0.set(self.0.get() - 1);
    }
}

impl CommitLog {
    /// Start recording commits.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// The commits recorded so far.
    #[must_use]
    pub fn commits(&self) -> &[Commit] {
        &self.commits
    }

    /// Drain the recorded commits, leaving recording state untouched.
    pub fn take(&mut self) -> Vec<Commit> {
        std::mem::take(&mut self.commits)
    }

    /// Number of recorded commits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.commits.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.commits.is_empty()
    }

    /// Enter a gateway: record the commit if this is an outermost,
    /// enabled call, and hold the returned [`Gate`] for the rest of the
    /// gateway. The closure defers argument cloning to the
    /// recording-enabled case, keeping the disabled path allocation-free.
    pub fn enter(&mut self, commit: impl FnOnce() -> Commit) -> Gate {
        self.note(commit);
        self.depth.set(self.depth.get() + 1);
        Gate(Rc::clone(&self.depth))
    }

    /// Record a leaf event (no gate) if outermost + enabled.
    pub fn note(&mut self, commit: impl FnOnce() -> Commit) {
        if self.enabled && self.depth.get() == 0 {
            self.commits.push(commit());
        }
    }
}

/// FNV-1a accumulator used by [`Kernel::state_hash`]: deterministic,
/// order-sensitive, and independent of the platform's `DefaultHasher`
/// seeding.
#[derive(Debug, Clone)]
pub struct StateHasher(u64);

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh accumulator at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StateHasher(Self::OFFSET)
    }

    /// Fold one byte.
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
        self
    }

    /// Fold a `usize`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Fold a boolean.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.byte(u8::from(v))
    }

    /// Fold an optional `u64`, distinguishing `None` from `Some(0)`.
    pub fn opt(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            None => self.byte(0),
            Some(x) => self.byte(1).u64(x),
        }
    }

    /// Fold a string (length-prefixed so concatenations can't collide).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
        self
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        // A SplitMix64 finalization pass on top of the FNV fold improves
        // avalanche on the final bits without affecting determinism.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn hash_thread_state(h: &mut StateHasher, s: ThreadState) {
    match s {
        ThreadState::Ready => h.byte(0),
        ThreadState::BlockedSend(ep) => h.byte(1).usize(ep.0),
        ThreadState::BlockedRecv(ep) => h.byte(2).usize(ep.0),
        ThreadState::BlockedReply => h.byte(3),
        ThreadState::BlockedNtfn(n) => h.byte(4).usize(n.0),
        ThreadState::SleepingUntilSlice => h.byte(5),
        ThreadState::Exited => h.byte(6),
    };
}

impl Kernel {
    /// A deterministic digest of the complete kernel state: capabilities,
    /// objects, mappings, colour assignments, scheduler state, interrupt
    /// table and statistics. Two kernels with equal hashes are
    /// indistinguishable to any sequence of kernel operations, which makes
    /// this the replay-equivalence oracle:
    /// `state_hash(replay(log)) == state_hash(original)`.
    ///
    /// `HashMap` iteration order never reaches the digest: the ready-queue
    /// map is folded in sorted key order.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        let mut h = StateHasher::new();

        // Static configuration (Debug formatting is deterministic).
        h.str(&format!("{:?}", self.cfg));
        h.str(&format!("{:?}", self.prot));
        h.u64(self.slice_cycles);
        h.u64(u64::from(self.next_asid));
        h.usize(self.boot_image.0).usize(self.boot_domain.0);
        h.u64(self.shared.bytes()).u64(self.shared.line_pa(0).0);

        // Threads.
        h.usize(self.tcbs.len());
        for (i, t) in self.tcbs.iter() {
            h.usize(i)
                .byte(t.priority)
                .usize(t.core)
                .usize(t.vspace.0)
                .usize(t.domain.0)
                .usize(t.image.0)
                .u64(t.obj_frame)
                .u64(t.ipc_msg);
            hash_thread_state(&mut h, t.state);
            h.opt(t.reply_to.map(|r| r.0 as u64));
            h.usize(t.cspace.len());
            for c in &t.cspace {
                h.str(&format!("{c:?}"));
            }
        }

        // Endpoints and notifications.
        h.usize(self.eps.len());
        for (i, e) in self.eps.iter() {
            h.usize(i).u64(e.obj_frame);
            h.usize(e.send_queue.len());
            for t in &e.send_queue {
                h.usize(t.0);
            }
            h.usize(e.recv_queue.len());
            for t in &e.recv_queue {
                h.usize(t.0);
            }
        }
        h.usize(self.ntfns.len());
        for (i, n) in self.ntfns.iter() {
            h.usize(i).u64(n.word).u64(n.obj_frame);
            h.usize(n.waiters.len());
            for t in &n.waiters {
                h.usize(t.0);
            }
        }

        // Kernel images and their memory.
        h.usize(self.images.len());
        for (i, img) in self.images.iter() {
            h.usize(i).u64(u64::from(img.asid.0));
            for sec in [
                &img.layout.text,
                &img.layout.rodata,
                &img.layout.data,
                &img.layout.stack,
                &img.layout.l1d_buf,
                &img.layout.l1i_buf,
            ] {
                h.usize(sec.len());
                for f in sec.iter() {
                    h.u64(*f);
                }
            }
            h.opt(img.kmem.map(|k| k.0 as u64));
            h.usize(img.irqs.len());
            for irq in &img.irqs {
                h.u64(u64::from(*irq));
            }
            h.u64(img.pad_cycles)
                .u64(img.running_on)
                .bool(img.zombie)
                .opt(img.parent.map(|p| p.0 as u64));
        }
        h.usize(self.kmems.len());
        for (i, km) in self.kmems.iter() {
            h.usize(i);
            h.usize(km.frames.len());
            for f in &km.frames {
                h.u64(*f);
            }
            h.opt(km.image.map(|im| im.0 as u64));
        }

        // Untyped pools: the free-list *order* is semantic (allocation
        // pops from the tail), so it is hashed verbatim.
        h.usize(self.untypeds.len());
        for (i, u) in self.untypeds.iter() {
            h.usize(i).u64(u.colors.0);
            let free = u.free_frames();
            h.usize(free.len());
            for f in free {
                h.u64(*f);
            }
        }

        // Address spaces.
        h.usize(self.vspaces.len());
        for (i, vs) in self.vspaces.iter() {
            h.usize(i)
                .u64(u64::from(vs.map.asid().0))
                .u64(vs.map.generation())
                .u64(vs.next_va)
                .usize(vs.domain.0)
                .usize(vs.map.mapped_pages());
            for (vpn, m) in vs.map.iter() {
                h.u64(vpn).u64(m.pfn).bool(m.global).bool(m.writable);
            }
        }

        // Domains.
        h.usize(self.domains.len());
        for (i, d) in self.domains.iter() {
            h.usize(i)
                .u64(d.colors.0)
                .usize(d.image.0)
                .usize(d.pool.0)
                .opt(d.timer_ntfn.map(|n| n.0 as u64));
        }

        // Per-core scheduler state.
        h.usize(self.cores.len());
        for cs in &self.cores {
            h.opt(cs.cur.map(|t| t.0 as u64))
                .usize(cs.cur_image.0)
                .opt(cs.cur_domain.map(|d| d.0 as u64))
                .usize(cs.slot_idx)
                .byte(match cs.mode {
                    crate::kernel::EngineMode::Slotted => 0,
                    crate::kernel::EngineMode::Open => 1,
                })
                .u64(cs.slice_start)
                .u64(cs.ticks);
            h.usize(cs.slots.len());
            for d in &cs.slots {
                h.usize(d.0);
            }
        }

        // Ready queues, in sorted key order (the map is a HashMap).
        let mut keys: Vec<(usize, DomainId)> = self.run_queues.keys().copied().collect();
        keys.sort_unstable_by_key(|(c, d)| (*c, d.0));
        h.usize(keys.len());
        for key in keys {
            h.usize(key.0).usize(key.1 .0);
            let q = &self.run_queues[&key];
            for (prio, threads) in q.iter() {
                h.byte(prio);
                for t in threads {
                    h.usize(t.0);
                }
            }
        }

        // Interrupt table.
        for irq in &self.irqs {
            h.opt(irq.owner.map(|i| i.0 as u64))
                .opt(irq.ntfn.map(|n| n.0 as u64))
                .bool(irq.pending)
                .u64(irq.delivered)
                .u64(irq.deferred);
        }

        // Statistics (timing-derived fields included: replay must
        // reproduce even the cycle accounting).
        let s = &self.stats;
        for v in [
            s.syscalls,
            s.ticks,
            s.domain_switches,
            s.thread_switches,
            s.flush_cycles,
            s.pad_cycles,
            s.ipc_fastpath,
            s.irqs_delivered,
            s.irqs_deferred,
            s.clones,
            s.destroys,
        ] {
            h.u64(v);
        }

        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtectionConfig;
    use tp_sim::{Machine, Platform};

    #[test]
    fn disabled_log_records_nothing() {
        let cfg = Platform::Haswell.config();
        let mut m = Machine::new(cfg, 1);
        let mut k = Kernel::new(cfg, ProtectionConfig::raw(), 4096, 3_400_000);
        let d = k.create_domain(ColorSet::all(2), 256).unwrap();
        let t = k.create_thread(d, 0, 100).unwrap();
        k.syscall(&mut m, 0, t, Syscall::Nop);
        assert!(k.log.is_empty());
    }

    #[test]
    fn enabled_log_records_outermost_calls_only() {
        let cfg = Platform::Haswell.config();
        let mut m = Machine::new(cfg, 1);
        let mut k = Kernel::new(cfg, ProtectionConfig::raw(), 4096, 3_400_000);
        k.log.enable();
        let d = k.create_domain(ColorSet::all(2), 256).unwrap();
        let t = k.create_thread(d, 0, 100).unwrap();
        // Yield internally reschedules (schedule_same_slot, make_current):
        // exactly one commit must be recorded for it.
        let before = k.log.len();
        k.syscall(&mut m, 0, t, Syscall::Yield);
        assert_eq!(k.log.len(), before + 1);
        assert_eq!(
            k.log.commits()[before],
            Commit::Syscall {
                core: 0,
                t,
                sys: Syscall::Yield
            }
        );
    }

    #[test]
    fn panicking_gateway_leaves_the_log_recording() {
        let cfg = Platform::Haswell.config();
        let mut m = Machine::new(cfg, 1);
        let mut k = Kernel::new(cfg, ProtectionConfig::raw(), 4096, 3_400_000);
        k.log.enable();
        let d = k.create_domain(ColorSet::all(2), 256).unwrap();
        let t = k.create_thread(d, 0, 100).unwrap();
        let from = k.cores[0].cur_image;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.switch_image_fast(&mut m, 0, from, ImageId(usize::MAX));
        }));
        assert!(r.is_err(), "switching to a dead image panics");
        // The unwound gateway was left: the next syscall is outermost
        // again, and its nested gateways are still suppressed.
        let before = k.log.len();
        k.syscall(&mut m, 0, t, Syscall::Yield);
        assert_eq!(
            k.log.commits()[before..],
            [Commit::Syscall {
                core: 0,
                t,
                sys: Syscall::Yield
            }]
        );
    }

    #[test]
    fn state_hash_is_stable_and_sensitive() {
        let cfg = Platform::Skylake.config();
        let k1 = Kernel::new(cfg, ProtectionConfig::protected(), 4096, 3_400_000);
        let k2 = Kernel::new(cfg, ProtectionConfig::protected(), 4096, 3_400_000);
        assert_eq!(k1.state_hash(), k2.state_hash(), "same boot, same hash");
        let mut k3 = Kernel::new(cfg, ProtectionConfig::protected(), 4096, 3_400_000);
        k3.create_domain(ColorSet::all(2), 64).unwrap();
        assert_ne!(k1.state_hash(), k3.state_hash(), "mutation changes hash");
    }

    #[test]
    fn hasher_distinguishes_boundaries() {
        let mut a = StateHasher::new();
        a.str("ab").str("c");
        let mut b = StateHasher::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = StateHasher::new();
        c.opt(None).opt(Some(0));
        let mut d = StateHasher::new();
        d.opt(Some(0)).opt(None);
        assert_ne!(c.finish(), d.finish());
    }
}
