//! The kernel: state, capability-checked system calls and their
//! micro-architectural footprints.
//!
//! The kernel is a *cache actor*: every system call executes instruction
//! fetches over the handling kernel image's text, and data accesses to the
//! kernel stack, the residual shared data and the capability/object frames
//! (which live in user-supplied, hence coloured, memory). With a single
//! shared image this footprint is the §5.3.1 covert channel; with cloned
//! images it is confined to the domain's own colours.

use crate::commit::{Commit, CommitLog};
use crate::config::ProtectionConfig;
use crate::layout::{ImageFrames, SharedKernelData, IMAGE_PAGES, KERNEL_VBASE};
use crate::objects::{
    Arena, CapIdx, CapObject, Capability, Domain, DomainId, Endpoint, EpId, ImageId, KernelImage,
    KernelMemory, Notification, NtfnId, Tcb, TcbId, ThreadState, Untyped, UntypedId, VSpace,
    VSpaceId,
};
use crate::sched::ReadyQueues;
use std::collections::HashMap;
use tp_sim::mem::Mapping;
use tp_sim::{color_of_frame, Asid, ColorSet, Machine, PAddr, PlatformConfig, VAddr, FRAME_SIZE};

/// Number of interrupt sources (IRQ 0 is the preemption timer).
pub const NUM_IRQS: usize = 16;

/// First frame of the boot kernel image.
pub const BOOT_IMAGE_PFN: u64 = 16;

/// Base of the user virtual address range handed out by
/// [`Kernel::map_user_pages`].
pub const USER_VBASE: u64 = 0x0000_1000_0000;

/// Errors returned by kernel operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// Capability index out of range or empty slot.
    InvalidCap,
    /// The capability exists but lacks a required right.
    InsufficientRights,
    /// The capability refers to the wrong object type.
    TypeMismatch,
    /// Untyped memory exhausted.
    OutOfMemory,
    /// Operation on a zombie or destroyed object.
    ObjectGone,
    /// IRQ number out of range or already bound.
    InvalidIrq,
    /// Invalid argument (priority, size, ...).
    InvalidArg,
}

/// System calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Syscall {
    /// Signal a notification.
    Signal {
        /// CSpace index of the notification capability.
        cap: CapIdx,
    },
    /// Poll a notification (non-blocking).
    Poll {
        /// CSpace index of the notification capability.
        cap: CapIdx,
    },
    /// Wait on a notification (blocking).
    Wait {
        /// CSpace index of the notification capability.
        cap: CapIdx,
    },
    /// Set a thread's priority.
    TcbSetPriority {
        /// CSpace index of the TCB capability.
        cap: CapIdx,
        /// New priority.
        prio: u8,
    },
    /// Call an endpoint (send + block for reply): the IPC fastpath.
    Call {
        /// CSpace index of the endpoint capability.
        cap: CapIdx,
        /// Message word.
        msg: u64,
    },
    /// Reply to the caller and wait for the next message (server loop).
    ReplyRecv {
        /// CSpace index of the endpoint capability.
        cap: CapIdx,
        /// Reply word.
        msg: u64,
    },
    /// Receive from an endpoint (blocking).
    Recv {
        /// CSpace index of the endpoint capability.
        cap: CapIdx,
    },
    /// Yield the remainder of the time slice within the domain.
    Yield,
    /// Arm the domain's one-shot user timer to fire after `us`
    /// microseconds. Requires an `IrqHandler` capability.
    SetTimer {
        /// CSpace index of the IRQ handler capability.
        cap: CapIdx,
        /// Delay in microseconds.
        us: f64,
    },
    /// Sleep until the domain's next time slot.
    SleepSlice,
    /// A minimal no-op syscall (baseline measurements).
    Nop,
}

/// Result of a system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysReturn {
    /// Completed with a value.
    Val(u64),
    /// The calling thread blocked; the value is delivered on wake-up.
    Blocked,
    /// Failed.
    Err(KernelError),
}

/// Outcome of dispatching a system call.
#[derive(Debug, Clone, Copy)]
pub struct SysOutcome {
    /// The immediate return disposition.
    pub ret: SysReturn,
    /// Arm the core's one-shot user timer at this absolute cycle for this
    /// IRQ (engine-owned event queue).
    pub arm_timer: Option<(u64, u32)>,
}

/// Kernel code regions: each handler occupies a distinct range of text
/// lines, so different system calls have distinguishable cache footprints
/// (this is what the Figure 3 channel measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FootKind {
    /// IPC fastpath (Call / ReplyRecv).
    Fastpath,
    /// Signal handler.
    Signal,
    /// Wait handler.
    Wait,
    /// Poll handler.
    Poll,
    /// TCB invocation (set priority).
    SetPriority,
    /// Recv slowpath.
    Recv,
    /// Yield.
    Yield,
    /// Timer-arming invocation.
    SetTimer,
    /// Preemption-tick processing.
    Tick,
    /// Interrupt delivery.
    Irq,
    /// Minimal syscall.
    Nop,
}

/// A kernel code footprint: text line offset/extent plus data touches.
#[derive(Debug, Clone, Copy)]
pub struct Foot {
    /// First text line of the handler.
    pub off: u64,
    /// Text lines executed.
    pub text: u64,
    /// Shared-data lines touched.
    pub shared: u64,
    /// Kernel stack lines touched.
    pub stack: u64,
}

/// The footprint table. Offsets are line indices into the 64 KiB text
/// segment; handlers are 4 KiB-aligned so they occupy disjoint page-colour
/// sets.
#[must_use]
pub fn foot(kind: FootKind) -> Foot {
    match kind {
        FootKind::Fastpath => Foot {
            off: 0,
            text: 26,
            shared: 3,
            stack: 3,
        },
        FootKind::Nop => Foot {
            off: 32,
            text: 8,
            shared: 1,
            stack: 1,
        },
        FootKind::Signal => Foot {
            off: 64,
            text: 46,
            shared: 2,
            stack: 4,
        },
        FootKind::Wait => Foot {
            off: 128,
            text: 30,
            shared: 2,
            stack: 3,
        },
        FootKind::Poll => Foot {
            off: 192,
            text: 22,
            shared: 1,
            stack: 2,
        },
        FootKind::SetPriority => Foot {
            off: 256,
            text: 58,
            shared: 5,
            stack: 4,
        },
        FootKind::Recv => Foot {
            off: 352,
            text: 30,
            shared: 2,
            stack: 3,
        },
        FootKind::Yield => Foot {
            off: 384,
            text: 20,
            shared: 4,
            stack: 2,
        },
        FootKind::SetTimer => Foot {
            off: 416,
            text: 26,
            shared: 2,
            stack: 3,
        },
        FootKind::Tick => Foot {
            off: 448,
            text: 36,
            shared: 6,
            stack: 4,
        },
        FootKind::Irq => Foot {
            off: 512,
            text: 40,
            shared: 4,
            stack: 4,
        },
    }
}

/// State of one interrupt source.
#[derive(Debug, Clone, Copy, Default)]
pub struct IrqState {
    /// The kernel image this IRQ is associated with (`Kernel_SetInt`).
    pub owner: Option<ImageId>,
    /// Notification signalled on delivery.
    pub ntfn: Option<NtfnId>,
    /// Arrived while partitioned away; delivered at the owner's next slot.
    pub pending: bool,
    /// Delivered count (statistics).
    pub delivered: u64,
    /// Deferred count (statistics).
    pub deferred: u64,
}

/// How threads are scheduled across domains on a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Strict time slots rotating over domains on each preemption tick
    /// (the confinement scenario: only one domain executes at a time).
    Slotted,
    /// Free thread-level scheduling; cross-domain switches happen on IPC
    /// (Table 5's artificial inter-colour measurement).
    Open,
}

/// Per-core scheduling state.
#[derive(Debug, Clone)]
pub struct CoreSched {
    /// The currently executing thread.
    pub cur: Option<TcbId>,
    /// The kernel image currently active on this core.
    pub cur_image: ImageId,
    /// The security domain whose slot is active on this core.
    pub cur_domain: Option<DomainId>,
    /// Domains with a presence on this core, in slot order.
    pub slots: Vec<DomainId>,
    /// Index of the current slot.
    pub slot_idx: usize,
    /// Scheduling mode.
    pub mode: EngineMode,
    /// Cycle at which the current slice began.
    pub slice_start: u64,
    /// Ticks processed (diagnostics).
    pub ticks: u64,
}

/// Aggregate kernel statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// System calls dispatched.
    pub syscalls: u64,
    /// Preemption ticks processed.
    pub ticks: u64,
    /// Cross-image (domain) switches.
    pub domain_switches: u64,
    /// Same-image thread switches.
    pub thread_switches: u64,
    /// Cycles spent flushing on switches.
    pub flush_cycles: u64,
    /// Cycles spent padding switches.
    pub pad_cycles: u64,
    /// IPC fastpath invocations.
    pub ipc_fastpath: u64,
    /// Interrupts delivered immediately.
    pub irqs_delivered: u64,
    /// Interrupts deferred by partitioning.
    pub irqs_deferred: u64,
    /// Kernel clone operations.
    pub clones: u64,
    /// Kernel destructions.
    pub destroys: u64,
}

/// The kernel.
///
/// `Clone` is part of the snapshot/restore contract: a cloned kernel
/// resumed against a cloned [`Machine`] produces a bit-identical future
/// (used by [`crate::replay::Snapshot`]).
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Platform configuration (copied from the machine).
    pub cfg: PlatformConfig,
    /// The time-protection configuration.
    pub prot: ProtectionConfig,
    /// Thread control blocks.
    pub tcbs: Arena<Tcb>,
    /// Endpoints.
    pub eps: Arena<Endpoint>,
    /// Notifications.
    pub ntfns: Arena<Notification>,
    /// Kernel images.
    pub images: Arena<KernelImage>,
    /// Kernel memory objects.
    pub kmems: Arena<KernelMemory>,
    /// Untyped pools.
    pub untypeds: Arena<Untyped>,
    /// Virtual address spaces.
    pub vspaces: Arena<VSpace>,
    /// Security domains.
    pub domains: Arena<Domain>,
    /// The residual shared kernel data (§4.1).
    pub shared: SharedKernelData,
    /// The boot kernel image (never destroyed, §4.4).
    pub boot_image: ImageId,
    /// The boot domain (owns the boot image; uncoloured).
    pub boot_domain: DomainId,
    /// Per-core scheduling state.
    pub cores: Vec<CoreSched>,
    /// Ready queues per (core, domain).
    pub run_queues: HashMap<(usize, DomainId), ReadyQueues>,
    /// Every thread per (core, domain), in creation order. A thread's core
    /// and domain never change and TCBs are never freed, so this is also
    /// ascending [`TcbId`] order; the slot rotation visits only the
    /// incoming slot's threads to wake its sleepers.
    pub(crate) slot_threads: HashMap<(usize, DomainId), Vec<TcbId>>,
    /// Interrupt table.
    pub irqs: [IrqState; NUM_IRQS],
    /// Preemption-slice length in cycles.
    pub slice_cycles: u64,
    /// Statistics.
    pub stats: KernelStats,
    /// The per-run commit log: every state-mutating gateway records a
    /// typed [`Commit`] here when recording is enabled (see
    /// [`crate::commit`]).
    pub log: CommitLog,
    pub(crate) next_asid: u16,
}

impl Kernel {
    /// Boot the kernel: build the boot image, the shared-data region and
    /// the boot domain owning all remaining memory as one Untyped pool.
    #[must_use]
    pub fn new(
        cfg: PlatformConfig,
        prot: ProtectionConfig,
        ram_frames: u64,
        slice_cycles: u64,
    ) -> Self {
        let boot_frames = ImageFrames::contiguous(BOOT_IMAGE_PFN);
        let shared = SharedKernelData::new(PAddr(boot_frames.data[0] * FRAME_SIZE), &cfg);
        let mut images = Arena::new();
        let boot_image = ImageId(images.alloc(KernelImage {
            layout: boot_frames,
            asid: Asid::KERNEL,
            kmem: None,
            irqs: (0..NUM_IRQS as u32).collect(),
            pad_cycles: 0,
            running_on: 0,
            zombie: false,
            parent: None,
        }));

        let first_free = BOOT_IMAGE_PFN + IMAGE_PAGES;
        let all_colors = ColorSet::all(cfg.partition_colors());
        let mut untypeds = Arena::new();
        let pool =
            UntypedId(untypeds.alloc(Untyped::new((first_free..ram_frames).collect(), all_colors)));

        let mut domains = Arena::new();
        let boot_domain = DomainId(domains.alloc(Domain {
            colors: all_colors,
            image: boot_image,
            pool,
            timer_ntfn: None,
        }));

        let cores = (0..cfg.cores)
            .map(|_| CoreSched {
                cur: None,
                cur_image: boot_image,
                cur_domain: None,
                slots: Vec::new(),
                slot_idx: 0,
                mode: EngineMode::Slotted,
                slice_start: 0,
                ticks: 0,
            })
            .collect();

        Kernel {
            cfg,
            prot,
            tcbs: Arena::new(),
            eps: Arena::new(),
            ntfns: Arena::new(),
            images,
            kmems: Arena::new(),
            untypeds,
            vspaces: Arena::new(),
            domains,
            shared,
            boot_image,
            boot_domain,
            cores,
            run_queues: HashMap::new(),
            slot_threads: HashMap::new(),
            irqs: [IrqState::default(); NUM_IRQS],
            slice_cycles,
            stats: KernelStats::default(),
            log: CommitLog::default(),
            next_asid: 1,
        }
    }

    fn alloc_asid(&mut self) -> Asid {
        let a = Asid(self.next_asid);
        self.next_asid += 1;
        a
    }

    /// Allocate `n` frames from a domain's pool.
    ///
    /// # Errors
    /// [`KernelError::OutOfMemory`] if the pool is exhausted.
    pub fn alloc_frames(&mut self, domain: DomainId, n: usize) -> Result<Vec<u64>, KernelError> {
        let _gate = self.log.enter(|| Commit::AllocFrames { domain, n });
        let d = self.domains.get(domain.0).ok_or(KernelError::ObjectGone)?;
        let pool = d.pool;
        self.untypeds
            .get_mut(pool.0)
            .ok_or(KernelError::ObjectGone)?
            .alloc(n)
            .ok_or(KernelError::OutOfMemory)
    }

    /// Carve a new security domain out of `parent_pool`-style global
    /// memory: takes all free frames of the given colours from the boot
    /// pool. Returns the domain; its kernel image is the boot image until
    /// [`Kernel::clone_kernel_for_domain`] is called.
    ///
    /// # Errors
    /// Propagates pool exhaustion.
    pub fn create_domain(
        &mut self,
        colors: ColorSet,
        max_frames: usize,
    ) -> Result<DomainId, KernelError> {
        let _gate = self
            .log
            .enter(|| Commit::CreateDomain { colors, max_frames });
        let n_colors = self.cfg.partition_colors();
        let boot_pool = self.domains.get(self.boot_domain.0).unwrap().pool;
        let pool = self
            .untypeds
            .get_mut(boot_pool.0)
            .ok_or(KernelError::ObjectGone)?;
        // Extract matching frames from the boot pool in place (allocation
        // order preserved for both sides).
        let taken =
            pool.take_matching(max_frames, |f| colors.contains(color_of_frame(f, n_colors)));
        if taken.is_empty() {
            return Err(KernelError::OutOfMemory);
        }
        let pool_id = UntypedId(self.untypeds.alloc(Untyped::new(taken, colors)));
        let id = DomainId(self.domains.alloc(Domain {
            colors,
            image: self.boot_image,
            pool: pool_id,
            timer_ntfn: None,
        }));
        Ok(id)
    }

    /// Create a thread in `domain`, pinned to `core`, with its own VSpace.
    ///
    /// # Errors
    /// Propagates pool exhaustion.
    pub fn create_thread(
        &mut self,
        domain: DomainId,
        core: usize,
        prio: u8,
    ) -> Result<TcbId, KernelError> {
        let _gate = self
            .log
            .enter(|| Commit::CreateThread { domain, core, prio });
        let frames = self.alloc_frames(domain, 1)?;
        let asid = self.alloc_asid();
        let image = self
            .domains
            .get(domain.0)
            .ok_or(KernelError::ObjectGone)?
            .image;
        let vspace = VSpaceId(self.vspaces.alloc(VSpace {
            asid,
            map: tp_sim::PhysMap::new(asid),
            next_va: USER_VBASE,
            domain,
        }));
        let t = TcbId(self.tcbs.alloc(Tcb {
            priority: prio,
            core,
            vspace,
            domain,
            image,
            obj_frame: frames[0],
            state: ThreadState::Ready,
            cspace: Vec::new(),
            ipc_msg: 0,
            reply_to: None,
        }));
        self.run_queues
            .entry((core, domain))
            .or_default()
            .enqueue(prio, t);
        let slot = self.slot_threads.entry((core, domain)).or_default();
        if slot.is_empty() {
            // The domain's first thread on this core gives it a slot.
            self.cores[core].slots.push(domain);
        }
        slot.push(t);
        Ok(t)
    }

    /// Create an endpoint in a domain's memory.
    ///
    /// # Errors
    /// Propagates pool exhaustion.
    pub fn create_endpoint(&mut self, domain: DomainId) -> Result<EpId, KernelError> {
        let _gate = self.log.enter(|| Commit::CreateEndpoint { domain });
        let frames = self.alloc_frames(domain, 1)?;
        Ok(EpId(self.eps.alloc(Endpoint {
            obj_frame: frames[0],
            ..Endpoint::default()
        })))
    }

    /// Create a notification in a domain's memory.
    ///
    /// # Errors
    /// Propagates pool exhaustion.
    pub fn create_notification(&mut self, domain: DomainId) -> Result<NtfnId, KernelError> {
        let _gate = self.log.enter(|| Commit::CreateNotification { domain });
        let frames = self.alloc_frames(domain, 1)?;
        Ok(NtfnId(self.ntfns.alloc(Notification {
            obj_frame: frames[0],
            ..Notification::default()
        })))
    }

    /// Install a capability into a thread's CSpace; returns the index.
    pub fn grant_cap(&mut self, t: TcbId, cap: Capability) -> CapIdx {
        let _gate = self.log.enter(|| Commit::GrantCap { t, cap });
        let tcb = self.tcbs.get_mut(t.0).expect("live thread");
        tcb.cspace.push(cap);
        tcb.cspace.len() - 1
    }

    /// Map `n` fresh frames from the thread's domain pool into its VSpace;
    /// returns the base virtual address and the frames.
    ///
    /// # Errors
    /// Propagates pool exhaustion.
    pub fn map_user_pages(&mut self, t: TcbId, n: usize) -> Result<(VAddr, Vec<u64>), KernelError> {
        let _gate = self.log.enter(|| Commit::MapUserPages { t, n });
        let (domain, vspace) = {
            let tcb = self.tcbs.get(t.0).ok_or(KernelError::ObjectGone)?;
            (tcb.domain, tcb.vspace)
        };
        let frames = self.alloc_frames(domain, n)?;
        let vs = self
            .vspaces
            .get_mut(vspace.0)
            .ok_or(KernelError::ObjectGone)?;
        let base = vs.next_va;
        for (i, pfn) in frames.iter().enumerate() {
            vs.map.map(
                base / FRAME_SIZE + i as u64,
                Mapping {
                    pfn: *pfn,
                    global: false,
                    writable: true,
                },
            );
        }
        vs.next_va += n as u64 * FRAME_SIZE;
        Ok((VAddr(base), frames))
    }

    /// Translate a user virtual address in a thread's VSpace.
    #[must_use]
    pub fn translate(&self, t: TcbId, va: VAddr) -> Option<PAddr> {
        let tcb = self.tcbs.get(t.0)?;
        self.vspaces.get(tcb.vspace.0)?.map.translate(va)
    }

    /// Execute a kernel code path: instruction fetches over the image's
    /// text, data accesses to shared data, the image's stack, and any
    /// object frames. All timed against the machine.
    pub fn kexec(
        &mut self,
        m: &mut Machine,
        core: usize,
        image: ImageId,
        kind: FootKind,
        asid: Asid,
        objs: &[PAddr],
    ) {
        let _gate = self.log.enter(|| Commit::Kexec {
            core,
            image,
            kind,
            asid,
            objs: objs.to_vec(),
        });
        let f = foot(kind);
        let line = self.cfg.line;
        let global = self.prot.kernel_global_mappings;
        let layout = &self.images.get(image.0).expect("live image").layout;
        m.advance(core, self.cfg.lat.mode_switch);
        for i in 0..f.text {
            let li = f.off + i;
            let pa = ImageFrames::line_pa(&layout.text, li, line);
            let va = VAddr(KERNEL_VBASE + li * line);
            m.insn_fetch(core, asid, va, pa, global);
        }
        // Shared-data touches: each handler uses a fixed window of the
        // shared region (deterministic position per handler).
        let sbase = (f.off / 8) % self.shared.lines().max(1);
        for j in 0..f.shared {
            let pa = self.shared.line_pa(sbase + j);
            let va = VAddr(KERNEL_VBASE + 0x40_0000 + (sbase + j) * line);
            m.data_access(core, asid, va, pa, j == 0, global);
        }
        for j in 0..f.stack {
            let pa = ImageFrames::line_pa(&layout.stack, j, line);
            let va = VAddr(KERNEL_VBASE + 0x50_0000 + j * line);
            m.data_access(core, asid, va, pa, true, global);
        }
        for (k, pa) in objs.iter().enumerate() {
            let va = VAddr(KERNEL_VBASE + 0x60_0000 + k as u64 * line);
            m.data_access(core, asid, va, *pa, true, global);
        }
    }

    fn cap(&self, t: TcbId, idx: CapIdx) -> Result<Capability, KernelError> {
        self.tcbs
            .get(t.0)
            .ok_or(KernelError::ObjectGone)?
            .cspace
            .get(idx)
            .copied()
            .ok_or(KernelError::InvalidCap)
    }

    fn thread_asid(&self, t: TcbId) -> Asid {
        let tcb = self.tcbs.get(t.0).expect("live thread");
        self.vspaces.get(tcb.vspace.0).expect("live vspace").asid
    }

    fn obj_frame_pa(&self, frame: u64) -> PAddr {
        PAddr(frame * FRAME_SIZE)
    }

    /// Make a thread ready and enqueue it.
    pub fn wake(&mut self, t: TcbId) {
        let _gate = self.log.enter(|| Commit::Wake { t });
        let (core, domain, prio) = {
            let tcb = self.tcbs.get(t.0).expect("live thread");
            (tcb.core, tcb.domain, tcb.priority)
        };
        self.tcbs.get_mut(t.0).unwrap().state = ThreadState::Ready;
        self.run_queues
            .entry((core, domain))
            .or_default()
            .enqueue(prio, t);
    }

    /// Pick the next thread for `core` after the current one blocked or
    /// exited (no slot rotation). Returns the new current thread.
    pub fn schedule_same_slot(&mut self, m: &mut Machine, core: usize) -> Option<TcbId> {
        let _gate = self.log.enter(|| Commit::ScheduleSameSlot { core });
        let mode = self.cores[core].mode;
        let next = match mode {
            EngineMode::Slotted => {
                let domain = self.cores[core]
                    .slots
                    .get(self.cores[core].slot_idx)
                    .copied();
                domain.and_then(|d| {
                    self.run_queues
                        .get_mut(&(core, d))
                        .and_then(ReadyQueues::dequeue)
                })
            }
            EngineMode::Open => self.pick_best_any_domain(core),
        };
        if let Some(t) = next {
            self.make_current(m, core, t, false);
        } else {
            self.cores[core].cur = None;
        }
        next
    }

    pub(crate) fn pick_best_any_domain(&mut self, core: usize) -> Option<TcbId> {
        let slots = self.cores[core].slots.clone();
        let mut best: Option<(u8, DomainId)> = None;
        for d in slots {
            if let Some(q) = self.run_queues.get(&(core, d)) {
                if let Some(p) = q.highest() {
                    if best.is_none_or(|(bp, _)| p > bp) {
                        best = Some((p, d));
                    }
                }
            }
        }
        let (_, d) = best?;
        self.run_queues
            .get_mut(&(core, d))
            .and_then(ReadyQueues::dequeue)
    }

    /// Install `t` as the current thread of `core`, performing the fast
    /// image/stack switch if the kernel image changes (the full
    /// domain-switch work of §4.3 is done by the tick path; `direct` IPC
    /// switches pay only the stack switch).
    pub fn make_current(&mut self, m: &mut Machine, core: usize, t: TcbId, _direct: bool) {
        let _gate = self.log.enter(|| Commit::MakeCurrent {
            core,
            t,
            direct: _direct,
        });
        let new_image = self.tcbs.get(t.0).expect("live thread").image;
        let old_image = self.cores[core].cur_image;
        if new_image != old_image {
            self.switch_image_fast(m, core, old_image, new_image);
        }
        self.cores[core].cur = Some(t);
    }

    /// The implicit kernel switch: the page-directory switch brings the new
    /// image's mappings; the only explicit action is the stack switch
    /// (§4.3), copying the live part of the old stack.
    pub fn switch_image_fast(&mut self, m: &mut Machine, core: usize, from: ImageId, to: ImageId) {
        let _gate = self
            .log
            .enter(|| Commit::SwitchImageFast { core, from, to });
        let line = self.cfg.line;
        let global = self.prot.kernel_global_mappings;
        let from_stack = &self.images.get(from.0).expect("live image").layout.stack;
        let to_stack = &self.images.get(to.0).expect("live image").layout.stack;
        // Copy the live part of the stack: the switch happens at a shallow
        // kernel entry point, so only a couple of lines are live.
        for i in 0..2u64 {
            let src = ImageFrames::line_pa(from_stack, i, line);
            let dst = ImageFrames::line_pa(to_stack, i, line);
            let va = VAddr(KERNEL_VBASE + 0x50_0000 + i * line);
            m.data_access(core, Asid::KERNEL, va, src, false, global);
            m.data_access(core, Asid::KERNEL, va, dst, true, global);
        }
        if let Some(img) = self.images.get_mut(from.0) {
            img.running_on &= !(1u64 << core);
        }
        if let Some(img) = self.images.get_mut(to.0) {
            img.running_on |= 1u64 << core;
        }
        self.cores[core].cur_image = to;
    }

    /// Dispatch a system call from thread `t` running on `core`.
    pub fn syscall(&mut self, m: &mut Machine, core: usize, t: TcbId, sys: Syscall) -> SysOutcome {
        let _gate = self.log.enter(|| Commit::Syscall { core, t, sys });
        self.stats.syscalls += 1;
        let asid = self.thread_asid(t);
        let image = self.tcbs.get(t.0).expect("live thread").image;
        let tcb_frame = self.obj_frame_pa(self.tcbs.get(t.0).unwrap().obj_frame);
        let mut arm_timer = None;

        let ret = match sys {
            Syscall::Nop => {
                self.kexec(m, core, image, FootKind::Nop, asid, &[tcb_frame]);
                SysReturn::Val(0)
            }
            Syscall::Signal { cap } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::Notification(n),
                    rights,
                }) if rights.write => {
                    let nf = self.obj_frame_pa(self.ntfns.get(n.0).expect("live ntfn").obj_frame);
                    self.kexec(m, core, image, FootKind::Signal, asid, &[tcb_frame, nf]);
                    self.do_signal(n, 1);
                    SysReturn::Val(0)
                }
                Ok(Capability {
                    obj: CapObject::Notification(_),
                    ..
                }) => SysReturn::Err(KernelError::InsufficientRights),
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::Poll { cap } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::Notification(n),
                    rights,
                }) if rights.read => {
                    let nf = self.obj_frame_pa(self.ntfns.get(n.0).expect("live ntfn").obj_frame);
                    self.kexec(m, core, image, FootKind::Poll, asid, &[tcb_frame, nf]);
                    let ntfn = self.ntfns.get_mut(n.0).unwrap();
                    let w = ntfn.word;
                    ntfn.word = 0;
                    SysReturn::Val(w)
                }
                Ok(Capability {
                    obj: CapObject::Notification(_),
                    ..
                }) => SysReturn::Err(KernelError::InsufficientRights),
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::Wait { cap } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::Notification(n),
                    rights,
                }) if rights.read => {
                    let nf = self.obj_frame_pa(self.ntfns.get(n.0).expect("live ntfn").obj_frame);
                    self.kexec(m, core, image, FootKind::Wait, asid, &[tcb_frame, nf]);
                    let ntfn = self.ntfns.get_mut(n.0).unwrap();
                    if ntfn.word != 0 {
                        let w = ntfn.word;
                        ntfn.word = 0;
                        SysReturn::Val(w)
                    } else {
                        ntfn.waiters.push_back(t);
                        self.block(m, core, t, ThreadState::BlockedNtfn(n));
                        SysReturn::Blocked
                    }
                }
                Ok(Capability {
                    obj: CapObject::Notification(_),
                    ..
                }) => SysReturn::Err(KernelError::InsufficientRights),
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::TcbSetPriority { cap, prio } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::Tcb(target),
                    rights,
                }) if rights.write => {
                    let tf =
                        self.obj_frame_pa(self.tcbs.get(target.0).expect("live tcb").obj_frame);
                    self.kexec(
                        m,
                        core,
                        image,
                        FootKind::SetPriority,
                        asid,
                        &[tcb_frame, tf],
                    );
                    self.tcbs.get_mut(target.0).unwrap().priority = prio;
                    SysReturn::Val(0)
                }
                Ok(Capability {
                    obj: CapObject::Tcb(_),
                    ..
                }) => SysReturn::Err(KernelError::InsufficientRights),
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::Call { cap, msg } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::Endpoint(ep),
                    rights,
                }) if rights.write => self.do_call(m, core, t, ep, msg, image, asid, tcb_frame),
                Ok(Capability {
                    obj: CapObject::Endpoint(_),
                    ..
                }) => SysReturn::Err(KernelError::InsufficientRights),
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::ReplyRecv { cap, msg } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::Endpoint(ep),
                    rights,
                }) if rights.read => {
                    self.do_reply_recv(m, core, t, ep, msg, image, asid, tcb_frame)
                }
                Ok(Capability {
                    obj: CapObject::Endpoint(_),
                    ..
                }) => SysReturn::Err(KernelError::InsufficientRights),
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::Recv { cap } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::Endpoint(ep),
                    rights,
                }) if rights.read => {
                    let ef = self.obj_frame_pa(self.eps.get(ep.0).expect("live ep").obj_frame);
                    self.kexec(m, core, image, FootKind::Recv, asid, &[tcb_frame, ef]);
                    let sender = self.eps.get_mut(ep.0).unwrap().send_queue.pop_front();
                    if let Some(s) = sender {
                        let msg = self.tcbs.get(s.0).expect("live sender").ipc_msg;
                        self.tcbs.get_mut(s.0).unwrap().state = ThreadState::BlockedReply;
                        self.tcbs.get_mut(t.0).unwrap().reply_to = Some(s);
                        SysReturn::Val(msg)
                    } else {
                        self.eps.get_mut(ep.0).unwrap().recv_queue.push_back(t);
                        self.block(m, core, t, ThreadState::BlockedRecv(ep));
                        SysReturn::Blocked
                    }
                }
                Ok(Capability {
                    obj: CapObject::Endpoint(_),
                    ..
                }) => SysReturn::Err(KernelError::InsufficientRights),
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::Yield => {
                self.kexec(m, core, image, FootKind::Yield, asid, &[tcb_frame]);
                let (domain, prio) = {
                    let tcb = self.tcbs.get(t.0).unwrap();
                    (tcb.domain, tcb.priority)
                };
                self.run_queues
                    .entry((core, domain))
                    .or_default()
                    .enqueue(prio, t);
                self.cores[core].cur = None;
                self.schedule_same_slot(m, core);
                SysReturn::Val(0)
            }
            Syscall::SetTimer { cap, us } => match self.cap(t, cap) {
                Ok(Capability {
                    obj: CapObject::IrqHandler(irq),
                    ..
                }) => {
                    if (irq as usize) >= NUM_IRQS || us <= 0.0 {
                        SysReturn::Err(KernelError::InvalidIrq)
                    } else {
                        self.kexec(m, core, image, FootKind::SetTimer, asid, &[tcb_frame]);
                        let at = m.cycles(core) + self.cfg.us_to_cycles(us);
                        arm_timer = Some((at, irq));
                        SysReturn::Val(0)
                    }
                }
                Ok(_) => SysReturn::Err(KernelError::TypeMismatch),
                Err(e) => SysReturn::Err(e),
            },
            Syscall::SleepSlice => {
                self.kexec(m, core, image, FootKind::Yield, asid, &[tcb_frame]);
                self.block(m, core, t, ThreadState::SleepingUntilSlice);
                SysReturn::Blocked
            }
        };
        SysOutcome { ret, arm_timer }
    }

    /// Deliver a signal to a notification, waking one waiter if present.
    pub fn do_signal(&mut self, n: NtfnId, badge: u64) {
        let _gate = self.log.enter(|| Commit::Signal { ntfn: n, badge });
        let waiter = {
            let ntfn = self.ntfns.get_mut(n.0).expect("live ntfn");
            if let Some(w) = ntfn.waiters.pop_front() {
                Some((w, badge))
            } else {
                ntfn.word |= badge;
                None
            }
        };
        if let Some((w, badge)) = waiter {
            self.tcbs.get_mut(w.0).unwrap().ipc_msg = badge;
            self.wake(w);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_call(
        &mut self,
        m: &mut Machine,
        core: usize,
        t: TcbId,
        ep: EpId,
        msg: u64,
        image: ImageId,
        asid: Asid,
        tcb_frame: PAddr,
    ) -> SysReturn {
        let ef = self.obj_frame_pa(self.eps.get(ep.0).expect("live ep").obj_frame);
        self.kexec(m, core, image, FootKind::Fastpath, asid, &[tcb_frame, ef]);
        let server = self.eps.get_mut(ep.0).unwrap().recv_queue.pop_front();
        if let Some(s) = server {
            // Fastpath: direct switch to the server.
            self.stats.ipc_fastpath += 1;
            {
                let st = self.tcbs.get_mut(s.0).unwrap();
                st.ipc_msg = msg;
                st.reply_to = Some(t);
                st.state = ThreadState::Ready;
            }
            self.tcbs.get_mut(t.0).unwrap().state = ThreadState::BlockedReply;
            self.cores[core].cur = None;
            self.make_current(m, core, s, true);
            SysReturn::Blocked
        } else {
            let tc = self.tcbs.get_mut(t.0).unwrap();
            tc.ipc_msg = msg;
            tc.state = ThreadState::BlockedSend(ep);
            self.eps.get_mut(ep.0).unwrap().send_queue.push_back(t);
            self.cores[core].cur = None;
            self.schedule_same_slot(m, core);
            SysReturn::Blocked
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_reply_recv(
        &mut self,
        m: &mut Machine,
        core: usize,
        t: TcbId,
        ep: EpId,
        msg: u64,
        image: ImageId,
        asid: Asid,
        tcb_frame: PAddr,
    ) -> SysReturn {
        let ef = self.obj_frame_pa(self.eps.get(ep.0).expect("live ep").obj_frame);
        self.kexec(m, core, image, FootKind::Fastpath, asid, &[tcb_frame, ef]);
        // Reply phase.
        let caller = self.tcbs.get_mut(t.0).unwrap().reply_to.take();
        // Receive phase: check for a queued sender.
        let sender = self.eps.get_mut(ep.0).unwrap().send_queue.pop_front();
        match (caller, sender) {
            (Some(c), None) => {
                // Fastpath: reply and switch back to the caller.
                self.stats.ipc_fastpath += 1;
                {
                    let ct = self.tcbs.get_mut(c.0).unwrap();
                    ct.ipc_msg = msg;
                    ct.state = ThreadState::Ready;
                }
                self.eps.get_mut(ep.0).unwrap().recv_queue.push_back(t);
                self.tcbs.get_mut(t.0).unwrap().state = ThreadState::BlockedRecv(ep);
                self.cores[core].cur = None;
                self.make_current(m, core, c, true);
                SysReturn::Blocked
            }
            (caller, Some(s)) => {
                if let Some(c) = caller {
                    let ct = self.tcbs.get_mut(c.0).unwrap();
                    ct.ipc_msg = msg;
                    self.wake(c);
                }
                let smsg = self.tcbs.get(s.0).expect("live sender").ipc_msg;
                self.tcbs.get_mut(s.0).unwrap().state = ThreadState::BlockedReply;
                self.tcbs.get_mut(t.0).unwrap().reply_to = Some(s);
                SysReturn::Val(smsg)
            }
            (None, None) => {
                self.eps.get_mut(ep.0).unwrap().recv_queue.push_back(t);
                self.block(m, core, t, ThreadState::BlockedRecv(ep));
                SysReturn::Blocked
            }
        }
    }

    fn block(&mut self, m: &mut Machine, core: usize, t: TcbId, state: ThreadState) {
        self.tcbs.get_mut(t.0).unwrap().state = state;
        if self.cores[core].cur == Some(t) {
            self.cores[core].cur = None;
            self.schedule_same_slot(m, core);
        }
    }

    /// A thread's program has finished.
    pub fn thread_exited(&mut self, m: &mut Machine, t: TcbId) {
        let _gate = self.log.enter(|| Commit::ThreadExited { t });
        let (core, domain, prio) = {
            let tcb = self.tcbs.get(t.0).expect("live thread");
            (tcb.core, tcb.domain, tcb.priority)
        };
        self.tcbs.get_mut(t.0).unwrap().state = ThreadState::Exited;
        if let Some(q) = self.run_queues.get_mut(&(core, domain)) {
            q.remove(prio, t);
        }
        if self.cores[core].cur == Some(t) {
            self.cores[core].cur = None;
            self.schedule_same_slot(m, core);
        }
    }

    /// An interrupt `irq` has arrived on `core`. Returns `true` if it was
    /// delivered immediately (and its cost charged), `false` if deferred by
    /// partitioning (Requirement 5).
    pub fn irq_arrives(&mut self, m: &mut Machine, core: usize, irq: u32) -> bool {
        let _gate = self.log.enter(|| Commit::IrqArrives { core, irq });
        let i = irq as usize;
        assert!(i < NUM_IRQS, "irq out of range");
        let owner = self.irqs[i].owner;
        let cur_image = self.cores[core].cur_image;
        let partitioned = self.prot.irq_partition && owner.is_some() && owner != Some(cur_image);
        if partitioned {
            self.irqs[i].pending = true;
            self.irqs[i].deferred += 1;
            self.stats.irqs_deferred += 1;
            return false;
        }
        self.deliver_irq(m, core, irq);
        true
    }

    /// Deliver an IRQ on `core`: run the kernel IRQ path and signal the
    /// bound notification.
    pub fn deliver_irq(&mut self, m: &mut Machine, core: usize, irq: u32) {
        let _gate = self.log.enter(|| Commit::DeliverIrq { core, irq });
        let i = irq as usize;
        let image = self.cores[core].cur_image;
        self.kexec(m, core, image, FootKind::Irq, Asid::KERNEL, &[]);
        self.irqs[i].pending = false;
        self.irqs[i].delivered += 1;
        self.stats.irqs_delivered += 1;
        if let Some(n) = self.irqs[i].ntfn {
            self.do_signal(n, 1 << irq);
        }
    }

    /// `Kernel_SetInt`: associate an IRQ with a kernel image (§4.2).
    ///
    /// # Errors
    /// [`KernelError::InvalidIrq`] for out-of-range IRQs.
    pub fn kernel_set_int(
        &mut self,
        image: ImageId,
        irq: u32,
        ntfn: Option<NtfnId>,
    ) -> Result<(), KernelError> {
        let _gate = self.log.enter(|| Commit::KernelSetInt { image, irq, ntfn });
        let i = irq as usize;
        if i == 0 || i >= NUM_IRQS {
            return Err(KernelError::InvalidIrq);
        }
        self.irqs[i].owner = Some(image);
        self.irqs[i].ntfn = ntfn;
        if let Some(img) = self.images.get_mut(image.0) {
            img.irqs.push(irq);
        }
        Ok(())
    }

    /// Configure the padding latency of an image (a user-controlled
    /// kernel-image attribute, §4.3).
    pub fn set_pad_cycles(&mut self, image: ImageId, cycles: u64) {
        let _gate = self.log.enter(|| Commit::SetPadCycles { image, cycles });
        if let Some(img) = self.images.get_mut(image.0) {
            img.pad_cycles = cycles;
        }
    }

    /// Set `core`'s scheduling mode: a setup write for code that drives
    /// the kernel directly rather than through the engine, which sets
    /// every core's mode at boot.
    pub fn set_mode(&mut self, core: usize, mode: EngineMode) {
        let _gate = self.log.enter(|| Commit::SetMode { core, mode });
        self.cores[core].mode = mode;
    }

    /// Make `t` the current thread of `core` with no switch: no image
    /// change and no machine traffic, unlike [`Kernel::make_current`]. A
    /// setup write, e.g. for Table 5's IPC pair.
    pub fn set_current(&mut self, core: usize, t: TcbId) {
        let _gate = self.log.enter(|| Commit::SetCurrent { core, t });
        self.cores[core].cur = Some(t);
    }

    /// Make `image` the active kernel image of `core` with no switch: no
    /// stack copy, unlike [`Kernel::switch_image_fast`]. A setup write,
    /// e.g. for the image Table 6 switches away from.
    pub fn set_current_image(&mut self, core: usize, image: ImageId) {
        let _gate = self.log.enter(|| Commit::SetCurrentImage { core, image });
        self.cores[core].cur_image = image;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::Rights;
    use tp_sim::Platform;

    fn setup() -> (Machine, Kernel) {
        let cfg = Platform::Haswell.config();
        let m = Machine::new(cfg, 42);
        let k = Kernel::new(cfg, ProtectionConfig::raw(), 4096, 3_400_000);
        (m, k)
    }

    #[test]
    fn boot_creates_image_and_pool() {
        let (_, k) = setup();
        assert_eq!(k.images.len(), 1);
        let pool = k.domains.get(k.boot_domain.0).unwrap().pool;
        assert!(k.untypeds.get(pool.0).unwrap().available() > 3000);
    }

    #[test]
    fn create_thread_and_map_pages() {
        let (_, mut k) = setup();
        let t = k.create_thread(k.boot_domain, 0, 100).unwrap();
        let (va, frames) = k.map_user_pages(t, 4).unwrap();
        assert_eq!(frames.len(), 4);
        let pa = k.translate(t, va).unwrap();
        assert_eq!(pa.pfn(), frames[0]);
        assert_eq!(
            k.translate(t, VAddr(va.0 + 3 * FRAME_SIZE)).unwrap().pfn(),
            frames[3]
        );
        assert!(k.translate(t, VAddr(0xdead_0000)).is_none());
    }

    /// User mappings are append-only: mapping more pages never moves an
    /// earlier translation and never bumps a VSpace's generation. The
    /// engine's probe plans translate once and rely on this.
    #[test]
    fn user_mappings_are_append_only() {
        let (_, mut k) = setup();
        let other = k.create_domain(ColorSet::range(0, 4), 512).unwrap();
        let threads: Vec<TcbId> = [(k.boot_domain, 0), (k.boot_domain, 1), (other, 0)]
            .into_iter()
            .map(|(d, core)| k.create_thread(d, core, 100).unwrap())
            .collect();
        let mut seen: Vec<(TcbId, VAddr, PAddr)> = Vec::new();
        for round in 0..4 {
            for &t in &threads {
                let (va, frames) = k.map_user_pages(t, 1 + round).unwrap();
                for (i, &pfn) in frames.iter().enumerate() {
                    let off = i as u64 * FRAME_SIZE + 64 * round as u64;
                    seen.push((
                        t,
                        VAddr(va.0 + off),
                        PAddr(pfn * FRAME_SIZE + off % FRAME_SIZE),
                    ));
                }
                for &(t, va, pa) in &seen {
                    assert_eq!(k.translate(t, va), Some(pa), "round {round}");
                }
            }
        }
        for &t in &threads {
            let vs = k.tcbs.get(t.0).unwrap().vspace;
            assert_eq!(k.vspaces.get(vs.0).unwrap().map.generation(), 0);
        }
    }

    #[test]
    fn colored_domain_gets_only_its_colors() {
        let cfg = Platform::Haswell.config();
        let mut k = Kernel::new(cfg, ProtectionConfig::protected(), 4096, 3_400_000);
        let colors = ColorSet::range(0, 4);
        let d = k.create_domain(colors, 256).unwrap();
        let t = k.create_thread(d, 0, 100).unwrap();
        let (_, frames) = k.map_user_pages(t, 32).unwrap();
        let n = cfg.partition_colors();
        for f in frames {
            assert!(
                colors.contains(color_of_frame(f, n)),
                "frame {f} off-colour"
            );
        }
    }

    #[test]
    fn signal_poll_roundtrip() {
        let (mut m, mut k) = setup();
        let t = k.create_thread(k.boot_domain, 0, 100).unwrap();
        k.cores[0].cur = Some(t);
        let n = k.create_notification(k.boot_domain).unwrap();
        let cap = k.grant_cap(
            t,
            Capability {
                obj: CapObject::Notification(n),
                rights: Rights::all(),
            },
        );
        let out = k.syscall(&mut m, 0, t, Syscall::Signal { cap });
        assert_eq!(out.ret, SysReturn::Val(0));
        let out = k.syscall(&mut m, 0, t, Syscall::Poll { cap });
        assert_eq!(out.ret, SysReturn::Val(1));
        // Second poll: empty.
        let out = k.syscall(&mut m, 0, t, Syscall::Poll { cap });
        assert_eq!(out.ret, SysReturn::Val(0));
    }

    #[test]
    fn rights_are_enforced() {
        let (mut m, mut k) = setup();
        let t = k.create_thread(k.boot_domain, 0, 100).unwrap();
        k.cores[0].cur = Some(t);
        let n = k.create_notification(k.boot_domain).unwrap();
        let ro = Rights {
            read: true,
            write: false,
            grant: false,
            clone: false,
        };
        let cap = k.grant_cap(
            t,
            Capability {
                obj: CapObject::Notification(n),
                rights: ro,
            },
        );
        let out = k.syscall(&mut m, 0, t, Syscall::Signal { cap });
        assert_eq!(out.ret, SysReturn::Err(KernelError::InsufficientRights));
        let out = k.syscall(&mut m, 0, t, Syscall::Poll { cap });
        assert_eq!(out.ret, SysReturn::Val(0));
    }

    #[test]
    fn bad_cap_index_rejected() {
        let (mut m, mut k) = setup();
        let t = k.create_thread(k.boot_domain, 0, 100).unwrap();
        k.cores[0].cur = Some(t);
        let out = k.syscall(&mut m, 0, t, Syscall::Signal { cap: 7 });
        assert_eq!(out.ret, SysReturn::Err(KernelError::InvalidCap));
    }

    #[test]
    fn type_mismatch_rejected() {
        let (mut m, mut k) = setup();
        let t = k.create_thread(k.boot_domain, 0, 100).unwrap();
        k.cores[0].cur = Some(t);
        let ep = k.create_endpoint(k.boot_domain).unwrap();
        let cap = k.grant_cap(
            t,
            Capability {
                obj: CapObject::Endpoint(ep),
                rights: Rights::all(),
            },
        );
        let out = k.syscall(&mut m, 0, t, Syscall::Signal { cap });
        assert_eq!(out.ret, SysReturn::Err(KernelError::TypeMismatch));
    }

    #[test]
    fn ipc_call_fastpath_switches_to_server() {
        let (mut m, mut k) = setup();
        let client = k.create_thread(k.boot_domain, 0, 100).unwrap();
        let server = k.create_thread(k.boot_domain, 0, 100).unwrap();
        let ep = k.create_endpoint(k.boot_domain).unwrap();
        let ccap = k.grant_cap(
            client,
            Capability {
                obj: CapObject::Endpoint(ep),
                rights: Rights::all(),
            },
        );
        let scap = k.grant_cap(
            server,
            Capability {
                obj: CapObject::Endpoint(ep),
                rights: Rights::all(),
            },
        );

        // Server blocks in Recv first.
        k.cores[0].cur = Some(server);
        let out = k.syscall(&mut m, 0, server, Syscall::Recv { cap: scap });
        assert_eq!(out.ret, SysReturn::Blocked);

        // Client calls: fastpath delivers directly to the server.
        k.cores[0].cur = Some(client);
        let out = k.syscall(&mut m, 0, client, Syscall::Call { cap: ccap, msg: 99 });
        assert_eq!(out.ret, SysReturn::Blocked);
        assert_eq!(k.cores[0].cur, Some(server));
        assert_eq!(k.tcbs.get(server.0).unwrap().ipc_msg, 99);

        // Server replies; switches back to client.
        let out = k.syscall(
            &mut m,
            0,
            server,
            Syscall::ReplyRecv {
                cap: scap,
                msg: 123,
            },
        );
        assert_eq!(out.ret, SysReturn::Blocked);
        assert_eq!(k.cores[0].cur, Some(client));
        assert_eq!(k.tcbs.get(client.0).unwrap().ipc_msg, 123);
        assert_eq!(k.stats.ipc_fastpath, 2);
    }

    #[test]
    fn irq_partitioning_defers_foreign_interrupts() {
        let cfg = Platform::Haswell.config();
        let mut m = Machine::new(cfg, 42);
        let mut k = Kernel::new(cfg, ProtectionConfig::protected(), 8192, 3_400_000);
        // Two coloured domains, each with a cloned kernel.
        let d0 = k.create_domain(ColorSet::range(0, 4), 512).unwrap();
        let d1 = k.create_domain(ColorSet::range(4, 8), 512).unwrap();
        let i0 = k.clone_kernel_for_domain(&mut m, 0, d0).unwrap();
        let i1 = k.clone_kernel_for_domain(&mut m, 0, d1).unwrap();
        k.kernel_set_int(i1, 3, None).unwrap();
        // Current image is d0's: IRQ 3 (owned by d1's kernel) must defer.
        k.cores[0].cur_image = i0;
        assert!(!k.irq_arrives(&mut m, 0, 3));
        assert!(k.irqs[3].pending);
        // Once d1's kernel is current, delivery proceeds.
        k.cores[0].cur_image = i1;
        assert!(k.irq_arrives(&mut m, 0, 3));
        assert!(!k.irqs[3].pending);
    }

    #[test]
    fn kexec_touches_caches() {
        let (mut m, mut k) = setup();
        let before = m.cycles(0);
        let boot = k.boot_image;
        k.kexec(&mut m, 0, boot, FootKind::Signal, Asid(5), &[]);
        let cold = m.cycles(0) - before;
        let before = m.cycles(0);
        k.kexec(&mut m, 0, boot, FootKind::Signal, Asid(5), &[]);
        let warm = m.cycles(0) - before;
        assert!(
            cold > warm,
            "kernel text must become cache-resident: {cold} vs {warm}"
        );
    }
}
