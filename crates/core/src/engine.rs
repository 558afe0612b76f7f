//! The execution engine: deterministic cooperative co-simulation.
//!
//! Each simulated user program runs as a schedulable task, but **all**
//! hardware and kernel interaction goes through [`UserEnv`], which holds a
//! single global simulation lock and only admits the task that the
//! simulated kernel has scheduled (and, on multicore, whose core holds the
//! window token). Preemption, blocking IPC and idle-time skipping happen
//! *inside* env calls, so attack code is written as natural straight-line
//! loops reading the simulated cycle counter — exactly like real attack
//! code against real hardware.
//!
//! Every environment is a stackful coroutine ([`tp_exec::Coro`]) driven by
//! the host thread that calls [`run_programs`]. Wherever an environment
//! would block — the `wait_turn` admission loop, and therefore every env op
//! and `wait_preempt` — it *suspends* back to the driver, which picks the
//! next admissible task straight from the kernel's scheduling state. One
//! thread is enough: with a single window token at most one environment is
//! admissible at any instant, so the simulation is logically serial. This
//! is what lets a simulation hold thousands of environments (the `cloud`
//! scenario) without thousands of host threads.
//!
//! Determinism: the scheduling admission predicate is a pure function of
//! simulation state, all randomness is seeded, and cross-core interleaving
//! is quantised to a fixed cycle window.

use crate::kernel::{Kernel, KernelError, SysReturn, Syscall};
use crate::objects::{DomainId, TcbId, ThreadState, VSpaceId};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use tp_sim::{Asid, ColorSet, Machine, PAddr, PlatformConfig, SweepPlan, VAddr};

/// Default cross-core interleaving window (cycles).
pub const DEFAULT_WINDOW: u64 = 4_000;

/// Unwind payload that unwinds an environment's coroutine when the
/// simulation stops.
pub struct SimExit;

/// Why a failed simulation failed — the typed form of what used to be a
/// bare panic out of [`crate::SystemBuilder::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Broad classification (drives the campaign supervisor's retry and
    /// quarantine decisions).
    pub kind: SimErrorKind,
    /// The failing environment's panic message or the driver's abort note
    /// (watchdog, deadlock).
    pub message: String,
}

/// Classification of a [`SimError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimErrorKind {
    /// A simulated program (or the kernel under it) panicked.
    ProgramPanic,
    /// The engine watchdog aborted the cell: its wall-clock deadline passed
    /// while the simulation was making no progress.
    Watchdog,
    /// The cooperative scheduler proved no progress is possible: every live
    /// environment is suspended and no token rotation can admit one.
    /// Detected deterministically from simulation state alone — same
    /// `at_interaction` and `waiting_envs` for a given seed on every run and
    /// coroutine backend; no wall clock involved.
    Deadlock {
        /// Thread ids of the environments still live when progress died,
        /// in spawn order.
        waiting_envs: Vec<u64>,
        /// The global interaction ordinal (syscalls + preemption waits) at
        /// which the deadlock was proven.
        at_interaction: u64,
    },
    /// A coroutine's stack guard canary was found dead at a check point —
    /// the environment overflowed its stack (or the `stack-overflow` fault
    /// class simulated doing so).
    StackOverflow,
}

impl SimError {
    /// Classify an engine error string: watchdog aborts announce themselves
    /// with a `watchdog:` prefix, deadlock reports with `deadlock`, canary
    /// deaths with `stack overflow`; everything else is a program failure.
    /// Typed deadlock details travel out-of-band through
    /// `SimInner::deadlock`; this string fallback carries empty fields.
    pub(crate) fn from_message(message: String) -> Self {
        let kind = if message.starts_with("watchdog") {
            SimErrorKind::Watchdog
        } else if message.starts_with("deadlock") {
            SimErrorKind::Deadlock {
                waiting_envs: Vec::new(),
                at_interaction: 0,
            }
        } else if message.starts_with("stack overflow") {
            SimErrorKind::StackOverflow
        } else {
            SimErrorKind::ProgramPanic
        };
        SimError { kind, message }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            SimErrorKind::ProgramPanic => write!(f, "simulated program failed: {}", self.message),
            SimErrorKind::Watchdog
            | SimErrorKind::Deadlock { .. }
            | SimErrorKind::StackOverflow => write!(f, "{}", self.message),
        }
    }
}

/// Process-wide executor health counters, cumulative since process start.
/// Consumers snapshot before and after a run and diff (the same pattern as
/// `boot_stats`), because campaign cells share one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthStats {
    /// Environments that failed in isolation (non-primary panic) while
    /// their siblings kept running.
    pub env_failed: u64,
    /// Deterministic scheduler deadlocks detected by the driver.
    pub deadlocks: u64,
    /// Stack guard canary deaths (real overflows or the `stack-overflow`
    /// fault class).
    pub stack_overflows: u64,
}

static ENV_FAILED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static DEADLOCKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static STACK_OVERFLOWS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

thread_local! {
    /// [`HealthStats::env_failed`] restricted to systems driven by this
    /// thread: the supervisor diffs it around one attempt, so a failure in
    /// a cell running concurrently on another thread is never attributed
    /// to this one.
    static THREAD_ENV_FAILED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Snapshot the process-wide executor health counters.
#[must_use]
pub fn health_stats() -> HealthStats {
    use std::sync::atomic::Ordering::Relaxed;
    HealthStats {
        env_failed: ENV_FAILED.load(Relaxed),
        deadlocks: DEADLOCKS.load(Relaxed),
        stack_overflows: STACK_OVERFLOWS.load(Relaxed),
    }
}

/// Environments that failed in isolation in systems run on the calling
/// thread, cumulative since the thread started. The engine counts each
/// failure on the thread that called `try_run`, so this is exact per cell
/// where the process-wide [`health_stats`] is not.
#[must_use]
pub fn thread_env_failed() -> u64 {
    THREAD_ENV_FAILED.with(std::cell::Cell::get)
}

/// Panic payload a failing environment's unwind is re-wrapped in before it
/// crosses [`tp_exec::Coro::take_panic`], so quarantine records and exit
/// messages can name the env, not just the cell.
pub struct EnvPanicPayload {
    /// The failing environment's thread id (`TcbId.0`).
    pub env: u64,
    /// The original panic message.
    pub message: String,
}

/// Per-environment completion outcome, carried in `SystemReport` in spawn
/// order so multi-tenant scenarios can report fleet statistics over
/// survivors instead of quarantining the whole cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvOutcome {
    /// The environment ran to completion (or unwound in a normal stop).
    Completed,
    /// The environment panicked and was isolated; its siblings kept
    /// running.
    Failed {
        /// The failing environment's thread id.
        env: u64,
        /// Its panic message.
        message: String,
    },
}

impl std::error::Error for SimError {}

/// A kernel-level event pending on a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// The preemption timer.
    Tick,
    /// A one-shot user timer bound to an IRQ.
    Timer {
        /// The IRQ line.
        irq: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    cycle: u64,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.cycle, self.seq).cmp(&(other.cycle, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The shared simulation state.
pub struct SimInner {
    /// The hardware.
    pub machine: Machine,
    /// The kernel.
    pub kernel: Kernel,
    events: Vec<BinaryHeap<Reverse<Ev>>>,
    /// Which core currently holds the execution token.
    pub token: usize,
    /// Cross-core window in cycles.
    pub window: u64,
    /// Global stop flag.
    pub stop: bool,
    /// Cycle budget; exceeded ⇒ stop.
    pub max_cycles: u64,
    /// Primary (non-daemon) programs still running.
    pub primaries_left: usize,
    /// First error reported by an environment or the driver, if any.
    pub error: Option<String>,
    /// Wall-clock deadline for the watchdog: when set, the driver (and an
    /// environment stalled in `stall_loop`) aborts the simulation once the
    /// deadline passes. `None` (the default) keeps the hot path free of
    /// clock reads.
    pub deadline: Option<std::time::Instant>,
    /// Injected fault: panic on this (1-based) global syscall ordinal.
    fault_panic_at: Option<u64>,
    /// Injected fault: stop yielding after this (1-based) syscall ordinal.
    fault_stall_at: Option<u64>,
    /// Injected fault: swallow token rotations from the `at`-th would-move
    /// onward (sticky, so the wedge cannot self-heal on a later rotate).
    fault_lost_wakeup_at: Option<u64>,
    /// Injected fault: clobber the running coroutine's stack canary and
    /// raise the canonical overflow panic at the next interaction.
    fault_stack_overflow: bool,
    /// Token moves attempted while a lost-wakeup fault is armed, for the
    /// trigger ordinal.
    rotations_seen: u64,
    /// Syscalls and preemption waits executed so far — counted under the
    /// lock at execution time, so the ordinal is schedule-deterministic.
    /// Always counted (not just when a fault is armed): deadlock reports
    /// timestamp themselves with it.
    syscalls_seen: u64,
    /// Detected scheduler deadlock: waiting env ids (spawn order) and the
    /// interaction ordinal at which progress was proven impossible.
    pub(crate) deadlock: Option<(Vec<u64>, u64)>,
    /// Environments that failed in isolation, in failure order:
    /// `(env id, panic message)`. The cell keeps running.
    pub(crate) env_failures: Vec<(u64, String)>,
    seq: u64,
}

/// Action an armed environment fault demands at the current syscall.
enum EnvFault {
    /// Panic inside the engine op (unwinds out of the environment's
    /// coroutine into the driver).
    Panic(u64),
    /// Return normally, then stop yielding (spin off-lock forever).
    Stall(u64),
    /// Clobber the stack guard canary and raise the canonical overflow
    /// panic.
    StackSmash(u64),
}

/// The `stack-overflow` fault firing at interaction `n`: kill the running
/// coroutine's guard canary (so the backend's own at-suspend check would
/// trip too) and raise the canonical overflow panic directly. The direct
/// panic keeps the fault deterministic: a task that stays admitted may not
/// suspend again.
fn smash_stack(n: u64) -> ! {
    tp_exec::clobber_canary();
    debug_assert!(!tp_exec::on_coroutine() || !tp_exec::canary_intact());
    panic!(
        "stack overflow: coroutine guard canary clobbered at interaction {n} \
         (raise TP_STACK_KB)"
    );
}

impl SimInner {
    /// Create the inner state.
    #[must_use]
    pub fn new(machine: Machine, kernel: Kernel, window: u64, max_cycles: u64) -> Self {
        let cores = machine.cfg.cores;
        SimInner {
            machine,
            kernel,
            events: (0..cores).map(|_| BinaryHeap::new()).collect(),
            token: 0,
            window,
            stop: false,
            max_cycles,
            primaries_left: 0,
            error: None,
            deadline: None,
            fault_panic_at: None,
            fault_stall_at: None,
            fault_lost_wakeup_at: None,
            fault_stack_overflow: false,
            rotations_seen: 0,
            syscalls_seen: 0,
            deadlock: None,
            env_failures: Vec::new(),
            seq: 0,
        }
    }

    /// Arm an environment or executor fault. Other fault classes are
    /// injected elsewhere and ignored here.
    pub fn arm_env_fault(&mut self, kind: crate::fault::FaultKind) {
        match kind {
            crate::fault::FaultKind::EnvPanic { at } => self.fault_panic_at = Some(at.max(1)),
            crate::fault::FaultKind::EnvStall { at } => self.fault_stall_at = Some(at.max(1)),
            crate::fault::FaultKind::LostWakeup { at } => {
                self.fault_lost_wakeup_at = Some(at.max(1));
            }
            crate::fault::FaultKind::StackOverflow => self.fault_stack_overflow = true,
            _ => {}
        }
    }

    /// Count one environment interaction (syscall or preemption wait) and
    /// report the fault (if any) due at this ordinal.
    fn env_fault_tick(&mut self) -> Option<EnvFault> {
        self.syscalls_seen += 1;
        if self.fault_panic_at == Some(self.syscalls_seen) {
            return Some(EnvFault::Panic(self.syscalls_seen));
        }
        if self.fault_stall_at == Some(self.syscalls_seen) {
            return Some(EnvFault::Stall(self.syscalls_seen));
        }
        if self.fault_stack_overflow {
            self.fault_stack_overflow = false;
            return Some(EnvFault::StackSmash(self.syscalls_seen));
        }
        None
    }

    /// The interaction ordinal so far (syscalls + preemption waits).
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.syscalls_seen
    }

    /// Whether an armed lost-wakeup fault swallows the token move the
    /// caller is about to make. Sticky from the `at`-th would-move on, so
    /// the wedge cannot be healed by a later rotation attempt.
    fn lost_wakeup_swallows(&mut self) -> bool {
        let Some(n) = self.fault_lost_wakeup_at else {
            return false;
        };
        self.rotations_seen += 1;
        self.rotations_seen >= n
    }

    /// Record a proven scheduler deadlock: stop the simulation with a typed
    /// report (`waiting_envs` in spawn order, the current interaction
    /// ordinal) instead of waiting for the wall-clock watchdog.
    pub(crate) fn note_deadlock(&mut self, waiting_envs: Vec<u64>) {
        let at = self.syscalls_seen;
        if self.deadlock.is_none() {
            DEADLOCKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.error.is_none() {
                self.error = Some(format!(
                    "deadlock: {} environment(s) suspended with no runnable progress \
                     at interaction {at}",
                    waiting_envs.len()
                ));
            }
            self.deadlock = Some((waiting_envs, at));
        }
        self.stop = true;
    }

    /// Schedule an event on a core at an absolute cycle.
    pub fn push_event(&mut self, core: usize, cycle: u64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events[core].push(Reverse(Ev { cycle, seq, kind }));
    }

    /// Earliest pending event cycle on a core.
    #[must_use]
    pub fn next_event_cycle(&self, core: usize) -> Option<u64> {
        self.events[core].peek().map(|Reverse(e)| e.cycle)
    }

    /// Process all events on `core` that are due at its current cycle.
    pub fn process_due(&mut self, core: usize) {
        while let Some(&Reverse(ev)) = self.events[core].peek() {
            if ev.cycle > self.machine.cycles(core) {
                break;
            }
            self.events[core].pop();
            self.handle_event(core, ev);
        }
        if self.machine.cycles(core) >= self.max_cycles {
            self.stop = true;
        }
    }

    fn handle_event(&mut self, core: usize, ev: Ev) {
        match ev.kind {
            EvKind::Tick => {
                let out = self.kernel.handle_tick(&mut self.machine, core);
                self.push_event(core, out.next_tick_at, EvKind::Tick);
            }
            EvKind::Timer { irq } => {
                self.kernel.irq_arrives(&mut self.machine, core, irq);
            }
        }
    }

    /// Whether any core has a current thread.
    #[must_use]
    pub fn any_current(&self) -> bool {
        self.kernel.cores.iter().any(|c| c.cur.is_some())
    }

    /// While no thread is runnable anywhere, jump the laggard core to its
    /// next event and process it. Stops the simulation if the system is
    /// permanently idle.
    pub fn idle_advance(&mut self) {
        while !self.stop && !self.any_current() {
            let next = (0..self.events.len())
                .filter_map(|c| self.next_event_cycle(c).map(|cy| (cy, c)))
                .min();
            match next {
                Some((cycle, core)) => {
                    if self.machine.cycles(core) < cycle {
                        let delta = cycle - self.machine.cycles(core);
                        self.machine.advance(core, delta);
                    }
                    self.process_due(core);
                }
                None => self.stop = true,
            }
        }
    }

    /// Move the token if the holder ran ahead of the laggard active core by
    /// more than the window, or stopped being active.
    ///
    /// Runs after every timed environment access, so it must not allocate:
    /// the laggard scan is a single pass over the (few) cores.
    pub fn rotate_token(&mut self) {
        let mut laggard: Option<(u64, usize)> = None;
        let mut token_active = false;
        for (i, c) in self.kernel.cores.iter().enumerate() {
            if c.cur.is_some() {
                let cy = self.machine.cycles(i);
                // Strict `<` keeps the first minimum, like the min_by_key
                // scan this replaces.
                if laggard.is_none_or(|(lcy, _)| cy < lcy) {
                    laggard = Some((cy, i));
                }
                if i == self.token {
                    token_active = true;
                }
            }
        }
        let Some((lcy, lidx)) = laggard else { return };
        if !token_active {
            if self.token != lidx && !self.lost_wakeup_swallows() {
                self.token = lidx;
                self.kernel
                    .log
                    .note(|| crate::commit::Commit::TokenRotate { core: lidx });
            }
            return;
        }
        if self.machine.cycles(self.token) > lcy + self.window
            && lidx != self.token
            && !self.lost_wakeup_swallows()
        {
            self.token = lidx;
            self.kernel
                .log
                .note(|| crate::commit::Commit::TokenRotate { core: lidx });
        }
    }
}

/// The control block shared by the driver and every environment.
pub struct SimCtl {
    /// The state. A lock rather than a plain cell because the thread
    /// backend of non-x86_64 targets runs each environment's body on its
    /// own OS thread.
    pub inner: Mutex<SimInner>,
}

impl SimCtl {
    /// Wrap inner state.
    #[must_use]
    pub fn new(inner: SimInner) -> Arc<Self> {
        Arc::new(SimCtl {
            inner: Mutex::new(inner),
        })
    }
}

/// A user program: the body of a simulated thread.
pub trait UserProgram: Send + 'static {
    /// Run to completion against the environment.
    fn run(&mut self, env: &mut UserEnv);
}

impl<F: FnMut(&mut UserEnv) + Send + 'static> UserProgram for F {
    fn run(&mut self, env: &mut UserEnv) {
        self(env);
    }
}

/// A precomputed, translated probe sweep bound to one environment: the
/// simulator-side [`SweepPlan`] over the physical addresses behind its
/// probe lines.
///
/// A plan never goes stale. The only mapping operation,
/// `Kernel::map_user_pages`, maps fresh pages at the VSpace's next free
/// address, and nothing unmaps, so a translation taken once holds for the
/// thread's lifetime.
#[derive(Debug, Clone)]
pub struct EnvPlan {
    plan: SweepPlan,
}

impl EnvPlan {
    /// Number of planned probe lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Whether the plan has no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }
}

/// The mediated hardware/kernel interface handed to user programs.
pub struct UserEnv {
    ctl: Arc<SimCtl>,
    /// This thread.
    pub tcb: TcbId,
    /// The core the thread is pinned to.
    pub core: usize,
    /// The thread's domain.
    pub domain: DomainId,
    cfg: PlatformConfig,
    colors: ColorSet,
    /// The thread's VSpace and its ASID, both fixed at thread creation.
    vspace: VSpaceId,
    asid: Asid,
}

impl UserEnv {
    /// Build an environment for a thread (used by the system builder).
    ///
    /// # Panics
    /// Panics if `tcb` is not a live thread.
    #[must_use]
    pub fn new(
        ctl: Arc<SimCtl>,
        tcb: TcbId,
        core: usize,
        domain: DomainId,
        cfg: PlatformConfig,
        colors: ColorSet,
    ) -> Self {
        let (vspace, asid) = {
            let g = ctl.inner.lock();
            let t = g.kernel.tcbs.get(tcb.0).expect("live thread");
            let asid = g.kernel.vspaces.get(t.vspace.0).expect("live vspace").asid;
            (t.vspace, asid)
        };
        UserEnv {
            ctl,
            tcb,
            core,
            domain,
            cfg,
            colors,
            vspace,
            asid,
        }
    }

    /// Platform configuration.
    #[must_use]
    pub fn platform(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The domain's page colours.
    #[must_use]
    pub fn my_colors(&self) -> ColorSet {
        self.colors
    }

    fn wait_turn<'a>(&self, g: &mut parking_lot::MutexGuard<'a, SimInner>) {
        loop {
            if g.stop {
                std::panic::panic_any(SimExit);
            }
            if g.kernel.cores[self.core].cur == Some(self.tcb) && g.token == self.core {
                return;
            }
            if !g.any_current() {
                g.idle_advance();
                g.rotate_token();
                continue;
            }
            // Hand the host thread back to the driver. The simulation lock
            // is released for the duration of the suspend (the driver takes
            // it to pick the next task) and re-acquired before the
            // predicate is re-checked. Watchdog duties live in the driver's
            // decide loop.
            g.unlocked(tp_exec::suspend);
        }
    }

    /// The armed-stall endgame: hold the simulated core without yielding,
    /// sleeping off-lock between checks. The driver never regains control,
    /// so the watchdog deadline is checked here: the loop exits only when
    /// the deadline passes (or the simulation already stopped).
    fn stall_loop(&self) -> ! {
        loop {
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut g = self.ctl.inner.lock();
            if g.stop {
                std::panic::panic_any(SimExit);
            }
            if let Some(d) = g.deadline {
                if std::time::Instant::now() >= d {
                    g.stop = true;
                    if g.error.is_none() {
                        g.error = Some(
                            "watchdog: environment stopped yielding (wall-clock \
                             deadline exceeded)"
                                .to_string(),
                        );
                    }
                    std::panic::panic_any(SimExit);
                }
            }
        }
    }

    fn op<R>(&self, f: impl FnOnce(&mut SimInner) -> R) -> R {
        let mut g = self.ctl.inner.lock();
        self.wait_turn(&mut g);
        let r = f(&mut g);
        g.process_due(self.core);
        if !g.any_current() {
            g.idle_advance();
        }
        g.rotate_token();
        r
    }

    /// Read the cycle counter (models `rdtsc` / `PMCCNTR`, including its
    /// cost and a little jitter).
    pub fn now(&self) -> u64 {
        self.op(|g| {
            let j = g.machine.rng().below(3);
            g.machine.advance(self.core, 20 + j);
            g.machine.cycles(self.core)
        })
    }

    /// Translate through the thread's page table.
    ///
    /// # Panics
    /// Panics on a page fault, like real attack code would.
    fn translate_in(&self, g: &SimInner, va: VAddr) -> PAddr {
        g.kernel
            .vspaces
            .get(self.vspace.0)
            .expect("live vspace")
            .map
            .translate(va)
            .unwrap_or_else(|| panic!("page fault at {va:?}"))
    }

    /// Load from a user virtual address; returns the access latency in
    /// cycles (what a real attacker measures with two counter reads).
    pub fn load(&self, va: VAddr) -> u64 {
        self.op(|g| {
            let pa = self.translate_in(g, va);
            g.machine
                .data_access(self.core, self.asid, va, pa, false, false)
        })
    }

    /// Store to a user virtual address; returns the latency.
    pub fn store(&self, va: VAddr) -> u64 {
        self.op(|g| {
            let pa = self.translate_in(g, va);
            g.machine
                .data_access(self.core, self.asid, va, pa, true, false)
        })
    }

    /// Fetch/execute an instruction at a user virtual address.
    pub fn exec(&self, va: VAddr) -> u64 {
        self.op(|g| {
            let pa = self.translate_in(g, va);
            g.machine.insn_fetch(self.core, self.asid, va, pa, false)
        })
    }

    /// The per-access epilogue of a batched sweep, mirroring the tail of
    /// [`UserEnv::op`]: deliver due events, skip idle time and rotate the
    /// cross-core token.
    fn sweep_tail(&self, g: &mut SimInner) {
        g.process_due(self.core);
        if !g.any_current() {
            g.idle_advance();
        }
        g.rotate_token();
    }

    /// Re-check admission before the next access of a sweep (the batched
    /// equivalent of the `wait_turn` at the top of every scalar op).
    fn resume_turn(&self, g: &mut parking_lot::MutexGuard<'_, SimInner>) {
        if g.stop || g.kernel.cores[self.core].cur != Some(self.tcb) || g.token != self.core {
            self.wait_turn(g);
        }
    }

    /// Sweep fast-path state: whether this thread is the only runnable one
    /// (so token rotation and idle skipping are provably no-ops) and the
    /// cycle at which the epilogue next has real work (the earliest due
    /// event or the cycle budget). Until that trigger, the full per-line
    /// epilogue would do exactly nothing — events are only created *by*
    /// event handlers and syscalls, neither of which can run between the
    /// lines of a sweep — so skipping it is bit-equivalent to the scalar
    /// path.
    fn sweep_fast_state(&self, g: &SimInner) -> (bool, u64) {
        let single = g.kernel.cores.iter().filter(|c| c.cur.is_some()).count() == 1;
        let trigger = g
            .next_event_cycle(self.core)
            .unwrap_or(u64::MAX)
            .min(g.max_cycles);
        (single, trigger)
    }

    /// The gate between two timed steps of a sweep: what the scalar path
    /// does between two env ops (the epilogue of one, the admission check
    /// of the next), skipped while `fast` (from
    /// [`UserEnv::sweep_fast_state`]) proves it a no-op.
    #[inline]
    fn sweep_step(&self, g: &mut parking_lot::MutexGuard<'_, SimInner>, fast: &mut (bool, u64)) {
        if !fast.0 || g.machine.cycles(self.core) >= fast.1 {
            self.sweep_tail(g);
            self.resume_turn(g);
            *fast = self.sweep_fast_state(g);
        }
    }

    /// Precompute a probe sweep over `vas`: translate every address and
    /// build the simulator-side [`SweepPlan`] (with the instruction-side L1
    /// geometry when `insn`). One untimed environment operation, however
    /// long the list.
    #[must_use]
    pub fn build_plan(&self, vas: &[VAddr], insn: bool) -> EnvPlan {
        self.op(|g| {
            let pas: Vec<PAddr> = vas.iter().map(|&va| self.translate_in(g, va)).collect();
            EnvPlan {
                plan: g.machine.plan_sweep(insn, &pas),
            }
        })
    }

    /// Run the first `n` lines of a precomputed probe sweep, taking the
    /// simulation lock and the scheduler turn **once** for the whole sweep
    /// instead of once per line. Returns the total latency; per-line
    /// latencies are appended to `costs` when provided.
    ///
    /// Semantics are identical to issuing the lines as scalar
    /// [`UserEnv::load`]/[`UserEnv::store`]/[`UserEnv::exec`] calls — due
    /// events are still delivered between lines and the cross-core window
    /// token still rotates — only the lock/turn bookkeeping is hoisted out
    /// of the loop. The workspace property tests pin this equivalence
    /// bit-for-bit.
    pub fn probe_batch(
        &self,
        plan: &EnvPlan,
        n: usize,
        write: bool,
        mut costs: Option<&mut Vec<u64>>,
    ) -> u64 {
        let lines = &plan.plan.lines()[..n.min(plan.plan.len())];
        if lines.is_empty() {
            return 0;
        }
        let insn = plan.plan.is_insn();
        let mut g = self.ctl.inner.lock();
        self.wait_turn(&mut g);
        let mut total = 0u64;
        let mut fast = self.sweep_fast_state(&g);
        for (i, ln) in lines.iter().enumerate() {
            if i > 0 {
                self.sweep_step(&mut g, &mut fast);
            }
            let (c, _) = g
                .machine
                .access_planned(self.core, self.asid, ln, write, false, insn);
            total += c;
            if let Some(costs) = costs.as_deref_mut() {
                costs.push(c);
            }
        }
        self.sweep_tail(&mut g);
        total
    }

    /// Run a mixed load/store sweep (`true` = store) with `compute` pure
    /// cycles after each access, under a single lock/turn acquisition.
    /// Returns the total access latency (compute cycles excluded, as with
    /// scalar [`UserEnv::compute`]). Bit-identical to the scalar
    /// [`UserEnv::load`]/[`UserEnv::store`]/[`UserEnv::compute`] sequence.
    pub fn access_sweep(&self, ops: &[(VAddr, bool)], compute: u64) -> u64 {
        let mut g = self.ctl.inner.lock();
        self.wait_turn(&mut g);
        let mut total = 0u64;
        let mut fast = self.sweep_fast_state(&g);
        for (i, &(va, write)) in ops.iter().enumerate() {
            if i > 0 {
                self.sweep_step(&mut g, &mut fast);
            }
            let pa = self.translate_in(&g, va);
            total += g
                .machine
                .data_access(self.core, self.asid, va, pa, write, false);
            if compute > 0 {
                self.sweep_step(&mut g, &mut fast);
                g.machine.advance(self.core, compute);
            }
        }
        self.sweep_tail(&mut g);
        total
    }

    /// Execute a branch instruction; returns its latency.
    pub fn branch(&self, pc: VAddr, target: VAddr, taken: bool, conditional: bool) -> u64 {
        self.op(|g| g.machine.branch(self.core, pc, target, taken, conditional))
    }

    /// Pure computation for `n` cycles.
    pub fn compute(&self, n: u64) {
        self.op(|g| g.machine.advance(self.core, n));
    }

    /// Map `n` fresh pages of the domain's (coloured) memory; returns the
    /// base VA and backing frames. Untimed setup operation.
    ///
    /// # Panics
    /// Panics if the domain pool is exhausted.
    pub fn map_pages(&self, n: usize) -> (VAddr, Vec<u64>) {
        self.op(|g| {
            g.kernel
                .map_user_pages(self.tcb, n)
                .expect("domain pool exhausted")
        })
    }

    /// Translation oracle: the physical address behind a user VA.
    ///
    /// Real attackers recover this information with timing-based
    /// eviction-set construction (e.g. Liu et al. (2015)); the oracle
    /// stands in for that untimed profiling phase.
    #[must_use]
    pub fn translate(&self, va: VAddr) -> PAddr {
        self.op(|g| self.translate_in(g, va))
    }

    /// Issue a system call. Blocking calls return when the thread is next
    /// scheduled with the delivered value.
    ///
    /// # Errors
    /// Kernel errors (bad capability, rights, types) are returned verbatim.
    pub fn syscall(&self, sys: Syscall) -> Result<u64, KernelError> {
        let mut stall_after = None;
        let ret = self.op(|g| {
            match g.env_fault_tick() {
                Some(EnvFault::Panic(n)) => panic!("injected fault: env-panic at syscall {n}"),
                Some(EnvFault::Stall(n)) => stall_after = Some(n),
                Some(EnvFault::StackSmash(n)) => smash_stack(n),
                None => {}
            }
            let SimInner {
                machine, kernel, ..
            } = g;
            let out = kernel.syscall(machine, self.core, self.tcb, sys);
            if let Some((at, irq)) = out.arm_timer {
                g.push_event(self.core, at, EvKind::Timer { irq });
            }
            out.ret
        });
        if stall_after.is_some() {
            // The injected stall: the syscall completed, but the environment
            // never hands control back to the program.
            self.stall_loop();
        }
        match ret {
            SysReturn::Val(v) => Ok(v),
            SysReturn::Err(e) => Err(e),
            SysReturn::Blocked => Ok(self.wait_unblocked()),
        }
    }

    fn wait_unblocked(&self) -> u64 {
        let mut g = self.ctl.inner.lock();
        self.wait_turn(&mut g);
        debug_assert_eq!(
            g.kernel.tcbs.get(self.tcb.0).map(|t| t.state),
            Some(ThreadState::Ready)
        );
        g.kernel.tcbs.get(self.tcb.0).expect("live thread").ipc_msg
    }

    /// Yield the rest of the slice within the domain.
    pub fn yield_now(&self) {
        let _ = self.syscall(Syscall::Yield);
    }

    /// Sleep until the domain's next time slot.
    pub fn sleep_slice(&self) {
        let _ = self.syscall(Syscall::SleepSlice);
    }

    /// Spin on the cycle counter until this thread is preempted (or another
    /// kernel event interrupts it) and then rescheduled.
    ///
    /// Returns `(gap_start, resume)`: the cycle at which the thread lost
    /// the core and the cycle at which it got it back. This is the O(1)
    /// equivalent of the receiver loop in §5.3.4 ("observes its progress by
    /// monitoring a cycle counter, waiting for a large jump").
    pub fn wait_preempt(&self) -> (u64, u64) {
        // A spinning receiver's loop period: counter jumps smaller than
        // this are indistinguishable from normal execution. Kernel events
        // that consume no observable time (e.g. an interrupt deferred by
        // partitioning) therefore do NOT end the wait.
        const OBSERVABLE: u64 = 150;
        let mut g = self.ctl.inner.lock();
        let mut fault_checked = false;
        loop {
            self.wait_turn(&mut g);
            if !fault_checked {
                // The wait counts as one environment interaction for the
                // fault plane (ticked after `wait_turn`, so ordinals follow
                // the deterministic simulated schedule, not host threading).
                // Harness environments that never issue explicit syscalls
                // still block here, so env faults reach every real cell.
                fault_checked = true;
                match g.env_fault_tick() {
                    Some(EnvFault::Panic(n)) => {
                        panic!("injected fault: env-panic at syscall {n}")
                    }
                    Some(EnvFault::Stall(_)) => {
                        drop(g);
                        self.stall_loop();
                    }
                    Some(EnvFault::StackSmash(n)) => smash_stack(n),
                    None => {}
                }
            }
            let Some(evc) = g.next_event_cycle(self.core) else {
                // Nothing will ever preempt us: treat as end of simulation.
                g.stop = true;
                std::panic::panic_any(SimExit);
            };
            let now = g.machine.cycles(self.core);
            if now < evc {
                g.machine.advance(self.core, evc - now);
            }
            let before = g.machine.cycles(self.core);
            g.process_due(self.core);
            if !g.any_current() {
                g.idle_advance();
            }
            g.rotate_token();
            if g.kernel.cores[self.core].cur != Some(self.tcb) {
                // Preempted: wait to be scheduled again.
                self.wait_turn(&mut g);
                return (before, g.machine.cycles(self.core));
            }
            let after = g.machine.cycles(self.core);
            if after - before > OBSERVABLE {
                // An in-slice kernel intrusion (e.g. interrupt handling)
                // long enough to show up as a cycle-counter jump.
                return (before, after);
            }
            // Invisible event: keep spinning.
        }
    }

    /// Arm the domain's one-shot timer IRQ (capability index `cap`) to fire
    /// after `us` microseconds.
    ///
    /// # Errors
    /// Propagates kernel errors.
    pub fn set_timer_us(&self, cap: usize, us: f64) -> Result<u64, KernelError> {
        self.syscall(Syscall::SetTimer { cap, us })
    }
}

/// One program to run: (tcb, core, domain, colors, program, primary).
pub type ProgramSpec = (TcbId, usize, DomainId, ColorSet, Box<dyn UserProgram>, bool);

/// Exit bookkeeping for a finished environment: classify the unwind
/// payload (a [`SimExit`] is a normal stop, anything else is the cell's
/// first error), retire the thread in the kernel, count down primaries and
/// stop when none remain, then let the simulation reschedule.
fn finish_program(
    ctl: &SimCtl,
    tcb: TcbId,
    primary: bool,
    payload: Option<Box<dyn std::any::Any + Send>>,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let mut g = ctl.inner.lock();
    if let Some(p) = payload {
        if !p.is::<SimExit>() {
            let (env, msg) = match p.downcast::<EnvPanicPayload>() {
                Ok(ep) => (ep.env, ep.message),
                Err(p) => (
                    tcb.0 as u64,
                    p.downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "environment panicked".to_string()),
                ),
            };
            if msg.starts_with("stack overflow") {
                STACK_OVERFLOWS.fetch_add(1, Relaxed);
            }
            if primary {
                // A dead primary ends the cell: the result it was supposed
                // to produce cannot exist. Surface the error, naming the
                // failing environment.
                g.stop = true;
                if g.error.is_none() {
                    g.error = Some(format!("{msg} (env {env})"));
                }
            } else {
                // A dead daemon is isolated: record the per-env outcome and
                // let the siblings keep running. `thread_exited` below
                // retires it from the scheduler like a normal exit.
                ENV_FAILED.fetch_add(1, Relaxed);
                THREAD_ENV_FAILED.with(|c| c.set(c.get() + 1));
                g.env_failures.push((env, msg));
            }
        }
    }
    let SimInner {
        machine, kernel, ..
    } = &mut *g;
    kernel.thread_exited(machine, tcb);
    if primary {
        g.primaries_left = g.primaries_left.saturating_sub(1);
        if g.primaries_left == 0 {
            g.stop = true;
        }
    }
    if !g.any_current() {
        g.idle_advance();
    }
    g.rotate_token();
}

/// Tag a failing environment's unwind payload with its env id (unless it is
/// a normal [`SimExit`] or already tagged), so everything downstream —
/// [`finish_program`], `Coro::take_panic`, supervisor quarantine records —
/// can name the env.
fn wrap_env_payload(tcb: TcbId, p: Box<dyn std::any::Any + Send>) -> Box<dyn std::any::Any + Send> {
    if p.is::<SimExit>() || p.is::<EnvPanicPayload>() {
        return p;
    }
    let message = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "environment panicked".to_string());
    Box::new(EnvPanicPayload {
        env: tcb.0 as u64,
        message,
    })
}

/// One environment task owned by the driver.
struct CoopTask {
    /// The coroutine; `None` once it completed. Dropping it at once frees
    /// its stack: a stopping fleet unwinds thousands of environments, and
    /// each unwind touches stack pages.
    coro: Option<tp_exec::Coro>,
    tcb: TcbId,
    primary: bool,
}

/// The driver's task table.
struct CoopState {
    tasks: Vec<CoopTask>,
    /// `tcb.0` → task index, for the driver's admission lookup.
    by_tcb: Vec<Option<usize>>,
    /// Tasks not yet run to completion.
    remaining: usize,
}

impl CoopState {
    fn task_of(&self, tcb: TcbId) -> Option<usize> {
        self.by_tcb.get(tcb.0).copied().flatten()
    }
}

/// What the driver decided to do next.
enum Pick {
    /// Resume the task at this index.
    Run(usize),
    /// Every task has completed; the executor is done.
    Done,
}

/// Choose the next task as a pure function of simulation state: the thread
/// the kernel has scheduled on the token-holding core. Advances idle time
/// and rotates the token while no environment is admissible, and owns the
/// wall-clock watchdog when a deadline is armed.
/// Once the simulation stops, drains the remaining tasks in ascending index
/// order so each unwinds (via [`SimExit`] at its next admission check) and
/// releases its resources.
fn coop_decide(g: &mut SimInner, st: &CoopState) -> Pick {
    loop {
        if st.remaining == 0 {
            return Pick::Done;
        }
        if g.stop {
            let idx = st
                .tasks
                .iter()
                .position(|t| t.coro.is_some())
                .expect("remaining > 0 implies an unfinished task");
            return Pick::Run(idx);
        }
        if let Some(d) = g.deadline {
            if std::time::Instant::now() >= d {
                g.stop = true;
                if g.error.is_none() {
                    g.error = Some(
                        "watchdog: wall-clock deadline exceeded with no \
                         scheduling progress"
                            .to_string(),
                    );
                }
                continue;
            }
        }
        let token = g.token;
        if let Some(tcb) = g.kernel.cores[token].cur {
            match st.task_of(tcb).filter(|&i| st.tasks[i].coro.is_some()) {
                Some(idx) => return Pick::Run(idx),
                None => {
                    // A scheduled thread with no live task violates the
                    // executor invariant (threads retire via
                    // `thread_exited` before their task completes).
                    // Degrade to a clean stop instead of spinning.
                    g.stop = true;
                    if g.error.is_none() {
                        g.error = Some("executor: scheduled thread has no live task".to_string());
                    }
                    continue;
                }
            }
        }
        if !g.any_current() {
            // May stop the simulation (permanently idle / cycle budget).
            g.idle_advance();
            g.rotate_token();
            continue;
        }
        // The token core is inactive but some core is running: the rotate
        // moves the token to the laggard active core, so the next iteration
        // finds a scheduled thread there. In a healthy simulation that move
        // is unconditional (the laggard scan only considers active cores,
        // and the token core is not one of them) — so a rotate that leaves
        // the token where it was proves the scheduler is wedged: no
        // environment can ever be admitted again. Classify immediately and
        // deterministically, from simulation state alone, instead of
        // hanging until the wall-clock watchdog.
        let before = g.token;
        g.rotate_token();
        if g.token == before {
            let waiting: Vec<u64> = st
                .tasks
                .iter()
                .filter(|t| t.coro.is_some())
                .map(|t| t.tcb.0 as u64)
                .collect();
            g.note_deadlock(waiting);
        }
    }
}

/// Run the set of programs to completion on the calling thread and return
/// the final state.
///
/// The driver loop: decide the next admissible task under the simulation
/// lock, resume its coroutine with the lock released (the task re-acquires
/// it inside its env ops and releases it across suspends), and on
/// completion run the exit bookkeeping. The simulation stops when all
/// primary programs finish, `max_cycles` elapses, or the system goes
/// permanently idle.
#[must_use]
pub fn run_programs(ctl: Arc<SimCtl>, programs: Vec<ProgramSpec>) -> Arc<SimCtl> {
    install_quiet_panic_hook();
    if programs.is_empty() {
        return ctl;
    }
    let cfg = {
        let mut g = ctl.inner.lock();
        g.primaries_left = programs.iter().filter(|p| p.5).count();
        g.machine.cfg
    };
    let mut tasks = Vec::with_capacity(programs.len());
    let mut by_tcb: Vec<Option<usize>> = Vec::new();
    for (idx, (tcb, core, domain, colors, mut prog, primary)) in programs.into_iter().enumerate() {
        let ctl2 = Arc::clone(&ctl);
        let coro = tp_exec::Coro::new(move || {
            let mut env = UserEnv::new(ctl2, tcb, core, domain, cfg, colors);
            // Catch-and-retag so the payload crossing `take_panic` names
            // the env; `wrap_env_payload` passes SimExit through untouched.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prog.run(&mut env)));
            if let Err(p) = r {
                std::panic::resume_unwind(wrap_env_payload(tcb, p));
            }
        });
        if by_tcb.len() <= tcb.0 {
            by_tcb.resize(tcb.0 + 1, None);
        }
        by_tcb[tcb.0] = Some(idx);
        tasks.push(CoopTask {
            coro: Some(coro),
            tcb,
            primary,
        });
    }
    let remaining = tasks.len();
    let mut st = CoopState {
        tasks,
        by_tcb,
        remaining,
    };
    loop {
        // The guard must be gone before the resume: the task takes the
        // simulation lock itself inside its env ops.
        let pick = coop_decide(&mut ctl.inner.lock(), &st);
        let Pick::Run(idx) = pick else { break };
        // Runs until the task suspends in `wait_turn` (no longer admitted)
        // or completes (return / unwind).
        let t = &mut st.tasks[idx];
        let coro = t.coro.as_mut().expect("the driver picks live tasks only");
        if coro.resume() {
            let payload = coro.take_panic();
            t.coro = None;
            finish_program(&ctl, t.tcb, t.primary, payload);
            st.remaining -= 1;
        }
    }
    ctl
}

fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SimExit>() {
                return;
            }
            default(info);
        }));
    });
}
