//! The execution engine: deterministic cooperative co-simulation.
//!
//! Each simulated user program runs as a schedulable task, but **all**
//! hardware and kernel interaction goes through the `async` ops of
//! [`UserEnv`], which only admit the task that the simulated kernel has
//! scheduled (and, on multicore, whose core holds the window token).
//! Preemption, blocking IPC and idle-time skipping happen *inside* env
//! calls, so attack code is written as natural straight-line loops reading
//! the simulated cycle counter — exactly like real attack code against real
//! hardware, with an `.await` on every env op.
//!
//! Every environment is a boxed future polled by the host thread that calls
//! [`run_programs`]. Wherever an environment would block — the admission
//! loop at the head of every env op and inside `wait_preempt` — it returns
//! `Pending` to the driver, which picks the next admissible task straight
//! from the kernel's scheduling state. One thread is enough: with a single
//! window token at most one environment is admissible at any instant, so
//! the simulation is logically serial. An environment costs only its
//! future's state (a few hundred bytes to a few KiB), which is what lets a
//! simulation hold thousands of them (the `cloud` scenario).
//!
//! Determinism: the scheduling admission predicate is a pure function of
//! simulation state, all randomness is seeded, and cross-core interleaving
//! is quantised to a fixed cycle window.

use crate::kernel::{Kernel, KernelError, SysReturn, Syscall};
use crate::objects::{DomainId, TcbId, ThreadState, VSpaceId};
use std::cell::{RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use tp_sim::{Asid, ColorSet, Machine, PAddr, PlatformConfig, SweepPlan, VAddr};

/// Default cross-core interleaving window (cycles).
pub const DEFAULT_WINDOW: u64 = 4_000;

/// Admissions between two watchdog clock reads in [`UserEnv::turn`], so an
/// environment that never suspends is still watched at a negligible cost.
const WATCHDOG_EVERY: u64 = 1024;

/// Why a failed simulation failed — the typed form of what used to be a
/// bare panic out of [`crate::SystemBuilder::run`]. The engine sets the
/// kind where it detects the failure; nothing classifies by the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Broad classification (drives the campaign supervisor's retry and
    /// quarantine decisions).
    pub kind: SimErrorKind,
    /// The failing environment's panic message or the engine's abort note
    /// (watchdog, executor invariant), for people to read.
    pub message: String,
}

/// Classification of a [`SimError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimErrorKind {
    /// A primary simulated program (or the kernel under it) panicked, or
    /// the driver found a broken executor invariant.
    ProgramPanic,
    /// The engine watchdog aborted the cell: its wall-clock deadline
    /// passed, whether the environments kept suspending or not.
    Watchdog,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            SimErrorKind::ProgramPanic => write!(f, "simulated program failed: {}", self.message),
            SimErrorKind::Watchdog => write!(f, "{}", self.message),
        }
    }
}

/// Process-wide executor health counters, cumulative since process start.
/// Consumers read them before and after a run and diff (as with
/// `boot_stats`), because campaign cells share one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthStats {
    /// Environments that failed in isolation (non-primary panic) while
    /// their siblings kept running.
    pub env_failed: u64,
    /// Always 0: no fault can wedge the scheduler token, so the engine has
    /// no deadlock class. Kept so existing readers of these counters still
    /// build.
    pub deadlocks: u64,
    /// Always 0: environments are futures and have no stacks to overflow.
    /// Kept so existing readers of these counters still build.
    pub stack_overflows: u64,
}

static ENV_FAILED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

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
        deadlocks: 0,
        stack_overflows: 0,
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

/// Per-environment completion outcome, carried in `SystemReport` in spawn
/// order so multi-tenant scenarios can report fleet statistics over
/// survivors instead of quarantining the whole cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvOutcome {
    /// The environment ran to completion (or was dropped in a normal stop).
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
    /// First failure of the run, typed where it was detected: a failed
    /// primary, a watchdog abort or a broken executor invariant. Later
    /// failures never overwrite it.
    pub error: Option<SimError>,
    /// Wall-clock deadline for the watchdog: when set, the simulation is
    /// aborted once it passes, checked by the driver, every
    /// `WATCHDOG_EVERY`-th admission in `UserEnv::turn` and by an
    /// environment stalled in `UserEnv::stall`. `None` (the default) keeps
    /// the hot path free of clock reads.
    pub deadline: Option<std::time::Instant>,
    /// Admissions granted by `UserEnv::turn`, for the watchdog's cadence.
    admissions: u64,
    /// Injected fault: panic on this (1-based) global syscall ordinal.
    fault_panic_at: Option<u64>,
    /// Injected fault: stop yielding after this (1-based) syscall ordinal.
    fault_stall_at: Option<u64>,
    /// Syscalls and preemption waits executed so far — counted at
    /// execution time, so the fault ordinals are schedule-deterministic.
    syscalls_seen: u64,
    /// Environments that failed in isolation, in failure order:
    /// `(env id, panic message)`. The cell keeps running.
    pub(crate) env_failures: Vec<(u64, String)>,
    seq: u64,
}

/// Action an armed environment fault demands at the current syscall.
enum EnvFault {
    /// Panic inside the engine op (unwinds out of the environment's
    /// future into the driver).
    Panic(u64),
    /// Return normally, then stop yielding (hold the driver thread until
    /// the watchdog fires).
    Stall,
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
            admissions: 0,
            fault_panic_at: None,
            fault_stall_at: None,
            syscalls_seen: 0,
            env_failures: Vec::new(),
            seq: 0,
        }
    }

    /// Arm an environment fault.
    pub fn arm_env_fault(&mut self, kind: crate::fault::FaultKind) {
        match kind {
            crate::fault::FaultKind::EnvPanic { at } => self.fault_panic_at = Some(at.max(1)),
            crate::fault::FaultKind::EnvStall { at } => self.fault_stall_at = Some(at.max(1)),
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
            return Some(EnvFault::Stall);
        }
        None
    }

    /// Stop the simulation, keeping the first failure: a later one (say,
    /// the watchdog firing while a failed primary's siblings drain) never
    /// overwrites it.
    pub(crate) fn fail(&mut self, kind: SimErrorKind, message: impl Into<String>) {
        self.stop = true;
        let message = message.into();
        self.error.get_or_insert(SimError { kind, message });
    }

    /// The watchdog: whether the armed wall-clock deadline has passed, in
    /// which case the run stops as [`SimErrorKind::Watchdog`] with
    /// `message`. Reads the clock only when a deadline is armed.
    fn watchdog_expired(&mut self, message: &str) -> bool {
        let expired = self
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d);
        if expired {
            self.fail(SimErrorKind::Watchdog, message);
        }
        expired
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
            if self.token != lidx {
                self.token = lidx;
                self.kernel
                    .log
                    .note(|| crate::commit::Commit::TokenRotate { core: lidx });
            }
            return;
        }
        if self.machine.cycles(self.token) > lcy + self.window && lidx != self.token {
            self.token = lidx;
            self.kernel
                .log
                .note(|| crate::commit::Commit::TokenRotate { core: lidx });
        }
    }
}

/// A running simulated program: the future the driver polls.
pub type EnvFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A user program: the body of a simulated thread.
///
/// Every `async` closure taking `&mut UserEnv` is one:
/// `async move |env: &mut UserEnv| { env.compute(100).await; }`.
pub trait UserProgram: 'static {
    /// The future that runs the program to completion against `env`.
    fn start(self: Box<Self>, env: UserEnv) -> EnvFuture;
}

impl<F: AsyncFnOnce(&mut UserEnv) + 'static> UserProgram for F {
    fn start(self: Box<Self>, mut env: UserEnv) -> EnvFuture {
        Box::pin(async move { (*self)(&mut env).await })
    }
}

/// A future that returns `Pending` once, handing the driver thread back,
/// and is ready when polled again.
fn suspend() -> impl Future<Output = ()> {
    let mut yielded = false;
    std::future::poll_fn(move |_| {
        if yielded {
            Poll::Ready(())
        } else {
            yielded = true;
            Poll::Pending
        }
    })
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
    /// The simulation, owned by the driver thread. An op borrows it for
    /// its synchronous body only, never across a suspension, so at most
    /// one borrow is live at any instant.
    sim: Rc<RefCell<SimInner>>,
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
        sim: Rc<RefCell<SimInner>>,
        tcb: TcbId,
        core: usize,
        domain: DomainId,
        cfg: PlatformConfig,
        colors: ColorSet,
    ) -> Self {
        let (vspace, asid) = {
            let g = sim.borrow();
            let t = g.kernel.tcbs.get(tcb.0).expect("live thread");
            let asid = g.kernel.vspaces.get(t.vspace.0).expect("live vspace").asid;
            (t.vspace, asid)
        };
        UserEnv {
            sim,
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

    /// Whether the scheduler admits this thread: it is current on its core
    /// and that core holds the window token.
    fn admitted(&self, g: &SimInner) -> bool {
        g.kernel.cores[self.core].cur == Some(self.tcb) && g.token == self.core
    }

    /// Wait for this thread's turn and borrow the simulation for one step.
    ///
    /// The only suspension point of the engine: while the thread is not
    /// admitted, hand the driver thread back (which picks the next task).
    /// An environment that is always admitted never suspends, so the
    /// driver never runs; every [`WATCHDOG_EVERY`]-th admission checks the
    /// watchdog here instead. Once the simulation stops this never returns
    /// — the driver drops the environment's future instead.
    async fn turn(&self) -> RefMut<'_, SimInner> {
        loop {
            {
                let mut g = self.sim.borrow_mut();
                if !g.stop {
                    if self.admitted(&g) {
                        g.admissions += 1;
                        if !g.admissions.is_multiple_of(WATCHDOG_EVERY)
                            || !g.watchdog_expired(
                                "watchdog: environment never suspended (wall-clock \
                                 deadline exceeded)",
                            )
                        {
                            return g;
                        }
                    } else if !g.any_current() {
                        g.idle_advance();
                        g.rotate_token();
                        continue;
                    }
                }
            }
            suspend().await;
        }
    }

    /// The armed-stall endgame: hold the simulated core without yielding,
    /// sleeping between checks. The driver never regains control, so the
    /// watchdog deadline is checked here; once it passes (or the
    /// simulation already stopped) the environment parks until the driver
    /// drops it.
    async fn stall<T>(&self) -> T {
        loop {
            std::thread::sleep(std::time::Duration::from_millis(10));
            let mut g = self.sim.borrow_mut();
            if g.stop
                || g.watchdog_expired(
                    "watchdog: environment stopped yielding (wall-clock \
                     deadline exceeded)",
                )
            {
                break;
            }
        }
        std::future::pending().await
    }

    /// The epilogue of every timed step: deliver due events, skip idle
    /// time and rotate the cross-core token.
    fn tail(&self, g: &mut SimInner) {
        g.process_due(self.core);
        if !g.any_current() {
            g.idle_advance();
        }
        g.rotate_token();
    }

    async fn op<R>(&self, f: impl FnOnce(&mut SimInner) -> R) -> R {
        let mut g = self.turn().await;
        let r = f(&mut g);
        self.tail(&mut g);
        r
    }

    /// Read the cycle counter (models `rdtsc` / `PMCCNTR`, including its
    /// cost and a little jitter).
    pub async fn now(&self) -> u64 {
        self.op(|g| {
            let j = g.machine.rng().below(3);
            g.machine.advance(self.core, 20 + j);
            g.machine.cycles(self.core)
        })
        .await
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
    pub async fn load(&self, va: VAddr) -> u64 {
        self.op(|g| {
            let pa = self.translate_in(g, va);
            g.machine
                .data_access(self.core, self.asid, va, pa, false, false)
        })
        .await
    }

    /// Store to a user virtual address; returns the latency.
    pub async fn store(&self, va: VAddr) -> u64 {
        self.op(|g| {
            let pa = self.translate_in(g, va);
            g.machine
                .data_access(self.core, self.asid, va, pa, true, false)
        })
        .await
    }

    /// Fetch/execute an instruction at a user virtual address.
    pub async fn exec(&self, va: VAddr) -> u64 {
        self.op(|g| {
            let pa = self.translate_in(g, va);
            g.machine.insn_fetch(self.core, self.asid, va, pa, false)
        })
        .await
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
    /// [`UserEnv::sweep_fast_state`]) proves it a no-op. Returns `false`
    /// when the thread lost its turn.
    #[inline]
    fn sweep_step(&self, g: &mut SimInner, fast: &mut (bool, u64)) -> bool {
        if !fast.0 || g.machine.cycles(self.core) >= fast.1 {
            self.tail(g);
            if g.stop || !self.admitted(g) {
                return false;
            }
            *fast = self.sweep_fast_state(g);
        }
        true
    }

    /// Run `steps` timed steps (`step(g, k)` for `k` in order) with the
    /// [`UserEnv::sweep_step`] gate between each two and the epilogue
    /// after the last, waiting in [`UserEnv::turn`] only when the gate
    /// finds the turn lost — the batched equivalent of the admission check
    /// at the top of every scalar op.
    async fn sweep(&self, steps: usize, mut step: impl FnMut(&mut SimInner, usize)) {
        let mut k = 0;
        loop {
            let mut g = self.turn().await;
            let mut fast = self.sweep_fast_state(&g);
            loop {
                if k == steps {
                    self.tail(&mut g);
                    return;
                }
                step(&mut g, k);
                k += 1;
                if k < steps && !self.sweep_step(&mut g, &mut fast) {
                    break;
                }
            }
        }
    }

    /// Precompute a probe sweep over `vas`: translate every address and
    /// build the simulator-side [`SweepPlan`] (with the instruction-side L1
    /// geometry when `insn`). One untimed environment operation, however
    /// long the list.
    #[must_use]
    pub async fn build_plan(&self, vas: &[VAddr], insn: bool) -> EnvPlan {
        self.op(|g| {
            let pas: Vec<PAddr> = vas.iter().map(|&va| self.translate_in(g, va)).collect();
            EnvPlan {
                plan: g.machine.plan_sweep(insn, &pas),
            }
        })
        .await
    }

    /// Run the first `n` lines of a precomputed probe sweep, taking the
    /// scheduler turn **once** for the whole sweep instead of once per
    /// line. Returns the total latency; per-line latencies are appended to
    /// `costs` when provided.
    ///
    /// Semantics are identical to issuing the lines as scalar
    /// [`UserEnv::load`]/[`UserEnv::store`]/[`UserEnv::exec`] calls — due
    /// events are still delivered between lines and the cross-core window
    /// token still rotates — only the turn bookkeeping is hoisted out of
    /// the loop. The workspace property tests pin this equivalence
    /// bit-for-bit.
    pub async fn probe_batch(
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
        let mut total = 0u64;
        self.sweep(lines.len(), |g, k| {
            let (c, _) = g
                .machine
                .access_planned(self.core, self.asid, &lines[k], write, false, insn);
            total += c;
            if let Some(costs) = costs.as_deref_mut() {
                costs.push(c);
            }
        })
        .await;
        total
    }

    /// Run a mixed load/store sweep (`true` = store) with `compute` pure
    /// cycles after each access, taking the scheduler turn once. Returns
    /// the total access latency (compute cycles excluded, as with scalar
    /// [`UserEnv::compute`]). Bit-identical to the scalar
    /// [`UserEnv::load`]/[`UserEnv::store`]/[`UserEnv::compute`] sequence.
    pub async fn access_sweep(&self, ops: &[(VAddr, bool)], compute: u64) -> u64 {
        // Each op is an access step, then a compute step when `compute > 0`.
        let per_op = if compute > 0 { 2 } else { 1 };
        let mut total = 0u64;
        self.sweep(ops.len() * per_op, |g, k| {
            let (va, write) = ops[k / per_op];
            if k % per_op == 0 {
                let pa = self.translate_in(g, va);
                total += g
                    .machine
                    .data_access(self.core, self.asid, va, pa, write, false);
            } else {
                g.machine.advance(self.core, compute);
            }
        })
        .await;
        total
    }

    /// Execute a branch instruction; returns its latency.
    pub async fn branch(&self, pc: VAddr, target: VAddr, taken: bool, conditional: bool) -> u64 {
        self.op(|g| g.machine.branch(self.core, pc, target, taken, conditional))
            .await
    }

    /// Pure computation for `n` cycles.
    pub async fn compute(&self, n: u64) {
        self.op(|g| g.machine.advance(self.core, n)).await;
    }

    /// Map `n` fresh pages of the domain's (coloured) memory; returns the
    /// base VA and backing frames. Untimed setup operation.
    ///
    /// # Panics
    /// Panics if the domain pool is exhausted.
    pub async fn map_pages(&self, n: usize) -> (VAddr, Vec<u64>) {
        self.op(|g| {
            g.kernel
                .map_user_pages(self.tcb, n)
                .expect("domain pool exhausted")
        })
        .await
    }

    /// Translation oracle: the physical address behind a user VA.
    ///
    /// Real attackers recover this information with timing-based
    /// eviction-set construction (e.g. Liu et al. (2015)); the oracle
    /// stands in for that untimed profiling phase.
    #[must_use]
    pub async fn translate(&self, va: VAddr) -> PAddr {
        self.op(|g| self.translate_in(g, va)).await
    }

    /// Issue a system call. Blocking calls return when the thread is next
    /// scheduled with the delivered value.
    ///
    /// # Errors
    /// Kernel errors (bad capability, rights, types) are returned verbatim.
    pub async fn syscall(&self, sys: Syscall) -> Result<u64, KernelError> {
        let mut stall = false;
        let ret = self
            .op(|g| {
                match g.env_fault_tick() {
                    Some(EnvFault::Panic(n)) => panic!("injected fault: env-panic at syscall {n}"),
                    Some(EnvFault::Stall) => stall = true,
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
            })
            .await;
        if stall {
            // The injected stall: the syscall completed, but the environment
            // never hands control back to the program.
            return self.stall().await;
        }
        match ret {
            SysReturn::Val(v) => Ok(v),
            SysReturn::Err(e) => Err(e),
            SysReturn::Blocked => Ok(self.wait_unblocked().await),
        }
    }

    async fn wait_unblocked(&self) -> u64 {
        let g = self.turn().await;
        debug_assert_eq!(
            g.kernel.tcbs.get(self.tcb.0).map(|t| t.state),
            Some(ThreadState::Ready)
        );
        g.kernel.tcbs.get(self.tcb.0).expect("live thread").ipc_msg
    }

    /// Yield the rest of the slice within the domain.
    pub async fn yield_now(&self) {
        let _ = self.syscall(Syscall::Yield).await;
    }

    /// Sleep until the domain's next time slot.
    pub async fn sleep_slice(&self) {
        let _ = self.syscall(Syscall::SleepSlice).await;
    }

    /// Spin on the cycle counter until this thread is preempted (or another
    /// kernel event interrupts it) and then rescheduled.
    ///
    /// Returns `(gap_start, resume)`: the cycle at which the thread lost
    /// the core and the cycle at which it got it back. This is the O(1)
    /// equivalent of the receiver loop in §5.3.4 ("observes its progress by
    /// monitoring a cycle counter, waiting for a large jump").
    pub async fn wait_preempt(&self) -> (u64, u64) {
        // A spinning receiver's loop period: counter jumps smaller than
        // this are indistinguishable from normal execution. Kernel events
        // that consume no observable time (e.g. an interrupt deferred by
        // partitioning) therefore do NOT end the wait.
        const OBSERVABLE: u64 = 150;
        // The wait counts as one environment interaction for the fault
        // plane (ticked after the turn, so ordinals follow the
        // deterministic simulated schedule). Harness environments that
        // never issue explicit syscalls still block here, so env faults
        // reach every real cell.
        let fault = self.turn().await.env_fault_tick();
        match fault {
            Some(EnvFault::Panic(n)) => panic!("injected fault: env-panic at syscall {n}"),
            Some(EnvFault::Stall) => return self.stall().await,
            None => {}
        }
        loop {
            let preempted_at = {
                let mut g = self.turn().await;
                let Some(evc) = g.next_event_cycle(self.core) else {
                    // Nothing will ever preempt us: end the simulation (the
                    // next turn never comes).
                    g.stop = true;
                    continue;
                };
                let now = g.machine.cycles(self.core);
                if now < evc {
                    g.machine.advance(self.core, evc - now);
                }
                let before = g.machine.cycles(self.core);
                self.tail(&mut g);
                if g.kernel.cores[self.core].cur != Some(self.tcb) {
                    before
                } else {
                    let after = g.machine.cycles(self.core);
                    if after - before > OBSERVABLE {
                        // An in-slice kernel intrusion (e.g. interrupt
                        // handling) long enough to show up as a
                        // cycle-counter jump.
                        return (before, after);
                    }
                    // Invisible event: keep spinning.
                    continue;
                }
            };
            // Preempted: wait to be scheduled again.
            let resume = self.turn().await.machine.cycles(self.core);
            return (preempted_at, resume);
        }
    }

    /// Arm the domain's one-shot timer IRQ (capability index `cap`) to fire
    /// after `us` microseconds.
    ///
    /// # Errors
    /// Propagates kernel errors.
    pub async fn set_timer_us(&self, cap: usize, us: f64) -> Result<u64, KernelError> {
        self.syscall(Syscall::SetTimer { cap, us }).await
    }
}

/// One program to run: (tcb, core, domain, colors, program, primary).
pub type ProgramSpec = (TcbId, usize, DomainId, ColorSet, Box<dyn UserProgram>, bool);

/// The message of a failing environment's panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "environment panicked".to_string())
}

/// Exit bookkeeping for a finished environment: record its failure (if
/// it panicked), retire the thread in the kernel, count down primaries and
/// stop when none remain, then let the simulation reschedule.
fn finish_program(sim: &RefCell<SimInner>, tcb: TcbId, primary: bool, failure: Option<String>) {
    use std::sync::atomic::Ordering::Relaxed;
    let mut g = sim.borrow_mut();
    if let Some(msg) = failure {
        let env = tcb.0 as u64;
        if primary {
            // A dead primary ends the cell: the result it was supposed
            // to produce cannot exist. Surface the error, naming the
            // failing environment.
            g.fail(SimErrorKind::ProgramPanic, format!("{msg} (env {env})"));
        } else {
            // A dead daemon is isolated: record the per-env outcome and
            // let the siblings keep running. `thread_exited` below
            // retires it from the scheduler like a normal exit.
            ENV_FAILED.fetch_add(1, Relaxed);
            THREAD_ENV_FAILED.with(|c| c.set(c.get() + 1));
            g.env_failures.push((env, msg));
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

/// One environment task owned by the driver.
struct CoopTask {
    /// The program's future; `None` once it finished. Dropping it at once
    /// frees its state.
    fut: Option<EnvFuture>,
    tcb: TcbId,
    primary: bool,
}

/// The driver's task table.
struct CoopState {
    tasks: Vec<CoopTask>,
    /// `tcb.0` → task index, for the driver's admission lookup.
    by_tcb: Vec<Option<usize>>,
    /// Tasks not yet finished.
    remaining: usize,
}

impl CoopState {
    fn task_of(&self, tcb: TcbId) -> Option<usize> {
        self.by_tcb.get(tcb.0).copied().flatten()
    }
}

/// What the driver decided to do next.
enum Pick {
    /// Poll (or, once stopped, drop) the task at this index.
    Run(usize),
    /// Every task has finished; the executor is done.
    Done,
}

/// Choose the next task as a pure function of simulation state: the thread
/// the kernel has scheduled on the token-holding core. Advances idle time
/// and rotates the token while no environment is admissible, and checks
/// the wall-clock watchdog when a deadline is armed.
/// Once the simulation stops, picks the remaining tasks in ascending index
/// order so the driver drops each and retires its thread.
fn coop_decide(g: &mut SimInner, st: &CoopState) -> Pick {
    loop {
        if st.remaining == 0 {
            return Pick::Done;
        }
        if g.stop {
            let idx = st
                .tasks
                .iter()
                .position(|t| t.fut.is_some())
                .expect("remaining > 0 implies an unfinished task");
            return Pick::Run(idx);
        }
        if g.watchdog_expired("watchdog: wall-clock deadline exceeded with no scheduling progress")
        {
            continue;
        }
        let token = g.token;
        if let Some(tcb) = g.kernel.cores[token].cur {
            match st.task_of(tcb).filter(|&i| st.tasks[i].fut.is_some()) {
                Some(idx) => return Pick::Run(idx),
                None => {
                    // A scheduled thread with no live task violates the
                    // executor invariant (threads retire via
                    // `thread_exited` before their task completes).
                    // Degrade to a clean stop instead of spinning.
                    g.fail(
                        SimErrorKind::ProgramPanic,
                        "executor: scheduled thread has no live task",
                    );
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
        // finds a scheduled thread there. That move is unconditional (the
        // laggard scan only considers active cores, and the token core is
        // not one of them), so a rotate that leaves the token where it was
        // violates the executor invariant. Degrade to a clean stop instead
        // of spinning.
        let before = g.token;
        g.rotate_token();
        if g.token == before {
            g.fail(
                SimErrorKind::ProgramPanic,
                "executor: token rotation left no running core admitted",
            );
        }
    }
}

/// Run the set of programs to completion on the calling thread, leaving
/// the final state in `sim`.
///
/// The driver loop: decide the next admissible task, poll its future
/// (which runs until it returns `Pending` in [`UserEnv`]'s admission loop
/// or finishes), and on completion run the exit bookkeeping. A panic
/// inside a poll is caught and charged to that environment alone. Once the
/// simulation stops — all primary programs finished, `max_cycles`
/// elapsed, the system went permanently idle, or a failure or watchdog
/// ended it — nothing is polled again: the environment that saw the stop
/// is retired first, then the rest in index order, each by dropping its
/// future.
pub fn run_programs(sim: &Rc<RefCell<SimInner>>, programs: Vec<ProgramSpec>) {
    if programs.is_empty() {
        return;
    }
    let cfg = {
        let mut g = sim.borrow_mut();
        g.primaries_left = programs.iter().filter(|p| p.5).count();
        g.machine.cfg
    };
    let mut tasks = Vec::with_capacity(programs.len());
    let mut by_tcb: Vec<Option<usize>> = Vec::new();
    for (idx, (tcb, core, domain, colors, prog, primary)) in programs.into_iter().enumerate() {
        let env = UserEnv::new(Rc::clone(sim), tcb, core, domain, cfg, colors);
        if by_tcb.len() <= tcb.0 {
            by_tcb.resize(tcb.0 + 1, None);
        }
        by_tcb[tcb.0] = Some(idx);
        tasks.push(CoopTask {
            fut: Some(prog.start(env)),
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
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        let pick = coop_decide(&mut sim.borrow_mut(), &st);
        let Pick::Run(idx) = pick else { break };
        let t = &mut st.tasks[idx];
        let fut = t.fut.as_mut().expect("the driver picks live tasks only");
        let failure = if sim.borrow().stop {
            None
        } else {
            let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fut.as_mut().poll(&mut cx)
            }));
            match polled {
                // Suspended in the admission loop: decide again. A task
                // that suspends after the simulation stopped saw the stop
                // itself and is retired at once.
                Ok(Poll::Pending) if !sim.borrow().stop => continue,
                Ok(_) => None,
                Err(payload) => Some(panic_message(payload.as_ref())),
            }
        };
        t.fut = None;
        finish_program(sim, t.tcb, t.primary, failure);
        st.remaining -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtectionConfig, SystemBuilder};
    use std::cell::Cell;
    use tp_sim::Platform;

    #[test]
    fn suspend_is_pending_once_then_ready() {
        let mut cx = Context::from_waker(Waker::noop());
        let mut fut = std::pin::pin!(suspend());
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        assert!(fut.as_mut().poll(&mut cx).is_ready());
    }

    /// Thousands of environments are nothing but futures on the calling
    /// thread: 4096 daemons that each compute, yield and finish, and one
    /// primary that waits for them all, run to completion with no host
    /// thread spawned.
    #[test]
    fn thousands_of_daemons_run_to_completion_on_one_thread() {
        const DAEMONS: usize = 4096;
        let host = std::thread::current().id();
        let done = Rc::new(Cell::new(0usize));
        let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw())
            .max_cycles(4_000_000_000);
        let d = b.domain(None);
        for _ in 0..DAEMONS {
            let done = Rc::clone(&done);
            b.spawn_daemon(d, 0, 100, async move |env: &mut UserEnv| {
                env.compute(1_000).await;
                env.yield_now().await;
                assert_eq!(std::thread::current().id(), host);
                done.set(done.get() + 1);
            });
        }
        let seen = Rc::clone(&done);
        b.spawn(d, 0, 100, async move |env: &mut UserEnv| {
            while seen.get() < DAEMONS {
                env.yield_now().await;
            }
        });
        let report = b.run();
        assert_eq!(done.get(), DAEMONS);
        assert_eq!(report.env_outcomes.len(), DAEMONS + 1);
        assert!(report
            .env_outcomes
            .iter()
            .all(|o| *o == EnvOutcome::Completed));
    }

    /// A panic inside one environment's poll is caught and charged to that
    /// environment alone: the primary keeps running to completion.
    #[test]
    fn panic_in_a_daemon_is_isolated() {
        let finished = Rc::new(Cell::new(false));
        let mut b =
            SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw()).max_cycles(400_000_000);
        let d = b.domain(None);
        b.spawn_daemon(d, 0, 100, async |env: &mut UserEnv| {
            env.yield_now().await;
            panic!("daemon died");
        });
        let flag = Rc::clone(&finished);
        b.spawn(d, 0, 100, async move |env: &mut UserEnv| {
            for _ in 0..4 {
                env.yield_now().await;
            }
            flag.set(true);
        });
        let report = b.try_run().expect("a daemon's death does not end the cell");
        assert!(finished.get());
        assert_eq!(
            report.env_outcomes,
            [
                EnvOutcome::Failed {
                    env: 0,
                    message: "daemon died".to_string()
                },
                EnvOutcome::Completed
            ]
        );
    }

    /// An environment that never suspends is still watched. A lone primary
    /// looping `compute` is admitted on every op, so the driver never runs
    /// again; the armed deadline stops it from `UserEnv::turn`, while the
    /// program is running and far inside its cycle budget.
    #[test]
    fn watchdog_stops_an_environment_that_never_suspends() {
        const BUDGET: u64 = 1_000_000_000;
        let steps = Rc::new(Cell::new(0u64));
        let mut b =
            SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw()).max_cycles(BUDGET);
        let d = b.domain(None);
        let n = Rc::clone(&steps);
        b.spawn(d, 0, 100, async move |env: &mut UserEnv| loop {
            env.compute(10).await;
            n.set(n.get() + 1);
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        crate::fault::set_deadline(Some(deadline));
        let r = b.try_run();
        crate::fault::set_deadline(None);
        let e = r.expect_err("the deadline must stop a never-suspending primary");
        assert_eq!(e.kind, SimErrorKind::Watchdog, "{}", e.message);
        assert!(e.message.contains("never suspended"), "{}", e.message);
        assert!(steps.get() > 0, "stopped before the primary ran");
        assert!(steps.get() * 10 < BUDGET / 2, "{} steps", steps.get());
    }

    /// Once the simulation stops, the unfinished environments are dropped,
    /// never polled again, and their threads retired in spawn order.
    #[test]
    fn stop_drops_unfinished_environments_in_spawn_order() {
        struct Noisy(usize, Rc<RefCell<Vec<usize>>>);
        impl Drop for Noisy {
            fn drop(&mut self) {
                self.1.borrow_mut().push(self.0);
            }
        }
        let dropped = Rc::new(RefCell::new(Vec::new()));
        let mut b =
            SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw()).max_cycles(400_000_000);
        let d = b.domain(None);
        b.spawn(d, 0, 100, async |env: &mut UserEnv| {
            env.compute(1_000).await;
        });
        for i in 1..4 {
            let guard = Noisy(i, Rc::clone(&dropped));
            b.spawn_daemon(d, 0, 100, async move |env: &mut UserEnv| {
                let _guard = guard;
                loop {
                    env.yield_now().await;
                }
            });
        }
        let report = b.run();
        assert_eq!(*dropped.borrow(), [1, 2, 3]);
        assert!(report
            .env_outcomes
            .iter()
            .all(|o| *o == EnvOutcome::Completed));
    }
}
