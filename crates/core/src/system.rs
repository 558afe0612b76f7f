//! High-level system construction: the role of the initial user process.
//!
//! §3.3: "the initial process separates all free memory into coloured
//! pools, one per domain, clones a kernel for each partition into memory
//! from the domain's pool, starts a child process in each pool, and
//! associates the child with the corresponding kernel image." The
//! [`SystemBuilder`] plays that initial process.

use crate::commit::Commit;
use crate::config::ProtectionConfig;
use crate::engine::{
    run_programs, EnvOutcome, EvKind, SimError, SimErrorKind, SimInner, UserProgram, DEFAULT_WINDOW,
};
use crate::kernel::{EngineMode, Kernel, KernelStats};
use crate::objects::{DomainId, TcbId};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use tp_sim::{ColorSet, Machine, PlatformConfig};

/// Default simulated RAM in frames (128 MiB — ample for every experiment).
pub const DEFAULT_RAM_FRAMES: u64 = 32_768;

/// Default per-domain memory pool in frames.
pub const DEFAULT_DOMAIN_FRAMES: usize = 8_000;

static BOOT_COLD: AtomicU64 = AtomicU64::new(0);
static BOOT_COLD_NANOS: AtomicU64 = AtomicU64::new(0);

/// Process-wide boot accounting: how many systems were booted and the
/// wall-clock nanoseconds booting took. Every boot is cold (built from
/// scratch).
#[derive(Debug, Clone, Copy, Default)]
pub struct BootStats {
    /// Boots built from scratch.
    pub cold_boots: u64,
    /// Always 0: every boot is cold. Kept so existing readers of these
    /// counters still build.
    pub warm_boots: u64,
    /// Total wall-clock nanoseconds spent cold-booting.
    pub cold_nanos: u64,
    /// Always 0, like [`BootStats::warm_boots`].
    pub warm_nanos: u64,
    /// Always 0, like [`BootStats::warm_boots`].
    pub fallback_boots: u64,
}

/// Read the process-wide [`BootStats`] counters.
#[must_use]
pub fn boot_stats() -> BootStats {
    BootStats {
        cold_boots: BOOT_COLD.load(Ordering::Relaxed),
        cold_nanos: BOOT_COLD_NANOS.load(Ordering::Relaxed),
        ..BootStats::default()
    }
}

struct DomainSpec {
    colors: Option<ColorSet>,
    max_frames: usize,
}

struct ThreadSpec {
    domain: usize,
    core: usize,
    prio: u8,
    prog: Box<dyn UserProgram>,
    primary: bool,
}

/// Handle to a domain being described.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainHandle(usize);

/// Post-setup hook: runs after all threads exist, before the simulation
/// starts (grant capabilities, create endpoints, configure padding, ...).
pub type SetupFn = Box<dyn FnOnce(&mut Kernel, &mut Machine, &[TcbId], &[DomainId]) + Send>;

/// The complete fixed shape of a simulated system, as one `Copy` value:
/// everything [`SystemBuilder`]'s chained knobs used to set, minus the
/// per-run payload (domains, programs, setup hook).
///
/// Build one with [`SystemSpec::new`] and adjust fields directly (it is a
/// plain data struct), then hand it to [`SystemBuilder::from_spec`].
/// Experiments that sweep a parameter copy the spec and overwrite one
/// field — no builder re-chaining.
#[derive(Debug, Clone, Copy)]
pub struct SystemSpec {
    /// Hardware platform description (a [`tp_sim::Platform`] key converts
    /// into one).
    pub platform: PlatformConfig,
    /// The time-protection mechanism suite.
    pub prot: ProtectionConfig,
    /// RNG seed (experiments vary it across runs).
    pub seed: u64,
    /// Preemption time slice in microseconds (paper experiments use 1 ms
    /// or 10 ms).
    pub slice_us: f64,
    /// Simulated RAM size in frames.
    pub ram_frames: u64,
    /// Cross-core interleaving window in cycles (smaller = finer-grained
    /// cross-core timing at more host-side synchronisation cost).
    pub window: u64,
    /// Cycle budget; the simulation stops when it is exceeded.
    pub max_cycles: u64,
    /// Thread scheduling regime: strict domain slots or open (IPC-switched)
    /// scheduling.
    pub scheduling: EngineMode,
}

impl SystemSpec {
    /// A spec with the workspace defaults: seed `0xC0FFEE`, 1 ms slice,
    /// [`DEFAULT_RAM_FRAMES`], [`DEFAULT_WINDOW`], no cycle cap, slotted
    /// scheduling.
    #[must_use]
    pub fn new(platform: impl Into<PlatformConfig>, prot: ProtectionConfig) -> Self {
        SystemSpec {
            platform: platform.into(),
            prot,
            seed: 0xC0FFEE,
            slice_us: 1_000.0,
            ram_frames: DEFAULT_RAM_FRAMES,
            window: DEFAULT_WINDOW,
            max_cycles: u64::MAX,
            scheduling: EngineMode::Slotted,
        }
    }
}

/// Builder for a complete simulated system.
pub struct SystemBuilder {
    spec: SystemSpec,
    domains: Vec<DomainSpec>,
    threads: Vec<ThreadSpec>,
    setup: Option<SetupFn>,
    record_commits: bool,
}

impl SystemBuilder {
    /// Start describing a system with a protection config. Accepts either
    /// a [`tp_sim::Platform`] registry key or a full [`PlatformConfig`] (so
    /// experiments can run on custom hardware descriptions).
    ///
    /// Equivalent to `SystemBuilder::from_spec(SystemSpec::new(platform,
    /// prot))`; the chained knobs below are thin delegating wrappers over
    /// the spec's fields.
    #[must_use]
    pub fn new(platform: impl Into<PlatformConfig>, prot: ProtectionConfig) -> Self {
        Self::from_spec(SystemSpec::new(platform, prot))
    }

    /// Start describing a system from a complete [`SystemSpec`].
    #[must_use]
    pub fn from_spec(spec: SystemSpec) -> Self {
        SystemBuilder {
            spec,
            domains: Vec::new(),
            threads: Vec::new(),
            setup: None,
            record_commits: false,
        }
    }

    /// The spec this builder was configured with (knob calls included).
    #[must_use]
    pub fn spec(&self) -> SystemSpec {
        self.spec
    }

    /// Record a [`Commit`] log for the run (enabled after boot, so the
    /// log covers exactly the post-boot history). The log is returned in
    /// [`SystemReport::commits`].
    #[must_use]
    pub fn record_commits(mut self, on: bool) -> Self {
        self.record_commits = on;
        self
    }

    /// Set the RNG seed (delegates to [`SystemSpec::seed`]).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Set the preemption time slice in microseconds (delegates to
    /// [`SystemSpec::slice_us`]).
    #[must_use]
    pub fn slice_us(mut self, us: f64) -> Self {
        self.spec.slice_us = us;
        self
    }

    /// Cap the simulation length in cycles (delegates to
    /// [`SystemSpec::max_cycles`]).
    #[must_use]
    pub fn max_cycles(mut self, c: u64) -> Self {
        self.spec.max_cycles = c;
        self
    }

    /// Select open (thread-level, IPC-switched) scheduling instead of the
    /// default strict domain slots (delegates to [`SystemSpec::scheduling`]).
    #[must_use]
    pub fn open_scheduling(mut self) -> Self {
        self.spec.scheduling = EngineMode::Open;
        self
    }

    /// Simulated RAM size in frames (delegates to
    /// [`SystemSpec::ram_frames`]).
    #[must_use]
    pub fn ram_frames(mut self, frames: u64) -> Self {
        self.spec.ram_frames = frames;
        self
    }

    /// Cross-core interleaving window in cycles (delegates to
    /// [`SystemSpec::window`]).
    #[must_use]
    pub fn window(mut self, cycles: u64) -> Self {
        self.spec.window = cycles;
        self
    }

    /// Declare a domain. With colouring enabled and `colors == None`, the
    /// available colours are split evenly across declared domains.
    pub fn domain(&mut self, colors: Option<ColorSet>) -> DomainHandle {
        self.domain_sized(colors, DEFAULT_DOMAIN_FRAMES)
    }

    /// Declare a domain with an explicit memory-pool size in frames.
    pub fn domain_sized(&mut self, colors: Option<ColorSet>, max_frames: usize) -> DomainHandle {
        self.domains.push(DomainSpec { colors, max_frames });
        DomainHandle(self.domains.len() - 1)
    }

    /// Spawn a primary program in a domain; the simulation ends when all
    /// primary programs finish.
    pub fn spawn(&mut self, domain: DomainHandle, core: usize, prio: u8, prog: impl UserProgram) {
        self.threads.push(ThreadSpec {
            domain: domain.0,
            core,
            prio,
            prog: Box::new(prog),
            primary: true,
        });
    }

    /// Spawn a daemon program (victims, idlers): it does not keep the
    /// simulation alive.
    pub fn spawn_daemon(
        &mut self,
        domain: DomainHandle,
        core: usize,
        prio: u8,
        prog: impl UserProgram,
    ) {
        self.threads.push(ThreadSpec {
            domain: domain.0,
            core,
            prio,
            prog: Box::new(prog),
            primary: false,
        });
    }

    /// Install the post-setup hook.
    pub fn setup(&mut self, f: SetupFn) {
        self.setup = Some(f);
    }

    /// Build and run the system to completion.
    ///
    /// # Panics
    /// Panics if a primary program panicked (other than normal shutdown) or
    /// if construction fails (e.g. pool exhaustion). The campaign
    /// supervisor uses [`SystemBuilder::try_run`] instead.
    #[must_use]
    pub fn run(self) -> SystemReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build and run the system to completion, returning a typed error
    /// instead of panicking when a simulated program fails or the engine
    /// watchdog aborts the run.
    ///
    /// Every environment runs as a future polled by the calling thread.
    /// Any [`crate::fault`] plan and deadline armed on that thread is
    /// applied to this run.
    ///
    /// # Errors
    /// [`SimError`] with the first primary failure, deadlock or watchdog
    /// abort.
    ///
    /// # Panics
    /// Still panics if construction itself fails (e.g. pool exhaustion) —
    /// that is a bug in the experiment, not a simulation outcome.
    pub fn try_run(self) -> Result<SystemReport, SimError> {
        let cfg = self.spec.platform;
        let slice_cycles = cfg.us_to_cycles(self.spec.slice_us);
        let boot_start = std::time::Instant::now();
        let armed_fault = crate::fault::armed();

        let mut machine = Machine::new(cfg, self.spec.seed);
        let mut kernel = Kernel::new(cfg, self.spec.prot, self.spec.ram_frames, slice_cycles);

        if self.spec.prot.disable_data_prefetcher {
            for c in &mut machine.cores {
                c.dpf.set_enabled(false);
            }
        }

        // Colour assignment.
        let n_colors = cfg.partition_colors();
        let n_domains = self.domains.len().max(1) as u64;
        let per = (n_colors / n_domains).max(1);
        let mut domain_ids = Vec::new();
        for (i, spec) in self.domains.iter().enumerate() {
            let colors = spec.colors.unwrap_or_else(|| {
                if self.spec.prot.color_userland {
                    let lo = i as u64 * per;
                    ColorSet::range(lo, (lo + per).min(n_colors))
                } else {
                    ColorSet::all(n_colors)
                }
            });
            let d = kernel
                .create_domain(colors, spec.max_frames)
                .expect("domain memory");
            if self.spec.prot.clone_kernel {
                kernel
                    .clone_kernel_for_domain(&mut machine, 0, d)
                    .expect("kernel clone");
            }
            domain_ids.push(d);
        }

        if let Some(pad_us) = self.spec.prot.pad_us {
            let pad = cfg.us_to_cycles(pad_us);
            let ids: Vec<usize> = kernel.images.iter().map(|(i, _)| i).collect();
            for i in ids {
                kernel.set_pad_cycles(crate::objects::ImageId(i), pad);
            }
        }

        // Threads.
        let mut tcbs = Vec::new();
        for spec in &self.threads {
            let d = domain_ids[spec.domain];
            let t = kernel
                .create_thread(d, spec.core, spec.prio)
                .expect("thread");
            tcbs.push(t);
        }

        let boot_nanos = u64::try_from(boot_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        BOOT_COLD.fetch_add(1, Ordering::Relaxed);
        BOOT_COLD_NANOS.fetch_add(boot_nanos, Ordering::Relaxed);

        // Recording starts after boot, so the log covers the run proper.
        if self.record_commits {
            kernel.log.enable();
        }

        let specs: Vec<_> = tcbs
            .iter()
            .zip(self.threads)
            .map(|(&t, spec)| {
                (
                    t,
                    spec.core,
                    domain_ids[spec.domain],
                    spec.prog,
                    spec.primary,
                )
            })
            .collect();

        if let Some(setup) = self.setup {
            setup(&mut kernel, &mut machine, &tcbs, &domain_ids);
        }

        // Engine mode + initial schedule per core.
        for core in 0..cfg.cores {
            kernel.cores[core].mode = self.spec.scheduling;
            if kernel.cores[core].slots.is_empty() {
                continue;
            }
            kernel.cores[core].slot_idx = 0;
            let first = kernel.schedule_same_slot(&mut machine, core);
            if let Some(t) = first {
                let (img, dom) = {
                    let tcb = kernel.tcbs.get(t.0).expect("live thread");
                    (tcb.image, tcb.domain)
                };
                kernel.cores[core].cur_domain = Some(dom);
                if img != kernel.cores[core].cur_image {
                    let from = kernel.cores[core].cur_image;
                    kernel.switch_image_fast(&mut machine, core, from, img);
                }
            }
        }

        let mut inner = SimInner::new(machine, kernel, self.spec.window, self.spec.max_cycles);
        if let Some(kind) = armed_fault {
            inner.arm_env_fault(kind);
        }
        // The watchdog deadline: whatever the supervisor armed, or — when a
        // fault is injected without one — a generous default so a chaos run
        // outside the supervisor can still never hang forever.
        inner.deadline = crate::fault::deadline().or_else(|| {
            armed_fault.map(|_| std::time::Instant::now() + std::time::Duration::from_secs(60))
        });
        if self.spec.scheduling == EngineMode::Slotted {
            for core in 0..cfg.cores {
                if !inner.kernel.cores[core].slots.is_empty() {
                    inner.push_event(core, slice_cycles, EvKind::Tick);
                }
            }
        }
        let sim = Rc::new(RefCell::new(inner));

        let programs = specs
            .into_iter()
            .map(|(t, core, d, prog, primary)| {
                let colors = sim.borrow().kernel.domains.get(d.0).expect("domain").colors;
                (t, core, d, colors, prog, primary)
            })
            .collect();

        run_programs(&sim, programs);
        let mut g = sim.borrow_mut();
        // The typed deadlock slot outranks the error string: it carries the
        // waiting-env set and the exact interaction ordinal the detector
        // proved the wedge at.
        if let Some((waiting_envs, at_interaction)) = g.deadlock.take() {
            let message = g.error.take().unwrap_or_else(|| {
                format!(
                    "deadlock: {} environment(s) suspended with no runnable progress \
                     at interaction {at_interaction}",
                    waiting_envs.len()
                )
            });
            return Err(SimError {
                kind: SimErrorKind::Deadlock {
                    waiting_envs,
                    at_interaction,
                },
                message,
            });
        }
        if let Some(e) = g.error.take() {
            return Err(SimError::from_message(e));
        }
        // Per-env outcomes in spawn order: isolated daemon failures are a
        // report property, not a cell error.
        let failures = std::mem::take(&mut g.env_failures);
        let env_outcomes = tcbs
            .iter()
            .map(
                |t| match failures.iter().find(|(env, _)| *env == t.0 as u64) {
                    Some((env, message)) => EnvOutcome::Failed {
                        env: *env,
                        message: message.clone(),
                    },
                    None => EnvOutcome::Completed,
                },
            )
            .collect();
        let cfg = g.machine.cfg;
        let cycles = (0..cfg.cores).map(|c| g.machine.cycles(c)).collect();
        let commits = g.kernel.log.take();
        drop(g);
        // The executor drains every environment before it returns, so the
        // driver holds the last handle and the final kernel moves out.
        let kernel = match Rc::try_unwrap(sim) {
            Ok(sim) => sim.into_inner().kernel,
            Err(sim) => sim.borrow().kernel.clone(),
        };
        Ok(SystemReport {
            cfg,
            stats: kernel.stats,
            cycles,
            domains: domain_ids,
            kernel,
            env_outcomes,
            commits,
        })
    }
}

/// Final state of a simulation run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Platform configuration.
    pub cfg: PlatformConfig,
    /// Kernel statistics.
    pub stats: KernelStats,
    /// Final cycle counters per core.
    pub cycles: Vec<u64>,
    /// The domains, in declaration order.
    pub domains: Vec<DomainId>,
    /// The final kernel state, hashed on demand by
    /// [`SystemReport::state_hash`].
    kernel: Kernel,
    /// Per-environment outcome in spawn order: which environments completed
    /// and which failed in isolation (non-primary panics that did not end
    /// the cell). Multi-tenant scenarios report fleet statistics over the
    /// survivors.
    pub env_outcomes: Vec<EnvOutcome>,
    /// The commit log, when recording was requested with
    /// [`SystemBuilder::record_commits`] (empty otherwise). Engine runs
    /// issue unlogged user-program machine traffic, so this is an audit
    /// trail of kernel mutations, not a replayable image (see
    /// [`mod@crate::replay`]).
    pub commits: Vec<Commit>,
}

impl SystemReport {
    /// [`Kernel::state_hash`] of the final kernel state — the bit-for-bit
    /// fingerprint the executor tests pin. Computed on each call: runs
    /// that never ask pay nothing for it.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        self.kernel.state_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use tp_sim::Platform;

    #[test]
    fn single_thread_runs_to_completion() {
        let done = Arc::new(Mutex::new(0u64));
        let done2 = Arc::clone(&done);
        let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::raw());
        let d = b.domain(None);
        b.spawn(d, 0, 100, async move |env: &mut crate::engine::UserEnv| {
            let (va, _) = env.map_pages(2).await;
            let mut sum = 0;
            for i in 0..64u64 {
                sum += env.load(tp_sim::VAddr(va.0 + i * 64)).await;
            }
            *done2.lock() = sum.max(1);
        });
        let report = b.run();
        assert!(*done.lock() > 0, "program must have run");
        assert!(report.cycles[0] > 0);
    }

    #[test]
    fn two_domains_alternate_with_protection() {
        let log: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected())
            .slice_us(100.0)
            .max_cycles(40_000_000);
        let d0 = b.domain(None);
        let d1 = b.domain(None);
        b.spawn(d0, 0, 100, async move |env: &mut crate::engine::UserEnv| {
            for _ in 0..5 {
                let (gap, resume) = env.wait_preempt().await;
                log2.lock().push((gap, resume));
            }
        });
        b.spawn_daemon(d1, 0, 100, async move |env: &mut crate::engine::UserEnv| {
            loop {
                env.compute(1000).await;
            }
        });
        let report = b.run();
        let log = log.lock();
        assert_eq!(log.len(), 5);
        for (gap, resume) in log.iter() {
            // Offline time ≈ one slice of the other domain plus switch work.
            let offline = resume - gap;
            let slice = report.cfg.us_to_cycles(100.0);
            assert!(offline > slice / 2, "offline {offline} vs slice {slice}");
            assert!(offline < 4 * slice, "offline {offline} vs slice {slice}");
        }
        assert!(report.stats.domain_switches >= 10);
    }

    #[test]
    fn daemon_does_not_block_completion() {
        let mut b = SystemBuilder::new(Platform::Sabre, ProtectionConfig::raw())
            .slice_us(50.0)
            .max_cycles(20_000_000);
        let d = b.domain(None);
        b.spawn(d, 0, 100, async |env: &mut crate::engine::UserEnv| {
            env.compute(10_000).await;
        });
        b.spawn_daemon(d, 0, 100, async |env: &mut crate::engine::UserEnv| loop {
            env.compute(500).await;
        });
        let _ = b.run();
    }

    #[test]
    fn ipc_ping_pong_across_domains_open_mode() {
        use crate::kernel::Syscall;
        use crate::objects::{CapObject, Capability, Rights};
        let count = Arc::new(Mutex::new(0u32));
        let count2 = Arc::clone(&count);
        let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected())
            .max_cycles(200_000_000);
        let d0 = b.domain(None);
        let d1 = b.domain(None);
        b.setup(Box::new(|k, _m, tcbs, domains| {
            let ep = k.create_endpoint(domains[0]).unwrap();
            let cap = Capability {
                obj: CapObject::Endpoint(ep),
                rights: Rights::all(),
            };
            let c0 = k.grant_cap(tcbs[0], cap);
            let c1 = k.grant_cap(tcbs[1], cap);
            assert_eq!(c0, 0);
            assert_eq!(c1, 0);
        }));
        let mut b = b.open_scheduling();
        b.spawn(d0, 0, 100, async move |env: &mut crate::engine::UserEnv| {
            for i in 0..10u64 {
                let r = env.syscall(Syscall::Call { cap: 0, msg: i }).await.unwrap();
                assert_eq!(r, i + 1);
            }
            *count2.lock() = 10;
        });
        b.spawn_daemon(d1, 0, 100, async |env: &mut crate::engine::UserEnv| {
            let first = env.syscall(Syscall::Recv { cap: 0 }).await.unwrap();
            let mut msg = first;
            loop {
                msg = env
                    .syscall(Syscall::ReplyRecv {
                        cap: 0,
                        msg: msg + 1,
                    })
                    .await
                    .unwrap();
            }
        });
        let report = b.run();
        assert_eq!(*count.lock(), 10);
        // First Call goes through the slow path (server not yet waiting);
        // all later Calls and every ReplyRecv hit the fastpath.
        assert!(
            report.stats.ipc_fastpath >= 15,
            "fastpath {}",
            report.stats.ipc_fastpath
        );
    }
}
