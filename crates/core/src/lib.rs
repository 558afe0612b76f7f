//! # tp-core — time protection in an seL4-style microkernel model
//!
//! This crate implements the primary contribution of *Time Protection: The
//! Missing OS Abstraction* (Ge, Yarom, Chothia, Heiser — EuroSys 2019): a
//! suite of mandatory, policy-free kernel mechanisms that prevent
//! micro-architectural timing channels between security domains:
//!
//! * **Kernel clone** ([`kimage`]): a new `Kernel_Image` object type whose
//!   clone operation copies kernel text, read-only data, global data and
//!   stack into user-supplied `Kernel_Memory`, giving every domain a
//!   private kernel in its own page colours (Requirement 2).
//! * **Cache colouring** (allocation from per-domain [`objects::Untyped`]
//!   pools): partitions the physically-indexed caches — and, because all
//!   dynamic kernel memory is user-supplied, all dynamic kernel data.
//! * **On-core flush** and **padding** on domain switch ([`switch`]):
//!   Requirements 1 and 4.
//! * **Deterministic access to residual shared data** ([`layout`],
//!   Requirement 3), with the §4.1 audit encoded.
//! * **Interrupt partitioning** per kernel image (Requirement 5).
//!
//! The kernel runs against the `tp-sim` machine: every system call, tick
//! and switch executes real cache/TLB/predictor traffic, so the kernel
//! itself is a measurable cache actor — the §5.3.1 kernel-image channel
//! falls out of the model rather than being scripted.
//!
//! The [`engine`] executes user programs (coroutines driven by one host
//! thread) against the simulated machine with deterministic scheduling; the
//! [`system`] builder plays the role of seL4's initial user task,
//! partitioning memory into coloured pools and cloning kernels per §3.3.
//!
//! ## Quick start
//!
//! ```
//! use tp_core::{ProtectionConfig, SystemBuilder};
//! use tp_sim::Platform;
//!
//! let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected())
//!     .slice_us(100.0)
//!     .max_cycles(10_000_000);
//! let d0 = b.domain(None); // colours split automatically
//! let d1 = b.domain(None);
//! b.spawn(d0, 0, 100, |env: &mut tp_core::UserEnv| {
//!     let (va, _) = env.map_pages(1);
//!     env.load(va);
//! });
//! b.spawn_daemon(d1, 0, 100, |env: &mut tp_core::UserEnv| loop {
//!     env.compute(1_000);
//! });
//! let report = b.run();
//! assert!(report.cycles[0] > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod config;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod kimage;
pub mod layout;
pub mod objects;
pub mod replay;
pub mod sched;
pub mod switch;
pub mod system;

pub use commit::{Commit, CommitLog, StateHasher};
pub use config::{FlushMode, ProtectionConfig};
pub use engine::{
    health_stats, EnvOutcome, EnvPanicPayload, EnvPlan, HealthStats, SimCtl, SimError,
    SimErrorKind, SimInner, UserEnv, UserProgram,
};
pub use fault::{FaultKind, FaultPlan};
pub use kernel::{EngineMode, FootKind, Kernel, KernelError, SysReturn, Syscall};
pub use objects::{CapObject, Capability, DomainId, ImageId, Rights, TcbId, ThreadState};
pub use replay::{replay, replay_diff, Booted, Divergence, Genesis, ScriptDriver, Snapshot};
pub use system::{boot_stats, BootStats, DomainHandle, SystemBuilder, SystemReport, SystemSpec};
