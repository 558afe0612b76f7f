//! # time-protection
//!
//! A full reproduction of *Time Protection: The Missing OS Abstraction*
//! (Ge, Yarom, Chothia, Heiser — EuroSys 2019) as a Rust workspace:
//!
//! * [`sim`] — a deterministic micro-architectural timing simulator
//!   (caches, TLBs, branch predictors, prefetchers, sliced LLC, bus) of the
//!   paper's two platforms;
//! * [`core`] — an seL4-style microkernel model with the paper's
//!   time-protection mechanisms: kernel clone, cache colouring, on-core
//!   flush, switch padding, deterministic shared-data access and interrupt
//!   partitioning;
//! * [`analysis`] — the §5.1 measurement methodology (KDE, continuous
//!   mutual information, the zero-leakage shuffle test);
//! * [`attacks`] — every timing channel of §5.3;
//! * [`workloads`] — the Splash-2-style performance study of §5.4.
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and
//! experiment index, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quick start
//!
//! ```
//! use time_protection::prelude::*;
//!
//! // Build a two-domain system with full time protection and run a
//! // program in each domain.
//! let mut b = SystemBuilder::new(Platform::Haswell, ProtectionConfig::protected())
//!     .slice_us(100.0)
//!     .max_cycles(20_000_000);
//! let d0 = b.domain(None);
//! let d1 = b.domain(None);
//! // Every program is an `async` closure; each env op is awaited.
//! b.spawn(d0, 0, 100, async |env: &mut UserEnv| {
//!     let (va, _) = env.map_pages(4).await;
//!     for i in 0..256 {
//!         env.load(tp_sim::VAddr(va.0 + i * 64)).await;
//!     }
//!     // Sit through a couple of preemptions (the other domain runs in
//!     // between, with the full domain-switch path on each boundary).
//!     env.wait_preempt().await;
//!     env.wait_preempt().await;
//! });
//! b.spawn_daemon(d1, 0, 100, async |env: &mut UserEnv| loop {
//!     env.compute(1_000).await;
//! });
//! let report = b.run();
//! assert_eq!(report.stats.clones, 2);
//! assert!(report.stats.domain_switches > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tp_analysis as analysis;
pub use tp_attacks as attacks;
pub use tp_core as core;
pub use tp_sim as sim;
pub use tp_workloads as workloads;

/// The most commonly used types, re-exported.
pub mod prelude {
    pub use tp_analysis::{leakage_test, Dataset};
    pub use tp_core::{FlushMode, ProtectionConfig, Syscall, SystemBuilder, UserEnv};
    pub use tp_sim::{ColorSet, Platform, PlatformConfig, VAddr};
}
