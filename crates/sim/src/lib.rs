//! # tp-sim — micro-architectural timing simulator
//!
//! Hardware substrate for the reproduction of *Time Protection: The Missing
//! OS Abstraction* (Ge, Yarom, Chothia, Heiser — EuroSys 2019).
//!
//! The paper evaluates its OS mechanisms on two physical platforms (an x86
//! Haswell desktop and an Arm Cortex-A9 "Sabre" board). This crate replaces
//! the silicon with a deterministic, cycle-cost simulator of exactly the
//! micro-architectural state the paper's timing channels exploit:
//!
//! * set-associative, write-back **caches** (L1-D, L1-I, L2, sliced LLC)
//!   with dirty-line accounting ([`cache`]);
//! * **TLBs** (I-TLB, D-TLB, unified second-level TLB) with ASID tagging and
//!   global mappings ([`tlb`]);
//! * **branch predictors** — a set-associative BTB and a global-history BHB
//!   with a pattern-history table ([`branch`]);
//! * **prefetcher state machines** — a stream data prefetcher that is *not*
//!   reset by L1 flushes (the source of the paper's residual x86 L2
//!   channel) and a non-disableable instruction prefetcher ([`prefetch`]);
//! * a multi-core **machine** with a shared last-level cache and a
//!   contention-modelled memory bus ([`machine`]);
//! * the **architected flush operations** of both platforms, including the
//!   brittle "manual" L1 flushes the paper has to use on x86 ([`flush`]).
//!
//! Timing-channel attacks measure latency differences caused by competition
//! for this state; the simulator reproduces those differences with seeded
//! pseudo-random noise so every experiment in the paper can be re-run
//! deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assoc;
pub mod branch;
pub mod cache;
pub mod corestate;
pub mod flush;
pub mod machine;
pub mod mem;
pub mod noise;
pub mod params;
pub mod prefetch;
pub mod tlb;

pub use corestate::{AccessKind, CoreState};
pub use machine::{BatchOut, HitLevel, Machine, PlannedLine, SweepPlan};
pub use mem::{color_of_frame, ColorSet, PhysMap, FRAME_SIZE};
pub use noise::NoiseRng;
pub use params::{CacheGeom, Latency, Platform, PlatformConfig, TlbGeom};

/// A virtual address in a simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VAddr(pub u64);

/// A physical address in simulated RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PAddr(pub u64);

impl VAddr {
    /// The virtual page number of this address.
    #[must_use]
    pub fn vpn(self) -> u64 {
        self.0 / FRAME_SIZE
    }

    /// The offset within the page.
    #[must_use]
    pub fn page_offset(self) -> u64 {
        self.0 % FRAME_SIZE
    }
}

impl PAddr {
    /// The physical frame number of this address.
    #[must_use]
    pub fn pfn(self) -> u64 {
        self.0 / FRAME_SIZE
    }
}

/// An address-space identifier, tagging TLB entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asid(pub u16);

impl Asid {
    /// The ASID used by the kernel on platforms with global mappings.
    pub const KERNEL: Asid = Asid(0);
}
