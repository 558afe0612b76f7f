//! # tp-attacks — the paper's timing-channel attacks
//!
//! Implementations of every covert/side channel evaluated in §5.3 of *Time
//! Protection: The Missing OS Abstraction*, run against the `tp-sim`
//! machine under a `tp-core` kernel:
//!
//! | paper | module | mechanism |
//! |---|---|---|
//! | §5.3.1 / Fig 3 | [`kernel_image`] | covert channel through a shared kernel image's cache footprint |
//! | §5.3.2 / Table 3 | [`cache`], [`tlbchan`], [`branchchan`] | intra-core prime&probe on L1-D, L1-I, L2, TLB, BTB, BHB |
//! | §5.3.3 / Fig 4 | [`llc`], [`elgamal`] | cross-core LLC side channel against square-and-multiply ElGamal |
//! | §5.3.4 / Fig 5, Table 4 | [`flush_latency`] | covert channel through L1 flush write-back latency |
//! | §5.3.5 / Fig 6 | [`interrupt`] | covert channel through timer-interrupt placement |
//! | §2.3/§6.1 (limitation) | [`bus`] | cross-core interconnect covert channel that time protection *cannot* close |
//!
//! Every two-party channel runs through the [`harness`]: the sender
//! encodes a seeded random symbol sequence, the receiver records timing
//! observations, and the harness pairs them by timestamp into a
//! [`tp_analysis::Dataset`] and judges it with the §5.1 leakage test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branchchan;
pub mod bus;
pub mod cache;
pub mod elgamal;
pub mod flush_latency;
pub mod harness;
pub mod interrupt;
pub mod kernel_image;
pub mod llc;
pub mod probe;
pub mod tlbchan;

pub use harness::{ChannelOutcome, IntraCoreSpec, Scenario};
