//! # tp-bench — the evaluation harness
//!
//! One module per group of results from §5 of the paper; each experiment
//! returns a printable report. `reproduce_all` regenerates every table and
//! figure in one pass ([`reproduce`]; `--only table3` prints one), running
//! every cell of the experiment registry ([`campaign`]) across the
//! platform registry under a supervisor ([`supervise`]), and gates the
//! leak/closed verdicts against a golden file.
//!
//! Sample sizes default to values that finish in minutes; set the
//! environment variable `TP_SAMPLES` (a scale factor, e.g. `0.25` or `4`)
//! to trade precision for time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod channels;
pub mod cli;
pub mod cloud;
pub mod reproduce;
pub mod splash;
pub mod store;
pub mod supervise;
pub mod tables;
pub mod util;
