//! Executor health plane: fault classification and the deterministic
//! deadlock detector.
//!
//! Two contracts are pinned here, in their own process (fault injection
//! necessarily trips the supervisor's global counters, which
//! `tests/supervision.rs` asserts stay zero in a fault-free process):
//!
//! * **Classification**: the probe-cell `TP_FAULT` classes yield the
//!   supervisor classification of the taxonomy table — including the
//!   `env-stall@N` ordinal, which counts `wait_preempt` interactions.
//! * **Deadlock pin**: a `lost-wakeup` wedge is classified by the driver
//!   as a typed [`tp_core::SimErrorKind::Deadlock`] at one exact, pinned
//!   interaction ordinal — never by the wall-clock watchdog.

use std::time::Duration;
use tp_bench::supervise::{pair_cell, probe_cell, run_cell, CellOutcome};
use tp_core::{fault, FaultKind, FaultPlan, SimErrorKind};

/// Supervise one probe cell with `kind` armed.
fn classify(kind: FaultKind, seed: u64) -> CellOutcome {
    let plan = FaultPlan::new(kind);
    run_cell(
        "probe",
        "haswell",
        Some(&plan),
        Duration::from_secs(2),
        move || probe_cell(seed),
    )
    .outcome
}

/// The fault classes armed on the probe cell classify as the taxonomy
/// table says. (The executor class, `lost-wakeup`, is pinned below and in
/// the supervise unit tests.)
#[test]
fn probe_cell_fault_classes_classify_per_the_taxonomy() {
    let cases: [(FaultKind, CellOutcome); 2] = [
        (FaultKind::EnvPanic { at: 3 }, CellOutcome::Panicked),
        (FaultKind::EnvStall { at: 3 }, CellOutcome::TimedOut),
    ];
    for (i, (kind, expected)) in cases.into_iter().enumerate() {
        let seed = 0x0D1F_F000 + i as u64;
        let got = classify(kind, seed);
        assert_eq!(
            got,
            expected,
            "{kind} classified {} (expected {})",
            got.name(),
            expected.name(),
        );
    }
}

/// The env-stall ordinal counts interactions: a stall armed *beyond* the
/// cell's interaction count never fires.
#[test]
fn env_stall_ordinal_counts_interactions_identically() {
    let got = classify(FaultKind::EnvStall { at: 1_000_000 }, 0x0D1F_F100);
    assert_eq!(
        got,
        CellOutcome::Ok,
        "an unreachable stall ordinal must be inert"
    );
}

/// The deadlock detector fires deterministically: the waiting environment
/// set and the interaction ordinal are pinned literals (captured from the
/// multi-worker executor this driver replaced), and the message names the
/// ordinal so logs are diffable across hosts.
#[test]
fn lost_wakeup_deadlock_matches_pinned_ordinal() {
    fault::arm(Some(FaultKind::LostWakeup { at: 2 }));
    let r = pair_cell(0x0D1F_F200);
    fault::arm(None);
    let e = r.expect_err("the wedged token must be detected, not completed");
    assert_eq!(
        e.kind,
        SimErrorKind::Deadlock {
            waiting_envs: vec![0],
            at_interaction: 17,
        },
        "{}",
        e.message
    );
    assert_eq!(
        e.message,
        "deadlock: 1 environment(s) suspended with no runnable progress at interaction 17"
    );
}
