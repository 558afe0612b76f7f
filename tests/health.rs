//! Executor health plane: fault classification and the deterministic
//! deadlock detector.
//!
//! Three contracts are pinned here, in their own process (fault injection
//! necessarily trips the supervisor's global counters, which
//! `tests/supervision.rs` asserts stay zero in a fault-free process):
//!
//! * **Classification**: the probe-cell `TP_FAULT` classes yield the
//!   supervisor classification of the taxonomy table — including the
//!   `env-stall@N` ordinal, which counts `wait_preempt` interactions.
//! * **Deadlock pin**: a `lost-wakeup` wedge is classified by the driver
//!   as a typed [`tp_core::SimErrorKind::Deadlock`] at one exact, pinned
//!   interaction ordinal — never by the wall-clock watchdog.
//! * **Fault table on registry cells**: each fault class at a low and a
//!   mid ordinal on real registry cells yields one pinned outcome, attempt
//!   count and relation to the healthy reference, and the faults never
//!   leak into a healthy re-run.

use std::time::Duration;
use tp_bench::campaign::{registry, ChannelResult};
use tp_bench::supervise::{pair_cell, probe_cell, run_cell, CellOutcome, CellReport};
use tp_core::{fault, FaultKind, FaultPlan, SimErrorKind};
use tp_sim::Platform;

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

/// A registry cell: experiment name and platform.
type Cell = (&'static str, Platform);

/// The cell CI's faulted `reproduce_all` steps use. It runs on one core,
/// so `lost-wakeup` never fires there.
const TLB: Cell = ("tlb", Platform::Haswell);

/// A cross-core cell: the victim is a daemon on core 1, the spy the
/// primary on core 0, so a swallowed token rotation starves one of them.
const LLC: Cell = ("llc", Platform::Haswell);

/// How a row's results relate to the cell's healthy reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Data {
    /// Byte-identical: the fault never touched the results.
    Reference,
    /// Present but different: the cell completed on degraded data.
    Diverged,
    /// None: the attempt failed.
    Absent,
}

/// Each fault class at a low and a mid ordinal: the fault, the cell it is
/// scoped to, and the pinned outcome, attempt count and data.
#[rustfmt::skip]
const FAULT_TABLE: [(FaultKind, Cell, CellOutcome, u32, Data); 9] = [
    // Interaction 2 lands on the receiver, the primary: the cell panics,
    // and a panic is deterministic, so it is not retried.
    (FaultKind::EnvPanic { at: 2 }, TLB, CellOutcome::Panicked, 1, Data::Absent),
    // Interaction 3 lands on the sender daemon: the cell completes over
    // the survivors (CI's degrade step).
    (FaultKind::EnvPanic { at: 3 }, TLB, CellOutcome::EnvFailed, 1, Data::Diverged),
    (FaultKind::EnvPanic { at: 20 }, TLB, CellOutcome::Panicked, 1, Data::Absent),
    // A stall is the one outcome that depends on the host, so it is
    // retried on the same seeds until the attempts run out.
    (FaultKind::EnvStall { at: 2 }, TLB, CellOutcome::TimedOut, 3, Data::Absent),
    (FaultKind::EnvStall { at: 20 }, TLB, CellOutcome::TimedOut, 3, Data::Absent),
    // One core never rotates the token: the fault is inert.
    (FaultKind::LostWakeup { at: 2 }, TLB, CellOutcome::Ok, 1, Data::Reference),
    (FaultKind::LostWakeup { at: 20 }, TLB, CellOutcome::Ok, 1, Data::Reference),
    // The first rotation is the one that would admit the victim, so the
    // spy's placement poll gives up and the primary panics.
    (FaultKind::LostWakeup { at: 1 }, LLC, CellOutcome::Panicked, 1, Data::Absent),
    // A later wedge starves the victim daemon part way while the spy
    // finishes: no environment fails and nothing deadlocks, so the cell
    // reports `ok` over a shorter victim trace. The supervisor has no
    // signal that tells this apart from a healthy run.
    (FaultKind::LostWakeup { at: 20 }, LLC, CellOutcome::Ok, 1, Data::Diverged),
];

/// The deadline of the `env-stall` rows: each burns it three times.
const STALL_DEADLINE: Duration = Duration::from_millis(400);

/// The deadline of every other row and run, far above a healthy run.
const DEADLINE: Duration = Duration::from_secs(120);

/// Supervise one registry cell, with `plan` armed when given.
fn supervise(cell: Cell, plan: Option<&FaultPlan>, deadline: Duration) -> CellReport {
    let (name, platform) = cell;
    let run = registry()
        .into_iter()
        .find(|d| d.name == name)
        .expect("registry experiment")
        .run;
    run_cell(name, platform.key(), plan, deadline, move || run(platform))
}

/// A cell's rows with every `f64` as its bit pattern, so equality is
/// byte identity rather than numeric equality.
type Bits = Vec<(
    &'static str,
    &'static str,
    &'static str,
    u64,
    u64,
    bool,
    usize,
)>;

/// The [`Bits`] of a cell's rows.
fn bits(channels: &[ChannelResult]) -> Bits {
    channels
        .iter()
        .map(|c| {
            let (value, baseline) = (c.value.to_bits(), c.baseline.to_bits());
            (
                c.channel,
                c.mechanism,
                c.metric,
                value,
                baseline,
                c.leaks,
                c.samples,
            )
        })
        .collect()
}

/// The healthy reference run of `cell`, as bit patterns.
fn healthy(cell: Cell) -> Bits {
    let r = supervise(cell, None, DEADLINE);
    assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
    bits(&r.channels.expect("an ok cell has results"))
}

/// Every row of [`FAULT_TABLE`] classifies exactly as pinned, an `ok` row
/// whose fault never fired is byte-identical to the healthy reference,
/// and healthy re-runs after all the faulted rows still are.
#[test]
fn fault_table_on_registry_cells_is_pinned() {
    // Classification is a property of the supervisor and the cell's
    // interaction order, not of the statistics: the cheapest scale.
    std::env::set_var("TP_SAMPLES", "0.05");
    let cells = [TLB, LLC];
    let reference = cells.map(healthy);

    for (kind, cell, outcome, attempts, data) in FAULT_TABLE {
        let plan = FaultPlan {
            kind,
            cell: Some((cell.0.to_string(), cell.1.key().to_string())),
        };
        let deadline = match kind {
            FaultKind::EnvStall { .. } => STALL_DEADLINE,
            _ => DEADLINE,
        };
        let r = supervise(cell, Some(&plan), deadline);
        let row = format!("{plan}: {:?}", r.error);
        assert_eq!((r.outcome, r.attempts), (outcome, attempts), "{row}");
        let idx = cells.iter().position(|&c| c == cell).expect("table cell");
        let got = match r.channels {
            None => Data::Absent,
            Some(channels) if bits(&channels) == reference[idx] => Data::Reference,
            Some(_) => Data::Diverged,
        };
        assert_eq!(got, data, "{row}");
    }

    for (cell, want) in cells.into_iter().zip(&reference) {
        assert_eq!(
            &healthy(cell),
            want,
            "{}/{} after the faulted rows",
            cell.0,
            cell.1.key()
        );
    }
}
