//! Executor health plane: fault classification on the probe cell and on
//! registry cells.
//!
//! Two contracts are pinned here, in their own process (fault injection
//! necessarily trips the supervisor's global counters, which
//! `tests/supervision.rs` asserts stay zero in a fault-free process):
//!
//! * **Classification**: the probe-cell `TP_FAULT` classes yield the
//!   supervisor classification of the taxonomy table — including the
//!   `env-stall@N` ordinal, which counts `wait_preempt` interactions.
//! * **Fault table on registry cells**: each fault class at a low and a
//!   mid ordinal on a single-core and a cross-core registry cell yields
//!   one pinned outcome, attempt count and relation to the healthy
//!   reference, and the faults never leak into a healthy re-run.

use std::time::Duration;
use tp_bench::campaign::{registry, ChannelResult};
use tp_bench::supervise::{probe_cell, run_cell, CellOutcome, CellReport};
use tp_core::{FaultKind, FaultPlan};
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
/// table says.
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

/// A registry cell: experiment name and platform.
type Cell = (&'static str, Platform);

/// The cell CI's faulted `reproduce_all` steps use. It runs on one core.
const TLB: Cell = ("tlb", Platform::Haswell);

/// A cross-core cell: the victim is a daemon on core 1, the spy the
/// primary on core 0. Each of its systems makes three interactions: the
/// spy's two placement polls around the victim's placement signal.
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
    // Interaction 1 is the spy's first placement poll: the primary panics.
    (FaultKind::EnvPanic { at: 1 }, LLC, CellOutcome::Panicked, 1, Data::Absent),
    // Interaction 2 is the victim's placement signal on core 1. The victim
    // daemon dies in isolation, but the spy then never learns its
    // placement and panics, so the cell still fails.
    (FaultKind::EnvPanic { at: 2 }, LLC, CellOutcome::Panicked, 1, Data::Absent),
    // A stall on either core holds the driver thread until the watchdog.
    (FaultKind::EnvStall { at: 1 }, LLC, CellOutcome::TimedOut, 3, Data::Absent),
    (FaultKind::EnvStall { at: 2 }, LLC, CellOutcome::TimedOut, 3, Data::Absent),
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

/// Every row of [`FAULT_TABLE`] classifies exactly as pinned, its results
/// relate to the healthy reference as pinned, and healthy re-runs after
/// all the faulted rows are byte-identical to that reference.
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
