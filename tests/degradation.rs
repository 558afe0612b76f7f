//! Graceful degradation through `reproduce_all`'s pass: one sick registry
//! cell is quarantined after its one attempt, fails only the sections
//! that read it, and leaves every other section exactly as a clean pass
//! renders it.
//!
//! This file is its own test binary (one process), so the supervisor's
//! process-wide counters see this test's cells and no other suite's.

use tp_bench::reproduce;
use tp_bench::supervise::{self, CellOutcome, SupervisorCounters};
use tp_core::FaultPlan;

/// Fig. 6 reads the one cell the plan makes sick; Tables 1 and 7 run
/// simulations of their own.
const SECTIONS: [&str; 3] = ["table1", "fig6", "table7"];

#[test]
fn a_quarantined_cell_fails_only_the_sections_that_read_it() {
    // The cheapest sample scale: degradation is a property of the
    // supervisor and the pass, not of the statistics.
    std::env::set_var("TP_SAMPLES", "0.05");
    let clean = reproduce::run(&SECTIONS, false, None);
    assert!(clean.quarantine.is_empty() && clean.degraded.is_empty());
    assert_eq!(clean.cells.len(), 1, "fig6 reads interrupt on haswell");
    assert_eq!(supervise::counters(), SupervisorCounters::default());

    // Interaction 3 of interrupt/haswell lands on a primary program, so
    // the attempt panics (interactions 1 and 2 land on daemons, which
    // would only degrade the cell). A panic is deterministic, so it is
    // not retried.
    let plan = FaultPlan::parse("env-panic@3:cell=interrupt/haswell").expect("plan parses");
    let sick = reproduce::run(&SECTIONS, false, Some(&plan));

    let [entry] = sick.quarantine.as_slice() else {
        panic!("expected one quarantined cell: {:?}", sick.quarantine);
    };
    assert_eq!(
        (entry.experiment.as_str(), entry.platform.as_str()),
        ("interrupt", "haswell")
    );
    assert_eq!((entry.outcome, entry.attempts), (CellOutcome::Panicked, 1));
    assert!(entry.error.contains("env-panic"), "{}", entry.error);
    assert!(sick.cells.is_empty() && sick.degraded.is_empty());

    for ((name, got), (clean_name, want)) in sick.sections.iter().zip(&clean.sections) {
        assert_eq!(name, clean_name);
        if *name == "fig6" {
            let why = got.as_ref().expect_err("fig6 reads the quarantined cell");
            assert!(why.contains("interrupt on haswell"), "{why}");
        } else {
            assert_eq!(got, want, "{name} must render as in a clean pass");
        }
    }

    let expected = SupervisorCounters {
        retries: 0,
        panics: 1,
        quarantined: 1,
        ..SupervisorCounters::default()
    };
    assert_eq!(supervise::counters(), expected);
}
