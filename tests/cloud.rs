//! The `cloud` consolidation scenario at scale: a 1000-environment cell
//! boots, runs and completes under the campaign supervisor on a small
//! runner, with a verdict in the expected direction.

use std::time::Duration;
use tp_bench::cloud::{run_cloud, CloudSpec};
use tp_bench::supervise::{run_cell, CellOutcome};
use tp_core::ProtectionConfig;
use tp_sim::Platform;

/// A 1000-tenant consolidation cell — 1008 simulated environments driven
/// by one host thread — completes under the campaign supervisor's
/// deadline machinery with a healthy outcome. Sample count is kept
/// minimal: this pins scale, not statistics.
#[test]
fn thousand_environment_cell_completes_under_supervisor() {
    let report = run_cell(
        "cloud-scale",
        Platform::Haswell.key(),
        None,
        Duration::from_secs(570),
        || {
            let mut spec = CloudSpec::new(Platform::Haswell, ProtectionConfig::raw(), 1000);
            spec.samples = 12;
            let r = run_cloud(&spec)?;
            assert!(r.completed > 0, "no tenant requests completed at scale");
            Ok(vec![tp_bench::campaign::ChannelResult {
                channel: "cloud",
                mechanism: "raw",
                metric: "M_mb",
                value: r.outcome.verdict.m.millibits(),
                baseline: r.outcome.verdict.m0_millibits(),
                leaks: r.outcome.verdict.leaks,
                samples: r.outcome.dataset.len(),
            }])
        },
    );
    assert_eq!(report.outcome, CellOutcome::Ok, "{:?}", report.error);
    assert_eq!(report.attempts, 1, "healthy cell must not retry");
    let channels = report.channels.expect("Ok report carries channels");
    assert!(channels[0].samples > 0, "empty aggregate dataset");
}

/// The campaign registry carries the cloud experiment on every platform.
#[test]
fn cloud_is_registered_everywhere() {
    let reg = tp_bench::campaign::registry();
    let def = reg
        .iter()
        .find(|d| d.name == "cloud")
        .expect("cloud experiment registered");
    for p in Platform::ALL {
        assert!((def.supports)(p), "{} unsupported", p.key());
    }
}
