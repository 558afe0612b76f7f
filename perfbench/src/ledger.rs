//! The per-layer ledger of a traced run: every per-layer metric the
//! worker prints, computed from the spans, from counter deltas across the
//! timed section, from the workload's own outputs and from the probes.

use crate::trace::{self_times_ns, union_ns, Span};
use std::collections::BTreeMap;
use tp_bench::supervise::SupervisorCounters;
use tp_core::{BootStats, HealthStats};

/// Every per-layer metric the worker prints; `BENCHMARK.json` gives their
/// units. The layer is the part of the name before the first dot; names
/// without one are simulated results of the workload.
pub const LAYER_METRICS: &[&str] = &[
    "sim.access_ns",
    "sim.access_l2_ns",
    "sim.sweep_line_ns",
    "sim.flush_us",
    "sim.mcycles",
    "kernel.switch_raw_us",
    "kernel.switch_protected_us",
    "kernel.switch_protected_kcyc",
    "kernel.clone_us",
    "kernel.syscall_ns",
    "boot.cold_n",
    "boot.warm_n",
    "boot.fallback_n",
    "boot.cold_ms",
    "boot.warm_ms",
    "boot.share_pct",
    "engine.self_s",
    "engine.us_per_slice_raw",
    "engine.us_per_slice_protected",
    "engine.env_failed",
    "engine.deadlocks",
    "engine.stack_overflows",
    "analysis.tests",
    "analysis.test_ms_p50",
    "analysis.test_ms_p97",
    "analysis.mi_us",
    "analysis.share_pct",
    "analysis.verdict_flips",
    "attacks.cell_p50_s",
    "attacks.cell_max_s",
    "workloads.run_ms_p50",
    "workloads.run_ms_p97",
    "store.appends",
    "store.append_ms",
    "store.share_pct",
    "supervise.cell_overhead_ms",
    "supervise.retries",
    "supervise.timeouts",
    "supervise.panics",
    "supervise.quarantined",
    "trace.covered_pct",
    "tenant_p95_us",
    "protect_overhead_pct",
];

/// Process-wide counters read before and after the timed section.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Boot accounting.
    pub boot: BootStats,
    /// Executor health.
    pub health: HealthStats,
    /// Supervisor accounting.
    pub supervise: SupervisorCounters,
}

impl Counters {
    /// Read every counter now.
    #[must_use]
    pub fn now() -> Self {
        Counters {
            boot: tp_core::boot_stats(),
            health: tp_core::health_stats(),
            supervise: tp_bench::supervise::counters(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Build the ledger of one traced run. `extra` and `probes` are merged in
/// last; a metric nothing produced reads 0, which means the workload
/// makes no such call.
#[must_use]
pub fn ledger(
    spans: &[Span],
    before: &Counters,
    after: &Counters,
    extra: &[(&'static str, f64)],
    probes: &[(&'static str, f64)],
) -> BTreeMap<&'static str, f64> {
    let mut l: BTreeMap<&'static str, f64> = LAYER_METRICS.iter().map(|&n| (n, 0.0)).collect();
    let secs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    };
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();

    // Boot, from the counters.
    let (b0, b1) = (before.boot, after.boot);
    let cold_n = (b1.cold_boots - b0.cold_boots) as f64;
    let warm_n = (b1.warm_boots - b0.warm_boots) as f64;
    let cold_s = (b1.cold_nanos - b0.cold_nanos) as f64 / 1e9;
    let warm_s = (b1.warm_nanos - b0.warm_nanos) as f64 / 1e9;
    l.insert("boot.cold_n", cold_n);
    l.insert("boot.warm_n", warm_n);
    l.insert(
        "boot.fallback_n",
        (b1.fallback_boots - b0.fallback_boots) as f64,
    );
    l.insert("boot.cold_ms", ratio(cold_s * 1e3, cold_n));
    l.insert("boot.warm_ms", ratio(warm_s * 1e3, warm_n));

    // Executor health and supervisor counters.
    let (h0, h1) = (before.health, after.health);
    l.insert("engine.env_failed", (h1.env_failed - h0.env_failed) as f64);
    l.insert("engine.deadlocks", (h1.deadlocks - h0.deadlocks) as f64);
    l.insert(
        "engine.stack_overflows",
        (h1.stack_overflows - h0.stack_overflows) as f64,
    );
    let (s0, s1) = (before.supervise, after.supervise);
    l.insert("supervise.retries", (s1.retries - s0.retries) as f64);
    l.insert("supervise.timeouts", (s1.timeouts - s0.timeouts) as f64);
    l.insert("supervise.panics", (s1.panics - s0.panics) as f64);
    l.insert(
        "supervise.quarantined",
        (s1.quarantined - s0.quarantined) as f64,
    );

    // Analysis: the shuffle tests re-timed after the timed section, each
    // as costly as the same call inside the run.
    let tests = secs("leakage_test");
    let analysis_s = sum(&tests);
    l.insert("analysis.tests", tests.len() as f64);
    l.insert(
        "analysis.test_ms_p50",
        crate::pct_or_zero(&tests, 50.0) * 1e3,
    );
    l.insert(
        "analysis.test_ms_p97",
        crate::pct_or_zero(&tests, 97.0) * 1e3,
    );

    // Store.
    let appends = secs("journal.append");
    let store_s = sum(&appends);
    l.insert("store.appends", appends.len() as f64);
    l.insert(
        "store.append_ms",
        ratio(store_s * 1e3, appends.len() as f64),
    );

    // Workloads.
    let runs = secs("run_workload");
    l.insert(
        "workloads.run_ms_p50",
        crate::pct_or_zero(&runs, 50.0) * 1e3,
    );
    l.insert(
        "workloads.run_ms_p97",
        crate::pct_or_zero(&runs, 97.0) * 1e3,
    );

    // Campaign cells: supervision, attack and journal append.
    let cells = secs("cell");
    l.insert("attacks.cell_p50_s", crate::pct_or_zero(&cells, 50.0));
    l.insert(
        "attacks.cell_max_s",
        cells.iter().copied().fold(0.0, f64::max),
    );

    // Supervisor overhead: the run_cell span minus the closure inside it.
    let selfs = self_times_ns(spans);
    let overhead: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "run_cell")
        .map(|(_, &t)| t as f64 / 1e6)
        .collect();
    l.insert(
        "supervise.cell_overhead_ms",
        ratio(sum(&overhead), overhead.len() as f64),
    );

    // Engine: the layer calls that build and run systems, less what boot
    // and analysis account for inside them.
    let boot_s = cold_s + warm_s;
    let system_s = sum(&secs("closure")) + sum(&secs("run_cloud")) + sum(&runs);
    l.insert("engine.self_s", (system_s - boot_s - analysis_s).max(0.0));

    // Shares of the busy time: the summed durations of the root's children.
    if let Some(root) = spans.iter().find(|s| s.name == "workload") {
        let top: Vec<&Span> = spans.iter().filter(|s| s.parent == root.id).collect();
        let busy_s = top.iter().map(|s| s.dur_ns() as f64 / 1e9).sum::<f64>();
        l.insert("boot.share_pct", ratio(100.0 * boot_s, busy_s));
        l.insert("analysis.share_pct", ratio(100.0 * analysis_s, busy_s));
        l.insert("store.share_pct", ratio(100.0 * store_s, busy_s));
        let covered = union_ns(top.iter().map(|s| (s.start_ns, s.end_ns)).collect());
        l.insert(
            "trace.covered_pct",
            ratio(100.0 * covered as f64, root.dur_ns() as f64),
        );
    }

    for &(name, v) in extra.iter().chain(probes) {
        assert!(l.contains_key(name), "{name} is not a per-layer metric");
        l.insert(name, v);
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_prints_every_metric() {
        let c = Counters::now();
        let l = ledger(&[], &c, &c, &[], &[]);
        assert_eq!(l.len(), LAYER_METRICS.len());
    }

    /// Every name the worker prints is well formed and declared as a
    /// per-layer metric in `BENCHMARK.json`.
    #[test]
    fn printed_names_are_declared() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let per_layer = &spec[spec.find("\"per_layer\"").expect("per_layer")..];
        for name in LAYER_METRICS {
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
            assert!(
                per_layer.contains(&format!("{{\"name\": \"{name}\",")),
                "{name} is not a per-layer metric of BENCHMARK.json"
            );
        }
    }
}
