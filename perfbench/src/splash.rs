//! The `splash` workload: the Figure 7 and Table 8 Splash-2 colouring
//! study, one `run_workload` call per benchmark, platform and
//! configuration.

use crate::inputs::{SplashRun, Study};
use crate::trace::{self, SpanId};
use crate::{fingerprint, CellOut, WorkloadOut};
use tp_workloads::run_workload;

/// Run every study run on `TP_THREADS` workers.
#[must_use]
pub fn run(runs: &[SplashRun], root: SpanId) -> WorkloadOut {
    let done = rayon::par_map(runs, |r| {
        trace::span("run_workload", root, |_| run_workload(&r.bench, &r.run))
    });

    // One cell per benchmark and platform: its nine runs, in order.
    let mut out = WorkloadOut::default();
    let mut mcycles = 0.0;
    let (mut base, mut ratios) = (None, Vec::new());
    let mut key = String::new();
    for (r, res) in runs.iter().zip(&done) {
        let name = format!("{}/{}", r.bench.name, r.run.platform.key());
        if name != key {
            out.cells.push(CellOut {
                name: name.clone(),
                ops: 0,
                failed: 0,
                fingerprint: 0,
            });
            key = name;
            base = None;
        }
        let cell = out.cells.last_mut().expect("cell pushed above");
        cell.ops += 1;
        let Ok(perf) = res else {
            cell.failed += 1;
            continue;
        };
        mcycles += perf.cycles as f64 / 1e6;
        cell.fingerprint = fingerprint(&format!(
            "{:x}|{}|{}",
            cell.fingerprint, perf.cycles, perf.ops
        ));
        match r.study {
            Study::SharedRaw => base = Some(*perf),
            Study::SharedProtected => {
                if let Some(b) = base {
                    ratios.push(1.0 + perf.slowdown_vs(b));
                }
            }
            Study::Solo | Study::SharedPadded => {}
        }
    }
    let overhead = (crate::geomean_or_zero(&ratios) - 1.0) * 100.0;
    out.notes.push(format!(
        "splash: {} runs, protected vs raw time-shared geomean slowdown {overhead:.3}%",
        runs.len()
    ));
    out.extra.push(("sim.mcycles", mcycles));
    out.extra.push(("protect_overhead_pct", overhead));
    out
}
