//! The `fleet` workload: the `cloud` tenant scenario, raw at about a
//! thousand tenants and protected at about a hundred, on every platform.

use crate::trace::{self, SpanId};
use crate::{fingerprint, CellOut, WorkloadOut};
use std::time::Instant;
use tp_bench::cloud::{run_cloud, CloudSpec};

/// Run the fleet specs one after another. Each `run_cloud` multiplexes its
/// tenants over `TP_THREADS` coop workers, so running two specs at once
/// would oversubscribe the host.
#[must_use]
pub fn run(specs: &[CloudSpec], root: SpanId) -> WorkloadOut {
    let traced = trace::enabled();
    let done: Vec<_> = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let r = trace::span("run_cloud", root, |_| run_cloud(spec));
            (r, t0.elapsed().as_secs_f64())
        })
        .collect();

    let mut out = WorkloadOut::default();
    let (mut mcycles, mut p95s) = (0.0, Vec::new());
    let mut slices = [(0.0, 0.0); 2]; // (host µs, simulated slices): raw, protected
    for (spec, (r, host_s)) in specs.iter().zip(done) {
        let mech = if spec.prot.clone_kernel {
            "protected"
        } else {
            "raw"
        };
        let name = format!("{}/{mech}", spec.platform.key());
        let ops = spec.domains() as u64;
        let Ok(rep) = r else {
            out.notes.push(format!("fleet {name}: simulation failed"));
            out.cells.push(CellOut {
                name,
                ops,
                failed: ops,
                fingerprint: 0,
            });
            continue;
        };
        let cfg = spec.platform.config();
        mcycles += rep.sim_seconds * cfg.freq_mhz as f64;
        let k = usize::from(spec.prot.clone_kernel);
        slices[k].0 += host_s * 1e6;
        slices[k].1 += rep.sim_seconds * 1e6 / spec.slice_us;
        if spec.prot.clone_kernel {
            p95s.push(rep.p95_us);
        }
        let v = &rep.outcome.verdict;
        // Reported, not gated: whether the pooled null of the protected
        // fleet holds is an open question of the verdict calibration.
        out.notes.push(format!(
            "fleet {name}: {} (M {:.0} mb vs M0 {:.0} mb; not gated), p95 sojourn {:.0} us",
            if v.leaks { "leak" } else { "closed" },
            v.m.millibits(),
            v.m0_millibits(),
            rep.p95_us
        ));
        let outputs: String = rep
            .outcome
            .dataset
            .outputs()
            .iter()
            .map(|o| format!("{:x},", o.to_bits()))
            .collect();
        out.cells.push(CellOut {
            name,
            ops,
            failed: rep.failed_tenants as u64,
            fingerprint: fingerprint(&format!(
                "{}|{}|{:x}|{:x}|{:x}|{:x}|{:x}|{:x}|{}|{outputs}",
                rep.tenants,
                rep.completed,
                rep.sim_seconds.to_bits(),
                rep.throughput_rps.to_bits(),
                rep.p50_us.to_bits(),
                rep.p95_us.to_bits(),
                v.m.bits.to_bits(),
                v.m0_bits.to_bits(),
                v.leaks
            )),
        });
        if traced {
            // The run's one shuffle test, re-timed after the timed section.
            out.tests.push((
                out.cells.len() - 1,
                rep.outcome.dataset,
                spec.seed ^ crate::campaign::SHUFFLE_SALT,
                rep.outcome.verdict,
            ));
        }
    }
    out.extra.push(("sim.mcycles", mcycles));
    out.extra
        .push(("tenant_p95_us", crate::geomean_or_zero(&p95s)));
    for (name, (host_us, n)) in [
        ("engine.us_per_slice_raw", slices[0]),
        ("engine.us_per_slice_protected", slices[1]),
    ] {
        out.extra
            .push((name, if n > 0.0 { host_us / n } else { 0.0 }));
    }
    out
}
