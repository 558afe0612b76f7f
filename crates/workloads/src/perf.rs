//! The performance runner for the colouring studies (Figure 7, Table 8).
//!
//! A run executes one benchmark to completion in a domain with a restricted
//! colour allocation, on a standard or cloned kernel, optionally
//! time-sharing the core with an idle domain (whose idle slots exercise the
//! full domain-switch path, including flushing and padding). The result is
//! the benchmark's completion time in cycles; slowdowns are computed
//! against a 100%-colour baseline by the bench harness.

use crate::splash2::Benchmark;
use std::cell::RefCell;
use std::rc::Rc;
use tp_core::{ProtectionConfig, SimError, SimErrorKind, SystemBuilder, UserEnv};
use tp_sim::{ColorSet, Platform};

/// Configuration of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Platform.
    pub platform: Platform,
    /// Protection configuration (raw = "base", protected = "clone" cases).
    pub prot: ProtectionConfig,
    /// Colour share as a fraction (numerator, denominator), e.g. (1, 2)
    /// for 50% of the colours.
    pub colors: (u64, u64),
    /// Whether to time-share the core with an idle domain.
    pub time_shared: bool,
    /// Preemption slice in microseconds.
    pub slice_us: f64,
    /// Accesses to execute.
    pub ops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadRun {
    /// A single-domain run with the given colour share.
    #[must_use]
    pub fn solo(platform: Platform, prot: ProtectionConfig, colors: (u64, u64)) -> Self {
        WorkloadRun {
            platform,
            prot,
            colors,
            time_shared: false,
            slice_us: 1_000.0,
            ops: 120_000,
            seed: 0xBE7C,
        }
    }

    /// A run time-shared with an idle domain (Table 8). Time-shared runs
    /// measure **per-slice throughput** over a fixed number of whole
    /// slices (see [`run_workload`]), so the slice is set short enough
    /// that two measured slices stay comparable in cost to a solo run.
    #[must_use]
    pub fn shared(platform: Platform, prot: ProtectionConfig, colors: (u64, u64)) -> Self {
        WorkloadRun {
            time_shared: true,
            slice_us: 600.0,
            ..WorkloadRun::solo(platform, prot, colors)
        }
    }

    /// Override the access count.
    #[must_use]
    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops = ops;
        self
    }
}

/// Result of a workload run.
#[derive(Debug, Clone, Copy)]
pub struct PerfResult {
    /// Benchmark completion time in cycles (start to finish on its core,
    /// including any time-shared slots in between).
    pub cycles: u64,
    /// Accesses executed.
    pub ops: usize,
}

impl PerfResult {
    /// Slowdown of `self` relative to a baseline run, compared on a
    /// cycles-per-access basis. For completion-time runs (equal `ops`)
    /// this is the plain completion-time ratio; for slice-throughput runs
    /// (equal `cycles` window) it is the inverse throughput ratio. Either
    /// way it is immune to the two runs spanning different numbers of
    /// time slices.
    #[must_use]
    pub fn slowdown_vs(&self, base: PerfResult) -> f64 {
        let own = self.cycles as f64 / self.ops as f64;
        let b = base.cycles as f64 / base.ops as f64;
        own / b - 1.0
    }
}

/// Execute a benchmark under the given configuration.
///
/// # Errors
/// Returns the [`SimError`] if the simulation fails or the benchmark makes
/// no measurable progress.
pub fn run_workload(bench: &Benchmark, run: &WorkloadRun) -> Result<PerfResult, SimError> {
    let cfg = run.platform.config();
    let n_colors = cfg.partition_colors();
    let share = (n_colors * run.colors.0 / run.colors.1).max(1);

    // RAM sized to the workloads (the largest working set is 600 pages
    // plus kernel objects): pool carving scans every frame per domain, so
    // an oversized pool is pure per-run setup cost.
    let mut b = SystemBuilder::new(run.platform, run.prot)
        .seed(run.seed)
        .slice_us(run.slice_us)
        .ram_frames(16_384)
        .max_cycles(40_000_000_000);
    let d_bench = b.domain_sized(Some(ColorSet::range(0, share)), 6_000);
    let d_idle = if run.time_shared {
        // The idle domain takes the complementary colours (or shares the
        // full set when uncoloured).
        let idle_colors = if run.prot.color_userland && share < n_colors {
            ColorSet::range(share, n_colors)
        } else {
            ColorSet::all(n_colors)
        };
        Some(b.domain_sized(Some(idle_colors), 256))
    } else {
        None
    };

    // Completion-time runs report (t1 - t0, ops); slice-throughput runs
    // report (measured window, ops completed).
    let outcome: Rc<RefCell<(u64, u64)>> = Rc::new(RefCell::new((0, 0)));
    let outcome2 = Rc::clone(&outcome);
    let bench2 = *bench;
    let ops = run.ops;
    let seed = run.seed;
    let time_shared = run.time_shared;
    let slice_cy = cfg.us_to_cycles(run.slice_us);
    b.spawn(d_bench, 0, 100, async move |env: &mut UserEnv| {
        let (base, _) = env.map_pages(bench2.ws_pages).await;
        // Warm-up: touch every page once (deterministic paging-in — a
        // random warm-up could miss pages) plus a short pattern pass to
        // settle the hot set.
        let touch: Vec<(tp_sim::VAddr, bool)> = (0..bench2.ws_pages as u64)
            .map(|p| (tp_sim::VAddr(base.0 + p * tp_sim::FRAME_SIZE), false))
            .collect();
        let _ = env.access_sweep(&touch, 0).await;
        let _ = bench2.execute(env, base, bench2.ws_pages, seed ^ 1).await;
        if time_shared {
            // Slice-throughput measurement: count accesses completed in a
            // fixed number of *whole* slices. A completion-time span a few
            // slices long is quantised by whether it spills into one more
            // idle slot — an artifact that dwarfed the protection cost it
            // was meant to measure. Per-slice throughput has no such
            // cliff: the switch work, padding and post-switch cold misses
            // all shorten the usable slice, which is exactly the cost
            // time-sharing adds.
            const ROUNDS: u64 = 1;
            const CHUNK: usize = 256;
            let mut done = 0u64;
            for r in 0..ROUNDS {
                let _ = env.wait_preempt().await; // align to a fresh slice
                let t0 = env.now().await;
                let mut chunk = 0u64;
                while env.now().await - t0 < slice_cy {
                    let _ = bench2
                        .execute(env, base, CHUNK, seed ^ (r * 1009 + chunk))
                        .await;
                    chunk += 1;
                    done += CHUNK as u64;
                }
            }
            *outcome2.borrow_mut() = (ROUNDS * slice_cy, done);
        } else {
            let t0 = env.now().await;
            let _ = bench2.execute(env, base, ops, seed).await;
            let t1 = env.now().await;
            *outcome2.borrow_mut() = (t1 - t0, ops as u64);
        }
    });
    if let Some(d) = d_idle {
        b.spawn_daemon(d, 0, 100, async |env: &mut UserEnv| loop {
            let _ = env.wait_preempt().await;
        });
    }
    let _ = b.try_run()?;
    let (cycles, done) = *outcome.borrow();
    if cycles == 0 || done == 0 {
        return Err(SimError {
            kind: SimErrorKind::ProgramPanic,
            message: format!("benchmark {} did not complete", bench.name),
        });
    }
    Ok(PerfResult {
        cycles,
        ops: done as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splash2::by_name;

    #[test]
    fn halved_cache_slows_cache_hungry_benchmark() {
        let rt = by_name("raytrace").unwrap();
        let base = run_workload(
            &rt,
            &WorkloadRun::solo(Platform::Sabre, ProtectionConfig::raw(), (1, 1)).with_ops(40_000),
        )
        .expect("simulation");
        let half = run_workload(
            &rt,
            &WorkloadRun::solo(Platform::Sabre, ProtectionConfig::raw(), (1, 2)).with_ops(40_000),
        )
        .expect("simulation");
        let slow = half.slowdown_vs(base);
        assert!(
            slow > 0.005,
            "raytrace @50% colours only {:.2}% slower",
            slow * 100.0
        );
        assert!(slow < 0.5, "implausible slowdown {:.2}%", slow * 100.0);
    }

    #[test]
    fn streaming_benchmark_barely_notices() {
        let rx = by_name("radix").unwrap();
        let base = run_workload(
            &rx,
            &WorkloadRun::solo(Platform::Sabre, ProtectionConfig::raw(), (1, 1)).with_ops(40_000),
        )
        .expect("simulation");
        let half = run_workload(
            &rx,
            &WorkloadRun::solo(Platform::Sabre, ProtectionConfig::raw(), (1, 2)).with_ops(40_000),
        )
        .expect("simulation");
        let slow = half.slowdown_vs(base);
        assert!(
            slow.abs() < 0.03,
            "radix should be colour-insensitive, got {:.2}%",
            slow * 100.0
        );
    }

    #[test]
    fn cloned_kernel_adds_little() {
        let lu = by_name("lu").unwrap();
        let base = run_workload(
            &lu,
            &WorkloadRun::solo(Platform::Haswell, ProtectionConfig::raw(), (1, 1)).with_ops(40_000),
        )
        .expect("simulation");
        let cloned = run_workload(
            &lu,
            &WorkloadRun::solo(Platform::Haswell, ProtectionConfig::protected(), (1, 1))
                .with_ops(40_000),
        )
        .expect("simulation");
        let slow = cloned.slowdown_vs(base);
        assert!(
            slow.abs() < 0.05,
            "cloned kernel should be ~free solo, got {:.2}%",
            slow * 100.0
        );
    }

    #[test]
    fn time_sharing_with_protection_costs_a_few_percent() {
        let fft = by_name("fft").unwrap();
        let raw_shared = run_workload(
            &fft,
            &WorkloadRun::shared(Platform::Haswell, ProtectionConfig::raw(), (1, 2))
                .with_ops(60_000),
        )
        .expect("simulation");
        let prot_shared = run_workload(
            &fft,
            &WorkloadRun::shared(Platform::Haswell, ProtectionConfig::protected(), (1, 2))
                .with_ops(60_000),
        )
        .expect("simulation");
        let slow = prot_shared.slowdown_vs(raw_shared);
        assert!(
            slow > -0.02,
            "protection cannot speed things up much: {slow}"
        );
        assert!(
            slow < 0.25,
            "shared protection overhead implausible: {slow}"
        );
    }
}
