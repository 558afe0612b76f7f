//! Synthetic Splash-2 benchmark descriptors and their access generators.
//!
//! Figure 7 / Table 8 measure how each benchmark responds to a reduced
//! cache share. That response is governed by the benchmark's *hot set*
//! relative to the partitioned cache, its spatial locality and its compute
//! density; the descriptors below encode those properties, qualitatively
//! calibrated to the suite (the paper's §5.4.4 setup runs 220 MiB-heap
//! configurations; working sets here are scaled to the simulated caches).
//! `volrend` is omitted, as in the paper (Linux dependencies).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tp_core::UserEnv;
use tp_sim::{VAddr, FRAME_SIZE};

/// A synthetic benchmark: a parameterised memory-access process.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Suite name.
    pub name: &'static str,
    /// Total working set in pages.
    pub ws_pages: usize,
    /// Frequently-revisited hot region in pages (the cache-share lever).
    pub hot_pages: usize,
    /// Probability of a sequential next access.
    pub locality: f64,
    /// Probability of a jump back into the hot region.
    pub reuse: f64,
    /// Compute cycles per access.
    pub compute: u64,
    /// Fraction of accesses that are stores.
    pub write_frac: f64,
}

/// The eleven benchmarks of Figure 7.
#[must_use]
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "barnes",
            ws_pages: 200,
            hot_pages: 16,
            locality: 0.55,
            reuse: 0.42,
            compute: 14,
            write_frac: 0.25,
        },
        Benchmark {
            name: "cholesky",
            ws_pages: 240,
            hot_pages: 24,
            locality: 0.60,
            reuse: 0.37,
            compute: 11,
            write_frac: 0.30,
        },
        Benchmark {
            name: "fft",
            ws_pages: 256,
            hot_pages: 28,
            locality: 0.75,
            reuse: 0.22,
            compute: 9,
            write_frac: 0.35,
        },
        Benchmark {
            name: "fmm",
            ws_pages: 200,
            hot_pages: 18,
            locality: 0.60,
            reuse: 0.37,
            compute: 14,
            write_frac: 0.25,
        },
        Benchmark {
            name: "lu",
            ws_pages: 160,
            hot_pages: 24,
            locality: 0.70,
            reuse: 0.28,
            compute: 11,
            write_frac: 0.30,
        },
        Benchmark {
            name: "ocean",
            ws_pages: 400,
            hot_pages: 34,
            locality: 0.65,
            reuse: 0.33,
            compute: 6,
            write_frac: 0.40,
        },
        Benchmark {
            name: "radiosity",
            ws_pages: 240,
            hot_pages: 20,
            locality: 0.50,
            reuse: 0.47,
            compute: 11,
            write_frac: 0.20,
        },
        Benchmark {
            name: "radix",
            ws_pages: 512,
            hot_pages: 8,
            locality: 0.92,
            reuse: 0.05,
            compute: 6,
            write_frac: 0.45,
        },
        Benchmark {
            name: "raytrace",
            ws_pages: 600,
            hot_pages: 130,
            locality: 0.45,
            reuse: 0.50,
            compute: 8,
            write_frac: 0.10,
        },
        Benchmark {
            name: "waternsquared",
            ws_pages: 96,
            hot_pages: 14,
            locality: 0.60,
            reuse: 0.38,
            compute: 16,
            write_frac: 0.25,
        },
        Benchmark {
            name: "waterspatial",
            ws_pages: 120,
            hot_pages: 18,
            locality: 0.65,
            reuse: 0.33,
            compute: 16,
            write_frac: 0.25,
        },
    ]
}

/// Look a benchmark up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

impl Benchmark {
    /// Execute `ops` accesses of this benchmark's pattern against the
    /// environment (the working set must already be mapped at `base`).
    /// Returns the number of accesses issued.
    ///
    /// The address process is purely RNG-driven (no access depends on a
    /// previous access's outcome), so chunks of it are pre-generated and
    /// issued through the environment's batched sweep — one scheduler
    /// turn per chunk instead of two per access. Draw order from
    /// the seeded RNG is unchanged, so the access sequence is identical to
    /// the scalar loop this replaces.
    pub async fn execute(&self, env: &UserEnv, base: VAddr, ops: usize, seed: u64) -> usize {
        /// Accesses issued per batched sweep (bounds the pre-generated
        /// buffer; a chunk spans several preemption slices at most).
        const CHUNK: usize = 1024;
        let line = env.platform().line;
        let lines_per_page = (FRAME_SIZE / line) as usize;
        let ws_lines = self.ws_pages * lines_per_page;
        let hot_lines = self.hot_pages * lines_per_page;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51A5);
        let mut pos = 0usize;
        let mut batch: Vec<(VAddr, bool)> = Vec::with_capacity(CHUNK.min(ops));
        for _ in 0..ops {
            let r: f64 = rng.gen();
            pos = if r < self.locality {
                (pos + 1) % ws_lines
            } else if r < self.locality + self.reuse {
                rng.gen_range(0..hot_lines.max(1))
            } else {
                rng.gen_range(0..ws_lines)
            };
            let va = VAddr(base.0 + (pos as u64) * line);
            let write = rng.gen::<f64>() < self.write_frac;
            batch.push((va, write));
            if batch.len() == CHUNK {
                env.access_sweep(&batch, self.compute).await;
                batch.clear();
            }
        }
        if !batch.is_empty() {
            env.access_sweep(&batch, self.compute).await;
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_benchmarks() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 11);
        assert!(all.iter().all(|b| b.hot_pages <= b.ws_pages));
        assert!(all.iter().all(|b| b.locality + b.reuse < 1.0));
        assert!(by_name("raytrace").is_some());
        assert!(
            by_name("volrend").is_none(),
            "volrend is omitted per §5.4.4"
        );
    }

    #[test]
    fn raytrace_is_the_most_cache_hungry() {
        let all = all_benchmarks();
        let rt = by_name("raytrace").unwrap();
        assert!(all.iter().all(|b| b.hot_pages <= rt.hot_pages));
    }

    #[test]
    fn radix_streams() {
        let rx = by_name("radix").unwrap();
        assert!(rx.locality > 0.9, "radix is a streaming benchmark");
        assert!(rx.reuse < 0.1);
    }
}
