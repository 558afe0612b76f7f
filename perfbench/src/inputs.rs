//! The inputs each workload runs, generated from the `--seed` argument.
//!
//! Seed 0 gives the repository's pinned seeds (the campaign's vote seeds,
//! `CloudSpec`'s and `WorkloadRun`'s defaults), so seed-0 outputs can be
//! checked against the golden verdicts and the pinned fingerprints. Any
//! other seed derives fresh seeds from it.

use tp_bench::campaign::{registry, ExperimentDef};
use tp_bench::cloud::CloudSpec;
use tp_core::ProtectionConfig;
use tp_sim::Platform;
use tp_workloads::{all_benchmarks, Benchmark, WorkloadRun};

/// Tenants of the raw fleet, where engine and boot dominate.
pub const RAW_TENANTS: usize = 1024;

/// Tenants of the protected fleet, where the switch and flush path
/// dominates.
pub const PROTECTED_TENANTS: usize = 128;

/// Accesses per Splash-2 run, before `TP_SAMPLES` scaling: what
/// `splash::fig7` and `splash::table8` use.
const SPLASH_OPS: usize = 60_000;

/// SplitMix64 finaliser: a bijective mix of one word.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `pinned` for seed 0, otherwise a value derived from `seed` and a
/// per-input `stream`, so different inputs of one seed are independent.
#[must_use]
pub fn derive(seed: u64, pinned: u64, stream: u64) -> u64 {
    if seed == 0 {
        pinned
    } else {
        splitmix64(seed ^ splitmix64(stream))
    }
}

/// The salt every campaign cell XORs into its vote seeds (0 at seed 0).
#[must_use]
pub fn campaign_salt(seed: u64) -> u64 {
    derive(seed, 0, 1)
}

/// Every registry cell on every platform it supports, in report order.
#[must_use]
pub fn campaign_cells() -> Vec<(ExperimentDef, Platform)> {
    registry()
        .into_iter()
        .flat_map(|d| {
            Platform::ALL
                .into_iter()
                .filter(move |&p| (d.supports)(p))
                .map(move |p| (d, p))
        })
        .collect()
}

/// The fleet: raw at [`RAW_TENANTS`] and protected at
/// [`PROTECTED_TENANTS`] tenants on every platform.
#[must_use]
pub fn fleet_specs(seed: u64) -> Vec<CloudSpec> {
    let cloud_seed = derive(
        seed,
        CloudSpec::new(Platform::Haswell, ProtectionConfig::raw(), 0).seed,
        2,
    );
    Platform::ALL
        .into_iter()
        .flat_map(|p| {
            [
                CloudSpec::new(p, ProtectionConfig::raw(), RAW_TENANTS),
                CloudSpec::new(p, ProtectionConfig::protected(), PROTECTED_TENANTS),
            ]
        })
        .map(|spec| spec.with_seed(cloud_seed))
        .collect()
}

/// Which Splash-2 study a run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Figure 7: a single domain with a colour share.
    Solo,
    /// Table 8: the raw baseline, time-shared with an idle domain.
    SharedRaw,
    /// Table 8: protected, time-shared, no padding.
    SharedProtected,
    /// Table 8: protected, time-shared, padded.
    SharedPadded,
}

/// One `run_workload` call of the colouring study.
#[derive(Debug, Clone)]
pub struct SplashRun {
    /// The benchmark.
    pub bench: Benchmark,
    /// Its configuration.
    pub run: WorkloadRun,
    /// Which study the run belongs to.
    pub study: Study,
}

/// The Figure 7 and Table 8 runs: per benchmark and platform, six solo
/// colour configurations and three time-shared ones.
#[must_use]
pub fn splash_runs(seed: u64) -> Vec<SplashRun> {
    let ops = tp_bench::util::samples(SPLASH_OPS);
    let run_seed = derive(
        seed,
        WorkloadRun::solo(Platform::Haswell, ProtectionConfig::raw(), (1, 1)).seed,
        3,
    );
    let mut runs = Vec::new();
    for platform in Platform::ALL {
        let pad = tp_attacks::flush_latency::table4_pad_us(platform);
        for bench in all_benchmarks() {
            let mut push = |run: WorkloadRun, study| {
                let mut run = run.with_ops(ops);
                run.seed = run_seed;
                runs.push(SplashRun { bench, run, study });
            };
            for (prot, colors) in [
                (ProtectionConfig::raw(), (1, 1)),
                (ProtectionConfig::raw(), (3, 4)),
                (ProtectionConfig::raw(), (1, 2)),
                (ProtectionConfig::protected(), (1, 1)),
                (ProtectionConfig::protected(), (3, 4)),
                (ProtectionConfig::protected(), (1, 2)),
            ] {
                push(WorkloadRun::solo(platform, prot, colors), Study::Solo);
            }
            for (prot, study) in [
                (ProtectionConfig::raw(), Study::SharedRaw),
                (ProtectionConfig::protected(), Study::SharedProtected),
                (
                    ProtectionConfig::protected().with_pad_us(pad),
                    Study::SharedPadded,
                ),
            ] {
                push(WorkloadRun::shared(platform, prot, (1, 2)), study);
            }
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(campaign_salt(seed), campaign_salt(seed));
            assert_eq!(
                format!("{:?}", fleet_specs(seed)),
                format!("{:?}", fleet_specs(seed))
            );
            assert_eq!(
                format!("{:?}", splash_runs(seed)),
                format!("{:?}", splash_runs(seed))
            );
        }
    }

    #[test]
    fn seed_zero_is_pinned_and_other_seeds_differ() {
        assert_eq!(campaign_salt(0), 0);
        assert_ne!(campaign_salt(1), 0);
        assert_ne!(campaign_salt(1), campaign_salt(2));
        assert_eq!(fleet_specs(0)[0].seed, 0x5EED);
        assert_ne!(fleet_specs(1)[0].seed, fleet_specs(2)[0].seed);
        assert_eq!(splash_runs(0)[0].run.seed, 0xBE7C);
        assert_ne!(splash_runs(1)[0].run.seed, splash_runs(0)[0].run.seed);
    }

    #[test]
    fn workload_sizes_match_the_studies() {
        assert_eq!(campaign_cells().len(), 46);
        assert_eq!(fleet_specs(0).len(), 8);
        assert_eq!(splash_runs(0).len(), 11 * 9 * 4);
    }
}
