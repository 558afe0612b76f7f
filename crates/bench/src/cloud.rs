//! The `cloud` tenant-consolidation scenario.
//!
//! The paper motivates time protection with the public-cloud setting:
//! many mutually distrusting tenants time-share cores, and any pair of
//! co-resident tenants is a potential covert/side-channel pair (§1, §2.1).
//! This scenario scales the two-domain harness up to that shape: hundreds
//! to thousands of tenant domains on one core under strict slots, an
//! open-loop request generator driving the ordinary tenants (exponential
//! arrivals, heavy-tailed Pareto service times — the classic datacenter
//! workload shape), and several *co-resident attacker pairs* embedded at
//! known rotation positions.
//!
//! Each pair is the §5.3.2 L1-D prime&probe channel itself:
//! [`tp_attacks::harness::spawn_pair`] spawns the L1-D channel's own
//! sender as the victim and its receiver as the attacker into the fleet's
//! system. The victim dirties a symbol-dependent number of cache sets
//! during its slice, the adjacent attacker probes in the slice that
//! immediately follows. [`tp_attacks::harness::judge`] pools the
//! observations of every pair into one dataset, so the reported verdict
//! is *aggregate* co-resident leakage across the fleet, and the ordinary
//! tenants double as realistic cache noise between rotations.
//!
//! Alongside leakage, the scenario reports what the protection costs the
//! tenants: request throughput and sojourn-time percentiles (queueing +
//! service, in simulated time), so `raw` vs `protected` shows the
//! overhead side of the paper's trade-off on the same run.

use crate::util::samples;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use tp_attacks::cache;
use tp_attacks::harness::{judge, spawn_pair, ChannelOutcome};
use tp_core::{
    EnvOutcome, ProtectionConfig, SimError, SystemBuilder, SystemSpec, UserEnv, UserProgram,
};
use tp_sim::{ColorSet, Platform};

/// Symbols the attacker pairs encode (8 ⇒ up to 3 bits per slice).
pub const CLOUD_SYMBOLS: usize = 8;

/// Pareto shape for tenant service times. α ≈ 1.3 is the heavy-tailed
/// regime measured for request sizes in datacenter traces: finite mean,
/// infinite variance, so p95 sojourn is dominated by rare huge requests.
const PARETO_ALPHA: f64 = 1.3;

/// Pareto scale (minimum service) in simulated cycles.
const PARETO_XM: f64 = 2_000.0;

/// Parameters of one cloud consolidation run.
#[derive(Debug, Clone, Copy)]
pub struct CloudSpec {
    /// Platform under test.
    pub platform: Platform,
    /// Protection configuration shared by the whole machine.
    pub prot: ProtectionConfig,
    /// Ordinary (non-attacker) tenant domains.
    pub tenants: usize,
    /// Co-resident attacker pairs embedded in the rotation.
    pub pairs: usize,
    /// Total pooled attacker observations across all pairs.
    pub samples: usize,
    /// Time-slice length in microseconds.
    pub slice_us: f64,
    /// RNG seed (symbol sequences, arrivals, service times, sim noise).
    pub seed: u64,
}

impl CloudSpec {
    /// A spec with scenario defaults: 4 embedded pairs, `samples(120)`
    /// pooled observations, 50 µs slices.
    #[must_use]
    pub fn new(platform: Platform, prot: ProtectionConfig, tenants: usize) -> Self {
        CloudSpec {
            platform,
            prot,
            tenants,
            pairs: 4,
            samples: samples(120),
            slice_us: 50.0,
            seed: 0x5EED,
        }
    }

    /// Override the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total domains in the rotation (pairs contribute two each).
    #[must_use]
    pub fn domains(&self) -> usize {
        2 * self.pairs + self.tenants
    }

    /// Observations each pair's receiver collects.
    #[must_use]
    pub fn per_pair(&self) -> usize {
        self.samples.div_ceil(self.pairs.max(1))
    }
}

/// Outcome of one cloud run: aggregate leakage plus tenant-side cost.
#[derive(Debug, Clone)]
pub struct CloudReport {
    /// Pooled co-resident channel measurement and §5.1 verdict.
    pub outcome: ChannelOutcome,
    /// Ordinary tenants simulated.
    pub tenants: usize,
    /// Tenant environments that died in isolation during the run (the
    /// fleet keeps running; throughput and sojourn stats cover the
    /// survivors only).
    pub failed_tenants: usize,
    /// Requests completed across all tenants.
    pub completed: usize,
    /// Simulated wall time of the run, seconds.
    pub sim_seconds: f64,
    /// Completed requests per simulated second, across the fleet.
    pub throughput_rps: f64,
    /// Median request sojourn time (queueing + service), microseconds.
    pub p50_us: f64,
    /// 95th-percentile sojourn time, microseconds.
    pub p95_us: f64,
}

impl CloudReport {
    /// One-line summary for tables and logs.
    #[must_use]
    pub fn summary(&self) -> String {
        let dead = if self.failed_tenants > 0 {
            format!(" ({} dead, stats over survivors)", self.failed_tenants)
        } else {
            String::new()
        };
        format!(
            "{} tenants{dead} | {:.0} req/s, p50 {:.0} us, p95 {:.0} us | {}",
            self.tenants,
            self.throughput_rps,
            self.p50_us,
            self.p95_us,
            self.outcome.summary()
        )
    }
}

/// Per-domain memory pool for an attacker or victim (kernel clone + L1
/// probe buffer + slack).
const PAIR_FRAMES: usize = 96;

/// Per-domain memory pool for an ordinary tenant (kernel clone + a couple
/// of mapped pages).
const TENANT_FRAMES: usize = 64;

/// One ordinary tenant: an open-loop request server. Requests arrive with
/// exponential gaps of mean `mean_gap` cycles and take Pareto service
/// times; each completed request's sojourn (queueing + service, cycles)
/// goes to `log`.
fn tenant(seed: u64, mean_gap: f64, log: Rc<RefCell<Vec<u64>>>) -> impl UserProgram {
    async move |env: &mut UserEnv| {
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = |rng: &mut StdRng, mean: f64| -> u64 {
            let u: f64 = rng.gen();
            (-mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()) as u64
        };
        let pareto = |rng: &mut StdRng| -> u64 {
            let u: f64 = rng.gen();
            (PARETO_XM * (1.0 - u).max(f64::MIN_POSITIVE).powf(-1.0 / PARETO_ALPHA)) as u64
        };
        // A couple of mapped pages give each request real memory
        // traffic, so tenants act as cache noise between rotations.
        let (va, _) = env.map_pages(2).await;
        let mut next_arrival = env.now().await + exp(&mut rng, mean_gap);
        let mut backlog: std::collections::VecDeque<u64> = Default::default();
        loop {
            let now = env.now().await;
            while next_arrival <= now {
                backlog.push_back(next_arrival);
                next_arrival += exp(&mut rng, mean_gap).max(1);
            }
            match backlog.pop_front() {
                Some(arrived) => {
                    env.load(va).await;
                    env.compute(pareto(&mut rng)).await;
                    // The sojourn log is shared by every tenant: read the
                    // clock *before* borrowing it. Env ops suspend until
                    // this tenant is scheduled, so a borrow held across
                    // that `.await` would make the next tenant's borrow
                    // panic; clippy's `await_holding_refcell_ref` rejects it.
                    let done = env.now().await;
                    log.borrow_mut().push(done - arrived);
                }
                None => {
                    // Idle until the next slice; arrivals accrue in
                    // simulated time regardless.
                    let _ = env.wait_preempt().await;
                }
            }
        }
    }
}

/// Run the scenario.
///
/// Rotation order is `[V0, A0, V1, A1, …, T0, T1, …]`: each attacker's
/// probe slice immediately follows its victim's encode slice, exactly the
/// adjacency a co-resident pair gets under round-robin consolidation.
/// Everything downstream of the seed is deterministic, so verdicts are
/// stable across runs and `TP_THREADS`.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
#[allow(clippy::too_many_lines)]
pub fn run_cloud(spec: &CloudSpec) -> Result<CloudReport, SimError> {
    let cfg = spec.platform.config();
    let n_colors = cfg.partition_colors();
    let n_domains = spec.domains();
    let per_pair = spec.per_pair();

    // Generous cycle budget: every receiver needs one observation per
    // rotation, plus setup/sync rotations, plus worst-case switch work.
    let slice_cycles = cfg.us_to_cycles(spec.slice_us);
    let rotations = (per_pair + 8) as u64;
    let max_cycles = rotations * n_domains as u64 * (2 * slice_cycles + 3_000_000);

    // Enough frames that every colour class can feed its share of
    // domains, with headroom for the boot image and allocator slack.
    let demand = (2 * spec.pairs * PAIR_FRAMES + spec.tenants * TENANT_FRAMES) as u64;
    let ram_frames = (2 * demand + 16_384).max(tp_core::system::DEFAULT_RAM_FRAMES);

    let sys = SystemSpec {
        ram_frames,
        max_cycles,
        ..SystemSpec::new(spec.platform, spec.prot)
    };
    let mut b = SystemBuilder::from_spec(sys)
        .slice_us(spec.slice_us)
        .seed(spec.seed);

    // With colouring on, every domain gets one explicit colour,
    // round-robin — a victim and its attacker land in different classes,
    // which is exactly the partitioning the mechanism promises. Without
    // colouring the builder's `None` default (all colours) applies, so
    // `raw` tenants genuinely share cache sets.
    let mut color_cursor = 0u64;
    let mut next_domain = |b: &mut SystemBuilder, frames: usize| {
        let colors = if spec.prot.color_userland {
            let c = color_cursor % n_colors;
            color_cursor += 1;
            Some(ColorSet::range(c, c + 1))
        } else {
            None
        };
        b.domain_sized(colors, frames)
    };

    // Each pair is the L1-D channel's own sender and receiver. Pair `k`'s
    // symbol stream is seeded by `spec.seed ^ k·0x9E37_79B9`; the attacker
    // is a primary, so the run ends once every pair has its quota.
    let mut pairs = Vec::with_capacity(spec.pairs);
    for k in 0..spec.pairs {
        let victim = next_domain(&mut b, PAIR_FRAMES);
        let attacker = next_domain(&mut b, PAIR_FRAMES);
        let seed = spec.seed ^ (k as u64).wrapping_mul(0x9E37_79B9);
        pairs.push(spawn_pair(
            &mut b,
            victim,
            attacker,
            CLOUD_SYMBOLS,
            seed,
            cache::l1d_sender(CLOUD_SYMBOLS),
            cache::l1d_receiver().program(per_pair),
        ));
    }

    // Tenant-side request accounting: (completion cycle, sojourn cycles).
    let sojourns: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));

    // Mean inter-arrival per tenant: ~4 requests per rotation, so the
    // fleet stays busy without saturating (Pareto mean is ~4.3·x_m).
    let mean_gap = (n_domains as u64 * slice_cycles / 4).max(1) as f64;

    for i in 0..spec.tenants {
        let d = next_domain(&mut b, TENANT_FRAMES);
        let log = Rc::clone(&sojourns);
        let seed = spec.seed ^ 0xC10D_0000 ^ (i as u64).wrapping_mul(0x6A09_E667);
        b.spawn_daemon(d, 0, 100, tenant(seed, mean_gap, log));
    }

    let report = b.try_run()?;

    // Per-environment isolation: a tenant daemon that died (a panic) is
    // counted here, not propagated — the fleet completed and every stat
    // below covers the survivors.
    let failed_tenants = report
        .env_outcomes
        .iter()
        .filter(|o| matches!(o, EnvOutcome::Failed { .. }))
        .count();

    // Pool every pair's paired observations into one aggregate dataset.
    let outcome = judge(CLOUD_SYMBOLS, &pairs, spec.seed);

    let mut sj: Vec<u64> = sojourns.take();
    sj.sort_unstable();
    let completed = sj.len();
    let sim_seconds = cfg.cycles_to_us(report.cycles[0]) / 1e6;
    let pct = |sorted: &[u64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
        cfg.cycles_to_us(sorted[idx])
    };
    Ok(CloudReport {
        outcome,
        tenants: spec.tenants,
        failed_tenants,
        completed,
        sim_seconds,
        throughput_rps: if sim_seconds > 0.0 {
            completed as f64 / sim_seconds
        } else {
            0.0
        },
        p50_us: pct(&sj, 50.0),
        p95_us: pct(&sj, 95.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_geometry() {
        let s = CloudSpec::new(Platform::Haswell, ProtectionConfig::raw(), 96);
        assert_eq!(s.domains(), 96 + 8);
        assert!(s.per_pair() * s.pairs >= s.samples);
    }

    #[test]
    fn small_cloud_raw_leaks_and_protected_closes() {
        let mut spec = CloudSpec::new(Platform::Haswell, ProtectionConfig::raw(), 24);
        spec.samples = 60;
        let raw = run_cloud(&spec).expect("raw cloud run");
        assert!(raw.completed > 0, "no tenant requests completed");
        assert!(
            raw.outcome.verdict.leaks,
            "raw cloud should leak: {}",
            raw.summary()
        );

        let mut spec = CloudSpec::new(Platform::Haswell, ProtectionConfig::protected(), 24);
        spec.samples = 60;
        let prot = run_cloud(&spec).expect("protected cloud run");
        assert!(
            !prot.outcome.verdict.leaks,
            "protected cloud should be closed: {}",
            prot.summary()
        );
        assert!(prot.completed > 0, "no tenant requests completed");
    }

    #[test]
    fn dead_tenant_leaves_survivor_stats_standing() {
        use tp_core::fault;
        let run = |armed| {
            let mut spec = CloudSpec::new(Platform::Sabre, ProtectionConfig::raw(), 12);
            spec.samples = 24;
            fault::arm(armed);
            let r = run_cloud(&spec);
            fault::arm(None);
            r.expect("cloud run completes despite the dead tenant")
        };
        let clean = run(None);
        assert_eq!(clean.failed_tenants, 0);

        // The ordinal is calibrated so the panic lands on a daemon tenant
        // (a primary's death would abort the run and fail this test).
        let faulted = run(Some(tp_core::FaultKind::EnvPanic { at: 50 }));
        assert_eq!(faulted.failed_tenants, 1, "{}", faulted.summary());
        assert!(
            faulted.completed > 0,
            "survivors keep completing requests: {}",
            faulted.summary()
        );
        assert!(faulted.summary().contains("stats over survivors"));
    }

    /// An environment costs its future's state and nothing else, so a
    /// fleet of a thousand tenants fits in a couple of MiB: the boxed
    /// future of one tenant (its RNG, backlog queue and request loop, the
    /// environment handle and every env op it can be suspended in) must
    /// stay within 2 KiB.
    #[test]
    fn a_tenant_future_fits_in_two_kib() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use tp_core::{Kernel, SimInner};
        let cfg = Platform::Haswell.config();
        let prot = ProtectionConfig::raw();
        let mut kernel = Kernel::new(cfg, prot, tp_core::system::DEFAULT_RAM_FRAMES, 200_000);
        let colors = ColorSet::all(cfg.partition_colors());
        let d = kernel.create_domain(colors, TENANT_FRAMES).expect("domain");
        let t = kernel.create_thread(d, 0, 100).expect("thread");
        let machine = tp_sim::Machine::new(cfg, 0);
        let sim = SimInner::new(machine, kernel, 4_000, u64::MAX);
        let env = UserEnv::new(Rc::new(RefCell::new(sim)), t, 0, d, cfg, colors);
        let fut = Box::new(tenant(1, 1e6, Rc::default())).start(env);
        let bytes = std::mem::size_of_val(&*fut);
        assert!(bytes <= 2048, "a tenant's future takes {bytes} bytes");
    }

    #[test]
    fn tenant_accounting_is_deterministic() {
        let run = || {
            let mut spec = CloudSpec::new(Platform::Sabre, ProtectionConfig::raw(), 12);
            spec.samples = 24;
            run_cloud(&spec).expect("cloud run")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.outcome.dataset.outputs(), b.outcome.dataset.outputs());
        assert!((a.p95_us - b.p95_us).abs() < 1e-12);
    }
}
