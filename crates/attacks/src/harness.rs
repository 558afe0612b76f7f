//! The shared sender/receiver experiment harness.
//!
//! Structure of every intra-core channel measurement (§5.3): two security
//! domains time-share a core under strict slots. The *sender* encodes a
//! seeded random symbol into micro-architectural state during its slice;
//! the *receiver* takes one timing observation per slice. Observations are
//! paired with the sender slice that immediately preceded them (robust to
//! multi-slice receiver setup phases), yielding a
//! [`Dataset`] for MI estimation.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tp_analysis::{leakage_test, Dataset, LeakageVerdict};
use tp_core::{ProtectionConfig, SimError, SystemBuilder, UserEnv};
use tp_sim::Platform;

/// The three defence scenarios of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Unmitigated.
    Raw,
    /// Maximal architecture-supported reset on every switch.
    FullFlush,
    /// Time protection: colouring + cloning + on-core flush.
    Protected,
}

impl Scenario {
    /// The protection configuration for the scenario.
    #[must_use]
    pub fn config(self) -> ProtectionConfig {
        match self {
            Scenario::Raw => ProtectionConfig::raw(),
            Scenario::FullFlush => ProtectionConfig::full_flush(),
            Scenario::Protected => ProtectionConfig::protected(),
        }
    }

    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Raw => "raw",
            Scenario::FullFlush => "full flush",
            Scenario::Protected => "protected",
        }
    }
}

/// Parameters of one intra-core channel measurement.
#[derive(Debug, Clone)]
pub struct IntraCoreSpec {
    /// Platform under test.
    pub platform: Platform,
    /// Protection configuration.
    pub prot: ProtectionConfig,
    /// Number of input symbols.
    pub n_symbols: usize,
    /// Receiver observations to collect.
    pub samples: usize,
    /// Time-slice length in microseconds.
    pub slice_us: f64,
    /// RNG seed (drives the symbol sequence and all simulator noise).
    pub seed: u64,
}

impl IntraCoreSpec {
    /// A spec with experiment defaults (50 µs slices — shorter than the
    /// paper's 1 ms purely for simulation speed; the channels are
    /// per-slice phenomena).
    #[must_use]
    pub fn new(platform: Platform, scenario: Scenario, n_symbols: usize, samples: usize) -> Self {
        IntraCoreSpec {
            platform,
            prot: scenario.config(),
            n_symbols,
            samples,
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

    /// Override the slice length.
    #[must_use]
    pub fn with_slice_us(mut self, us: f64) -> Self {
        self.slice_us = us;
        self
    }

    /// A generous cycle budget for the run: two slices per sample plus the
    /// worst-case switch work (a full flush costs ~1 M cycles per switch).
    #[must_use]
    pub fn cycle_budget(&self) -> u64 {
        let slice_cycles = (self.slice_us * 4_000.0) as u64; // over-estimate
        (self.samples as u64 + 64) * 2 * (2 * slice_cycles + 3_000_000)
    }
}

/// Log shared between harness and programs: (slice-start cycle, symbol).
pub type SenderLog = Arc<Mutex<Vec<(u64, usize)>>>;
/// Log of receiver observations: (probe-start cycle, output).
pub type ReceiverLog = Arc<Mutex<Vec<(u64, f64)>>>;

/// Outcome of a channel measurement: the dataset and its leakage verdict.
#[derive(Debug, Clone)]
pub struct ChannelOutcome {
    /// The paired observations.
    pub dataset: Dataset,
    /// The §5.1 leakage test result.
    pub verdict: LeakageVerdict,
}

impl ChannelOutcome {
    /// Pretty one-line summary, paper-style.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "M = {:.1} mb, M0 = {:.1} mb, n = {}{}",
            self.verdict.m.millibits(),
            self.verdict.m0_millibits(),
            self.dataset.len(),
            if self.verdict.leaks {
                "  ** LEAK **"
            } else {
                "  (no evidence of leak)"
            }
        )
    }
}

/// A sender body: called once per sender slice with the environment and the
/// symbol to encode.
pub trait SenderFn: AsyncFnMut(&mut UserEnv, usize) + 'static {}
impl<F: AsyncFnMut(&mut UserEnv, usize) + 'static> SenderFn for F {}

/// A receiver body: `setup` runs once (untimed allocation/profiling),
/// `measure` once per slice returning the observation. Both are `async`
/// closures.
pub struct Receiver<S, M> {
    /// One-time setup returning the receiver's probe state.
    pub setup: S,
    /// Per-slice measurement.
    pub measure: M,
}

/// Run a sender/receiver pair and return the paired dataset.
///
/// `sender` is invoked with the symbol sequence infrastructure already
/// in place; `setup`/`measure` describe the receiver.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_run_intra_core<T: 'static>(
    spec: &IntraCoreSpec,
    sender: impl SenderFn,
    receiver: Receiver<
        impl AsyncFnOnce(&mut UserEnv) -> T + 'static,
        impl AsyncFnMut(&mut UserEnv, &mut T) -> f64 + 'static,
    >,
) -> Result<Dataset, SimError> {
    try_run_intra_core_with_setup(spec, None, sender, receiver)
}

/// As [`try_run_intra_core`], with an optional kernel-setup hook that runs
/// after thread creation (capability grants etc.). The hook sees the TCBs
/// in order `[sender, receiver]`.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_run_intra_core_with_setup<T: 'static>(
    spec: &IntraCoreSpec,
    setup_hook: Option<tp_core::system::SetupFn>,
    mut sender: impl SenderFn,
    receiver: Receiver<
        impl AsyncFnOnce(&mut UserEnv) -> T + 'static,
        impl AsyncFnMut(&mut UserEnv, &mut T) -> f64 + 'static,
    >,
) -> Result<Dataset, SimError> {
    let sender_log: SenderLog = Arc::new(Mutex::new(Vec::new()));
    let receiver_log: ReceiverLog = Arc::new(Mutex::new(Vec::new()));

    let mut b = SystemBuilder::new(spec.platform, spec.prot)
        .seed(spec.seed)
        .slice_us(spec.slice_us)
        .max_cycles(spec.cycle_budget());
    // Receiver first: it owns slot 0, so its probe follows the sender slice.
    let d_recv = b.domain(None);
    let d_send = b.domain(None);
    if let Some(hook) = setup_hook {
        b.setup(hook);
    }

    let n_symbols = spec.n_symbols;
    let samples = spec.samples;
    let seed = spec.seed;

    let slog = Arc::clone(&sender_log);
    b.spawn_daemon(d_send, 0, 100, async move |env: &mut UserEnv| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
        loop {
            let symbol = rng.gen_range(0..n_symbols);
            let t0 = env.now().await;
            slog.lock().push((t0, symbol));
            sender(env, symbol).await;
            let _ = env.wait_preempt().await;
        }
    });

    let rlog = Arc::clone(&receiver_log);
    let Receiver { setup, mut measure } = receiver;
    b.spawn(d_recv, 0, 100, async move |env: &mut UserEnv| {
        let mut state = setup(env).await;
        // Synchronise to a slice boundary after setup.
        let _ = env.wait_preempt().await;
        for _ in 0..samples + 1 {
            let t0 = env.now().await;
            let out = measure(env, &mut state).await;
            rlog.lock().push((t0, out));
            let _ = env.wait_preempt().await;
        }
    });

    let _ = b.try_run()?;

    let sends = sender_log.lock().clone();
    let recvs = receiver_log.lock().clone();
    Ok(pair_logs(n_symbols, &sends, &recvs))
}

/// Pair each receiver observation with the sender slice that most recently
/// *started before* the observation.
#[must_use]
pub fn pair_logs(n_symbols: usize, sends: &[(u64, usize)], recvs: &[(u64, f64)]) -> Dataset {
    let mut data = Dataset::new(n_symbols);
    for &(t, out) in recvs {
        // Latest sender entry with start < t.
        let prev = sends.iter().rev().find(|(ts, _)| *ts < t);
        if let Some(&(_, symbol)) = prev {
            data.push(symbol, out);
        }
    }
    data
}

/// Run the full measurement + §5.1 leakage test.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_measure_channel<T: 'static>(
    spec: &IntraCoreSpec,
    sender: impl SenderFn,
    receiver: Receiver<
        impl AsyncFnOnce(&mut UserEnv) -> T + 'static,
        impl AsyncFnMut(&mut UserEnv, &mut T) -> f64 + 'static,
    >,
) -> Result<ChannelOutcome, SimError> {
    let dataset = try_run_intra_core(spec, sender, receiver)?;
    let verdict = leakage_test(&dataset, spec.seed ^ 0x0F0F_F0F0);
    Ok(ChannelOutcome { dataset, verdict })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_uses_most_recent_sender_slice() {
        let sends = vec![(100, 0), (300, 1), (500, 2)];
        let recvs = vec![(50, 9.0), (200, 10.0), (400, 11.0), (600, 12.0)];
        let d = pair_logs(3, &sends, &recvs);
        // t=50 has no preceding sender slice and is dropped.
        assert_eq!(d.len(), 3);
        assert_eq!(d.inputs(), &[0, 1, 2]);
        assert_eq!(d.outputs(), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn scenario_configs_differ() {
        assert!(Scenario::Protected.config().clone_kernel);
        assert!(!Scenario::Raw.config().clone_kernel);
        assert_eq!(Scenario::FullFlush.config().flush, tp_core::FlushMode::Full);
    }

    #[test]
    fn trivial_compute_channel_end_to_end() {
        // Smoke test of the harness itself: sender does nothing observable;
        // dataset must still assemble with the right shape.
        let spec = IntraCoreSpec::new(Platform::Haswell, Scenario::Raw, 2, 10).with_slice_us(20.0);
        let d = try_run_intra_core(
            &spec,
            async |env: &mut UserEnv, _sym| {
                env.compute(500).await;
            },
            Receiver {
                setup: async |_env: &mut UserEnv| (),
                measure: async |env: &mut UserEnv, (): &mut ()| {
                    env.compute(100).await;
                    1.0
                },
            },
        )
        .expect("harness smoke run failed");
        assert!(d.len() >= 8, "only {} samples", d.len());
    }
}
