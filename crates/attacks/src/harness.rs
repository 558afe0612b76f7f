//! The one two-party channel skeleton (§5.1).
//!
//! Every paired channel is measured the same way. A *sender* draws a
//! seeded random symbol at the start of each of its periods, stamps it
//! with the cycle counter and encodes it into some shared state; a
//! *receiver* takes one timing observation per period. Each observation
//! is paired with the sender period that most recently started before it
//! (robust to multi-slice receiver setup phases), and the pairs give a
//! [`Dataset`] whose capacity `M` is judged against the shuffle bound
//! `M0`.
//!
//! The harness owns the symbol stream, the receiver's log, the pairing
//! and the verdict. A channel supplies its builder settings and any
//! kernel setup hook, its [`Sender`], and either its own receiver
//! program or the standard one built from a [`Receiver`]. [`run_channel`]
//! runs one pair on its own system; the cloud fleet spawns many pairs
//! into one system with [`spawn_pair`] and pools them with [`judge`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use tp_analysis::{leakage_test, Dataset, LeakageVerdict};
use tp_core::{DomainHandle, ProtectionConfig, SimError, SystemBuilder, UserEnv};
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

    /// A slotted system for the spec: its platform, protection, seed,
    /// slice and [`IntraCoreSpec::cycle_budget`].
    #[must_use]
    pub fn builder(&self) -> SystemBuilder {
        SystemBuilder::new(self.platform, self.prot)
            .seed(self.seed)
            .slice_us(self.slice_us)
            .max_cycles(self.cycle_budget())
    }
}

/// The receiver's log of observations: `(stamp cycle, output)`.
pub type ReceiverLog = Rc<RefCell<Vec<(u64, f64)>>>;

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

/// One-time setup of a sender or receiver: an `async` closure returning
/// its state.
pub trait Setup<T>: AsyncFnOnce(&mut UserEnv) -> T + 'static {}
impl<T, F: AsyncFnOnce(&mut UserEnv) -> T + 'static> Setup<T> for F {}

/// A sender's per-symbol body, `encode(env, state, symbol, stamp)`: an
/// `async` closure that encodes the symbol and paces to the next period.
pub trait Encode<T>: AsyncFnMut(&mut UserEnv, &mut T, usize, u64) + 'static {}
impl<T, F: AsyncFnMut(&mut UserEnv, &mut T, usize, u64) + 'static> Encode<T> for F {}

/// A standard receiver's per-slice measurement, `measure(env, state,
/// stamp)`: an `async` closure returning the observation.
pub trait Measure<T>: AsyncFnMut(&mut UserEnv, &mut T, u64) -> f64 + 'static {}
impl<T, F: AsyncFnMut(&mut UserEnv, &mut T, u64) -> f64 + 'static> Measure<T> for F {}

/// A receiver program: it logs its observations and returns when it has
/// enough. The run ends when every receiver has returned.
pub trait ReceiverProgram: AsyncFnOnce(&mut UserEnv, ReceiverLog) + 'static {}
impl<F: AsyncFnOnce(&mut UserEnv, ReceiverLog) + 'static> ReceiverProgram for F {}

/// A sender (Trojan). Its program runs `setup` once, then `encode` for
/// each symbol the harness draws and stamps with the cycle counter.
pub struct Sender<S, E> {
    /// The core the sender runs on; the receiver runs on core 0.
    pub core: usize,
    /// One-time setup before the first stamp ([`Setup`]).
    pub setup: S,
    /// Per-symbol encode-and-pace body ([`Encode`]), usually ending in a
    /// wait for the preemption.
    pub encode: E,
}

/// The standard receiver (spy): `setup` runs once (untimed allocation and
/// warming), then the receiver waits for a slice boundary and, once per
/// slice, stamps the cycle counter, calls `measure(env, state, stamp)`,
/// logs the observation under the stamp and waits for the preemption.
/// [`Receiver::program`] builds the program.
pub struct Receiver<S, M> {
    /// One-time setup returning the receiver's probe state ([`Setup`]).
    pub setup: S,
    /// Per-slice measurement ([`Measure`]).
    pub measure: M,
}

impl<S, M> Receiver<S, M> {
    /// The receiver program taking `samples + 1` observations.
    pub fn program<T: 'static>(self, samples: usize) -> impl ReceiverProgram
    where
        S: Setup<T>,
        M: Measure<T>,
    {
        let Receiver { setup, mut measure } = self;
        async move |env: &mut UserEnv, log: ReceiverLog| {
            let mut state = setup(env).await;
            // Synchronise to a slice boundary after setup.
            let _ = env.wait_preempt().await;
            for _ in 0..samples + 1 {
                let t0 = env.now().await;
                let out = measure(env, &mut state, t0).await;
                log.borrow_mut().push((t0, out));
                let _ = env.wait_preempt().await;
            }
        }
    }
}

/// The logs of one spawned sender/receiver pair.
pub struct PairLogs {
    sends: Rc<RefCell<Vec<(u64, usize)>>>,
    recvs: ReceiverLog,
}

/// Spawn a sender/receiver pair into `b`: the sender as a daemon of
/// domain `send` on `sender.core`, the receiver as a primary of domain
/// `recv` on core 0. The sender's symbols are uniform over `0..n_symbols`
/// from a stream seeded by `seed`. The sender is spawned first, so a
/// setup hook sees the pair's TCBs in order `[sender, receiver]`.
pub fn spawn_pair<T: 'static>(
    b: &mut SystemBuilder,
    send: DomainHandle,
    recv: DomainHandle,
    n_symbols: usize,
    seed: u64,
    sender: Sender<impl Setup<T>, impl Encode<T>>,
    receiver: impl ReceiverProgram,
) -> PairLogs {
    let logs = PairLogs {
        sends: Rc::default(),
        recvs: Rc::default(),
    };
    let sends = Rc::clone(&logs.sends);
    let Sender {
        core,
        setup,
        mut encode,
    } = sender;
    b.spawn_daemon(send, core, 100, async move |env: &mut UserEnv| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
        let mut state = setup(env).await;
        loop {
            let symbol = rng.gen_range(0..n_symbols);
            let t0 = env.now().await;
            sends.borrow_mut().push((t0, symbol));
            encode(env, &mut state, symbol, t0).await;
        }
    });
    let recvs = Rc::clone(&logs.recvs);
    b.spawn(recv, 0, 100, async move |env: &mut UserEnv| {
        receiver(env, recvs).await;
    });
    logs
}

/// Pair every receiver observation of `pairs` with the sender period that
/// most recently *started before* it, pool them in order into one
/// dataset, and run the §5.1 leakage test on it under `seed`.
#[must_use]
pub fn judge(n_symbols: usize, pairs: &[PairLogs], seed: u64) -> ChannelOutcome {
    let mut dataset = Dataset::new(n_symbols);
    for p in pairs {
        pair_logs(&mut dataset, &p.sends.borrow(), &p.recvs.borrow());
    }
    let verdict = leakage_test(&dataset, seed ^ 0x0F0F_F0F0);
    ChannelOutcome { dataset, verdict }
}

/// Append each observation of `recvs` to `data`, paired with the latest
/// sender entry that started before it; one with none is dropped.
fn pair_logs(data: &mut Dataset, sends: &[(u64, usize)], recvs: &[(u64, f64)]) {
    for &(t, out) in recvs {
        if let Some(&(_, symbol)) = sends.iter().rev().find(|(ts, _)| *ts < t) {
            data.push(symbol, out);
        }
    }
}

/// Run one channel and judge it: a receiver domain, then a sender domain
/// (the receiver owns slot 0, so under slotted scheduling its observation
/// follows the sender's slice), the pair spawned into them, the system
/// run to completion.
///
/// `b` carries the channel's settings (usually [`IntraCoreSpec::builder`])
/// and any kernel setup hook, and no domains yet.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn run_channel<T: 'static>(
    spec: &IntraCoreSpec,
    mut b: SystemBuilder,
    sender: Sender<impl Setup<T>, impl Encode<T>>,
    receiver: impl ReceiverProgram,
) -> Result<ChannelOutcome, SimError> {
    let recv = b.domain(None);
    let send = b.domain(None);
    let logs = spawn_pair(
        &mut b,
        send,
        recv,
        spec.n_symbols,
        spec.seed,
        sender,
        receiver,
    );
    let _ = b.try_run()?;
    Ok(judge(spec.n_symbols, &[logs], spec.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_uses_most_recent_sender_slice() {
        let sends = vec![(100, 0), (300, 1), (500, 2)];
        let recvs = vec![(50, 9.0), (200, 10.0), (400, 11.0), (600, 12.0)];
        let mut d = Dataset::new(3);
        pair_logs(&mut d, &sends, &recvs);
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
        let o = run_channel(
            &spec,
            spec.builder(),
            Sender {
                core: 0,
                setup: async |_: &mut UserEnv| (),
                encode: async |env: &mut UserEnv, (): &mut (), _, _| {
                    env.compute(500).await;
                    let _ = env.wait_preempt().await;
                },
            },
            Receiver {
                setup: async |_: &mut UserEnv| (),
                measure: async |env: &mut UserEnv, (): &mut (), _| {
                    env.compute(100).await;
                    1.0
                },
            }
            .program(spec.samples),
        )
        .expect("harness smoke run failed");
        assert!(o.dataset.len() >= 8, "only {} samples", o.dataset.len());
    }
}
