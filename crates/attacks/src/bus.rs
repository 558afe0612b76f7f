//! The interconnect (memory-bus) covert channel — the paper's declared
//! limitation (§2.3, §3.1, §6.1).
//!
//! Stateless interconnects cannot be flushed (there is nothing to flush)
//! and contemporary hardware offers no way to partition their bandwidth,
//! so time protection *cannot* close a covert channel between concurrently
//! executing domains that modulate bus utilisation. This is why the
//! paper's threat model restricts intra-core channels to time-multiplexed
//! cores and cross-core channels to side channels only.
//!
//! This module demonstrates the limitation: a sender on one core either
//! hammers DRAM or idles; a receiver on another core times its own DRAM
//! accesses and reads the sender's bit from the queuing delay — even under
//! full time protection.

use crate::harness::{pair_logs, ChannelOutcome, IntraCoreSpec};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tp_analysis::leakage_test;
use tp_core::{SimError, SystemBuilder, UserEnv};
use tp_sim::{VAddr, FRAME_SIZE};

/// Accesses per receiver measurement.
const PROBE_ACCESSES: u64 = 24;

/// Sender DRAM accesses per symbol period.
const HAMMER_ACCESSES: u64 = 600;

/// Run the cross-core bus covert channel (1-bit symbols: hammer / idle).
///
/// The `slice_us` of the spec is reinterpreted as the symbol period; the
/// parties run concurrently on cores 0 and 1 with open scheduling.
///
/// # Errors
/// Returns the [`SimError`] if the simulation fails.
///
/// # Panics
/// Panics if `n_symbols != 2` — a misuse of the API, not a simulation
/// outcome.
pub fn bus_channel(spec: &IntraCoreSpec) -> Result<ChannelOutcome, SimError> {
    assert_eq!(
        spec.n_symbols, 2,
        "the bus channel sends one bit per period"
    );
    let sender_log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let receiver_log: Arc<Mutex<Vec<(u64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let period = spec.platform.config().us_to_cycles(spec.slice_us);

    let mut b = SystemBuilder::new(spec.platform, spec.prot)
        .seed(spec.seed)
        .max_cycles(spec.cycle_budget())
        .window(800)
        .open_scheduling();
    let d_recv = b.domain(None);
    let d_send = b.domain(None);

    let n_symbols = spec.n_symbols;
    let samples = spec.samples;
    let seed = spec.seed;

    let slog = Arc::clone(&sender_log);
    b.spawn_daemon(d_send, 1, 100, async move |env: &mut UserEnv| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
        // Stream fresh cache lines over a large buffer: the reuse distance
        // exceeds the LLC, so every access is DRAM traffic.
        let (base, _) = env.map_pages(4096).await;
        let lines = 4096 * (FRAME_SIZE / env.platform().line);
        let line_sz = env.platform().line;
        let mut cursor = 0u64;
        loop {
            let symbol = rng.gen_range(0..n_symbols);
            let t0 = env.now().await;
            slog.lock().push((t0, symbol));
            if symbol == 1 {
                for _ in 0..HAMMER_ACCESSES {
                    cursor = (cursor + 97) % lines; // non-sequential: defeats the prefetcher
                    env.load(VAddr(base.0 + cursor * line_sz)).await;
                }
            }
            let elapsed = env.now().await - t0;
            if elapsed < period {
                env.compute(period - elapsed).await;
            }
        }
    });

    let rlog = Arc::clone(&receiver_log);
    b.spawn(d_recv, 0, 100, async move |env: &mut UserEnv| {
        let (base, _) = env.map_pages(4096).await;
        let lines = 4096 * (FRAME_SIZE / env.platform().line);
        let line_sz = env.platform().line;
        let mut cursor = 0u64;
        for _ in 0..samples + 1 {
            let t0 = env.now().await;
            let mut total = 0u64;
            for _ in 0..PROBE_ACCESSES {
                cursor = (cursor + 101) % lines;
                total += env.load(VAddr(base.0 + cursor * line_sz)).await;
            }
            let t1 = env.now().await;
            rlog.lock().push((t1, total as f64));
            let elapsed = env.now().await - t0;
            if elapsed < period {
                env.compute(period - elapsed).await;
            }
        }
    });

    let _ = b.try_run()?;
    let dataset = pair_logs(n_symbols, &sender_log.lock(), &receiver_log.lock());
    let verdict = leakage_test(&dataset, spec.seed ^ 0x0F0F_F0F0);
    Ok(ChannelOutcome { dataset, verdict })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scenario;
    use tp_sim::Platform;

    fn spec(scenario: Scenario) -> IntraCoreSpec {
        IntraCoreSpec::new(Platform::Haswell, scenario, 2, 150).with_slice_us(30.0)
    }

    #[test]
    fn bus_channel_exists_raw() {
        let raw = bus_channel(&spec(Scenario::Raw)).expect("simulation");
        assert!(raw.verdict.leaks, "bus channel raw: {}", raw.summary());
    }

    #[test]
    fn time_protection_cannot_close_the_bus_channel() {
        // §6.1: "we are powerless without appropriate hardware support" —
        // colouring and flushing do not touch bus bandwidth.
        let prot = bus_channel(&spec(Scenario::Protected)).expect("simulation");
        assert!(
            prot.verdict.leaks,
            "the interconnect channel should survive time protection: {}",
            prot.summary()
        );
        assert!(prot.verdict.m.bits > 0.1, "{}", prot.summary());
    }
}
