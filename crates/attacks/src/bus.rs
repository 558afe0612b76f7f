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

use crate::harness::{run_channel, ChannelOutcome, IntraCoreSpec, ReceiverLog, Sender};
use tp_core::{SimError, UserEnv};
use tp_sim::{VAddr, FRAME_SIZE};

/// Accesses per receiver measurement.
const PROBE_ACCESSES: u64 = 24;

/// Sender DRAM accesses per symbol period.
const HAMMER_ACCESSES: u64 = 600;

/// Pages in each party's DRAM buffer.
const BUF_PAGES: usize = 4096;

/// Load the next `n` lines of the `BUF_PAGES` buffer at `base`, stepping
/// the line `cursor` by `step` (odd and non-unit: non-sequential, which
/// defeats the prefetcher); returns their total latency. The reuse
/// distance exceeds the LLC, so every access is DRAM traffic.
async fn stream(env: &UserEnv, base: VAddr, cursor: &mut u64, step: u64, n: u64) -> u64 {
    let line = env.platform().line;
    let lines = BUF_PAGES as u64 * (FRAME_SIZE / line);
    let mut total = 0;
    for _ in 0..n {
        *cursor = (*cursor + step) % lines;
        total += env.load(VAddr(base.0 + *cursor * line)).await;
    }
    total
}

/// Compute until `period` cycles have passed since `t0`.
async fn pace(env: &UserEnv, t0: u64, period: u64) {
    let elapsed = env.now().await - t0;
    if elapsed < period {
        env.compute(period - elapsed).await;
    }
}

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
    let period = spec.platform.config().us_to_cycles(spec.slice_us);
    // Open scheduling arms no tick, so the parties pace themselves and the
    // builder's slice goes unused.
    let b = spec.builder().window(800).open_scheduling();
    let sender = Sender {
        core: 1,
        setup: async |env: &mut UserEnv| (env.map_pages(BUF_PAGES).await.0, 0),
        encode: async move |env: &mut UserEnv, (base, cursor): &mut (VAddr, u64), symbol, t0| {
            if symbol == 1 {
                stream(env, *base, cursor, 97, HAMMER_ACCESSES).await;
            }
            pace(env, t0, period).await;
        },
    };
    let samples = spec.samples;
    let receiver = async move |env: &mut UserEnv, log: ReceiverLog| {
        let (base, _) = env.map_pages(BUF_PAGES).await;
        let mut cursor = 0;
        for _ in 0..samples + 1 {
            let t0 = env.now().await;
            let total = stream(env, base, &mut cursor, 101, PROBE_ACCESSES).await;
            let t1 = env.now().await;
            log.borrow_mut().push((t1, total as f64));
            pace(env, t0, period).await;
        }
    };
    run_channel(spec, b, sender, receiver)
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
