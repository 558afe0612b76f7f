//! The cross-core LLC side channel against ElGamal (§5.3.3, Figure 4).
//!
//! Reproduces the attack of Liu et al. (2015): the victim repeatedly
//! decrypts on one core; a spy on another core prime&probes the LLC set
//! holding the victim's *square* function. Every squaring evicts the spy's
//! eviction set; the interval between evictions reveals whether a multiply
//! followed, i.e. the secret exponent bit. Under time protection the LLC
//! is partitioned by colour: the spy cannot even construct an eviction set
//! reaching the victim's colours, and the channel closes.

use crate::elgamal::{key_bits, BigUint, ElGamalKey, ExpOp};
use crate::probe::llc_slice_probe;
use parking_lot::Mutex;
use std::sync::Arc;
use tp_core::{
    CapObject, Capability, ProtectionConfig, Rights, SimError, Syscall, SystemBuilder, UserEnv,
};
use tp_sim::machine::slice_index;
use tp_sim::{CacheGeom, Platform, VAddr, FRAME_SIZE};

/// Compute cycles of a squaring beyond its memory traffic. (GnuPG's
/// squaring is specially optimised; the plain multiplication is roughly
/// twice as expensive — that asymmetry is what makes the interval lengths
/// clearly separable in Figure 4.)
const SQUARE_COMPUTE: u64 = 9_000;

/// Compute cycles of a multiplication beyond its memory traffic.
const MUL_COMPUTE: u64 = 18_000;

/// Spy probe-slot length in cycles.
const SLOT_CYCLES: u64 = 1_500;

/// Pause between decryptions (delimits key repetitions in the trace).
const DECRYPT_PAUSE: u64 = 120_000;

/// Result of the cross-core attack.
#[derive(Debug, Clone)]
pub struct LlcAttackResult {
    /// Per-probe observations (probe-start cycle, probe latency): Figure
    /// 4's time axis for the monitored set.
    pub trace: Vec<(u64, u64)>,
    /// Gap classifications recovered from the trace (one per exponent bit
    /// after the leading one, per decryption observed).
    pub recovered_bits: Vec<u8>,
    /// Ground-truth key bits.
    pub true_bits: Vec<u8>,
    /// Fraction of recovered bits matching the key (0.5 ≈ guessing).
    pub accuracy: f64,
    /// Whether the spy observed any victim cache activity at all.
    pub activity_detected: bool,
    /// Size of the eviction set the spy managed to build.
    pub eviction_set_size: usize,
    /// Ground truth: victim-core cycle of every squaring (for trace
    /// overlays and decoder validation; not available to a real attacker).
    pub victim_square_cycles: Vec<u64>,
}

/// Run the attack for `slots` spy probe slots on the paper's cross-core
/// platform (Haswell).
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
pub fn try_llc_attack(
    prot: ProtectionConfig,
    slots: usize,
    seed: u64,
) -> Result<LlcAttackResult, SimError> {
    try_llc_attack_on(Platform::Haswell, prot, slots, seed)
}

/// Run the attack on any registered platform with a sliced LLC.
///
/// # Errors
/// Returns the [`SimError`] of the first simulated program that fails.
///
/// # Panics
/// Panics if the platform has no LLC.
pub fn try_llc_attack_on(
    platform: Platform,
    prot: ProtectionConfig,
    slots: usize,
    seed: u64,
) -> Result<LlcAttackResult, SimError> {
    assert!(
        platform.config().llc.is_some(),
        "the LLC attack needs a last-level cache"
    );
    let key = ElGamalKey::demo();
    let true_bits = key_bits(&key.x);

    // The victim publishes the physical placement of its square function;
    // this models the attack's profiling phase (scanning all LLC sets for
    // the square-function access pattern), which is untimed setup. The
    // *value* travels through host memory, but the "published yet?" edge is
    // a simulated kernel notification: host-side polling of shared state
    // would make the spy's start slot depend on host-thread scheduling and
    // break run-to-run determinism (Invariant 1).
    let square_target: Arc<Mutex<Option<(usize, usize)>>> = Arc::new(Mutex::new(None));
    let trace: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let evset_size: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));

    let mut b = SystemBuilder::new(platform, prot)
        .seed(seed)
        .max_cycles(slots as u64 * SLOT_CYCLES * 8 + 50_000_000)
        // Fine-grained cross-core interleaving: the spy's sampling must
        // resolve intervals of a few thousand cycles.
        .window(600)
        .open_scheduling();
    let d_spy = b.domain(None);
    let d_victim = b.domain(None);

    // Notification both threads hold a capability to (victim signals it
    // once the placement is published; the spy polls it in simulated time).
    let ntfn_cap: Arc<Mutex<(usize, usize)>> = Arc::new(Mutex::new((0, 0)));
    let ntfn_cap2 = Arc::clone(&ntfn_cap);
    b.setup(Box::new(move |k, _m, tcbs, domains| {
        let n = k.create_notification(domains[0]).expect("notification");
        let cap = Capability {
            obj: CapObject::Notification(n),
            rights: Rights::all(),
        };
        let victim_cap = k.grant_cap(tcbs[0], cap);
        let spy_cap = k.grant_cap(tcbs[1], cap);
        *ntfn_cap2.lock() = (victim_cap, spy_cap);
    }));

    let square_log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    // Victim: core 1.
    let target2 = Arc::clone(&square_target);
    let square_log2 = Arc::clone(&square_log);
    let ntfn_victim = Arc::clone(&ntfn_cap);
    b.spawn_daemon(d_victim, 1, 100, async move |env: &mut UserEnv| {
        let cfg = *env.platform();
        let line = cfg.line;
        // Code pages: square function and multiply function.
        let (code_va, code_frames) = env.map_pages(2).await;
        let square_va = code_va;
        let mul_va = VAddr(code_va.0 + FRAME_SIZE);
        // Publish the (slice, set) of the square function's first line,
        // then signal the spy through the kernel.
        {
            let pa = code_frames[0] * FRAME_SIZE;
            let llc = cfg.llc.expect("x86");
            let per_slice = CacheGeom {
                size: llc.size / u64::from(cfg.llc_slices),
                ..llc
            };
            let slice = slice_index(pa / line, cfg.llc_slices.into());
            let set = tp_sim::cache::phys_set(per_slice, pa);
            *target2.lock() = Some((slice, set));
            let cap = ntfn_victim.lock().0;
            env.syscall(Syscall::Signal { cap })
                .await
                .expect("signal placement");
        }
        // Operand data.
        let (data_va, _) = env.map_pages(2).await;
        let c1 = BigUint::from_limbs(vec![0x1234_5678_9abc_def0, 0x0fed_cba9]);
        // The key and ciphertext are fixed, so every decryption performs
        // the same square/multiply sequence.
        let mut ops = Vec::new();
        let _ = key.decrypt_shared(&c1, |op| ops.push(op));
        loop {
            for &op in &ops {
                let (fn_va, limbs, compute) = match op {
                    ExpOp::Square => (square_va, 4u64, SQUARE_COMPUTE),
                    ExpOp::Multiply => (mul_va, 4u64, MUL_COMPUTE),
                };
                if op == ExpOp::Square {
                    let t = env.now().await;
                    square_log2.lock().push(t);
                }
                for i in 0..4u64 {
                    env.exec(VAddr(fn_va.0 + i * line)).await;
                }
                for i in 0..limbs {
                    env.load(VAddr(data_va.0 + i * line)).await;
                }
                env.compute(compute).await;
            }
            env.compute(DECRYPT_PAUSE).await;
        }
    });

    // Spy: core 0.
    let target = Arc::clone(&square_target);
    let trace2 = Arc::clone(&trace);
    let evset2 = Arc::clone(&evset_size);
    let ntfn_spy = Arc::clone(&ntfn_cap);
    b.spawn(d_spy, 0, 100, async move |env: &mut UserEnv| {
        let cfg = *env.platform();
        let llc = cfg.llc.expect("x86");
        let per_slice = CacheGeom {
            size: llc.size / u64::from(cfg.llc_slices),
            ..llc
        };
        // Wait (in simulated time) until the victim has signalled that its
        // placement is published. Polling the notification is a kernel
        // operation, so the wake-up slot is a function of simulated time
        // only — never of host-thread scheduling.
        let cap = ntfn_spy.lock().1;
        let mut tgt = None;
        for _ in 0..10_000 {
            let placed = env
                .syscall(Syscall::Poll { cap })
                .await
                .expect("poll placement");
            if placed != 0 {
                tgt = *target.lock();
                break;
            }
            env.compute(1_000).await;
        }
        let (slice, set) = tgt.expect("victim placement");
        let buf = llc_slice_probe(
            env,
            per_slice,
            cfg.llc_slices.into(),
            slice,
            set,
            llc.ways as usize,
            4096,
        )
        .await;
        *evset2.lock() = buf.len();
        // Prime once.
        let _ = buf.probe(env).await;
        for _slot in 0..slots as u64 {
            let t0 = env.now().await;
            let lat = buf.probe(env).await;
            trace2.lock().push((t0, lat));
            let elapsed = env.now().await - t0;
            if elapsed < SLOT_CYCLES {
                env.compute(SLOT_CYCLES - elapsed).await;
            }
        }
    });

    let _ = b.try_run()?;

    let trace = Arc::try_unwrap(trace).map_or_else(|a| a.lock().clone(), Mutex::into_inner);
    let eviction_set_size = *evset_size.lock();
    let squares = square_log.lock().clone();
    let mut result = decode_trace(trace, &true_bits, eviction_set_size);
    result.victim_square_cycles = squares;
    Ok(result)
}

/// Decode the probe trace into exponent bits.
///
/// Steps: (1) threshold the probe latencies into *activity* events (each a
/// squaring refilling the monitored set); (2) measure the gaps between
/// events in cycles; (3) split the gap sequence into decryption blocks at
/// the long inter-decryption pauses; (4) classify each in-block gap as
/// short (no multiply: bit 0) or long (multiply: bit 1) with an adaptive
/// cut; (5) score each block against the key bits — blocks are aligned
/// because each starts at the first squaring after a pause.
fn decode_trace(
    trace: Vec<(u64, u64)>,
    true_bits: &[u8],
    eviction_set_size: usize,
) -> LlcAttackResult {
    let lats: Vec<f64> = trace.iter().map(|&(_, l)| l as f64).collect();
    let (events, activity_detected) = if lats.is_empty() || eviction_set_size == 0 {
        (Vec::new(), false)
    } else {
        let floor = tp_analysis::stats::percentile(&lats, 20.0);
        let peak = tp_analysis::stats::percentile(&lats, 99.0);
        if peak < floor + 100.0 {
            (Vec::new(), false)
        } else {
            // Catch even a single evicted line (one DRAM round-trip above
            // the quiet floor).
            let threshold = floor + 120.0;
            let raw_events: Vec<u64> = trace
                .iter()
                .filter(|&&(_, l)| (l as f64) > threshold)
                .map(|&(t, _)| t)
                .collect();
            // A squaring interleaved with a probe registers on two
            // consecutive probes; merge events closer than one squaring.
            let min_gap = SQUARE_COMPUTE * 3 / 4;
            let mut events: Vec<u64> = Vec::new();
            for t in raw_events {
                if events.last().is_none_or(|&e| t - e > min_gap) {
                    events.push(t);
                }
            }
            let detected = !events.is_empty();
            (events, detected)
        }
    };

    // Split into per-decryption blocks at pause-length gaps (cycles).
    let pause_cut = DECRYPT_PAUSE * 2 / 3;
    let mut blocks: Vec<Vec<u64>> = vec![Vec::new()];
    for w in events.windows(2) {
        let gap = w[1] - w[0];
        if gap >= pause_cut {
            blocks.push(Vec::new());
        } else {
            blocks.last_mut().expect("nonempty").push(gap);
        }
    }
    // Drop the (unaligned) first block and any trailing partial block.
    let complete: Vec<&Vec<u64>> = blocks
        .iter()
        .skip(1)
        .filter(|b| b.len() + 2 >= true_bits.len())
        .collect();

    // Adaptive short/long cut over all in-block gaps.
    let all_gaps: Vec<f64> = complete
        .iter()
        .flat_map(|b| b.iter().map(|&g| g as f64))
        .collect();
    let cut = if all_gaps.is_empty() {
        0.0
    } else {
        (tp_analysis::stats::percentile(&all_gaps, 10.0)
            + tp_analysis::stats::percentile(&all_gaps, 90.0))
            / 2.0
    };

    // Classify and score: gap j of a block encodes key bit j (a long gap
    // means the squaring was followed by a multiply).
    let mut recovered = Vec::new();
    let mut matches = 0usize;
    let mut total = 0usize;
    for block in &complete {
        for (j, &g) in block.iter().enumerate() {
            let bit = u8::from((g as f64) > cut);
            recovered.push(bit);
            if j < true_bits.len() {
                total += 1;
                if true_bits[j] == bit {
                    matches += 1;
                }
            }
        }
    }
    let accuracy = if total == 0 {
        0.0
    } else {
        matches as f64 / total as f64
    };

    LlcAttackResult {
        trace,
        recovered_bits: recovered,
        true_bits: true_bits.to_vec(),
        accuracy,
        activity_detected,
        eviction_set_size,
        victim_square_cycles: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_attack_recovers_key_bits() {
        let r = try_llc_attack(ProtectionConfig::raw(), 6_000, 42).expect("sim run failed");
        assert_eq!(r.eviction_set_size, 16);
        assert!(r.activity_detected, "no victim activity observed");
        assert!(
            r.accuracy > 0.9,
            "key recovery accuracy {} with {} bits",
            r.accuracy,
            r.recovered_bits.len()
        );
    }

    #[test]
    fn colouring_closes_the_side_channel() {
        let r = try_llc_attack(ProtectionConfig::protected(), 2_000, 42).expect("sim run failed");
        // The spy cannot build an eviction set into the victim's colours.
        assert!(
            !r.activity_detected || r.accuracy < 0.65,
            "protected attack still works: accuracy {} (evset {})",
            r.accuracy,
            r.eviction_set_size
        );
    }
}
