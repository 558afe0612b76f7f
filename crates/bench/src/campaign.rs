//! The experiment registry and campaign runner.
//!
//! Every channel experiment of the paper is registered as data: name,
//! paper reference, supported platforms and a relative cost weight. The
//! `campaign` binary iterates the registry crossed with the platform
//! registry ([`tp_sim::Platform::ALL`]), runs each supported combination
//! and emits *structured* per-channel results — capacity estimates,
//! leak/closed verdicts and wall times — instead of prose tables.
//!
//! The leak/closed verdicts of a run are diffable against a pinned golden
//! file (`goldens/verdicts.json`): CI fails when any channel × mechanism ×
//! platform verdict diverges, turning the reproduction into a regression
//! gate for *result correctness*, not just wall-clock. Each verdict is a
//! majority vote over three independent seeds (see `VOTE_SEEDS`) so the
//! gate is robust against single-shot boundary noise in the §5.1 shuffle
//! test.

use crate::store::str_field;
use crate::util::samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tp_attacks::harness::{ChannelOutcome, IntraCoreSpec, Scenario};
use tp_attacks::{branchchan, bus, cache, flush_latency, interrupt, kernel_image, llc, tlbchan};
use tp_core::{ProtectionConfig, SimError};
use tp_sim::Platform;

/// One structured measurement: a channel under one defence mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelResult {
    /// Channel name (e.g. `L1-D`).
    pub channel: &'static str,
    /// Defence mechanism / scenario (e.g. `raw`, `protected`).
    pub mechanism: &'static str,
    /// What `value` measures: `M_mb` (channel capacity, millibits) or
    /// `accuracy_pct` (key-recovery accuracy, the LLC attack).
    pub metric: &'static str,
    /// The measured value.
    pub value: f64,
    /// The zero-leakage baseline (M0 in millibits, or chance accuracy).
    pub baseline: f64,
    /// The §5.1 verdict: does the channel leak?
    pub leaks: bool,
    /// Number of paired observations behind the verdict.
    pub samples: usize,
}

/// Base seed every vote seed is derived from. Part of the campaign
/// journal's cache key ([`crate::store::JournalHeader`]): changing the
/// seeds invalidates every cached cell.
pub const VOTE_SEED_BASE: u64 = 0x5EED;

/// Seeds for the three independent repetitions behind every pinned
/// verdict. A channel is reported as leaking iff at least two of three
/// seeds flag it: real channels (M ≫ M0) leak under every seed, while a
/// closed cell rarely survives the vote. M0 is the 95th percentile of 100
/// shuffles, so a closed cell leaks under one seed with probability
/// p ≈ 5%, and under the vote with 3p² − 2p³ ≈ 0.7% (assuming
/// independent seeds; the rate is not yet calibrated). This is what makes
/// the golden file a stable CI gate.
const VOTE_SEEDS: [u64; 3] = [
    VOTE_SEED_BASE,
    VOTE_SEED_BASE ^ 0x9E37_79B9,
    VOTE_SEED_BASE ^ 0x6A09_E667,
];

/// Run one measurement under each of [`VOTE_SEEDS`] and combine: leak
/// verdict by majority, value/baseline from the first seed that agrees
/// with the majority (so a reported row is always self-consistent — a
/// "leak" row shows an M above its M0, a "closed" row one below).
///
/// Each seed is XORed with the supervisor's retry salt
/// ([`crate::supervise::retry_salt`], zero outside a retry), so a retried
/// cell explores fresh seeds deterministically while a first attempt is
/// byte-identical to an unsupervised run.
fn vote(
    channel: &'static str,
    mechanism: &'static str,
    run: impl Fn(u64) -> Result<ChannelOutcome, SimError>,
) -> Result<ChannelResult, SimError> {
    let salt = crate::supervise::retry_salt();
    let outcomes: Vec<ChannelOutcome> = VOTE_SEEDS
        .iter()
        .map(|&s| run(s ^ salt))
        .collect::<Result<_, _>>()?;
    let leaks = outcomes.iter().filter(|o| o.verdict.leaks).count() * 2 > outcomes.len();
    let o = outcomes
        .iter()
        .find(|o| o.verdict.leaks == leaks)
        .expect("majority verdict has at least one witness");
    Ok(ChannelResult {
        channel,
        mechanism,
        metric: "M_mb",
        value: o.verdict.m.millibits(),
        baseline: o.verdict.m0_millibits(),
        leaks,
        samples: o.dataset.len(),
    })
}

impl ChannelResult {
    /// `leak` / `closed`, the strings pinned in the golden file.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if self.leaks {
            "leak"
        } else {
            "closed"
        }
    }
}

/// The outcome of one experiment on one platform.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Registry name of the experiment.
    pub experiment: &'static str,
    /// Platform it ran on.
    pub platform: Platform,
    /// Wall time of this experiment alone, seconds.
    pub seconds: f64,
    /// Per-channel × mechanism measurements.
    pub channels: Vec<ChannelResult>,
}

impl ExperimentResult {
    /// Rebuild a result from a replayed journal record. `experiment` is
    /// the registry's static name for the cell (the journal string is only
    /// used to find it); channel strings are interned by the store. The
    /// record carries bit-exact `f64`s, so re-serialising a replayed cell
    /// is byte-identical to serialising the original run.
    #[must_use]
    pub fn from_record(
        experiment: &'static str,
        platform: Platform,
        rec: &crate::store::CellRecord,
    ) -> Self {
        ExperimentResult {
            experiment,
            platform,
            seconds: rec.seconds,
            channels: rec.channels.clone(),
        }
    }
}

/// A registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentDef {
    /// Stable registry name (CLI `--only` values, JSON output).
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Where in the paper the experiment comes from.
    pub paper: &'static str,
    /// Relative cost weight (higher = slower); the runner schedules
    /// heavier experiments first so they overlap with the cheap tail.
    pub cost: u32,
    /// Which platforms the experiment supports.
    pub supports: fn(Platform) -> bool,
    /// Run on one platform, producing the structured results. Errors
    /// (simulation failures under fault injection) are classified by the
    /// campaign supervisor ([`crate::supervise`]), never unwound.
    pub run: fn(Platform) -> Result<Vec<ChannelResult>, SimError>,
}

fn any_platform(_: Platform) -> bool {
    true
}

fn needs_llc(p: Platform) -> bool {
    p.config().llc.is_some()
}

/// Run one intra-core channel under the three §5.2 scenarios.
fn scenario_sweep(
    channel: &'static str,
    run: fn(&IntraCoreSpec) -> Result<ChannelOutcome, SimError>,
    platform: Platform,
) -> Result<Vec<ChannelResult>, SimError> {
    // The L2 channel's protected residue is the paper's most marginal
    // effect; at small sample scales the M-vs-M0 test is noise-prone
    // there, so it gets twice the observations.
    let n = if channel == "L2" {
        samples(500)
    } else {
        samples(250)
    };
    [
        (Scenario::Raw, "raw"),
        (Scenario::FullFlush, "full-flush"),
        (Scenario::Protected, "protected"),
    ]
    .into_iter()
    .map(|(scenario, mech)| {
        vote(channel, mech, |seed| {
            let n_symbols = if channel == "BHB" { 2 } else { 8 };
            let mut spec = IntraCoreSpec::new(platform, scenario, n_symbols, n).with_seed(seed);
            if channel == "L2" {
                spec = spec.with_slice_us(cache::l2_slice_us(&platform.config()));
            }
            run(&spec)
        })
    })
    .collect()
}

fn run_l1d(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    scenario_sweep("L1-D", cache::try_l1d_channel, p)
}

fn run_l1i(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    scenario_sweep("L1-I", cache::try_l1i_channel, p)
}

fn run_tlb(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    scenario_sweep("TLB", tlbchan::try_tlb_channel, p)
}

fn run_btb(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    scenario_sweep("BTB", branchchan::try_btb_channel, p)
}

fn run_bhb(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    scenario_sweep("BHB", branchchan::try_bhb_channel, p)
}

fn run_l2(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    scenario_sweep("L2", cache::try_l2_channel, p)
}

fn run_kernel_image(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    let n = samples(300);
    [
        ("coloured-only", kernel_image::coloured_userland_config()),
        ("protected", ProtectionConfig::protected()),
    ]
    .into_iter()
    .map(|(mech, prot)| {
        vote("kernel-image", mech, |seed| {
            let spec = IntraCoreSpec {
                platform: p,
                prot,
                n_symbols: 4,
                samples: n,
                slice_us: 50.0,
                seed,
            };
            kernel_image::kernel_image_channel(&spec)
        })
    })
    .collect()
}

fn run_flush(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    let n = samples(250);
    let pad = flush_latency::table4_pad_us(p);
    let mk = |pad_us: Option<f64>, seed: u64| IntraCoreSpec {
        platform: p,
        prot: flush_latency::flush_channel_config(pad_us),
        n_symbols: 8,
        samples: n,
        slice_us: 50.0,
        seed,
    };
    [
        ("online-nopad", flush_latency::Timing::Online, None),
        ("online-pad", flush_latency::Timing::Online, Some(pad)),
        ("offline-nopad", flush_latency::Timing::Offline, None),
        ("offline-pad", flush_latency::Timing::Offline, Some(pad)),
    ]
    .into_iter()
    .map(|(mech, timing, pad_us)| {
        vote("flush-latency", mech, |seed| {
            flush_latency::flush_channel(&mk(pad_us, seed), timing)
        })
    })
    .collect()
}

fn run_interrupt(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    let n = samples(250);
    [("raw", false), ("partitioned", true)]
        .into_iter()
        .map(|(mech, part)| {
            vote("interrupt", mech, |seed| {
                interrupt::try_interrupt_channel(&interrupt::paper_spec(p, part, n).with_seed(seed))
            })
        })
        .collect()
}

fn run_bus(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    let n = samples(150);
    [("raw", Scenario::Raw), ("protected", Scenario::Protected)]
        .into_iter()
        .map(|(mech, scenario)| {
            vote("bus", mech, |seed| {
                let spec = IntraCoreSpec::new(p, scenario, 2, n)
                    .with_slice_us(30.0)
                    .with_seed(seed);
                bus::bus_channel(&spec)
            })
        })
        .collect()
}

fn run_cloud(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    [
        ("raw", ProtectionConfig::raw()),
        ("protected", ProtectionConfig::protected()),
    ]
    .into_iter()
    .map(|(mech, prot)| {
        vote("cloud", mech, |seed| {
            let spec = crate::cloud::CloudSpec::new(p, prot, 96).with_seed(seed);
            crate::cloud::run_cloud(&spec).map(|r| r.outcome)
        })
    })
    .collect()
}

fn run_llc(p: Platform) -> Result<Vec<ChannelResult>, SimError> {
    let slots = samples(6_000).max(3_000);
    [
        ("raw", ProtectionConfig::raw(), slots),
        ("protected", ProtectionConfig::protected(), slots / 2),
    ]
    .into_iter()
    .map(|(mech, prot, slots)| {
        let r = llc::try_llc_attack_on(p, prot, slots, 42)?;
        Ok(ChannelResult {
            channel: "LLC-ElGamal",
            mechanism: mech,
            metric: "accuracy_pct",
            value: r.accuracy * 100.0,
            baseline: 50.0,
            leaks: r.activity_detected && r.accuracy > 0.65,
            samples: r.recovered_bits.len(),
        })
    })
    .collect()
}

/// The experiment registry, in report order.
#[must_use]
pub fn registry() -> Vec<ExperimentDef> {
    vec![
        ExperimentDef {
            name: "l1d",
            title: "L1-D prime&probe channel",
            paper: "§5.3.2, Table 3",
            cost: 3,
            supports: any_platform,
            run: run_l1d,
        },
        ExperimentDef {
            name: "l1i",
            title: "L1-I prime&probe channel",
            paper: "§5.3.2, Table 3",
            cost: 3,
            supports: any_platform,
            run: run_l1i,
        },
        ExperimentDef {
            name: "tlb",
            title: "TLB eviction channel",
            paper: "§5.3.2, Table 3",
            cost: 2,
            supports: any_platform,
            run: run_tlb,
        },
        ExperimentDef {
            name: "btb",
            title: "BTB conflict channel",
            paper: "§5.3.2, Table 3",
            cost: 2,
            supports: any_platform,
            run: run_btb,
        },
        ExperimentDef {
            name: "bhb",
            title: "Branch-history (PHT bias) channel",
            paper: "§5.3.2, Table 3",
            cost: 2,
            supports: any_platform,
            run: run_bhb,
        },
        ExperimentDef {
            name: "l2",
            title: "L2 prime&probe channel (+prefetcher residue)",
            paper: "§5.3.2, Table 3",
            cost: 5,
            supports: any_platform,
            run: run_l2,
        },
        ExperimentDef {
            name: "kernel-image",
            title: "Shared-kernel-image syscall channel",
            paper: "§5.3.1, Figure 3",
            cost: 3,
            supports: any_platform,
            run: run_kernel_image,
        },
        ExperimentDef {
            name: "flush-latency",
            title: "Cache-flush latency channel, padded and not",
            paper: "§5.3.4, Figure 5 / Table 4",
            cost: 4,
            supports: any_platform,
            run: run_flush,
        },
        ExperimentDef {
            name: "interrupt",
            title: "Timer-interrupt placement channel",
            paper: "§5.3.5, Figure 6",
            cost: 4,
            supports: any_platform,
            run: run_interrupt,
        },
        ExperimentDef {
            name: "bus",
            title: "Cross-core memory-bus channel (unpartitionable)",
            paper: "§2.3 / §6.1",
            cost: 2,
            supports: any_platform,
            run: run_bus,
        },
        ExperimentDef {
            name: "llc",
            title: "Cross-core LLC prime&probe vs ElGamal",
            paper: "§5.3.3, Figure 4",
            cost: 6,
            supports: needs_llc,
            run: run_llc,
        },
        ExperimentDef {
            name: "cloud",
            title: "Consolidated-tenant aggregate leakage (cloud scenario)",
            paper: "§1 / §2.1 motivation, §5 mechanisms",
            cost: 7,
            supports: any_platform,
            run: run_cloud,
        },
    ]
}

/// Serialise a campaign run to JSON (hand-rolled: the workspace is
/// dependency-free by design; all strings are static identifiers).
#[must_use]
pub fn results_json(results: &[ExperimentResult], total_seconds: f64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": 1,");
    let _ = writeln!(s, "  \"tp_samples\": {},", crate::util::effort());
    let _ = writeln!(s, "  \"threads\": {},", crate::util::threads());
    let _ = writeln!(s, "  \"total_seconds\": {total_seconds:.3},");
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"experiment\": \"{}\", \"platform\": \"{}\", \"seconds\": {:.3}, \"channels\": [",
            r.experiment,
            r.platform.key(),
            r.seconds
        );
        for (j, c) in r.channels.iter().enumerate() {
            let comma = if j + 1 < r.channels.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{\"channel\": \"{}\", \"mechanism\": \"{}\", \"metric\": \"{}\", \"value\": {:.3}, \"baseline\": {:.3}, \"verdict\": \"{}\", \"samples\": {}}}{comma}",
                c.channel, c.mechanism, c.metric, c.value, c.baseline, c.verdict(), c.samples
            );
        }
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(s, "    ]}}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// Serialise the campaign's wall-time record (`BENCH-campaign.json`):
/// the total plus one entry per experiment × platform cell, mirroring the
/// `BENCH.json` the `reproduce_all` binary writes. CI budgets the total;
/// the per-cell times localise a regression to one cell.
///
/// With `threads > 1` the cells run concurrently, so per-cell times
/// overlap and can sum to more than `total_seconds`; `total_seconds` is
/// always honest wall clock.
#[must_use]
pub fn bench_json(results: &[ExperimentResult], total_seconds: f64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"tp_samples\": {},", crate::util::effort());
    let _ = writeln!(s, "  \"threads\": {},", crate::util::threads());
    let _ = writeln!(s, "  \"total_seconds\": {total_seconds:.3},");
    // Boot accounting: CI asserts that warm starts (shared boot-prefix
    // checkpoints) actually cut per-cell boot time vs. cold boots.
    let boot = tp_core::system::boot_stats();
    let mean_ms = |nanos: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            nanos as f64 / n as f64 / 1e6
        }
    };
    let _ = writeln!(
        s,
        "  \"boot\": {{\"cold\": {}, \"warm\": {}, \"fallback\": {}, \"cold_mean_ms\": {:.6}, \"warm_mean_ms\": {:.6}}},",
        boot.cold_boots,
        boot.warm_boots,
        boot.fallback_boots,
        mean_ms(boot.cold_nanos, boot.cold_boots),
        mean_ms(boot.warm_nanos, boot.warm_boots),
    );
    // Supervisor accounting: a healthy (fault-free) campaign reports all
    // zeroes here, and CI gates on exactly that.
    let sup = crate::supervise::counters();
    let _ = writeln!(
        s,
        "  \"supervisor\": {{\"retries\": {}, \"timeouts\": {}, \"panics\": {}, \"snapshot_corrupt\": {}, \"quarantined\": {}, \"fallback_boots\": {}, \"env_failed\": {}, \"deadlocks\": {}, \"stack_overflows\": {}}},",
        sup.retries,
        sup.timeouts,
        sup.panics,
        sup.snapshot_corrupt,
        sup.quarantined,
        boot.fallback_boots,
        sup.env_failed,
        sup.deadlocks,
        sup.stack_overflows,
    );
    // Resume/durability accounting: a clean (non-resumed, uncontended)
    // campaign reports all zeroes here, and CI gates on exactly that.
    let res = crate::store::resume_counters();
    let _ = writeln!(
        s,
        "  \"resume\": {{\"cells_skipped\": {}, \"records_recovered\": {}, \"records_truncated\": {}, \"lock_waits\": {}}},",
        res.cells_skipped,
        res.records_recovered,
        res.records_truncated,
        res.lock_waits,
    );
    s.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"experiment\": \"{}\", \"platform\": \"{}\", \"seconds\": {:.3}}}{comma}",
            r.experiment,
            r.platform.key(),
            r.seconds
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The canonical identity of one verdict: experiment, platform key,
/// channel, mechanism.
pub type VerdictKey = (String, String, String, String);

fn verdict_map(results: &[ExperimentResult]) -> BTreeMap<VerdictKey, String> {
    let mut m = BTreeMap::new();
    for r in results {
        for c in &r.channels {
            m.insert(
                (
                    r.experiment.to_string(),
                    r.platform.key().to_string(),
                    c.channel.to_string(),
                    c.mechanism.to_string(),
                ),
                c.verdict().to_string(),
            );
        }
    }
    m
}

/// Serialise the golden verdict file: every channel × mechanism ×
/// platform leak/closed verdict, one object per line so the file diffs
/// cleanly under git.
#[must_use]
pub fn golden_json(results: &[ExperimentResult]) -> String {
    golden_json_from_map(&verdict_map(results), crate::util::effort())
}

/// The writer behind [`golden_json`]: serialise an explicit verdict map
/// with an explicit `tp_samples` header. Exposed so tooling (and the
/// round-trip test) can prove that `parse_golden` ∘ `golden_json_from_map`
/// reproduces a pinned file byte-identically.
#[must_use]
pub fn golden_json_from_map(m: &BTreeMap<VerdictKey, String>, tp_samples: f64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": 1,");
    let _ = writeln!(s, "  \"tp_samples\": {tp_samples},");
    s.push_str("  \"verdicts\": [\n");
    for (i, ((exp, plat, chan, mech), verdict)) in m.iter().enumerate() {
        let comma = if i + 1 < m.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"experiment\": \"{exp}\", \"platform\": \"{plat}\", \"channel\": \"{chan}\", \"mechanism\": \"{mech}\", \"verdict\": \"{verdict}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extract the `tp_samples` header a golden file was pinned at, if any.
#[must_use]
pub fn golden_tp_samples(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.contains("\"tp_samples\":"))?;
    line.split(':')
        .nth(1)?
        .trim()
        .trim_end_matches(',')
        .parse()
        .ok()
}

/// Parse a golden verdict file into the canonical map.
#[must_use]
pub fn parse_golden(text: &str) -> BTreeMap<VerdictKey, String> {
    let mut m = BTreeMap::new();
    for line in text.lines() {
        let (Some(exp), Some(plat), Some(chan), Some(mech), Some(verdict)) = (
            str_field(line, "experiment"),
            str_field(line, "platform"),
            str_field(line, "channel"),
            str_field(line, "mechanism"),
            str_field(line, "verdict"),
        ) else {
            continue;
        };
        m.insert(
            (
                exp.to_string(),
                plat.to_string(),
                chan.to_string(),
                mech.to_string(),
            ),
            verdict.to_string(),
        );
    }
    m
}

/// Diff a run against a golden file. Verdicts for combinations absent
/// from the run (e.g. a platform-filtered campaign) are not required, but
/// a combination the golden knows nothing about is an error: new
/// experiments must be pinned.
///
/// # Errors
/// Returns a human-readable report of every divergence.
pub fn check_goldens(golden_text: &str, results: &[ExperimentResult]) -> Result<usize, String> {
    let golden = parse_golden(golden_text);
    if golden.is_empty() {
        return Err("golden file contains no verdicts".into());
    }
    // Verdicts are only comparable at the sample scale they were pinned
    // at (M0 is noisier at low TP_SAMPLES); refuse a cross-scale diff
    // rather than report misleading regressions.
    let run_scale = crate::util::effort();
    if let Some(pinned) = golden_tp_samples(golden_text) {
        if (pinned - run_scale).abs() > 1e-9 {
            return Err(format!(
                "golden file was pinned at TP_SAMPLES={pinned} but this run used \
                 TP_SAMPLES={run_scale}; rerun with TP_SAMPLES={pinned} (or re-pin \
                 with --update-goldens after review)"
            ));
        }
    }
    let run = verdict_map(results);
    let mut report = String::new();
    let mut checked = 0usize;
    for (key, verdict) in &run {
        let (exp, plat, chan, mech) = key;
        match golden.get(key) {
            Some(g) if g == verdict => checked += 1,
            Some(g) => {
                let _ = writeln!(
                    report,
                    "VERDICT REGRESSION: {exp}/{plat}/{chan}/{mech}: golden \"{g}\", run \"{verdict}\""
                );
            }
            None => {
                let _ = writeln!(
                    report,
                    "UNPINNED: {exp}/{plat}/{chan}/{mech} = \"{verdict}\" has no golden entry (re-pin goldens/verdicts.json)"
                );
            }
        }
    }
    if report.is_empty() {
        Ok(checked)
    } else {
        Err(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_results() -> Vec<ExperimentResult> {
        vec![ExperimentResult {
            experiment: "l1d",
            platform: Platform::Haswell,
            seconds: 0.5,
            channels: vec![
                ChannelResult {
                    channel: "L1-D",
                    mechanism: "raw",
                    metric: "M_mb",
                    value: 1234.5,
                    baseline: 40.0,
                    leaks: true,
                    samples: 120,
                },
                ChannelResult {
                    channel: "L1-D",
                    mechanism: "protected",
                    metric: "M_mb",
                    value: 10.0,
                    baseline: 40.0,
                    leaks: false,
                    samples: 120,
                },
            ],
        }]
    }

    #[test]
    fn registry_names_are_unique_and_supported_somewhere() {
        let reg = registry();
        let mut names: Vec<_> = reg.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate experiment names");
        for d in &reg {
            assert!(
                Platform::ALL.iter().any(|&p| (d.supports)(p)),
                "{} supports no platform",
                d.name
            );
        }
    }

    #[test]
    fn llc_requires_a_last_level_cache() {
        let reg = registry();
        let llc = reg
            .iter()
            .find(|d| d.name == "llc")
            .expect("llc registered");
        assert!((llc.supports)(Platform::Haswell));
        assert!((llc.supports)(Platform::Skylake));
        assert!(!(llc.supports)(Platform::Sabre));
        assert!(!(llc.supports)(Platform::HiKey));
    }

    #[test]
    fn golden_roundtrip_and_check() {
        let results = fake_results();
        let golden = golden_json(&results);
        assert_eq!(check_goldens(&golden, &results), Ok(2));

        // A flipped verdict is a regression.
        let flipped = golden.replace("\"verdict\": \"closed\"", "\"verdict\": \"leak\"");
        let err = check_goldens(&flipped, &results).unwrap_err();
        assert!(err.contains("VERDICT REGRESSION"), "{err}");

        // An unpinned combination is an error too.
        let missing: String = golden
            .lines()
            .filter(|l| !l.contains("\"raw\""))
            .collect::<Vec<_>>()
            .join("\n");
        let err = check_goldens(&missing, &results).unwrap_err();
        assert!(err.contains("UNPINNED"), "{err}");
    }

    #[test]
    fn golden_scale_mismatch_is_refused() {
        let results = fake_results();
        let golden = golden_json(&results);
        let pinned = golden_tp_samples(&golden).expect("header present");
        assert!((pinned - crate::util::effort()).abs() < 1e-9);

        let other = golden.replace(
            &format!("\"tp_samples\": {}", crate::util::effort()),
            "\"tp_samples\": 0.125",
        );
        let err = check_goldens(&other, &results).unwrap_err();
        assert!(err.contains("TP_SAMPLES"), "{err}");
    }

    /// Reconstruct `ExperimentResult`s from a parsed golden map so
    /// `check_goldens` can be exercised against the real pinned file.
    fn results_from_golden(m: &BTreeMap<VerdictKey, String>) -> Vec<ExperimentResult> {
        let mut out: Vec<ExperimentResult> = Vec::new();
        for ((exp, plat, chan, mech), verdict) in m {
            let platform = Platform::from_key(plat).expect("pinned platform key");
            let leaks = verdict == "leak";
            let channel = ChannelResult {
                channel: Box::leak(chan.clone().into_boxed_str()),
                mechanism: Box::leak(mech.clone().into_boxed_str()),
                metric: "M_mb",
                value: if leaks { 100.0 } else { 1.0 },
                baseline: 10.0,
                leaks,
                samples: 1,
            };
            if let Some(r) = out
                .iter_mut()
                .find(|r| r.experiment == exp.as_str() && r.platform == platform)
            {
                r.channels.push(channel);
            } else {
                out.push(ExperimentResult {
                    experiment: Box::leak(exp.clone().into_boxed_str()),
                    platform,
                    seconds: 0.0,
                    channels: vec![channel],
                });
            }
        }
        out
    }

    fn pinned_goldens() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens/verdicts.json");
        let (payload, prov) = crate::store::read_artifact(path).expect("pinned goldens readable");
        assert_eq!(
            prov,
            crate::store::Provenance::Checksummed,
            "pinned goldens must carry a verified store trailer"
        );
        payload
    }

    #[test]
    fn pinned_goldens_roundtrip_byte_identically() {
        // `--update-goldens` writes `golden_json`; an unchanged run must
        // re-pin the file without a single byte of churn.
        let text = pinned_goldens();
        let pinned_scale = golden_tp_samples(&text).expect("tp_samples header");
        let m = parse_golden(&text);
        assert!(
            m.len() >= 124,
            "expected 124+ pinned verdicts, got {}",
            m.len()
        );
        let rewritten = golden_json_from_map(&m, pinned_scale);
        assert_eq!(
            rewritten, text,
            "golden writer must round-trip the pinned file"
        );
    }

    #[test]
    fn check_fails_on_flipped_pinned_verdict() {
        let text = pinned_goldens();
        let pinned_scale = golden_tp_samples(&text).expect("tp_samples header");
        // Rewrite the scale header so `check_goldens` compares verdicts
        // under whatever TP_SAMPLES this test process runs at.
        let text = text.replace(
            &format!("\"tp_samples\": {pinned_scale}"),
            &format!("\"tp_samples\": {}", crate::util::effort()),
        );
        let results = results_from_golden(&parse_golden(&text));
        let n = check_goldens(&text, &results).expect("pinned goldens self-check");
        assert!(n >= 124, "checked {n} verdicts");

        // Synthetically flip the first pinned verdict: check must fail.
        let flipped = if let Some(pos) = text.find("\"verdict\": \"closed\"") {
            let mut t = text.clone();
            t.replace_range(
                pos..pos + "\"verdict\": \"closed\"".len(),
                "\"verdict\": \"leak\"",
            );
            t
        } else {
            text.replacen("\"verdict\": \"leak\"", "\"verdict\": \"closed\"", 1)
        };
        let err = check_goldens(&flipped, &results).unwrap_err();
        assert!(err.contains("VERDICT REGRESSION"), "{err}");
    }

    #[test]
    fn results_json_is_well_formed_enough() {
        let s = results_json(&fake_results(), 1.0);
        assert!(s.contains("\"experiment\": \"l1d\""));
        assert!(s.contains("\"platform\": \"haswell\""));
        assert!(s.contains("\"verdict\": \"leak\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
