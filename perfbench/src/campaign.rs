//! The `campaign` workload: every registry cell on every platform it
//! supports, through the campaign supervisor and a scratch journal, the
//! way the `campaign` binary runs them.
//!
//! Every run, traced or not, calls each registry entry's `run`. After the
//! timed section a traced run calls a twin of each entry, built from the
//! same `tp_attacks` calls, so it can see the datasets and re-time
//! `leakage_test` on each with the seed the attack used. A cell whose twin
//! does not reproduce the registry's results bit for bit fails.

use crate::trace::{self, SpanId};
use crate::{fingerprint, CellOut, WorkloadOut};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use tp_analysis::leakage_test;
use tp_attacks::harness::{ChannelOutcome, IntraCoreSpec, Scenario};
use tp_attacks::{branchchan, bus, cache, flush_latency, interrupt, kernel_image, llc, tlbchan};
use tp_bench::campaign::{
    golden_tp_samples, parse_golden, ChannelResult, ExperimentDef, VerdictKey, VOTE_SEED_BASE,
};
use tp_bench::cloud::{run_cloud, CloudSpec};
use tp_bench::store::{read_artifact, CellRecord, Journal, JournalHeader};
use tp_bench::supervise::{self, CellOutcome};
use tp_bench::util::samples;
use tp_core::{ProtectionConfig, SimError};
use tp_sim::Platform;

/// The pinned verdicts every seed-0 campaign must reproduce.
pub const GOLDENS: &str = "goldens/verdicts.json";

/// Everything the campaign needs before its timed section.
pub struct Campaign {
    cells: Vec<(ExperimentDef, Platform)>,
    salt: u64,
    seed: u64,
    goldens: BTreeMap<VerdictKey, String>,
    journal: Mutex<Journal>,
}

impl Campaign {
    /// Read the goldens and open the scratch journal.
    ///
    /// # Errors
    /// A message when the goldens are missing, were pinned at another
    /// `TP_SAMPLES`, or the journal cannot be created.
    pub fn setup(seed: u64, journal: &Path) -> Result<Self, String> {
        let (text, _) = read_artifact(GOLDENS).map_err(|e| format!("{GOLDENS}: {e}"))?;
        let pinned = golden_tp_samples(&text).unwrap_or(f64::NAN);
        let effort = tp_bench::util::effort();
        if (pinned - effort).abs() > 1e-9 {
            return Err(format!(
                "{GOLDENS} is pinned at TP_SAMPLES={pinned}, this run uses {effort}"
            ));
        }
        let journal = Journal::create(journal, &JournalHeader::current())
            .map_err(|e| format!("scratch journal: {e}"))?;
        Ok(Campaign {
            cells: crate::inputs::campaign_cells(),
            salt: crate::inputs::campaign_salt(seed),
            seed,
            goldens: parse_golden(&text),
            journal: Mutex::new(journal),
        })
    }

    /// Run every cell, heavy first, on `TP_THREADS` workers.
    pub fn run(&self, root: SpanId) -> WorkloadOut {
        let mut todo: Vec<(usize, ExperimentDef, Platform)> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, &(d, p))| (i, d, p))
            .collect();
        todo.sort_by_key(|&(_, d, _)| std::cmp::Reverse(d.cost));
        let salt = self.salt;
        let mut done = rayon::par_map(&todo, |&(i, d, p)| {
            trace::span("cell", root, |cell| {
                let t0 = Instant::now();
                let report = trace::span("run_cell", cell, |rc| {
                    supervise::run_cell(
                        d.name,
                        p.key(),
                        None,
                        supervise::cell_deadline(None),
                        move || {
                            trace::span("closure", rc, |_| {
                                supervise::set_retry_salt(supervise::retry_salt() ^ salt);
                                (d.run)(p)
                            })
                        },
                    )
                });
                let seconds = t0.elapsed().as_secs_f64();
                let mut journaled = true;
                if let (CellOutcome::Ok, Some(channels)) = (report.outcome, &report.channels) {
                    let rec = CellRecord::new(d.name, p, seconds, channels);
                    journaled = trace::span("journal.append", cell, |_| {
                        self.journal.lock().expect("journal lock").append(&rec)
                    })
                    .is_ok();
                } else if report.outcome != CellOutcome::EnvFailed {
                    supervise::note_quarantined();
                }
                (i, d, p, report, journaled)
            })
        });
        done.sort_by_key(|&(i, ..)| i);

        let mut out = WorkloadOut::default();
        let (mut verdicts, mut matched, mut flips) = (0u64, 0u64, 0u64);
        for (_, d, p, report, journaled) in done {
            let expected: Vec<(&VerdictKey, &String)> = self
                .goldens
                .iter()
                .filter(|((e, pl, ..), _)| e == d.name && pl == p.key())
                .collect();
            let ops = expected.len() as u64;
            let channels = report.channels.unwrap_or_default();
            let healthy = report.outcome == CellOutcome::Ok && report.attempts == 1 && journaled;
            let mut failed = if healthy { 0 } else { ops };
            if healthy {
                failed += ops.abs_diff(channels.len() as u64);
                for c in &channels {
                    let key = (
                        d.name.to_string(),
                        p.key().to_string(),
                        c.channel.to_string(),
                        c.mechanism.to_string(),
                    );
                    match self.goldens.get(&key) {
                        Some(g) if g == c.verdict() => matched += 1,
                        // At other seeds a verdict may flip; that is a
                        // statistic of the test, not a failure.
                        Some(_) if self.seed != 0 => flips += 1,
                        _ => failed += 1,
                    }
                }
            }
            verdicts += channels.len() as u64;
            out.cells.push(CellOut {
                name: format!("{}/{}", d.name, p.key()),
                ops,
                failed: failed.min(ops),
                fingerprint: channels_fingerprint(&channels),
            });
        }
        out.notes.push(format!(
            "campaign: {verdicts} verdicts, {matched} match {GOLDENS}, {flips} flipped (seed {})",
            self.seed
        ));
        out.extra.push(("analysis.verdict_flips", flips as f64));
        out
    }

    /// Run each cell's traced twin, which re-times its shuffle tests, and
    /// fail every cell whose twin's results differ from the registry's.
    pub fn retime(&self, out: &mut WorkloadOut, span: SpanId) {
        let salt = self.salt;
        let twins = rayon::par_map(&self.cells, |&(d, p)| {
            supervise::set_retry_salt(salt);
            let r = twin(d.name)(p, span);
            supervise::set_retry_salt(0);
            r
        });
        for (cell, r) in out.cells.iter_mut().zip(twins) {
            if !r.is_ok_and(|ch| channels_fingerprint(&ch) == cell.fingerprint) {
                out.notes.push(format!(
                    "{}: the traced twin differs from the registry",
                    cell.name
                ));
                cell.failed = cell.ops;
            }
        }
    }
}

/// Fingerprint of a cell's results: every value and baseline bit-exact.
#[must_use]
pub fn channels_fingerprint(channels: &[ChannelResult]) -> u64 {
    let mut s = String::new();
    for c in channels {
        s.push_str(&format!(
            "{}|{}|{}|{:x}|{:x}|{}|{};",
            c.channel,
            c.mechanism,
            c.metric,
            c.value.to_bits(),
            c.baseline.to_bits(),
            c.leaks,
            c.samples
        ));
    }
    fingerprint(&s)
}

// ---------------------------------------------------------------------
// Traced twins of the registry entries. Each mirrors one `run_*` of
// `tp_bench::campaign` call for call; `vote` additionally re-times the
// shuffle test on every dataset and votes on the re-timed verdicts, so a
// test that does not repeat shows as a fingerprint mismatch.

type Twin = fn(Platform, SpanId) -> Result<Vec<ChannelResult>, SimError>;

/// What every attack XORs into its seed to seed its shuffle test.
pub const SHUFFLE_SALT: u64 = 0x0F0F_F0F0;

/// The campaign's three vote seeds (private to `tp_bench::campaign`).
const VOTE_SEEDS: [u64; 3] = [
    VOTE_SEED_BASE,
    VOTE_SEED_BASE ^ 0x9E37_79B9,
    VOTE_SEED_BASE ^ 0x6A09_E667,
];

fn twin(name: &str) -> Twin {
    match name {
        "l1d" => |p, s| sweep("L1-D", cache::try_l1d_channel, p, s),
        "l1i" => |p, s| sweep("L1-I", cache::try_l1i_channel, p, s),
        "tlb" => |p, s| sweep("TLB", tlbchan::try_tlb_channel, p, s),
        "btb" => |p, s| sweep("BTB", branchchan::try_btb_channel, p, s),
        "bhb" => |p, s| sweep("BHB", branchchan::try_bhb_channel, p, s),
        "l2" => |p, s| sweep("L2", cache::try_l2_channel, p, s),
        "kernel-image" => kernel_image_cell,
        "flush-latency" => flush_cell,
        "interrupt" => interrupt_cell,
        "bus" => bus_cell,
        "llc" => llc_cell,
        "cloud" => cloud_cell,
        other => panic!("campaign cell {other} has no traced twin"),
    }
}

fn vote(
    span: SpanId,
    channel: &'static str,
    mechanism: &'static str,
    run: impl Fn(u64) -> Result<ChannelOutcome, SimError>,
) -> Result<ChannelResult, SimError> {
    let salt = supervise::retry_salt();
    let mut outcomes = Vec::with_capacity(VOTE_SEEDS.len());
    for &s in &VOTE_SEEDS {
        let seed = s ^ salt;
        let mut o = run(seed)?;
        o.verdict = trace::span("leakage_test", span, |_| {
            leakage_test(&o.dataset, seed ^ SHUFFLE_SALT)
        });
        outcomes.push(o);
    }
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

fn sweep(
    channel: &'static str,
    run: fn(&IntraCoreSpec) -> Result<ChannelOutcome, SimError>,
    platform: Platform,
    span: SpanId,
) -> Result<Vec<ChannelResult>, SimError> {
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
        vote(span, channel, mech, |seed| {
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

fn kernel_image_cell(p: Platform, span: SpanId) -> Result<Vec<ChannelResult>, SimError> {
    let n = samples(300);
    [
        ("coloured-only", kernel_image::coloured_userland_config()),
        ("protected", ProtectionConfig::protected()),
    ]
    .into_iter()
    .map(|(mech, prot)| {
        vote(span, "kernel-image", mech, |seed| {
            kernel_image::kernel_image_channel(&IntraCoreSpec {
                platform: p,
                prot,
                n_symbols: 4,
                samples: n,
                slice_us: 50.0,
                seed,
            })
        })
    })
    .collect()
}

fn flush_cell(p: Platform, span: SpanId) -> Result<Vec<ChannelResult>, SimError> {
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
        vote(span, "flush-latency", mech, |seed| {
            flush_latency::flush_channel(&mk(pad_us, seed), timing)
        })
    })
    .collect()
}

fn interrupt_cell(p: Platform, span: SpanId) -> Result<Vec<ChannelResult>, SimError> {
    let n = samples(250);
    [("raw", false), ("partitioned", true)]
        .into_iter()
        .map(|(mech, part)| {
            vote(span, "interrupt", mech, |seed| {
                interrupt::try_interrupt_channel(&interrupt::paper_spec(p, part, n).with_seed(seed))
            })
        })
        .collect()
}

fn bus_cell(p: Platform, span: SpanId) -> Result<Vec<ChannelResult>, SimError> {
    let n = samples(150);
    [("raw", Scenario::Raw), ("protected", Scenario::Protected)]
        .into_iter()
        .map(|(mech, scenario)| {
            vote(span, "bus", mech, |seed| {
                bus::bus_channel(
                    &IntraCoreSpec::new(p, scenario, 2, n)
                        .with_slice_us(30.0)
                        .with_seed(seed),
                )
            })
        })
        .collect()
}

fn cloud_cell(p: Platform, span: SpanId) -> Result<Vec<ChannelResult>, SimError> {
    [
        ("raw", ProtectionConfig::raw()),
        ("protected", ProtectionConfig::protected()),
    ]
    .into_iter()
    .map(|(mech, prot)| {
        vote(span, "cloud", mech, |seed| {
            run_cloud(&CloudSpec::new(p, prot, 96).with_seed(seed)).map(|r| r.outcome)
        })
    })
    .collect()
}

fn llc_cell(p: Platform, _: SpanId) -> Result<Vec<ChannelResult>, SimError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn result(value: f64) -> ChannelResult {
        ChannelResult {
            channel: "L1-D",
            mechanism: "raw",
            metric: "M_mb",
            value,
            baseline: 40.0,
            leaks: true,
            samples: 62,
        }
    }

    #[test]
    fn a_perturbed_output_fails_its_fingerprint() {
        let pinned = channels_fingerprint(&[result(1234.5)]);
        assert_eq!(pinned, channels_fingerprint(&[result(1234.5)]));
        // One ulp is enough.
        let nudged = f64::from_bits(1234.5f64.to_bits() + 1);
        assert_ne!(pinned, channels_fingerprint(&[result(nudged)]));
        let mut flipped = result(1234.5);
        flipped.leaks = false;
        assert_ne!(pinned, channels_fingerprint(&[flipped]));
    }

    #[test]
    fn every_registry_cell_has_a_twin() {
        for (d, _) in crate::inputs::campaign_cells() {
            let _ = twin(d.name);
        }
    }
}
