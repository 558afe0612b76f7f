//! The channel experiments: Figures 3–6 and Tables 3–4.
//!
//! Figures 3 and 6 and Tables 3 and 4 render the experiment registry's cells
//! from `reproduce_all`'s one pass ([`crate::reproduce`]), so they report
//! the experiments the golden gate checks: each verdict mark is the 2-of-3
//! vote's, each M and M0 the reporting seed's, and each matrix that seed's
//! dataset. Figures 4 and 5, the ablations and the §5.3.2
//! prefetcher-disabled follow-up run their own sample counts.

use crate::campaign::CellRow;
use crate::reproduce::Rows;
use crate::util::{fmt_mb, samples, Table};
use tp_analysis::{ChannelMatrix, Dataset};
use tp_attacks::harness::{ChannelOutcome, IntraCoreSpec, Scenario};
use tp_attacks::{cache, flush_latency, interrupt, kernel_image, llc};
use tp_core::{ProtectionConfig, SimError};
use tp_sim::Platform;

/// The row of a cell measured under `mechanism`.
fn row<'a>(rows: &'a [CellRow], mechanism: &str) -> &'a CellRow {
    rows.iter()
        .find(|r| r.row.mechanism == mechanism)
        .unwrap_or_else(|| panic!("no {mechanism:?} row in the cell"))
}

/// The reporting seed's outcome of a voted row.
fn outcome(r: &CellRow) -> &ChannelOutcome {
    r.outcome.as_ref().expect("a voted row carries its outcome")
}

/// A dataset's channel matrix (nothing below 8 observations).
fn matrix(dataset: &Dataset, labels: &[&str]) -> String {
    if dataset.len() < 8 {
        return String::new();
    }
    ChannelMatrix::from_dataset(dataset, 48).render(labels)
}

/// Figure 3: the kernel-image channel matrix and MI, coloured-userland
/// (shared kernel) vs full time protection, on every platform.
pub(crate) fn fig3(cells: &Rows) -> String {
    let mut out = String::from("Figure 3: Kernel timing-channel matrix (conditional probability\nof LLC misses given the sender's system call).\n\n");
    for platform in Platform::ALL {
        let rows = cells.get("kernel-image", platform);
        for (name, mechanism) in [
            ("coloured userland only (shared kernel)", "coloured-only"),
            ("full time protection (cloned kernels)", "protected"),
        ] {
            let o = outcome(row(rows, mechanism));
            out.push_str(&format!("{} — {}\n", platform.name(), name));
            out.push_str(&matrix(&o.dataset, &kernel_image::SYMBOLS));
            out.push_str(&format!("  {}\n\n", o.summary()));
        }
    }
    out
}

/// The registry experiments behind Table 3, in row order per platform.
pub(crate) const TABLE3: [&str; 6] = ["l1d", "l1i", "tlb", "btb", "bhb", "l2"];

/// Table 3: MI of the intra-core channels under raw / full flush /
/// protected, on every platform, followed by the residual protected x86 L2
/// channel re-measured with the data prefetcher disabled
/// ([`prefetcher_disabled`]'s `follow_up`).
pub(crate) fn table3(cells: &Rows, follow_up: &str) -> String {
    let rows: Vec<(Platform, &[CellRow])> = Platform::ALL
        .into_iter()
        .flat_map(|p| TABLE3.map(|name| (p, cells.get(name, p))))
        .collect();
    format!(
        "Table 3: Mutual information (mb) of intra-core timing channels.\n('*' marks a definite channel, M > M0.)\n\n{}\n{follow_up}",
        table3_rows(&rows)
    )
}

/// Table 3's body: one line per platform × channel cell.
fn table3_rows(cells: &[(Platform, &[CellRow])]) -> String {
    let mut t = Table::new(&[
        "Platform",
        "Cache",
        "Raw M",
        "FullFlush M",
        "(M0)",
        "Protected M",
        "(M0)",
    ]);
    for &(platform, rows) in cells {
        let (raw, ff, prot) = (
            row(rows, "raw"),
            row(rows, "full-flush"),
            row(rows, "protected"),
        );
        t.row(&[
            platform.short_name().to_string(),
            raw.row.channel.to_string(),
            fmt_mb(raw.row.value, raw.row.leaks),
            fmt_mb(ff.row.value, ff.row.leaks),
            format!("{:.1}", ff.row.baseline),
            fmt_mb(prot.row.value, prot.row.leaks),
            format!("{:.1}", prot.row.baseline),
        ]);
    }
    t.render()
}

/// Table 3's §5.3.2 follow-up: the protected x86 L2 channel with the data
/// prefetcher disabled. In the paper the prefetcher *carries* a residual 50 mb
/// channel; in this model the analogous unresettable-state channel flows
/// through the brittle manual L1 flush (pseudo-LRU stragglers), and the
/// prefetcher's fill noise *masks* it — disabling the prefetcher exposes
/// it. Both stories share the paper's root cause (x86's missing
/// architected L1 flush) and conclusion (only the full-hierarchy flush
/// closes the residue); see EXPERIMENTS.md.
///
/// # Errors
/// Propagates the [`SimError`] of a failed channel simulation.
pub(crate) fn prefetcher_disabled() -> Result<String, SimError> {
    let platform = Platform::Haswell;
    let mut spec = IntraCoreSpec::new(platform, Scenario::Protected, 8, 3 * samples(250))
        .with_slice_us(cache::l2_slice_us(&platform.config()));
    spec.prot = spec.prot.with_prefetcher_disabled();
    let nopf = cache::try_l2_channel(&spec)?;
    Ok(format!(
        "x86 L2 protected, data prefetcher disabled (n = {}): M = {} mb (M0 = {:.1} mb)\n",
        nopf.dataset.len(),
        fmt_mb(nopf.verdict.m.millibits(), nopf.verdict.leaks),
        nopf.verdict.m0_millibits()
    ))
}

/// Figure 4: the cross-core LLC side channel against ElGamal, raw and
/// protected.
///
/// # Errors
/// Propagates the first [`SimError`] from a failed channel simulation.
pub fn fig4() -> Result<String, SimError> {
    let slots = samples(6_000).max(3_000);
    let raw = llc::try_llc_attack(ProtectionConfig::raw(), slots, 42)?;
    let prot = llc::try_llc_attack(ProtectionConfig::protected(), slots / 2, 42)?;
    let mut out = String::from("Figure 4: Cross-core LLC side channel against ElGamal\n(square-and-multiply exponentiation, Liu et al. prime&probe).\n\n");
    out.push_str(&format!(
        "raw:       eviction set {:2} lines, activity {}, {} bits recovered, key-bit accuracy {:.1}%\n",
        raw.eviction_set_size,
        raw.activity_detected,
        raw.recovered_bits.len(),
        raw.accuracy * 100.0
    ));
    out.push_str(&format!(
        "protected: eviction set {:2} lines, activity {}, {} bits recovered, key-bit accuracy {:.1}%\n\n",
        prot.eviction_set_size,
        prot.activity_detected,
        prot.recovered_bits.len(),
        prot.accuracy * 100.0
    ));
    // A sparkline of the raw trace: the dot pattern of Figure 4.
    out.push_str("raw probe trace (first 160 probes; '#' = monitored-set activity):\n  ");
    let lats: Vec<f64> = raw.trace.iter().map(|&(_, l)| l as f64).collect();
    if !lats.is_empty() {
        let floor = tp_analysis::stats::percentile(&lats, 20.0);
        for &(_, l) in raw.trace.iter().take(160) {
            out.push(if (l as f64) > floor + 120.0 { '#' } else { '.' });
        }
    }
    out.push('\n');
    Ok(out)
}

/// Figure 5: the unmitigated cache-flush channel on Arm (receiver-observed
/// offline time vs the sender's dirty-cache footprint).
///
/// # Errors
/// Propagates the first [`SimError`] from a failed channel simulation.
pub fn fig5() -> Result<String, SimError> {
    let spec = IntraCoreSpec {
        prot: flush_latency::flush_channel_config(None),
        ..IntraCoreSpec::new(Platform::Sabre, Scenario::Protected, 8, samples(300))
    };
    let o = flush_latency::flush_channel(&spec, flush_latency::Timing::Offline)?;
    let mut out = String::from(
        "Figure 5: Unmitigated cache-flush channel on Arm: receiver-observed\noffline time vs sender cache footprint (8 symbols = 0..256 dirty sets).\n\n",
    );
    out.push_str(&matrix(
        &o.dataset,
        &["0", "32", "64", "96", "128", "160", "192", "224"],
    ));
    out.push_str(&format!("  {}\n", o.summary()));
    Ok(out)
}

/// Table 4: the flush-latency channel, online/offline timing, with and
/// without padding.
pub(crate) fn table4(cells: &Rows) -> String {
    let mut t = Table::new(&[
        "Platform",
        "Timing",
        "No pad M",
        "(M0)",
        "Protected M",
        "(M0)",
    ]);
    for platform in Platform::ALL {
        let rows = cells.get("flush-latency", platform);
        let pad = flush_latency::table4_pad_us(platform);
        for (timing, no_pad, padded) in [
            ("Online", "online-nopad", "online-pad"),
            ("Offline", "offline-nopad", "offline-pad"),
        ] {
            let (no_pad, padded) = (row(rows, no_pad), row(rows, padded));
            t.row(&[
                format!("{} (pad {pad} µs)", platform.short_name()),
                timing.to_string(),
                fmt_mb(no_pad.row.value, no_pad.row.leaks),
                format!("{:.1}", no_pad.row.baseline),
                fmt_mb(padded.row.value, padded.row.leaks),
                format!("{:.1}", padded.row.baseline),
            ]);
        }
    }
    format!(
        "Table 4: Channel through cache-flush latency (mb) without and with\ntime padding.\n\n{}",
        t.render()
    )
}

/// Figure 6: the interrupt channel (spy online time vs the Trojan's timer
/// value), unmitigated and with IRQ partitioning, on Haswell.
pub(crate) fn fig6(cells: &Rows) -> String {
    let rows = cells.get("interrupt", Platform::Haswell);
    let (raw, part) = (outcome(row(rows, "raw")), outcome(row(rows, "partitioned")));
    let mut out = String::from(
        "Figure 6: Interrupt channel: spy-observed online time vs the timer\ninterrupt configured by the Trojan (13..17 ms, 10 ms tick).\n\n",
    );
    let raw_matrix = matrix(&raw.dataset, &["13ms", "14ms", "15ms", "16ms", "17ms"]);
    if !raw_matrix.is_empty() {
        out.push_str("unmitigated:\n");
        out.push_str(&raw_matrix);
    }
    out.push_str(&format!("  raw:         {}\n", raw.summary()));
    out.push_str(&format!("  partitioned: {}\n", part.summary()));
    out
}

/// Per-mechanism ablations: switching off each Requirement's mechanism
/// (with the rest of time protection intact) re-opens exactly its channel
/// — and the interconnect channel stays open no matter what (§6.1).
///
/// # Errors
/// Propagates the first [`SimError`] from a failed channel simulation.
pub fn ablations() -> Result<String, SimError> {
    use tp_attacks::bus;
    let n = samples(150);
    let mut t = Table::new(&[
        "Mechanism disabled",
        "Re-opened channel",
        "M (mb)",
        "M0 (mb)",
        "leak?",
    ]);

    // Requirement 1: on-core flush off -> L1-D channel.
    let mut prot = ProtectionConfig::protected();
    prot.flush = tp_core::FlushMode::None;
    let o = cache::try_l1d_channel(&IntraCoreSpec {
        prot,
        ..IntraCoreSpec::new(Platform::Haswell, Scenario::Protected, 8, n)
    })?;
    push_ablation(&mut t, "R1 on-core flush", "L1-D prime&probe", &o);

    // Requirement 2: kernel clone off — the Figure 3 "coloured userland
    // only" configuration. (With the on-core flush also active, the manual
    // flush buffers blanket the L2 every switch and strongly attenuate the
    // differential kernel footprint; the channel the paper demonstrates is
    // against the colouring-only baseline.)
    let o = kernel_image::kernel_image_channel(&IntraCoreSpec {
        prot: kernel_image::coloured_userland_config(),
        ..IntraCoreSpec::new(Platform::Haswell, Scenario::Protected, 4, n)
    })?;
    push_ablation(&mut t, "R2 kernel clone (+R1)", "kernel-image syscalls", &o);

    // Requirement 4: padding off -> flush-latency channel (Arm).
    let o = flush_latency::flush_channel(
        &IntraCoreSpec {
            prot: flush_latency::flush_channel_config(None),
            ..IntraCoreSpec::new(Platform::Sabre, Scenario::Protected, 8, n)
        },
        flush_latency::Timing::Offline,
    )?;
    push_ablation(&mut t, "R4 switch padding", "flush write-back latency", &o);

    // Requirement 5: interrupt partitioning off.
    let o = interrupt::try_interrupt_channel(&interrupt::paper_spec(Platform::Haswell, false, n))?;
    push_ablation(
        &mut t,
        "R5 IRQ partitioning",
        "timer-interrupt placement",
        &o,
    );

    // The limitation: nothing disables the bus channel's defence, because
    // there is none (§2.3: no bandwidth-partitioning hardware exists).
    let o = bus::bus_channel(
        &IntraCoreSpec::new(Platform::Haswell, Scenario::Protected, 2, n).with_slice_us(30.0),
    )?;
    push_ablation(
        &mut t,
        "(none: unpartitionable)",
        "cross-core memory bus",
        &o,
    );

    Ok(format!(
        "Ablations: each time-protection mechanism individually disabled\n(everything else active). The re-opened channel demonstrates what the\nmechanism defends; the bus row is the paper's declared hardware\nlimitation — it leaks under FULL protection.\n\n{}",
        t.render()
    ))
}

fn push_ablation(t: &mut Table, mech: &str, chan: &str, o: &ChannelOutcome) {
    t.row(&[
        mech.to_string(),
        chan.to_string(),
        format!("{:.1}", o.verdict.m.millibits()),
        format!("{:.1}", o.verdict.m0_millibits()),
        if o.verdict.leaks {
            "YES".into()
        } else {
            "no".into()
        },
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::scripted;
    use crate::campaign::{self, VerdictKey};
    use std::cell::Cell;

    // The individual channels are tested in tp-attacks; here we exercise
    // the reporting glue at reduced sample counts.

    #[test]
    fn fig4_report_contains_both_scenarios() {
        // No TP_SAMPLES override here: env vars are process-global and the
        // tables/util tests in this binary read it concurrently.
        let s = fig4().expect("fig4 is infallible");
        assert!(s.contains("raw:"));
        assert!(s.contains("protected:"));
        assert!(s.contains('#'), "raw trace should show activity: {s}");
    }

    /// A row voted over scripted seeds; seed `i` flags a leak iff
    /// `leaks[i]`, and its M and M0 name it (see `scripted`).
    fn voted(mechanism: &'static str, leaks: [bool; 3]) -> CellRow {
        let calls = Cell::new(0);
        campaign::vote("L1-D", mechanism, |_| {
            let i = calls.replace(calls.get() + 1);
            Ok(scripted(i, leaks[i]))
        })
        .expect("scripted seeds do not fail")
    }

    #[test]
    fn table3_marks_follow_the_vote_and_values_the_reporting_seed() {
        let rows = vec![
            // Seed 1 leaks alone: closed, reported by seed 2.
            voted("raw", [true, false, false]),
            // Seed 1 alone is closed: leak, reported by seed 2.
            voted("full-flush", [false, true, true]),
            // Seeds 1 and 2 agree: closed, reported by seed 1.
            voted("protected", [false, false, true]),
        ];
        let body = table3_rows(&[(Platform::Sabre, &rows)]);
        let line = body.lines().last().expect("one row");
        assert_eq!(
            line.split_whitespace().collect::<Vec<_>>(),
            ["Arm", "L1-D", "200.0", "1200.0*", "510.0", "100.0", "500.0"],
            "{body}"
        );
    }

    /// The verdicts a `reproduce_all` stdout prints for registry cells:
    /// Tables 3 and 4's `*` marks and Figures 3 and 6's summary lines.
    fn printed_verdicts(stdout: &str) -> Vec<(VerdictKey, &'static str)> {
        let verdict = |leaks: bool| if leaks { "leak" } else { "closed" };
        let summary = |line: &str| {
            if line.ends_with("** LEAK **") {
                "leak"
            } else {
                assert!(line.ends_with("(no evidence of leak)"), "{line}");
                "closed"
            }
        };
        let key = |exp: &str, p: Platform, chan: &str, mech: &str| {
            (
                exp.to_string(),
                p.key().to_string(),
                chan.to_string(),
                mech.to_string(),
            )
        };
        let by_short = |s: &str| Platform::ALL.into_iter().find(|p| p.short_name() == s);
        let mut out = Vec::new();
        let mut section = "";
        let mut heading = None;
        for line in stdout.lines() {
            if let Some(name) = line.strip_prefix("==================== ") {
                section = name.trim_end_matches(" ====================");
                continue;
            }
            let cols: Vec<&str> = line.split_whitespace().collect();
            match (section, cols.as_slice()) {
                ("table3", [plat, chan, raw, ff, _, prot, _]) => {
                    let Some(p) = by_short(plat) else { continue };
                    let exp = chan.to_lowercase().replace('-', "");
                    for (mech, m) in [("raw", raw), ("full-flush", ff), ("protected", prot)] {
                        out.push((key(&exp, p, chan, mech), verdict(m.ends_with('*'))));
                    }
                }
                ("table4", [plat, "(pad", _, "µs)", timing, no_pad, _, pad, _]) => {
                    let p = by_short(plat).expect("a platform");
                    let timing = timing.to_lowercase();
                    for (mech, m) in [("nopad", no_pad), ("pad", pad)] {
                        let mech = format!("{timing}-{mech}");
                        out.push((
                            key("flush-latency", p, "flush-latency", &mech),
                            verdict(m.ends_with('*')),
                        ));
                    }
                }
                ("fig3", _) => {
                    if let Some(p) = Platform::ALL
                        .into_iter()
                        .find(|p| line.starts_with(&format!("{} — ", p.name())))
                    {
                        let mech = if line.contains("coloured") {
                            "coloured-only"
                        } else {
                            "protected"
                        };
                        heading = Some(key("kernel-image", p, "kernel-image", mech));
                    } else if line.starts_with("  M = ") {
                        let k = heading.take().expect("a summary follows its heading");
                        out.push((k, summary(line)));
                    }
                }
                ("fig6", [mech @ ("raw:" | "partitioned:"), ..]) => {
                    let mech = mech.trim_end_matches(':');
                    let k = key("interrupt", Platform::Haswell, "interrupt", mech);
                    out.push((k, summary(line)));
                }
                _ => {}
            }
        }
        out
    }

    /// `goldens/reproduce_all.stdout` prints, for every registry cell it
    /// shows, the verdict `goldens/verdicts.json` pins.
    #[test]
    fn pinned_figures_print_the_pinned_verdicts() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../goldens");
        let stdout = std::fs::read_to_string(format!("{dir}/reproduce_all.stdout"))
            .expect("pinned reproduce_all stdout readable");
        let golden = std::fs::read_to_string(format!("{dir}/verdicts.json"))
            .expect("pinned verdicts readable");
        let golden = campaign::parse_golden(&golden);
        let printed = printed_verdicts(&stdout);
        // Table 3: 24 rows x 3; Table 4: 8 rows x 2; Fig 3: 8; Fig 6: 2.
        assert_eq!(printed.len(), 98, "{printed:?}");
        let wrong: Vec<String> = printed
            .iter()
            .filter(|(k, v)| golden.get(k).map(String::as_str) != Some(*v))
            .map(|(k, v)| format!("{k:?}: printed {v}, pinned {:?}", golden.get(k)))
            .collect();
        assert!(wrong.is_empty(), "{wrong:#?}");
    }
}
