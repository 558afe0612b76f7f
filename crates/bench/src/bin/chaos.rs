//! Chaos sweep: fuzzed in-process faults on real registry cells must
//! classify correctly without touching healthy cells.
//!
//! ```text
//! cargo run --release -p tp-bench --bin chaos -- --budget 40
//! cargo run --release -p tp-bench --bin chaos -- --seed 7 --budget 10
//! ```
//!
//! The sweep draws seeded `(class, ordinal, cell)` plans over the
//! in-process classes of `tp_core::fault` and arms each on a real cell
//! under the supervisor. Each class's classification on a synthetic cell
//! is a `supervise` unit test; the sweep checks the classes against real
//! cells at fuzzed ordinals. Any mismatch exits nonzero.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tp_bench::campaign::{self, ChannelResult, ExperimentDef};
use tp_bench::cli;
use tp_bench::supervise::{run_cell, CellOutcome};
use tp_bench::util::Table;
use tp_core::{FaultKind, FaultPlan};
use tp_sim::Platform;

/// SplitMix64: the sweep's only randomness source, so a `--seed` replays
/// the exact plan sequence.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw one fuzzed fault class with a fuzzed trigger ordinal in 1..=40.
fn fuzz_kind(state: &mut u64) -> FaultKind {
    let at = 1 + splitmix(state) % 40;
    match splitmix(state) % 3 {
        0 => FaultKind::EnvPanic { at },
        1 => FaultKind::EnvStall { at },
        _ => FaultKind::LostWakeup { at },
    }
}

/// The classifications a fuzzed plan is allowed to produce on a real
/// registry cell. `Ok` is allowed wherever the fuzzed trigger may simply
/// never fire (single-core cells never rotate the token; environments
/// that never syscall or `wait_preempt` — e.g. the bus channel's pure
/// load/compute loops — never tick the interaction ordinal that arms
/// env-level faults) — but an `Ok` faulted cell must then be
/// byte-identical to the healthy reference, which the sweep enforces.
fn allowed_outcomes(kind: FaultKind) -> Vec<CellOutcome> {
    use CellOutcome as O;
    match kind {
        FaultKind::EnvPanic { .. } => vec![O::Panicked, O::EnvFailed, O::Ok],
        FaultKind::EnvStall { .. } => vec![O::TimedOut, O::Ok],
        // The detector needs every environment suspended. A cell with a
        // spinning daemon (e.g. the bus sender's compute loop) turns a
        // wedged token into a livelock, which only the watchdog can
        // classify — `TimedOut` is the correct verdict there.
        FaultKind::LostWakeup { .. } => vec![O::Deadlock, O::TimedOut, O::Ok],
    }
}

/// A bit-exact fingerprint of a cell's results, for the healthy-cells-
/// byte-identical gate (`f64`s compared by bit pattern, not display).
fn fingerprint(channels: &[ChannelResult]) -> String {
    let mut s = String::new();
    for c in channels {
        let _ = writeln!(
            s,
            "{}/{}/{} v={:016x} b={:016x} leaks={} n={}",
            c.channel,
            c.mechanism,
            c.metric,
            c.value.to_bits(),
            c.baseline.to_bits(),
            c.leaks,
            c.samples
        );
    }
    s
}

/// The sweep universe: the four cheap registry experiments on two
/// platforms — eight real registry cells, fast enough to re-run dozens of
/// times under fuzzed faults.
fn sweep_universe(defs: &[ExperimentDef]) -> Vec<(&ExperimentDef, Platform)> {
    const CHEAP: [&str; 4] = ["tlb", "btb", "bhb", "bus"];
    let mut u = Vec::new();
    for name in CHEAP {
        if let Some(d) = defs.iter().find(|d| d.name == name) {
            for p in [Platform::Haswell, Platform::Sabre] {
                if (d.supports)(p) {
                    u.push((d, p));
                }
            }
        }
    }
    u
}

/// Compare the reference pass's verdicts against the committed goldens,
/// when the sample scale matches the pinned one. Returns the number of
/// mismatches (0 when skipped).
fn check_reference_verdicts(cells: &[(&ExperimentDef, Platform, Vec<ChannelResult>)]) -> usize {
    let Ok(text) = std::fs::read_to_string("goldens/verdicts.json") else {
        eprintln!("[sweep: goldens/verdicts.json unreadable; reference-verdict gate skipped]");
        return 0;
    };
    let scale = tp_bench::util::effort();
    match campaign::golden_tp_samples(&text) {
        Some(pinned) if (pinned - scale).abs() < 1e-9 => {}
        pinned => {
            eprintln!(
                "[sweep: goldens pinned at TP_SAMPLES={pinned:?}, run at {scale}; \
                 reference-verdict gate skipped]"
            );
            return 0;
        }
    }
    let golden = campaign::parse_golden(&text);
    let mut mismatches = 0;
    for (d, p, channels) in cells {
        for c in channels {
            let key = (
                d.name.to_string(),
                p.key().to_string(),
                c.channel.to_string(),
                c.mechanism.to_string(),
            );
            match golden.get(&key) {
                Some(v) if v == c.verdict() => {}
                Some(v) => {
                    mismatches += 1;
                    eprintln!(
                        "sweep: reference verdict for {}/{}/{}/{} is {:?}, golden says {v:?}",
                        d.name,
                        p.key(),
                        c.channel,
                        c.mechanism,
                        c.verdict()
                    );
                }
                None => {} // platform-filtered goldens: absence is not a diff
            }
        }
    }
    mismatches
}

/// The randomized chaos sweep: fuzz `budget` seeded `(class, ordinal,
/// cell)` fault plans across real registry cells. Gates: every faulted
/// cell classifies inside its allowed set (and the supervisor never
/// unwinds — the sweep itself is the "faulted runs complete" proof);
/// an `Ok` faulted cell and every interleaved healthy re-run must be
/// byte-identical to the healthy reference pass.
fn run_sweep(seed: u64, budget: usize) -> ExitCode {
    let defs = campaign::registry();
    let universe = sweep_universe(&defs);
    eprintln!(
        "[sweep: seed {seed:#x}, {budget} plan(s) over {} cell(s)]",
        universe.len()
    );

    // Healthy reference pass: fingerprints + per-cell wall times (which
    // derive the faulted runs' deadlines) + the golden-verdict gate.
    let mut reference: Vec<(String, f64)> = Vec::new();
    let mut ref_cells: Vec<(&ExperimentDef, Platform, Vec<ChannelResult>)> = Vec::new();
    for &(d, p) in &universe {
        let t0 = Instant::now();
        let run = d.run;
        let report = run_cell(d.name, p.key(), None, Duration::from_secs(600), move || {
            run(p)
        });
        let secs = t0.elapsed().as_secs_f64();
        let Some(channels) = report
            .channels
            .filter(|_| report.outcome == CellOutcome::Ok)
        else {
            eprintln!(
                "sweep: reference run of {} on {} came back {}: {}",
                d.name,
                p.key(),
                report.outcome.name(),
                report.error.as_deref().unwrap_or("no detail"),
            );
            return ExitCode::FAILURE;
        };
        reference.push((fingerprint(&channels), secs));
        ref_cells.push((d, p, channels));
        eprintln!("[sweep reference: {} on {} in {secs:.1}s]", d.name, p.key());
    }
    let mut failures = check_reference_verdicts(&ref_cells);

    let mut t = Table::new(&["Plan", "Cell", "Outcome", "Attempts", "Result"]);
    let mut state = seed;
    for i in 0..budget {
        let kind = fuzz_kind(&mut state);
        let idx = (splitmix(&mut state) % universe.len() as u64) as usize;
        let (d, p) = universe[idx];
        let plan = FaultPlan {
            kind,
            cell: Some((d.name.to_string(), p.key().to_string())),
        };
        // A stalled attempt burns its whole deadline, so bound it by the
        // cell's observed healthy runtime instead of the generous default.
        let deadline = Duration::from_secs_f64((reference[idx].1 * 4.0).clamp(2.0, 600.0));
        let run = d.run;
        let report = run_cell(d.name, p.key(), Some(&plan), deadline, move || run(p));
        let allowed = allowed_outcomes(kind);
        let mut verdict = if allowed.contains(&report.outcome) {
            "PASS"
        } else {
            failures += 1;
            eprintln!(
                "sweep: plan {plan} on {}/{} classified {} (allowed: {}): {}",
                d.name,
                p.key(),
                report.outcome.name(),
                allowed
                    .iter()
                    .map(|o| o.name())
                    .collect::<Vec<_>>()
                    .join(", "),
                report.error.as_deref().unwrap_or("no detail"),
            );
            "FAIL"
        };
        if verdict == "PASS"
            && report.outcome == CellOutcome::Ok
            && !matches!(kind, FaultKind::LostWakeup { .. })
        {
            // The fault never fired: the cell must be indistinguishable
            // from the healthy reference. (`lost-wakeup` is exempt: a
            // wedged token starves off-token environments, and when the
            // primaries can still finish the run completes `Ok` with
            // legitimately degraded data — the strong detector guarantees
            // are pinned on the dedicated pair cell instead.)
            let fp = fingerprint(&report.channels.unwrap_or_default());
            if fp != reference[idx].0 {
                failures += 1;
                verdict = "FAIL";
                eprintln!(
                    "sweep: plan {plan} on {}/{} came back ok but diverged from the reference",
                    d.name,
                    p.key()
                );
            }
        }
        t.row(&[
            plan.to_string(),
            format!("{}/{}", d.name, p.key()),
            report.outcome.name().to_string(),
            report.attempts.to_string(),
            verdict.to_string(),
        ]);

        // One rotating healthy cell per plan: fault injection is scoped
        // and thread-local, so sick plans must never contaminate healthy
        // cells — byte-identical to the reference, every time.
        let h = i % universe.len();
        let (hd, hp) = universe[h];
        let hrun = hd.run;
        let healthy = run_cell(
            hd.name,
            hp.key(),
            None,
            Duration::from_secs(600),
            move || hrun(hp),
        );
        let clean = healthy.outcome == CellOutcome::Ok
            && fingerprint(&healthy.channels.unwrap_or_default()) == reference[h].0;
        if !clean {
            failures += 1;
            eprintln!(
                "sweep: healthy cell {} on {} diverged from the reference after plan {plan} ({})",
                hd.name,
                hp.key(),
                healthy.outcome.name(),
            );
        }
    }

    println!("{}", t.render());
    if failures == 0 {
        println!("sweep: {budget} fuzzed plan(s) classified inside their allowed sets; healthy cells byte-identical");
        ExitCode::SUCCESS
    } else {
        println!("sweep: {failures} gate failure(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // A bad flag is the shared convention: report and exit 2.
    let (seed, budget) = cli::parse_or_exit("chaos", || {
        let mut seed = 0xC4A0_5EED_u64;
        let mut budget = 40_usize;
        let mut it = cli::ArgStream::from_env();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seed" => seed = cli::parse_u64("--seed", &it.value("--seed")?)?,
                "--budget" => {
                    budget = cli::parse_u64("--budget", &it.value("--budget")?)? as usize;
                }
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (chaos takes [--seed N] [--budget N])"
                    ))
                }
            }
        }
        if budget == 0 {
            return Err("--budget needs at least one plan".into());
        }
        Ok((seed, budget))
    });
    run_sweep(seed, budget)
}
