//! Chaos harness: prove the durable store recovers from process death and
//! journal damage, and that fuzzed in-process faults on real campaign
//! cells classify correctly without touching healthy cells.
//!
//! ```text
//! cargo run --release -p tp-bench --bin chaos                  # every store class
//! TP_FAULT=kill@2 cargo run --release -p tp-bench --bin chaos  # one store class
//! cargo run --release -p tp-bench --bin chaos -- --sweep --budget 40
//! ```
//!
//! * **Store classes** (`kill@N`, `torn-write`, `journal-rot`): the
//!   harness runs the real `campaign` binary as a subprocess in a scratch
//!   directory, injures it — SIGKILL after its Nth journal record, a
//!   truncated journal tail, a flipped byte inside a journal record — and
//!   then runs `campaign --resume`, asserting the resumed run exits
//!   cleanly and produces the same artifacts (byte-identical goldens,
//!   results modulo wall times) as an undisturbed reference run.
//! * **`--sweep`**: seeded `(class, ordinal, cell)` plans over the
//!   in-process classes of `tp_core::fault`, armed on real campaign cells.
//!   Each class's classification on a synthetic cell is a `supervise`
//!   unit test; the sweep checks the classes against real cells at
//!   fuzzed ordinals.
//!
//! Any mismatch exits nonzero.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tp_bench::campaign::{self, ChannelResult, ExperimentDef};
use tp_bench::cli;
use tp_bench::store::u64_field;
use tp_bench::supervise::{run_cell, CellOutcome};
use tp_bench::util::Table;
use tp_core::{FaultKind, FaultPlan};
use tp_sim::Platform;

/// The journal path the campaign subprocess writes, relative to its cwd.
const CHILD_JOURNAL: &str = "goldens/campaign.journal";

/// The cell subset the store scenarios run: four cheap cells, enough to
/// kill a campaign between journal appends and still finish fast.
const CHILD_CELLS: &[&str] = &["--only", "tlb,btb", "--platform", "haswell,sabre"];

// ------------------------------------------------------ store fault classes

/// A process-level fault injected around the real `campaign` binary.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreFault {
    /// SIGKILL the campaign subprocess once its journal holds N records.
    Kill(u64),
    /// Truncate the journal mid-record, as a crash mid-append would.
    TornWrite,
    /// Flip one byte inside a committed journal record.
    JournalRot,
}

impl StoreFault {
    fn all() -> Vec<StoreFault> {
        vec![
            StoreFault::Kill(2),
            StoreFault::TornWrite,
            StoreFault::JournalRot,
        ]
    }

    fn parse(raw: &str) -> Option<StoreFault> {
        match raw.trim() {
            "torn-write" => Some(StoreFault::TornWrite),
            "journal-rot" => Some(StoreFault::JournalRot),
            "kill" => Some(StoreFault::Kill(2)),
            other => other
                .strip_prefix("kill@")
                .and_then(|n| n.parse().ok())
                .map(StoreFault::Kill),
        }
    }

    fn name(self) -> String {
        match self {
            StoreFault::Kill(n) => format!("kill@{n}"),
            StoreFault::TornWrite => "torn-write".to_string(),
            StoreFault::JournalRot => "journal-rot".to_string(),
        }
    }

    /// Scratch directory name for this class's campaign runs.
    fn dir(self) -> String {
        match self {
            StoreFault::Kill(_) => "kill".to_string(),
            other => other.name(),
        }
    }
}

/// The real `campaign` binary, expected next to this executable.
fn campaign_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate chaos binary: {e}"))?;
    let name = if cfg!(windows) {
        "campaign.exe"
    } else {
        "campaign"
    };
    let exe = me.with_file_name(name);
    if exe.exists() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found; build it first: cargo build --release -p tp-bench --bin campaign",
            exe.display()
        ))
    }
}

/// The effort scale forwarded to campaign subprocesses: the caller's
/// `TP_SAMPLES` when set, otherwise the CI default of 0.25.
fn child_samples() -> String {
    std::env::var("TP_SAMPLES")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .unwrap_or_else(|| "0.25".to_string())
}

/// A campaign subprocess invocation in `dir`. `TP_THREADS=1` makes cells
/// finish one at a time, so `kill@N` lands between journal appends;
/// results are thread-count-invariant so the reference run matches.
fn campaign_cmd(exe: &Path, dir: &Path, resume: bool) -> Command {
    let mut c = Command::new(exe);
    c.current_dir(dir)
        .args(CHILD_CELLS)
        .args(["--json", "results.json", "--update-goldens", "goldens.json"])
        .env_remove("TP_FAULT")
        .env("TP_SAMPLES", child_samples())
        .env("TP_THREADS", "1")
        .stdout(Stdio::null());
    if resume {
        c.arg("--resume");
    }
    c
}

fn run_campaign(exe: &Path, dir: &Path, resume: bool) -> Result<(), String> {
    let out = campaign_cmd(exe, dir, resume)
        .output()
        .map_err(|e| format!("cannot spawn campaign: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "campaign in {} exited with {}:\n{}",
            dir.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr),
        ))
    }
}

/// Strip wall-clock-dependent content from a `results.json`: the
/// `total_seconds` line and per-cell `"seconds"` fields.
fn normalize_results(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.contains("\"total_seconds\"") {
            continue;
        }
        let mut line = line.to_string();
        if let Some(i) = line.find("\"seconds\": ") {
            if let Some(j) = line[i..].find(", ") {
                line.replace_range(i..i + j + 2, "");
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn read_to_string(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The undisturbed reference artifacts every damaged run must reproduce.
struct Reference {
    goldens: String,
    results_norm: String,
}

fn reference_run(exe: &Path, base: &Path) -> Result<Reference, String> {
    let dir = base.join("ref");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    run_campaign(exe, &dir, false)?;
    Ok(Reference {
        goldens: read_to_string(&dir.join("goldens.json"))?,
        results_norm: normalize_results(&read_to_string(&dir.join("results.json"))?),
    })
}

/// Assert a resumed run reproduced the reference artifacts and report the
/// resume counters it recorded in its `BENCH-campaign.json`.
fn check_recovery(dir: &Path, reference: &Reference) -> Result<String, String> {
    let goldens = read_to_string(&dir.join("goldens.json"))?;
    if goldens != reference.goldens {
        return Err("resumed goldens.json differs from the reference run's".to_string());
    }
    let results = normalize_results(&read_to_string(&dir.join("results.json"))?);
    if results != reference.results_norm {
        return Err(
            "resumed results.json differs from the reference run's (beyond wall times)".to_string(),
        );
    }
    let bench = read_to_string(&dir.join("BENCH-campaign.json"))?;
    let resume = bench
        .find("\"resume\": ")
        .map(|i| &bench[i..])
        .ok_or("BENCH-campaign.json has no resume object")?;
    let skipped = u64_field(resume, "cells_skipped").unwrap_or(0);
    let recovered = u64_field(resume, "records_recovered").unwrap_or(0);
    let truncated = u64_field(resume, "records_truncated").unwrap_or(0);
    Ok(format!(
        "skipped {skipped}, recovered {recovered}, truncated {truncated}"
    ))
}

/// Run one store-level fault scenario end to end. Returns the human
/// summary of what the recovery accounted for.
fn run_store_fault(
    fault: StoreFault,
    exe: &Path,
    base: &Path,
    reference: &Reference,
) -> Result<String, String> {
    let dir = base.join(fault.dir());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal = dir.join(CHILD_JOURNAL);

    match fault {
        StoreFault::Kill(n) => {
            // Kill the campaign once its journal holds n cell records
            // (header line + n), then prove --resume finishes the rest.
            let mut child = campaign_cmd(exe, &dir, false)
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn campaign: {e}"))?;
            let deadline = Instant::now() + Duration::from_secs(300);
            let lines = |p: &Path| {
                std::fs::read(p)
                    .map(|b| b.iter().filter(|&&c| c == b'\n').count() as u64)
                    .unwrap_or(0)
            };
            let mut finished_early = false;
            loop {
                if child
                    .try_wait()
                    .map_err(|e| format!("wait on campaign: {e}"))?
                    .is_some()
                {
                    finished_early = true;
                    break;
                }
                // Header line + n cell records.
                if lines(&journal) > n {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                if Instant::now() > deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "campaign never reached {n} journal record(s) before the deadline"
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            if finished_early {
                eprintln!("[kill@{n}: campaign finished before the kill; resume still verified]");
            }
        }
        StoreFault::TornWrite => {
            // A full run, then a crash-mid-append torn tail.
            run_campaign(exe, &dir, false)?;
            let bytes = std::fs::read(&journal).map_err(|e| format!("{CHILD_JOURNAL}: {e}"))?;
            if bytes.len() < 32 {
                return Err("journal too short to tear".to_string());
            }
            std::fs::write(&journal, &bytes[..bytes.len() - 7])
                .map_err(|e| format!("{CHILD_JOURNAL}: {e}"))?;
        }
        StoreFault::JournalRot => {
            // A full run, then one flipped byte inside the second cell
            // record: the record before it must be served, everything at
            // and after it recomputed.
            run_campaign(exe, &dir, false)?;
            let mut bytes = std::fs::read(&journal).map_err(|e| format!("{CHILD_JOURNAL}: {e}"))?;
            let newlines: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .map(|(i, _)| i)
                .collect();
            let target = newlines
                .get(1)
                .map(|&i| i + 60)
                .filter(|&i| i < bytes.len())
                .ok_or("journal too short to rot")?;
            bytes[target] ^= 0x01;
            std::fs::write(&journal, bytes).map_err(|e| format!("{CHILD_JOURNAL}: {e}"))?;
        }
    }

    run_campaign(exe, &dir, true)?;
    let summary = check_recovery(&dir, reference)?;

    // The damage classes must actually have skipped/truncated something —
    // a recovery that silently re-ran everything would also "match".
    let bench = read_to_string(&dir.join("BENCH-campaign.json"))?;
    let resume = &bench[bench.find("\"resume\": ").unwrap_or(0)..];
    match fault {
        StoreFault::Kill(_) => {}
        StoreFault::TornWrite | StoreFault::JournalRot => {
            if u64_field(resume, "records_truncated").unwrap_or(0) == 0 {
                return Err("damaged journal reported zero truncated records".to_string());
            }
            if u64_field(resume, "cells_skipped").unwrap_or(0) == 0 {
                return Err("resume served nothing from the journal".to_string());
            }
        }
    }
    Ok(summary)
}

// ---------------------------------------------------------- randomized sweep

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
/// campaign cell. `Ok` is allowed wherever the fuzzed trigger may simply
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
/// platforms — eight real campaign cells, fast enough to re-run dozens of
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
/// cell)` fault plans across real campaign cells. Gates: every faulted
/// cell classifies inside its allowed set (and the supervisor never
/// unwinds — the sweep itself is the "faulted campaigns exit 0" proof);
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
    // The store classes are driven by `TP_FAULT`; the randomized sweep by
    // `--sweep`. Anything else is the shared bad-flag convention (report
    // + exit 2) so a typo'd invocation fails loudly.
    let sweep = cli::parse_or_exit("chaos", || {
        let mut sweep: Option<(u64, usize)> = None;
        let mut seed = 0xC4A0_5EED_u64;
        let mut budget = 40_usize;
        let mut flags = false;
        let mut it = cli::ArgStream::from_env();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--sweep" => sweep = Some((0, 0)),
                "--seed" => {
                    seed = cli::parse_u64("--seed", &it.value("--seed")?)?;
                    flags = true;
                }
                "--budget" => {
                    budget = cli::parse_u64("--budget", &it.value("--budget")?)? as usize;
                    flags = true;
                }
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (chaos takes --sweep [--seed N] \
                         [--budget N]; the store class is selected via TP_FAULT)"
                    ))
                }
            }
        }
        if sweep.is_none() && flags {
            return Err("--seed/--budget require --sweep".into());
        }
        if budget == 0 {
            return Err("--budget needs at least one plan".into());
        }
        Ok(sweep.map(|_| (seed, budget)))
    });
    if let Some((seed, budget)) = sweep {
        return run_sweep(seed, budget);
    }

    // `TP_FAULT` selects one store class; unset runs all three.
    let store_faults = match std::env::var("TP_FAULT") {
        Ok(raw) if !raw.trim().is_empty() => match StoreFault::parse(&raw) {
            Some(f) => vec![f],
            None => {
                eprintln!(
                    "chaos: TP_FAULT `{raw}` is not a store class (expected kill[@N], \
                     torn-write or journal-rot); the in-process classes are covered by \
                     the supervise unit tests and `chaos --sweep`"
                );
                return ExitCode::from(2);
            }
        },
        _ => StoreFault::all(),
    };

    // Injure a real campaign subprocess, resume it, and require the
    // reference artifacts back.
    let mut t = Table::new(&["Fault", "Expected", "Classified", "Result"]);
    let mut failures = 0usize;
    let setup = campaign_exe().and_then(|exe| {
        let base = std::env::temp_dir().join(format!("tp-chaos-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        eprintln!(
            "[store scenarios: reference campaign in {}]",
            base.display()
        );
        reference_run(&exe, &base).map(|r| (exe, base, r))
    });
    match setup {
        Err(e) => {
            failures += store_faults.len();
            eprintln!("chaos: store scenarios failed to set up: {e}");
            for f in &store_faults {
                t.row(&[
                    f.name(),
                    "recovered".to_string(),
                    "setup-failed".to_string(),
                    "FAIL".to_string(),
                ]);
            }
        }
        Ok((exe, base, reference)) => {
            for &fault in &store_faults {
                let res = run_store_fault(fault, &exe, &base, &reference);
                let (classified, pass) = match &res {
                    Ok(summary) => {
                        eprintln!("[{}: recovered — {summary}]", fault.name());
                        ("recovered".to_string(), true)
                    }
                    Err(e) => {
                        failures += 1;
                        eprintln!("chaos: {} NOT recovered: {e}", fault.name());
                        ("not-recovered".to_string(), false)
                    }
                };
                t.row(&[
                    fault.name(),
                    "recovered".to_string(),
                    classified,
                    if pass { "PASS" } else { "FAIL" }.to_string(),
                ]);
            }
            let _ = std::fs::remove_dir_all(&base);
        }
    }

    println!("{}", t.render());
    if failures == 0 {
        println!(
            "chaos: all {} store fault class(es) recovered",
            store_faults.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("chaos: {failures} recovery failure(s)");
        ExitCode::FAILURE
    }
}
