//! Campaign runner: every registered channel experiment × every
//! registered platform, with machine-readable results and a golden
//! verdict gate.
//!
//! ```text
//! campaign --list                         # what would run, and where
//! campaign                                # everything, all platforms
//! campaign --platform skylake             # one platform
//! campaign --only l1d,flush-latency       # a subset of experiments
//! campaign --json results.json            # write structured results
//! campaign --check goldens/verdicts.json  # fail on any verdict diff
//! campaign --update-goldens goldens/verdicts.json
//! campaign --resume                       # skip journaled cells
//! ```
//!
//! `TP_SAMPLES` scales sample counts as everywhere else; the pinned
//! golden file is generated at `TP_SAMPLES=0.25` (what CI runs).
//!
//! Every cell runs under the campaign supervisor
//! ([`tp_bench::supervise`]): a panicking, hanging or deadlocked cell is
//! classified, retried where transient, quarantined into
//! `goldens/quarantine.json`, and the campaign still completes with the
//! remaining cells' results. `TP_FAULT` injects a deterministic fault for
//! chaos-testing exactly that machinery (see `tp_core::fault`), and
//! `TP_CELL_TIMEOUT` overrides the per-cell wall-clock deadline that is
//! otherwise derived from the previous run's `BENCH-campaign.json`.
//!
//! Every completed cell is appended (checksummed, fsynced) to the
//! per-cell journal `goldens/campaign.journal` as it finishes, so a
//! campaign killed at any point resumes with `--resume` instead of
//! re-running finished work: the journal is replayed, torn records are
//! truncated, verified cells are skipped, and the final artifacts are
//! byte-identical (modulo wall times) to an uninterrupted run. An advisory
//! lock next to the journal keeps concurrent campaigns from interleaving
//! appends.

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tp_bench::campaign::{
    bench_json, check_goldens, golden_json, registry, results_json, ExperimentDef, ExperimentResult,
};
use tp_bench::cli;
use tp_bench::store::{
    self, read_artifact, write_atomic, CampaignLock, CellRecord, Journal, JournalHeader,
};
use tp_bench::supervise::{
    self, cell_deadline, parse_bench_history, quarantine_json, CellOutcome, QuarantineEntry,
};
use tp_bench::util::Table;
use tp_core::FaultPlan;
use tp_sim::Platform;

/// Where the quarantine ledger is written (next to the golden verdicts).
const QUARANTINE_PATH: &str = "goldens/quarantine.json";

/// The per-cell journal.
const JOURNAL_PATH: &str = "goldens/campaign.journal";

/// How long to wait on the advisory lock before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(900);

struct Args {
    list: bool,
    only: Vec<String>,
    platforms: Vec<Platform>,
    json: Option<String>,
    check: Option<String>,
    update_goldens: Option<String>,
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut common = cli::Common::new().with_json();
    let mut args = Args {
        list: false,
        only: Vec::new(),
        platforms: Vec::new(),
        json: None,
        check: None,
        update_goldens: None,
        resume: false,
    };
    let mut it = cli::ArgStream::from_env();
    while let Some(arg) = it.next() {
        if common.accept(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--list" => args.list = true,
            "--resume" => args.resume = true,
            "--only" => {
                args.only
                    .extend(it.value("--only")?.split(',').map(str::to_string));
            }
            "--check" => args.check = Some(it.value("--check")?),
            "--update-goldens" => args.update_goldens = Some(it.value("--update-goldens")?),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (see --list usage in the module docs)"
                ))
            }
        }
    }
    args.platforms = common.platforms;
    args.json = common.json;
    Ok(args)
}

fn print_list(defs: &[ExperimentDef], platforms: &[Platform]) {
    let mut t = Table::new(&["Name", "Cost", "Platforms", "Paper", "Title"]);
    for d in defs {
        let supported: Vec<&str> = platforms
            .iter()
            .filter(|&&p| (d.supports)(p))
            .map(|p| p.key())
            .collect();
        t.row(&[
            d.name.to_string(),
            format!("{}", d.cost),
            supported.join(","),
            d.paper.to_string(),
            d.title.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::from(2);
        }
    };

    // Registry sanity: a malformed platform entry should fail loudly
    // before any experiment burns time on it.
    for &p in &args.platforms {
        let errs = p.config().validate();
        if !errs.is_empty() {
            eprintln!("campaign: platform {} fails validation: {errs:?}", p.key());
            return ExitCode::from(2);
        }
    }

    let mut defs = registry();
    if !args.only.is_empty() {
        for name in &args.only {
            if !defs.iter().any(|d| d.name == name) {
                eprintln!("campaign: unknown experiment {name:?}; see campaign --list");
                return ExitCode::from(2);
            }
        }
        defs.retain(|d| args.only.iter().any(|n| n == d.name));
    }

    if args.list {
        print_list(&defs, &args.platforms);
        return ExitCode::SUCCESS;
    }

    // The fault plan (chaos knob) must parse before any cell burns time.
    let plan = match FaultPlan::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(p) = &plan {
        eprintln!("[fault injection armed: {p}]");
    }

    // Per-cell deadlines derive from the previous run's wall times; a
    // missing or stale history degrades to a generous default.
    let history = std::fs::read_to_string("BENCH-campaign.json")
        .map(|t| parse_bench_history(&t))
        .unwrap_or_default();

    // Work items keyed by registry × platform report order.
    let mut schedule: Vec<(usize, &ExperimentDef, Platform)> = Vec::new();
    for d in &defs {
        for &p in &args.platforms {
            if (d.supports)(p) {
                schedule.push((schedule.len(), d, p));
            }
        }
    }

    // The journal this run appends to, guarded by its advisory lock.
    let _lock = match CampaignLock::acquire(format!("{JOURNAL_PATH}.lock"), LOCK_TIMEOUT) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::from(2);
        }
    };

    // A fresh run truncates the journal; a resumed run replays it, rewrites
    // the verified prefix and continues appending after it.
    let header = JournalHeader::current();
    let opened = if args.resume {
        Journal::open_resume(JOURNAL_PATH, &header)
    } else {
        Journal::create(JOURNAL_PATH, &header).map(|j| (j, store::LoadReport::default()))
    };
    let (journal, report) = match opened {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign: cannot open journal {JOURNAL_PATH}: {e}");
            return ExitCode::from(2);
        }
    };
    let journal = Mutex::new(journal);
    let completed = store::completed_cells(&report);

    // Partition the schedule: journaled cells replay, the rest run.
    let mut replayed: Vec<(usize, ExperimentResult)> = Vec::new();
    let mut todo: Vec<(usize, &ExperimentDef, Platform)> = Vec::new();
    for &(idx, d, p) in &schedule {
        match completed.get(&(d.name.to_string(), p.key().to_string())) {
            Some(rec) => {
                store::note_cell_skipped();
                replayed.push((idx, ExperimentResult::from_record(d.name, p, rec)));
            }
            None => todo.push((idx, d, p)),
        }
    }
    if !replayed.is_empty() {
        eprintln!(
            "[resume: {} cell(s) replayed from the journal, {} still to run]",
            replayed.len(),
            todo.len()
        );
    }

    // Heavy-first scheduling so expensive experiments overlap the cheap
    // tail; completed cells are journaled (checksummed + fsynced) the
    // moment they finish, so a SIGKILL between cells loses nothing.
    todo.sort_by_key(|&(_, d, _)| std::cmp::Reverse(d.cost));
    let t_all = Instant::now();
    type Cell = (usize, &'static str, Platform, f64, supervise::CellReport);
    let mut cells: Vec<Cell> = rayon::par_map(&todo, |&(i, d, p)| {
        let t0 = Instant::now();
        let deadline = cell_deadline(
            history
                .get(&(d.name.to_string(), p.key().to_string()))
                .copied(),
        );
        let run = d.run;
        let report = supervise::run_cell(d.name, p.key(), plan.as_ref(), deadline, move || run(p));
        let seconds = t0.elapsed().as_secs_f64();
        if report.outcome == CellOutcome::Ok {
            if let Some(channels) = &report.channels {
                let rec = CellRecord::new(d.name, p, seconds, channels);
                if let Err(e) = journal.lock().expect("journal lock").append(&rec) {
                    eprintln!("[failed to journal {} on {}: {e}]", d.name, p.key());
                }
            }
        }
        eprintln!("[{} on {}: {:.1}s]", d.name, p.key(), seconds);
        (i, d.name, p, seconds, report)
    });
    cells.sort_by_key(|&(i, ..)| i);
    let total_seconds = t_all.elapsed().as_secs_f64();

    // Partition: healthy cells feed the results; everything else goes to
    // the quarantine ledger and the campaign continues without it.
    let mut results: Vec<(usize, ExperimentResult)> = replayed;
    let mut quarantine: Vec<QuarantineEntry> = Vec::new();
    for (i, name, p, seconds, report) in cells {
        if report.outcome == CellOutcome::Ok {
            results.push((
                i,
                ExperimentResult {
                    experiment: name,
                    platform: p,
                    seconds,
                    channels: report.channels.unwrap_or_default(),
                },
            ));
        } else if report.outcome == CellOutcome::EnvFailed {
            // Graceful degradation: the cell completed over its surviving
            // environments. Report the partial results but do not journal
            // them — a resume must recompute the cell in full health.
            eprintln!(
                "[DEGRADED {} on {}: {}]",
                name,
                p.key(),
                report.error.as_deref().unwrap_or("no detail"),
            );
            results.push((
                i,
                ExperimentResult {
                    experiment: name,
                    platform: p,
                    seconds,
                    channels: report.channels.unwrap_or_default(),
                },
            ));
        } else {
            eprintln!(
                "[QUARANTINED {} on {}: {} after {} attempt(s): {}]",
                name,
                p.key(),
                report.outcome.name(),
                report.attempts,
                report.error.as_deref().unwrap_or("no detail"),
            );
            supervise::note_quarantined();
            quarantine.push(QuarantineEntry {
                experiment: name.to_string(),
                platform: p.key().to_string(),
                outcome: report.outcome,
                attempts: report.attempts,
                error: report.error.unwrap_or_default(),
            });
        }
    }
    results.sort_by_key(|&(i, _)| i);
    let results: Vec<ExperimentResult> = results.into_iter().map(|(_, r)| r).collect();

    // The ledger is written on every run, so a clean campaign visibly
    // overwrites the previous chaos run's entries with `[]`.
    match write_atomic(QUARANTINE_PATH, &quarantine_json(&quarantine)) {
        Ok(()) if quarantine.is_empty() => {}
        Ok(()) => eprintln!(
            "[wrote {QUARANTINE_PATH}: {} quarantined cell(s)]",
            quarantine.len()
        ),
        Err(e) => eprintln!("[failed to write {QUARANTINE_PATH}: {e}]"),
    }

    // Human-readable verdict table.
    let mut t = Table::new(&[
        "Experiment",
        "Platform",
        "Channel",
        "Mechanism",
        "Value",
        "Base",
        "Verdict",
    ]);
    for r in &results {
        for c in &r.channels {
            t.row(&[
                r.experiment.to_string(),
                r.platform.key().to_string(),
                c.channel.to_string(),
                c.mechanism.to_string(),
                format!(
                    "{:.1} {}",
                    c.value,
                    if c.metric == "M_mb" { "mb" } else { "%" }
                ),
                format!("{:.1}", c.baseline),
                c.verdict().to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    let res = store::resume_counters();
    eprintln!(
        "[campaign total {total_seconds:.1}s, {} experiment runs ({} replayed from the journal), {} threads, TP_SAMPLES={}]",
        results.len(),
        res.cells_skipped,
        tp_bench::util::threads(),
        tp_bench::util::effort()
    );

    // Per-cell wall times, mirroring reproduce_all's BENCH.json (CI
    // budgets the campaign total and keeps both files as artifacts).
    match write_atomic("BENCH-campaign.json", &bench_json(&results, total_seconds)) {
        Ok(()) => eprintln!("[wrote BENCH-campaign.json]"),
        Err(e) => eprintln!("[failed to write BENCH-campaign.json: {e}]"),
    }

    if let Some(path) = &args.json {
        let json = results_json(&results, total_seconds);
        if let Err(e) = write_atomic(path, &json) {
            eprintln!("campaign: failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("[wrote {path}]");
    }

    if let Some(path) = &args.update_goldens {
        if let Err(e) = write_atomic(path, &golden_json(&results)) {
            eprintln!("campaign: failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("[pinned goldens to {path}]");
    }

    if let Some(path) = &args.check {
        let golden = match read_artifact(path) {
            Ok((g, ())) => g,
            Err(e) => {
                eprintln!("campaign: cannot read golden file {e}");
                return ExitCode::from(2);
            }
        };
        match check_goldens(&golden, &results) {
            Ok(n) => eprintln!("[goldens OK: {n} verdicts match {path}]"),
            Err(report) => {
                eprintln!("golden verdict check against {path} FAILED:\n{report}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}
