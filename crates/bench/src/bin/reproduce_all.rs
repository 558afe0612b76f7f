//! Regenerates every table and figure of the paper in one run, and gates
//! the 124 channel × mechanism × platform verdicts.
//!
//! ```text
//! reproduce_all                                # every section, paper order
//! reproduce_all --only table3                  # one section
//! reproduce_all --only table1,fig5,ablations   # several, paper order
//! reproduce_all --check goldens/verdicts.json  # also gate the 124 verdicts
//! reproduce_all --json results.json            # the cells' structured results
//! reproduce_all --update-goldens goldens/verdicts.json   # re-pin
//! ```
//!
//! Set `TP_SAMPLES=0.25` for a quick pass (the goldens are pinned there)
//! or `TP_SAMPLES=4` for higher statistical resolution, and `TP_THREADS`
//! to bound the worker count (`TP_THREADS=1` runs fully sequentially).
//! Every registry cell and every section's own simulations run once, in
//! one pass ([`tp_bench::reproduce`]), but the sections are printed in
//! paper order, so stdout is bit-identical for every thread count;
//! timings go to stderr and to a machine-readable `BENCH.json` in the
//! working directory, which CI budgets.
//!
//! `--check` and `--update-goldens` run every registry cell on every
//! platform, printed or not. `--check` diffs the voted verdicts against
//! the golden file, its report on stderr, so stdout is the same with and
//! without it.
//!
//! Every registry cell runs under the supervisor ([`tp_bench::supervise`]),
//! with an engine-watchdog deadline derived from its registry cost and
//! `TP_SAMPLES`: a panicking, stalled or deadlocked cell is classified
//! (only a stall past its deadline is retried, on the same seeds) and
//! quarantined into `goldens/quarantine.json` (written on every run, `[]`
//! when healthy), and the other cells and sections still complete.
//! `TP_FAULT` injects a deterministic fault (see `tp_core::fault`). The
//! `--check` golden is the only artifact the run reads.
//!
//! A quarantined cell or a failing section is named on stderr, the rest
//! still print, and the process exits 1; so does a verdict that differs
//! from its pin or goes missing. A bad flag or environment variable, or an
//! artifact that cannot be written or read, exits 2.

use std::collections::BTreeMap;
use std::process::ExitCode;
use tp_bench::campaign::{check_goldens, golden_json, results_json};
use tp_bench::reproduce::{self, bench_json};
use tp_bench::supervise::quarantine_json;
use tp_bench::{cli, store};
use tp_core::FaultPlan;

/// Where the quarantine ledger is written (next to the golden verdicts).
const QUARANTINE_PATH: &str = "goldens/quarantine.json";

/// Write one artifact, or report it and exit 2.
fn write(path: &str, payload: &str) -> Result<(), ExitCode> {
    store::write_atomic(path, payload).map_err(|e| {
        eprintln!("reproduce_all: failed to write {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    match reproduce_all() {
        Ok(code) | Err(code) => code,
    }
}

fn reproduce_all() -> Result<ExitCode, ExitCode> {
    let args = cli::parse_or_exit("reproduce_all", || {
        reproduce::parse_args(std::env::args().skip(1))
    });
    let golden = match &args.check {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some((path, text)),
            Err(e) => {
                eprintln!("reproduce_all: cannot read golden file {path}: {e}");
                return Err(ExitCode::from(2));
            }
        },
        None => None,
    };
    // The fault plan must parse before any cell burns time, and even when
    // no cell runs.
    let plan = FaultPlan::from_env().map_err(|e| {
        eprintln!("reproduce_all: {e}");
        ExitCode::from(2)
    })?;
    if let Some(p) = &plan {
        eprintln!("[fault injection armed: {p}]");
    }

    let r = reproduce::run(&args.only, args.all_cells(), plan.as_ref());
    let mut failed = !r.quarantine.is_empty();
    for (name, text) in &r.sections {
        match text {
            Ok(text) => {
                println!("==================== {name} ====================");
                println!("{text}");
            }
            Err(why) => {
                eprintln!("[{name} FAILED: {why}]");
                failed = true;
            }
        }
    }
    for (cell, why) in &r.degraded {
        eprintln!("[DEGRADED {cell}: {why}]");
    }
    for q in &r.quarantine {
        eprintln!(
            "[QUARANTINED {} on {}: {} after {} attempt(s): {}]",
            q.experiment,
            q.platform,
            q.outcome.name(),
            q.attempts,
            q.error
        );
    }
    for (name, secs) in &r.own_seconds {
        eprintln!("[{name} took {secs:.1}s]");
    }
    let mut per_experiment: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for c in &r.cells {
        let e = per_experiment.entry(c.experiment).or_default();
        *e = (e.0 + 1, e.1 + c.seconds);
    }
    for (name, (n, secs)) in per_experiment {
        eprintln!("[{name}: {n} cell(s), {secs:.1}s]");
    }
    eprintln!(
        "[reproduce_all total {:.1}s, {} threads, TP_SAMPLES={}]",
        r.total_seconds,
        tp_bench::util::threads(),
        tp_bench::util::effort()
    );

    write("BENCH.json", &bench_json(&r))?;
    eprintln!("[wrote BENCH.json]");
    write(QUARANTINE_PATH, &quarantine_json(&r.quarantine))?;
    if let Some(path) = &args.json {
        write(path, &results_json(&r.cells, r.total_seconds))?;
        eprintln!("[wrote {path}]");
    }
    if let Some(path) = &args.update_goldens {
        // A quarantined cell's verdicts would silently drop out of the pin.
        if r.quarantine.is_empty() {
            write(path, &golden_json(&r.cells))?;
            eprintln!("[pinned goldens to {path}]");
        } else {
            eprintln!("reproduce_all: not pinning {path}: a cell was quarantined");
        }
    }

    if let Some((path, golden)) = golden {
        match check_goldens(&golden, &r.cells) {
            Ok(n) => eprintln!("[goldens OK: {n} verdicts match {path}]"),
            Err(report) => {
                eprintln!("golden verdict check against {path} FAILED:\n{report}");
                failed = true;
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
