//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! reproduce_all                                # every section, paper order
//! reproduce_all --only table3                  # one section
//! reproduce_all --only table1,fig5,ablations   # several, paper order
//! reproduce_all --check goldens/verdicts.json  # also gate the 124 verdicts
//! ```
//!
//! Set `TP_SAMPLES=0.25` for a quick pass or `TP_SAMPLES=4` for higher
//! statistical resolution, and `TP_THREADS` to bound the worker count
//! (`TP_THREADS=1` runs fully sequentially). Every registry cell and every
//! section's own simulations run once, in one pass ([`tp_bench::reproduce`]),
//! but the sections are printed in paper order, so stdout is bit-identical
//! for every thread count; timings go to stderr and to a machine-readable
//! `BENCH.json` in the working directory, which CI budgets.
//!
//! `--check` runs every registry cell on every platform, printed or not,
//! and diffs the voted verdicts against the golden file; its report goes to
//! stderr, so stdout is the same with and without it.
//!
//! A failing simulation does not tear the whole run down: the failing
//! section or cell is named on stderr, the rest still print, and the
//! process exits 1. A bad flag, or a `BENCH.json` or golden file that
//! cannot be written or read, exits 2.

use std::collections::BTreeMap;
use std::process::ExitCode;
use tp_bench::campaign::check_goldens;
use tp_bench::reproduce::{self, bench_json};
use tp_bench::{cli, store};

fn main() -> ExitCode {
    let args = cli::parse_or_exit("reproduce_all", || {
        reproduce::parse_args(std::env::args().skip(1))
    });
    let golden = match &args.check {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some((path, text)),
            Err(e) => {
                eprintln!("reproduce_all: cannot read golden file {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let r = reproduce::run(&args.only, golden.is_some());
    let mut failed = false;
    for (name, text) in &r.sections {
        match text {
            Ok(text) => {
                println!("==================== {name} ====================");
                println!("{text}");
            }
            Err(e) => {
                eprintln!("[{name} FAILED: {e}]");
                failed = true;
            }
        }
    }
    for (cell, e) in &r.failed_cells {
        eprintln!("[{cell} FAILED: {e}]");
        failed = true;
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

    if let Err(e) = store::write_atomic("BENCH.json", &bench_json(&r)) {
        eprintln!("reproduce_all: failed to write BENCH.json: {e}");
        return ExitCode::from(2);
    }
    eprintln!("[wrote BENCH.json]");

    if let Some((path, golden)) = golden {
        match check_goldens(&golden, &r.cells) {
            Ok(n) => eprintln!("[goldens OK: {n} verdicts match {path}]"),
            Err(report) => {
                eprintln!("golden verdict check against {path} FAILED:\n{report}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
