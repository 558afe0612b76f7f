//! The benchmark worker: one fresh process runs one workload once.
//!
//! ```text
//! perfbench --workload campaign|fleet|splash --seed N --scratch DIR [--trace] [--setup-only]
//! ```
//!
//! Set-up (input generation, goldens, the scratch journal) happens before
//! the timed section; `--setup-only` stops there. The worker prints one
//! JSON line: the wall-clock start of the timed section, its wall time,
//! per-cell operation counts, failures and output fingerprints, notes,
//! and with `--trace` the per-layer ledger. `run.py` drives it: it builds
//! the worker, times processes from outside and checks the fingerprints.

mod campaign;
mod fleet;
mod inputs;
mod ledger;
mod probes;
mod splash;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use tp_analysis::{leakage_test, Dataset, LeakageVerdict};
use trace::SpanId;

/// One unit of scheduled work: its operation count, how many failed, and
/// a fingerprint of its outputs.
#[derive(Debug, Clone, Default)]
pub struct CellOut {
    /// Stable cell name.
    pub name: String,
    /// Operations attempted.
    pub ops: u64,
    /// Operations failed.
    pub failed: u64,
    /// FNV-1a of the cell's outputs, bit-exact.
    pub fingerprint: u64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct WorkloadOut {
    /// Per-cell results, in a fixed order.
    pub cells: Vec<CellOut>,
    /// Human-readable lines for the run's log.
    pub notes: Vec<String>,
    /// Per-layer values only the workload itself knows.
    pub extra: Vec<(&'static str, f64)>,
    /// Traced runs only: shuffle tests to re-time after the timed section,
    /// as (cell index, dataset, test seed, the verdict the run reported).
    pub tests: Vec<(usize, Dataset, u64, LeakageVerdict)>,
}

/// FNV-1a of a canonical text rendering of some outputs.
#[must_use]
pub fn fingerprint(text: &str) -> u64 {
    tp_bench::store::fnv64(text.as_bytes())
}

/// The `p`th percentile of `xs` (linear), or 0 for no samples.
#[must_use]
pub fn pct_or_zero(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        tp_analysis::stats::percentile(xs, p)
    }
}

/// The geometric mean of `xs`, or 0 for no samples.
#[must_use]
pub fn geomean_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        tp_analysis::stats::geomean(xs)
    }
}

struct Args {
    workload: String,
    seed: u64,
    scratch: PathBuf,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        scratch: PathBuf::new(),
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--scratch" => args.scratch = PathBuf::from(value()?),
            "--trace" => args.trace = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.scratch.as_os_str().is_empty() {
        return Err("--scratch DIR is required".into());
    }
    Ok(args)
}

/// A workload with its inputs generated.
enum Prepared {
    Campaign(campaign::Campaign),
    Fleet(Vec<tp_bench::cloud::CloudSpec>),
    Splash(Vec<inputs::SplashRun>),
}

fn prepare(args: &Args, journal: &std::path::Path) -> Result<Prepared, String> {
    Ok(match args.workload.as_str() {
        "campaign" => Prepared::Campaign(campaign::Campaign::setup(args.seed, journal)?),
        "fleet" => Prepared::Fleet(inputs::fleet_specs(args.seed)),
        "splash" => Prepared::Splash(inputs::splash_runs(args.seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Re-time the shuffle test on each dataset the run kept, with the seed
/// the run used. A verdict that differs fails the whole cell.
fn retime_tests(out: &mut WorkloadOut, span: SpanId) {
    for (cell, data, seed, verdict) in std::mem::take(&mut out.tests) {
        let again = trace::span("leakage_test", span, |_| leakage_test(&data, seed));
        if again != verdict {
            let c = &mut out.cells[cell];
            out.notes.push(format!(
                "{}: the re-timed shuffle test gives another verdict",
                c.name
            ));
            c.failed = c.ops;
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: scratch dir: {e}");
        return ExitCode::from(2);
    }
    let journal = args
        .scratch
        .join(format!("journal-{}.jsonl", std::process::id()));
    let prepared = prepare(&args, &journal);
    let start_unix_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            let _ = std::fs::remove_file(&journal);
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let _ = std::fs::remove_file(&journal);
        println!("{{\"start_unix_ns\": {start_unix_ns}}}");
        return ExitCode::SUCCESS;
    }

    if args.trace {
        trace::enable();
    }
    let before = ledger::Counters::now();
    let t0 = Instant::now();
    let mut out = trace::span("workload", SpanId::ROOT, |root| match &prepared {
        Prepared::Campaign(c) => c.run(root),
        Prepared::Fleet(specs) => fleet::run(specs, root),
        Prepared::Splash(runs) => splash::run(runs, root),
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = ledger::Counters::now();
    // Outside the timed section: the re-timed shuffle tests of a traced run.
    if args.trace {
        trace::span("retime", SpanId::ROOT, |span| {
            if let Prepared::Campaign(c) = &prepared {
                c.retime(&mut out, span);
            }
            retime_tests(&mut out, span);
        });
    }
    drop(prepared);
    let _ = std::fs::remove_file(&journal);

    let mut line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"start_unix_ns\": {start_unix_ns}, \"wall_s\": {wall_s}, \"cells\": [",
        json_str(&args.workload),
        args.seed,
        args.trace
    );
    for (i, c) in out.cells.iter().enumerate() {
        let _ = write!(
            line,
            "{}{{\"name\": {}, \"ops\": {}, \"failed\": {}, \"fp\": \"{:016x}\"}}",
            if i > 0 { ", " } else { "" },
            json_str(&c.name),
            c.ops,
            c.failed,
            c.fingerprint
        );
    }
    line.push_str("], \"notes\": [");
    for (i, n) in out.notes.iter().enumerate() {
        let _ = write!(line, "{}{}", if i > 0 { ", " } else { "" }, json_str(n));
    }
    line.push_str("], \"layers\": {");
    if args.trace {
        let spans = trace::take();
        let run_id = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
        let spans_path = args.scratch.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = trace::write_jsonl(&spans_path, &run_id, &spans) {
            eprintln!("perfbench: writing {}: {e}", spans_path.display());
        }
        let l = ledger::ledger(&spans, &before, &after, &out.extra, &probes::run());
        for (i, name) in ledger::LAYER_METRICS.iter().enumerate() {
            let _ = write!(
                line,
                "{}\"{name}\": {}",
                if i > 0 { ", " } else { "" },
                l[*name]
            );
        }
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
