//! `reproduce_all`: every §5 result from one pass over the work.
//!
//! The report is fourteen sections in paper order, each named as in the
//! paper (`table1` … `ablations`). Figures 3 and 6 and Tables 3 and 4
//! render the experiment registry's voted cells ([`crate::channels`]); every
//! other section, and Table 3's §5.3.2 prefetcher-disabled follow-up, runs
//! simulations of its own at its own sample counts.
//!
//! [`run`] puts the registry cells the selected sections render (every
//! registry cell, when the golden gate is to read them) and the selected
//! sections' own simulations into one work list, heaviest first, on the
//! worker pool. So each cell runs exactly once whatever reads it, the
//! worker count is `TP_THREADS` with no nested pool, and since the
//! sections are rendered in paper order afterwards, the report reads the
//! same at every `TP_THREADS`.
//!
//! Every registry cell runs under the supervisor ([`crate::supervise`]),
//! with a deadline derived from its registry cost. A cell that panics or
//! deadlocks is quarantined after one attempt, and one that outlasts its
//! deadline after [`supervise::MAX_ATTEMPTS`], so one sick cell fails
//! only the sections that read it. Every attempt runs the canonical
//! seeds, so the supervisor changes no result.

use crate::campaign::{self, CellRow, ExperimentDef, ExperimentResult};
use crate::cli::ArgStream;
use crate::supervise::{self, CellOutcome, QuarantineEntry};
use crate::{channels, splash, tables};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tp_core::{FaultPlan, SimError};
use tp_sim::Platform;

/// A section's simulations of its own, returning its text.
type Generate = fn() -> Result<String, SimError>;

/// One section of the report.
struct Section {
    /// The `--only` value and the header line's title.
    name: &'static str,
    /// The registry cells it renders: experiment name and platforms.
    cells: &'static [(&'static str, &'static [Platform])],
    /// The simulations it runs itself, if any, with their cost in the
    /// registry's units ([`ExperimentDef::cost`]: tens of milliseconds at
    /// `TP_SAMPLES=0.25`), which only orders the pass.
    own: Option<(u32, Generate)>,
    /// Formats the section from its cells' rows and its own text.
    render: fn(&Rows, String) -> String,
}

/// A section that is exactly its own simulations' text.
const fn own(name: &'static str, cost: u32, generate: Generate) -> Section {
    Section {
        name,
        cells: &[],
        own: Some((cost, generate)),
        render: |_, text| text,
    }
}

const ALL: &[Platform] = &Platform::ALL;

/// The sections, in paper order.
const SECTIONS: [Section; 14] = [
    own("table1", 0, || Ok(tables::table1())),
    own("table2", 6, || Ok(tables::table2())),
    Section {
        name: "fig3",
        cells: &[("kernel-image", ALL)],
        own: None,
        render: |c, _| channels::fig3(c),
    },
    Section {
        name: "table3",
        cells: &[
            (channels::TABLE3[0], ALL),
            (channels::TABLE3[1], ALL),
            (channels::TABLE3[2], ALL),
            (channels::TABLE3[3], ALL),
            (channels::TABLE3[4], ALL),
            (channels::TABLE3[5], ALL),
        ],
        own: Some((5, channels::prefetcher_disabled)),
        render: |c, follow_up| channels::table3(c, &follow_up),
    },
    own("fig4", 1, channels::fig4),
    own("fig5", 1, channels::fig5),
    Section {
        name: "table4",
        cells: &[("flush-latency", ALL)],
        own: None,
        render: |c, _| channels::table4(c),
    },
    Section {
        name: "fig6",
        cells: &[("interrupt", &[Platform::Haswell])],
        own: None,
        render: |c, _| channels::fig6(c),
    },
    own("table5", 1, || Ok(tables::table5())),
    own("table6", 8, || Ok(tables::table6())),
    own("table7", 1, || Ok(tables::table7())),
    own("fig7", 40, splash::fig7),
    own("table8", 30, splash::table8),
    own("ablations", 2, channels::ablations),
];

/// The section names, in paper order.
#[must_use]
pub fn section_names() -> Vec<&'static str> {
    SECTIONS.iter().map(|s| s.name).collect()
}

/// `reproduce_all`'s command line.
#[derive(Debug, Default)]
pub struct Args {
    /// Sections selected by `--only` (all when empty).
    pub only: Vec<&'static str>,
    /// The golden verdict file named by `--check`.
    pub check: Option<String>,
    /// Where `--json` writes the completed cells' results.
    pub json: Option<String>,
    /// Where `--update-goldens` pins the run's verdicts.
    pub update_goldens: Option<String>,
}

impl Args {
    /// Whether the pass must run every registry cell, printed or not: the
    /// golden gate and a re-pin read every verdict.
    #[must_use]
    pub fn all_cells(&self) -> bool {
        self.check.is_some() || self.update_goldens.is_some()
    }
}

/// Parse `reproduce_all`'s flags: `--only NAME[,NAME…]` (repeatable),
/// `--check PATH`, `--json PATH` and `--update-goldens PATH`.
///
/// # Errors
/// An unknown flag, a missing value, or a section name that does not
/// exist (the message lists the valid ones).
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = ArgStream::new(args);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" => {
                for name in it.value("--only")?.split(',') {
                    let section = SECTIONS.iter().find(|s| s.name == name).ok_or_else(|| {
                        format!(
                            "unknown section {name:?}; valid: {}",
                            section_names().join(", ")
                        )
                    })?;
                    out.only.push(section.name);
                }
            }
            "--check" => out.check = Some(it.value("--check")?),
            "--json" => out.json = Some(it.value("--json")?),
            "--update-goldens" => out.update_goldens = Some(it.value("--update-goldens")?),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (use --only, --check, --json, --update-goldens)"
                ))
            }
        }
    }
    Ok(out)
}

/// The pass's registry cells, by experiment and platform key: each
/// cell's voted rows, or why it was quarantined.
pub(crate) struct Rows(BTreeMap<(&'static str, &'static str), Result<Vec<CellRow>, String>>);

impl Rows {
    /// The rows of one cell. A section is rendered only when every cell it
    /// reads ran and completed, so anything else is a bug.
    pub(crate) fn get(&self, experiment: &'static str, platform: Platform) -> &[CellRow] {
        match self.0.get(&(experiment, platform.key())) {
            Some(Ok(rows)) => rows,
            _ => panic!("{experiment} on {} not in the pass", platform.key()),
        }
    }
}

/// One unit of the pass.
enum Job {
    /// A registry cell, with its supervisor deadline.
    Cell(ExperimentDef, Platform, Duration),
    /// A section's own simulations.
    Own(&'static str, u32, Generate),
}

/// A finished job: its identity and result.
enum Done {
    Cell(ExperimentDef, Platform, supervise::CellReport<Vec<CellRow>>),
    Own(&'static str, Result<String, SimError>),
}

/// The outcome of one pass.
#[derive(Default)]
pub struct Reproduction {
    /// The selected sections in paper order: name and text, or why the
    /// section could not be rendered (naming the cell or simulation that
    /// failed).
    pub sections: Vec<(&'static str, Result<String, String>)>,
    /// Every registry cell that completed, degraded ones included, in
    /// registry order, with its wall seconds.
    pub cells: Vec<ExperimentResult>,
    /// Cells that completed over their surviving environments only:
    /// `experiment on platform` and the supervisor's detail.
    pub degraded: Vec<(String, String)>,
    /// Cells that failed every attempt, in registry order: the ledger
    /// `goldens/quarantine.json` holds.
    pub quarantine: Vec<QuarantineEntry>,
    /// Each selected section's own simulations: section name and wall
    /// seconds.
    pub own_seconds: Vec<(&'static str, f64)>,
    /// Wall seconds of the whole pass.
    pub total_seconds: f64,
}

/// Run the sections named in `only` (every section when empty) in one
/// pass. With `all_cells` the pass runs every registry cell on every
/// platform it supports, rendered or not, so [`Reproduction::cells`]
/// carries every verdict the golden file pins.
///
/// Each cell runs under [`supervise::run_cell`] with `plan` armed where it
/// matches the cell, and the [`supervise::cell_deadline`] of its expected
/// seconds: [`ExperimentDef::cost`] scaled from `TP_SAMPLES=0.25` to the
/// run's `TP_SAMPLES`.
#[must_use]
pub fn run(only: &[&str], all_cells: bool, plan: Option<&FaultPlan>) -> Reproduction {
    let selected: Vec<&Section> = SECTIONS
        .iter()
        .filter(|s| only.is_empty() || only.contains(&s.name))
        .collect();
    let registry = campaign::registry();
    let scale = crate::util::effort() / 0.25;
    let mut jobs: Vec<Job> = Vec::new();
    for d in &registry {
        for p in Platform::ALL {
            let rendered = selected.iter().any(|s| {
                s.cells
                    .iter()
                    .any(|(name, ps)| *name == d.name && ps.contains(&p))
            });
            if (d.supports)(p) && (all_cells || rendered) {
                let expected = f64::from(d.cost) / 100.0 * scale;
                jobs.push(Job::Cell(*d, p, supervise::cell_deadline(Some(expected))));
            }
        }
    }
    for s in &selected {
        if let Some((cost, generate)) = s.own {
            jobs.push(Job::Own(s.name, cost, generate));
        }
    }

    // Heaviest first, so the long jobs overlap the cheap tail; only the
    // schedule depends on the order, never a result.
    let cost = |j: &Job| match j {
        Job::Cell(d, ..) => d.cost,
        Job::Own(_, cost, _) => *cost,
    };
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| Reverse(cost(&jobs[i])));
    let t_all = Instant::now();
    let mut done = rayon::par_map(&order, |&i| {
        let t0 = Instant::now();
        let done = match jobs[i] {
            Job::Cell(d, p, deadline) => Done::Cell(
                d,
                p,
                supervise::run_cell(d.name, p.key(), plan, deadline, move || (d.cell)(p)),
            ),
            Job::Own(name, _, generate) => Done::Own(name, generate()),
        };
        (i, done, t0.elapsed().as_secs_f64())
    });
    let total_seconds = t_all.elapsed().as_secs_f64();
    // Back to job order: registry order for the cells, paper order for
    // the sections' own simulations.
    done.sort_by_key(|&(i, ..)| i);

    let mut rows = BTreeMap::new();
    let mut texts = BTreeMap::new();
    let mut r = Reproduction {
        total_seconds,
        ..Reproduction::default()
    };
    for (_, done, seconds) in done {
        match done {
            Done::Cell(d, p, report) => {
                let cell = format!("{} on {}", d.name, p.key());
                let error = report.error.unwrap_or_default();
                let voted = match report.channels {
                    Some(voted) => {
                        if report.outcome == CellOutcome::EnvFailed {
                            r.degraded.push((cell, error));
                        }
                        r.cells.push(ExperimentResult {
                            experiment: d.name,
                            platform: p,
                            seconds,
                            channels: voted.iter().map(|c| c.row.clone()).collect(),
                        });
                        Ok(voted)
                    }
                    None => {
                        supervise::note_quarantined();
                        let outcome = report.outcome.name();
                        let attempts = report.attempts;
                        let why = format!(
                            "{cell} quarantined, {outcome} after {attempts} attempt(s): {error}"
                        );
                        r.quarantine.push(QuarantineEntry {
                            experiment: d.name.to_string(),
                            platform: p.key().to_string(),
                            outcome: report.outcome,
                            attempts,
                            error,
                        });
                        Err(why)
                    }
                };
                rows.insert((d.name, p.key()), voted);
            }
            Done::Own(name, text) => {
                r.own_seconds.push((name, seconds));
                texts.insert(name, text);
            }
        }
    }

    let rows = Rows(rows);
    r.sections = selected
        .iter()
        .map(|s| {
            let failed = s.cells.iter().find_map(|&(name, ps)| {
                ps.iter()
                    .find_map(|p| rows.0[&(name, p.key())].as_ref().err().cloned())
            });
            let own = texts.remove(s.name).unwrap_or(Ok(String::new()));
            let text = match failed {
                Some(why) => Err(why),
                None => own
                    .map(|own| (s.render)(&rows, own))
                    .map_err(|e| e.to_string()),
            };
            (s.name, text)
        })
        .collect();
    r
}

/// This process's peak resident set size in MB (`VmHWM` in
/// `/proc/self/status`), or `None` where procfs does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

/// Serialise a pass's record into `BENCH.json`: the total wall time, the
/// process's peak resident set, the boot, supervisor and vote accounting,
/// each section's own simulations (`experiments`, by section name; Table
/// 3's is its prefetcher-disabled follow-up) and each registry cell
/// (`cells`). CI budgets each named section and each registry
/// experiment's summed cell seconds, the total and the peak RSS, and
/// gates a healthy run's supervisor object to all zeroes. Nothing reads
/// the file back.
///
/// With `threads > 1` the jobs run concurrently, so their times overlap
/// and can sum to more than `total_seconds`; size budgets from a
/// `TP_THREADS=1` run. `total_seconds` is always honest wall clock.
#[must_use]
pub fn bench_json(r: &Reproduction) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"tp_samples\": {},", crate::util::effort());
    let _ = writeln!(s, "  \"threads\": {},", crate::util::threads());
    let _ = writeln!(s, "  \"total_seconds\": {:.3},", r.total_seconds);
    let peak = peak_rss_mb().map_or_else(|| "null".to_owned(), |mb| format!("{mb:.1}"));
    let _ = writeln!(s, "  \"peak_rss_mb\": {peak},");
    // How many systems the pass booted and the mean host time of one boot.
    let boot = tp_core::system::boot_stats();
    let cold_mean_ms = if boot.cold_boots == 0 {
        0.0
    } else {
        boot.cold_nanos as f64 / boot.cold_boots as f64 / 1e6
    };
    let _ = writeln!(
        s,
        "  \"boot\": {{\"cold\": {}, \"cold_mean_ms\": {cold_mean_ms:.6}}},",
        boot.cold_boots,
    );
    let sup = supervise::counters();
    let _ = writeln!(
        s,
        "  \"supervisor\": {{\"retries\": {}, \"timeouts\": {}, \"panics\": {}, \"quarantined\": {}, \"env_failed\": {}, \"deadlocks\": {}}},",
        sup.retries, sup.timeouts, sup.panics, sup.quarantined, sup.env_failed, sup.deadlocks,
    );
    // A lazy vote runs two seeds, plus a third on a split.
    let _ = writeln!(s, "  \"votes\": {},", campaign::votes_json());
    s.push_str("  \"experiments\": [\n");
    for (i, (name, secs)) in r.own_seconds.iter().enumerate() {
        let comma = if i + 1 < r.own_seconds.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"seconds\": {secs:.3}}}{comma}"
        );
    }
    s.push_str("  ],\n");
    s.push_str(&campaign::cells_json(&r.cells));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn only_takes_comma_lists_and_repeats() {
        let args = parse(&["--only", "table1,fig3", "--only", "ablations"]).unwrap();
        assert_eq!(args.only, ["table1", "fig3", "ablations"]);
        assert_eq!(args.check, None);
        assert!(!args.all_cells());
        let args = parse(&["--check", "goldens/verdicts.json"]).unwrap();
        assert_eq!(args.check.as_deref(), Some("goldens/verdicts.json"));
        assert!(args.only.is_empty() && args.all_cells());
        let args = parse(&["--json", "r.json", "--update-goldens", "v.json"]).unwrap();
        assert_eq!(args.json.as_deref(), Some("r.json"));
        assert_eq!(args.update_goldens.as_deref(), Some("v.json"));
        assert!(args.all_cells());
    }

    #[test]
    fn sections_render_only_registry_cells() {
        assert_eq!(section_names().len(), 14);
        let registry = campaign::registry();
        for s in &SECTIONS {
            for (name, platforms) in s.cells {
                let d = registry.iter().find(|d| d.name == *name);
                let d = d.unwrap_or_else(|| panic!("{}: no experiment {name}", s.name));
                assert!(platforms.iter().all(|&p| (d.supports)(p)), "{name}");
            }
        }
    }

    #[test]
    fn a_pass_without_registry_sections_runs_no_cell() {
        let r = run(&["table1", "table5"], false, None);
        assert!(r.cells.is_empty() && r.quarantine.is_empty());
        let names: Vec<_> = r.sections.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["table1", "table5"]);
        assert_eq!(r.sections[0].1.as_ref().ok(), Some(&tables::table1()));
    }
}
