//! `reproduce_all`: every §5 result from one pass over the work.
//!
//! The report is fourteen sections in paper order, each named as in the
//! paper (`table1` … `ablations`). Figures 3 and 6 and Tables 3 and 4
//! render the campaign registry's voted cells ([`crate::channels`]); every
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

use crate::campaign::{self, CellRow, ExperimentDef, ExperimentResult};
use crate::cli::ArgStream;
use crate::{channels, splash, tables};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tp_core::SimError;
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
}

/// Parse `reproduce_all`'s flags: `--only NAME[,NAME…]` (repeatable) and
/// `--check PATH`, spelled as `campaign` spells them.
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
            other => return Err(format!("unknown argument {other:?} (use --only, --check)")),
        }
    }
    Ok(out)
}

/// The pass's registry cells, by experiment and platform key: each
/// cell's voted rows, or the error that stopped it.
pub(crate) struct Rows(BTreeMap<(&'static str, &'static str), Result<Vec<CellRow>, SimError>>);

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
    /// A registry cell.
    Cell(ExperimentDef, Platform),
    /// A section's own simulations.
    Own(&'static str, u32, Generate),
}

/// A finished job: its identity and result.
enum Done {
    Cell(ExperimentDef, Platform, Result<Vec<CellRow>, SimError>),
    Own(&'static str, Result<String, SimError>),
}

/// The outcome of one pass.
pub struct Reproduction {
    /// The selected sections in paper order: name and text, or the error
    /// that stopped the section.
    pub sections: Vec<(&'static str, Result<String, SimError>)>,
    /// Every registry cell that completed, in registry order, with its
    /// wall seconds.
    pub cells: Vec<ExperimentResult>,
    /// Every registry cell that failed: `experiment on platform` and the
    /// error.
    pub failed_cells: Vec<(String, SimError)>,
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
#[must_use]
pub fn run(only: &[&str], all_cells: bool) -> Reproduction {
    let selected: Vec<&Section> = SECTIONS
        .iter()
        .filter(|s| only.is_empty() || only.contains(&s.name))
        .collect();
    let registry = campaign::registry();
    let mut jobs: Vec<Job> = Vec::new();
    for d in &registry {
        for p in Platform::ALL {
            let rendered = selected.iter().any(|s| {
                s.cells
                    .iter()
                    .any(|(name, ps)| *name == d.name && ps.contains(&p))
            });
            if (d.supports)(p) && (all_cells || rendered) {
                jobs.push(Job::Cell(*d, p));
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
        Job::Cell(d, _) => d.cost,
        Job::Own(_, cost, _) => *cost,
    };
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| Reverse(cost(&jobs[i])));
    let t_all = Instant::now();
    let mut done = rayon::par_map(&order, |&i| {
        let t0 = Instant::now();
        let done = match jobs[i] {
            Job::Cell(d, p) => Done::Cell(d, p, (d.cell)(p)),
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
    let mut cells = Vec::new();
    let mut own_seconds = Vec::new();
    for (_, done, seconds) in done {
        match done {
            Done::Cell(d, p, r) => {
                if let Ok(r) = &r {
                    cells.push(ExperimentResult {
                        experiment: d.name,
                        platform: p,
                        seconds,
                        channels: r.iter().map(|c| c.row.clone()).collect(),
                    });
                }
                rows.insert((d.name, p.key()), r);
            }
            Done::Own(name, text) => {
                own_seconds.push((name, seconds));
                texts.insert(name, text);
            }
        }
    }
    let failed_cells = rows
        .iter()
        .filter_map(|((e, p), r)| Some((format!("{e} on {p}"), r.as_ref().err()?.clone())))
        .collect();

    let rows = Rows(rows);
    let sections = selected
        .iter()
        .map(|s| {
            let failed = s.cells.iter().find_map(|&(name, ps)| {
                ps.iter()
                    .find_map(|p| rows.0[&(name, p.key())].as_ref().err().cloned())
            });
            let own = texts.remove(s.name).unwrap_or(Ok(String::new()));
            let text = match failed {
                Some(e) => Err(e),
                None => own.map(|own| (s.render)(&rows, own)),
            };
            (s.name, text)
        })
        .collect();
    Reproduction {
        sections,
        cells,
        failed_cells,
        own_seconds,
        total_seconds,
    }
}

/// Serialise a pass's wall times into `BENCH.json`: the total, each
/// section's own simulations (`experiments`, by section name; Table 3's
/// is its prefetcher-disabled follow-up), each registry cell (`cells`, as
/// in `BENCH-campaign.json`) and the vote accounting. CI budgets each
/// named section and each registry experiment's summed cell seconds.
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
        let args = parse(&["--check", "goldens/verdicts.json"]).unwrap();
        assert_eq!(args.check.as_deref(), Some("goldens/verdicts.json"));
        assert!(args.only.is_empty());
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
        let r = run(&["table1", "table5"], false);
        assert!(r.cells.is_empty() && r.failed_cells.is_empty());
        let names: Vec<_> = r.sections.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["table1", "table5"]);
        assert_eq!(r.sections[0].1.as_ref().ok(), Some(&tables::table1()));
    }
}
