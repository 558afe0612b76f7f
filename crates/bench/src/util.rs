//! Shared harness utilities: effort scaling, parallelism and table
//! formatting.
//!
//! Two environment variables tune every experiment binary:
//!
//! * `TP_SAMPLES` — scale factor for sample counts (default `1.0`; e.g.
//!   `0.25` for a quick pass, `4` for higher statistical resolution);
//! * `TP_THREADS` — worker-thread count for the independent work that
//!   fans out: campaign cells, the shuffle test's shuffles and
//!   `reproduce_all`'s experiments (default: the machine's available
//!   parallelism; `1` forces a fully sequential run). Each simulation runs
//!   on one host thread whatever the value. Thread count affects
//!   wall-clock time only — results are bit-identical for every value,
//!   because all per-work-item RNG seeds are derived from the master seed.
//!
//! A malformed value of either is a hard error (exit 2) naming the
//! variable.

/// Parse a `TP_SAMPLES` value. `None`/empty means "unset" (default 1.0);
/// anything set but not a positive finite number is a hard error naming
/// the variable — a typo must never silently run at the default scale and
/// then fail the golden gate's `tp_samples` check (or worse, pass it).
///
/// # Errors
/// A human-readable message naming `TP_SAMPLES` and the rejected value.
pub fn parse_effort(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(1.0) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(1.0);
    }
    match trimmed.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!(
            "TP_SAMPLES: `{raw}` is not a positive number (expected e.g. 0.25, 1 or 4)"
        )),
    }
}

/// Scale factor for sample counts, from the `TP_SAMPLES` environment
/// variable (default 1.0). Exits with status 2 on a malformed value,
/// naming the variable — same contract as `TP_FAULT`.
#[must_use]
pub fn effort() -> f64 {
    match parse_effort(std::env::var("TP_SAMPLES").ok().as_deref()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// `base` samples scaled by the effort factor (minimum 40).
#[must_use]
pub fn samples(base: usize) -> usize {
    ((base as f64 * effort()) as usize).max(40)
}

/// The resolved worker-thread count (the `TP_THREADS` environment
/// variable, defaulting to available parallelism). Reported in
/// `BENCH.json` so perf numbers can be compared like-for-like.
#[must_use]
pub fn threads() -> usize {
    rayon::current_num_threads()
}

/// A simple fixed-width text table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < cols {
                    width[i] = width[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = width[i.min(width.len() - 1)]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }
}

/// Format a millibit value like the paper (bold leaks are marked `*`).
#[must_use]
pub fn fmt_mb(m_mb: f64, leaks: bool) -> String {
    if leaks {
        format!("{m_mb:.1}*")
    } else {
        format!("{m_mb:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with(" 1"));
    }

    #[test]
    fn effort_default_is_one() {
        // (Cannot safely mutate env in tests; just check the default path.)
        assert!(samples(100) >= 40);
    }

    #[test]
    fn effort_parses_or_errors_naming_the_variable() {
        assert_eq!(parse_effort(None), Ok(1.0));
        assert_eq!(parse_effort(Some("")), Ok(1.0));
        assert_eq!(parse_effort(Some("  ")), Ok(1.0));
        assert_eq!(parse_effort(Some("0.25")), Ok(0.25));
        assert_eq!(parse_effort(Some(" 4 ")), Ok(4.0));
        for bad in ["garbage", "0", "-1", "1.5x", "NaN", "inf"] {
            let err = parse_effort(Some(bad)).unwrap_err();
            assert!(err.contains("TP_SAMPLES"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn leak_marker() {
        assert_eq!(fmt_mb(12.34, true), "12.3*");
        assert_eq!(fmt_mb(0.5, false), "0.5");
    }
}
