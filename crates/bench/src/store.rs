//! Durable artifacts: crash-consistent writes and the one-line field
//! readers for the files the harness reads back.
//!
//! * [`write_atomic`] writes the payload, plain JSON, to a temp file,
//!   syncs it and renames it into place, so a kill mid-write leaves the
//!   previous version whole; [`read_artifact`] is a plain read.
//! * [`str_field`] reads one `"name": "value"` off a machine-written
//!   line of the golden verdicts (the tests read numbers with
//!   `num_field`).
//! * [`Journal`] appends one checksummed [`CellRecord`] per completed
//!   cell. Nothing in this workspace reads it back: it is kept only for
//!   the benchmark's `campaign` workload (`perfbench/`), which times the
//!   appends, until that workload is redefined.

use crate::campaign::ChannelResult;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use tp_core::StateHasher;
use tp_sim::Platform;

/// Journal format version, stamped into the header.
pub const STORE_SCHEMA: u32 = 1;

/// FNV-1a over `bytes` with the SplitMix64 finalizer — byte-compatible
/// with [`tp_core::StateHasher`], the hash already trusted for kernel
/// state equality in the replay plane.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = StateHasher::new();
    for &b in bytes {
        h.byte(b);
    }
    h.finish()
}

// ------------------------------------------------------------- artifacts

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(Default::default, |n| n.to_os_string());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Read an artifact: a plain read whose error names the path. The unit
/// second field only keeps the `(text, _)` shape `perfbench` destructures.
///
/// # Errors
/// When the file is missing or unreadable.
pub fn read_artifact(path: impl AsRef<Path>) -> Result<(String, ()), String> {
    let path = path.as_ref();
    fs::read_to_string(path)
        .map(|text| (text, ()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Write `payload` atomically: temp file in the same directory,
/// `sync_all`, rename over `path`, then sync the directory. A reader sees
/// either the old file or the new one, never a torn mix.
///
/// # Errors
/// Propagates I/O errors from the temp write or the final rename.
pub fn write_atomic(path: impl AsRef<Path>, payload: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(payload.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Durability of the rename itself: sync the containing directory
    // (best-effort; not every filesystem supports opening a directory).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ------------------------------------------------------- field extraction
// The one file the harness reads back, the golden verdicts, is
// machine-written with one object per line in the `"name": value`
// spelling these readers expect. A full JSON parser would be a dependency
// for no robustness gain.

/// The string value of the first `"name": "value"` in `line` (no escape
/// handling: the writers never emit a quote inside a value they read back).
#[must_use]
pub fn str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// The numeric value of the first `"name": <number>` in `line`.
#[cfg(test)]
#[must_use]
pub(crate) fn num_field(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// ------------------------------------------------------------- the journal

/// Seal one record body into a checksummed journal line.
fn seal(body: &str) -> String {
    format!(
        "{{\"fnv\": \"{:016x}\", \"record\": {body}}}\n",
        fnv64(body.as_bytes())
    )
}

/// The journal header: the run parameters its cells ran under.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Journal format version ([`STORE_SCHEMA`]).
    pub schema: u32,
    /// The `TP_SAMPLES` effort scale the cells ran at.
    pub tp_samples: f64,
    /// The base vote seed (`campaign::VOTE_SEED_BASE`).
    pub seed: u64,
    /// Code version stamp ([`code_version`]).
    pub code_version: String,
}

impl JournalHeader {
    /// The header for the current process's run parameters.
    #[must_use]
    pub fn current() -> Self {
        JournalHeader {
            schema: STORE_SCHEMA,
            tp_samples: crate::util::effort(),
            seed: crate::campaign::VOTE_SEED_BASE,
            code_version: code_version(),
        }
    }

    fn body(&self) -> String {
        format!(
            "{{\"kind\": \"header\", \"schema\": {}, \"tp_samples\": {}, \"seed\": {}, \"code_version\": \"{}\"}}",
            self.schema, self.tp_samples, self.seed, self.code_version,
        )
    }
}

/// The crate version plus the store schema.
#[must_use]
pub fn code_version() -> String {
    format!("{}+store{STORE_SCHEMA}", env!("CARGO_PKG_VERSION"))
}

/// A fingerprint of the full [`tp_sim::PlatformConfig`], stamped into
/// each record.
#[must_use]
pub fn config_fingerprint(platform: Platform) -> u64 {
    fnv64(format!("{:?}", platform.config()).as_bytes())
}

/// One completed cell, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Experiment registry name.
    pub experiment: String,
    /// Platform key.
    pub platform: String,
    /// [`config_fingerprint`] of the platform at record time.
    pub config_fnv: u64,
    /// The cell's wall time.
    pub seconds: f64,
    /// The cell's channel measurements.
    pub channels: Vec<ChannelResult>,
}

impl CellRecord {
    /// Capture a completed cell.
    #[must_use]
    pub fn new(
        experiment: &str,
        platform: Platform,
        seconds: f64,
        channels: &[ChannelResult],
    ) -> Self {
        CellRecord {
            experiment: experiment.to_string(),
            platform: platform.key().to_string(),
            config_fnv: config_fingerprint(platform),
            seconds,
            channels: channels.to_vec(),
        }
    }

    /// The record's one-line JSON body, as sealed into the journal. Every
    /// `f64` is written both human-readable and as raw bits (`*_bits`).
    #[must_use]
    pub fn body(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"kind\": \"cell\", \"experiment\": \"{}\", \"platform\": \"{}\", \"config_fnv\": \"{:016x}\", \"seconds_bits\": {}, \"seconds\": {:.3}, \"channels\": [",
            self.experiment,
            self.platform,
            self.config_fnv,
            self.seconds.to_bits(),
            self.seconds,
        );
        for (i, c) in self.channels.iter().enumerate() {
            let comma = if i + 1 < self.channels.len() {
                ", "
            } else {
                ""
            };
            let _ = write!(
                s,
                "{{\"channel\": \"{}\", \"mechanism\": \"{}\", \"metric\": \"{}\", \"value_bits\": {}, \"baseline_bits\": {}, \"value\": {:.3}, \"baseline\": {:.3}, \"leaks\": {}, \"samples\": {}}}{comma}",
                c.channel,
                c.mechanism,
                c.metric,
                c.value.to_bits(),
                c.baseline.to_bits(),
                c.value,
                c.baseline,
                c.leaks,
                c.samples,
            );
        }
        s.push_str("]}");
        s
    }
}

/// An append-only JSON-lines file: a sealed [`JournalHeader`], then one
/// sealed [`CellRecord`] per [`append`], each fsynced before it returns.
/// Kept only for the benchmark's `campaign` workload, which times the
/// appends; no binary of this workspace writes or reads a journal.
///
/// [`append`]: Journal::append
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
}

impl Journal {
    /// Start a fresh journal at `path` containing only the header record.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn create(path: impl AsRef<Path>, header: &JournalHeader) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut file = fs::File::create(path)?;
        file.write_all(seal(&header.body()).as_bytes())?;
        file.sync_all()?;
        Ok(Journal { file })
    }

    /// Append one completed cell and fsync before returning.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn append(&mut self, rec: &CellRecord) -> std::io::Result<()> {
        self.file.write_all(seal(&rec.body()).as_bytes())?;
        self.file.sync_data()
    }
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tp-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("mk temp dir");
        d
    }

    fn record(exp: &str, value: f64) -> CellRecord {
        let c = ChannelResult {
            channel: "L1-D",
            mechanism: "raw",
            metric: "M_mb",
            value,
            baseline: 40.25,
            leaks: true,
            samples: 120,
        };
        CellRecord::new(exp, Platform::Haswell, 1.25, &[c])
    }

    #[test]
    fn atomic_write_is_plain_and_reads_back_verbatim() {
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.json");

        write_atomic(&path, "{\"v\": 1}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\": 1}\n");
        write_atomic(&path, "{\"v\": 2}\n").unwrap();
        assert_eq!(read_artifact(&path).unwrap().0, "{\"v\": 2}\n");
        // The rewrite leaves nothing beside the artifact: no backup, no temp.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["artifact.json"]);

        // A hand edit is read as written, and a missing file names its path.
        fs::write(&path, "{\"v\": 3}\n").unwrap();
        assert_eq!(read_artifact(&path).unwrap().0, "{\"v\": 3}\n");
        let err = read_artifact(dir.join("missing.json")).unwrap_err();
        assert!(err.contains("missing.json"), "{err}");
    }

    /// The raw bits written after `"<name>": ` in a record body.
    fn bits_field(body: &str, name: &str) -> u64 {
        let key = format!("\"{name}\": ");
        let rest = &body[body.find(&key).expect("field present") + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().expect("integer bits")
    }

    #[test]
    fn cell_record_roundtrips_bit_exactly() {
        let rec = record("l1d", 0.000_123);
        let body = rec.body();
        // Every f64 reads back from its `*_bits` field to the same bits,
        // though its rounded form (`{:.3}`) would lose them.
        assert_eq!(
            f64::from_bits(bits_field(&body, "seconds_bits")).to_bits(),
            rec.seconds.to_bits()
        );
        assert_eq!(bits_field(&body, "value_bits"), 0.000_123_f64.to_bits());
        assert_eq!(bits_field(&body, "baseline_bits"), 40.25_f64.to_bits());
        assert_eq!(num_field(&body, "value"), Some(0.0));
        assert_eq!(str_field(&body, "experiment"), Some("l1d"));
        assert_eq!(str_field(&body, "platform"), Some("haswell"));
        assert_eq!(
            str_field(&body, "config_fnv"),
            Some(format!("{:016x}", config_fingerprint(Platform::Haswell)).as_str())
        );
        // An empty channel list writes an empty array.
        let empty = CellRecord::new("x", Platform::Sabre, 0.5, &[]);
        assert!(
            empty.body().ends_with("\"channels\": []}"),
            "{}",
            empty.body()
        );
        assert_eq!(bits_field(&empty.body(), "seconds_bits"), 0.5_f64.to_bits());
    }

    #[test]
    fn journal_create_append_resume() {
        let dir = tmp_dir("journal");
        let path = dir.join("campaign.journal");
        let mut j = Journal::create(&path, &JournalHeader::current()).unwrap();
        j.append(&record("l1d", 123.456_789)).unwrap();
        j.append(&record("tlb", 0.1)).unwrap();
        drop(j);

        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "a header and one line per cell: {text}");
        for (line, kind) in lines.iter().zip(["header", "cell", "cell"]) {
            // Each line seals its body under its own checksum.
            let sum = str_field(line, "fnv").expect("sealed line");
            let body = &line[line.find("\"record\": ").unwrap() + 10..line.len() - 1];
            assert_eq!(sum, format!("{:016x}", fnv64(body.as_bytes())), "{line}");
            assert_eq!(str_field(body, "kind"), Some(kind), "{line}");
        }
        assert_eq!(
            str_field(lines[0], "code_version"),
            Some(code_version().as_str())
        );
        assert_eq!(str_field(lines[1], "experiment"), Some("l1d"));
        assert_eq!(str_field(lines[2], "experiment"), Some("tlb"));

        // Nothing resumes a journal: a second create at the same path
        // starts over from the header alone.
        let mut j = Journal::create(&path, &JournalHeader::current()).unwrap();
        j.append(&record("btb", 2.0)).unwrap();
        drop(j);
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "the old cells are gone: {text}");
        assert_eq!(str_field(lines[1], "experiment"), Some("btb"));
        let _ = fs::remove_dir_all(&dir);
    }
}
