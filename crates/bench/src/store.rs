//! The durable artifact store: crash-consistent writes, the per-cell
//! campaign journal, and the advisory campaign lock.
//!
//! Every artifact the harness emits (`BENCH.json`, `BENCH-campaign.json`,
//! `campaign-results.json`, `goldens/verdicts.json`, the quarantine
//! ledger) used to be a bare `std::fs::write` — a SIGKILL or power loss
//! mid-write tore the file and discarded the whole run. This module makes
//! the artifacts durable and the campaign *resumable*:
//!
//! * [`write_atomic`] writes the payload, plain JSON, to a temp file,
//!   syncs it and renames it into place, so a kill mid-write leaves the
//!   previous version whole; [`read_artifact`] is a plain read.
//! * [`Journal`] is an append-only JSON-lines file
//!   (`goldens/campaign.journal`) holding one checksummed record per
//!   completed campaign cell, flushed as each cell finishes. `campaign
//!   --resume` replays it — verifying every record, truncating at the
//!   first torn one — and skips already-completed cells, so an
//!   interrupted campaign finishes without re-running finished work.
//! * [`CampaignLock`] is an advisory lock file next to the journal so two
//!   concurrent campaigns can't interleave appends into one journal.
//! * [`resume_counters`] accounts for all of the above in the `resume`
//!   object of `BENCH-campaign.json`, which CI gates to all-zero on a
//!   clean (uninterrupted, unlocked-against) run.
//!
//! Records are keyed on (experiment, platform, platform-config hash) per
//! record plus (schema, `TP_SAMPLES`, vote-seed base, code version) in the
//! journal header: any mismatch invalidates the cache rather than serving
//! stale results.

use crate::campaign::ChannelResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tp_core::StateHasher;
use tp_sim::Platform;

/// Journal format version; bump to invalidate every cached cell.
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

// ---------------------------------------------------------------- counters

static CELLS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static RECORDS_RECOVERED: AtomicU64 = AtomicU64::new(0);
static RECORDS_TRUNCATED: AtomicU64 = AtomicU64::new(0);
static LOCK_WAITS: AtomicU64 = AtomicU64::new(0);

/// Resume/durability accounting, serialised into `BENCH-campaign.json` as
/// the `resume` object. A clean (non-resumed, uncontended) campaign
/// reports zeroes everywhere and CI gates on exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeCounters {
    /// Cells skipped because a verified journal record already covers them.
    pub cells_skipped: u64,
    /// Journal records that verified and were replayed.
    pub records_recovered: u64,
    /// Journal records dropped at or after the first torn/rotted one.
    pub records_truncated: u64,
    /// Times the advisory campaign lock was held by a live process and had
    /// to be waited for.
    pub lock_waits: u64,
}

/// Snapshot the resume counters.
#[must_use]
pub fn resume_counters() -> ResumeCounters {
    ResumeCounters {
        cells_skipped: CELLS_SKIPPED.load(Ordering::Relaxed),
        records_recovered: RECORDS_RECOVERED.load(Ordering::Relaxed),
        records_truncated: RECORDS_TRUNCATED.load(Ordering::Relaxed),
        lock_waits: LOCK_WAITS.load(Ordering::Relaxed),
    }
}

/// Record that one scheduled cell was served from the journal.
pub fn note_cell_skipped() {
    CELLS_SKIPPED.fetch_add(1, Ordering::Relaxed);
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
// Every file the harness reads back — journal records, golden verdicts,
// `BENCH-campaign.json` — is machine-written with one object per line in
// the `"name": value` spelling these readers expect. A full JSON parser
// would be a dependency for no robustness gain (journal lines are
// additionally checksummed).

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
#[must_use]
pub fn num_field(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The unsigned integer value of the first `"name": <digits>` in `line`.
#[must_use]
pub fn u64_field(line: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean value of the first `"name": true|false` in `line`.
#[must_use]
pub fn bool_field(line: &str, name: &str) -> Option<bool> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

// --------------------------------------------------------- sealed records

/// Seal one record body into a checksummed journal line.
fn seal(body: &str) -> String {
    format!(
        "{{\"fnv\": \"{:016x}\", \"record\": {body}}}\n",
        fnv64(body.as_bytes())
    )
}

/// Verify one journal line and return the record body. `None` when the
/// line is torn, rotted or not a sealed record at all.
fn unseal(line: &str) -> Option<&str> {
    const PREFIX: &str = "{\"fnv\": \"";
    const MID: &str = "\", \"record\": ";
    let rest = line.strip_prefix(PREFIX)?;
    let sum = u64::from_str_radix(rest.get(..16)?, 16).ok()?;
    let body = rest.get(16..)?.strip_prefix(MID)?.strip_suffix('}')?;
    (fnv64(body.as_bytes()) == sum).then_some(body)
}

/// The journal header: the run parameters every cached cell is keyed on.
/// A journal whose header differs from the current run's in any field is
/// discarded wholesale — stale caches recompute, never serve.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Journal format version ([`STORE_SCHEMA`]).
    pub schema: u32,
    /// The `TP_SAMPLES` effort scale the cells ran at.
    pub tp_samples: f64,
    /// The base vote seed (`campaign::VOTE_SEED_BASE`).
    pub seed: u64,
    /// Code version stamp; any crate-version bump invalidates the cache.
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

    fn parse(body: &str) -> Option<Self> {
        if str_field(body, "kind") != Some("header") {
            return None;
        }
        Some(JournalHeader {
            schema: u64_field(body, "schema")? as u32,
            tp_samples: num_field(body, "tp_samples")?,
            seed: u64_field(body, "seed")?,
            code_version: str_field(body, "code_version")?.to_string(),
        })
    }
}

/// The code-version component of the journal key: the crate version plus
/// the store schema, so either bump invalidates every cached cell.
#[must_use]
pub fn code_version() -> String {
    format!("{}+store{STORE_SCHEMA}", env!("CARGO_PKG_VERSION"))
}

/// The platform-config component of the journal key: a fingerprint of the
/// full [`tp_sim::PlatformConfig`], so editing a platform's geometry
/// invalidates its cached cells but nobody else's.
#[must_use]
pub fn config_fingerprint(platform: Platform) -> u64 {
    fnv64(format!("{:?}", platform.config()).as_bytes())
}

/// One completed campaign cell, as journaled and replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Experiment registry name.
    pub experiment: String,
    /// Platform key.
    pub platform: String,
    /// [`config_fingerprint`] of the platform at record time.
    pub config_fnv: u64,
    /// The cell's wall time, bit-exact (for byte-identical re-serialisation).
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

    /// The (experiment, platform) identity of this record.
    #[must_use]
    pub fn key(&self) -> (String, String) {
        (self.experiment.clone(), self.platform.clone())
    }

    /// The record's one-line JSON body, as sealed into the journal.
    /// Carries every `f64` both human-readable and as raw bits
    /// (`*_bits`), so [`parse`](CellRecord::parse) round-trips bit-exactly
    /// and a replayed cell re-serialises byte-identically.
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

    /// Parse a record body written by [`body`](CellRecord::body). `None`
    /// when the body is damaged or not a cell record.
    #[must_use]
    pub fn parse(body: &str) -> Option<Self> {
        if str_field(body, "kind") != Some("cell") {
            return None;
        }
        let experiment = str_field(body, "experiment")?.to_string();
        let platform = str_field(body, "platform")?.to_string();
        let config_fnv = u64::from_str_radix(str_field(body, "config_fnv")?, 16).ok()?;
        let seconds = f64::from_bits(u64_field(body, "seconds_bits")?);
        let start = body.find("\"channels\": [")? + "\"channels\": [".len();
        let inner = body.get(start..)?.strip_suffix("]}")?;
        let mut channels = Vec::new();
        if !inner.is_empty() {
            let inner = inner.strip_prefix('{')?.strip_suffix('}')?;
            for part in inner.split("}, {") {
                channels.push(ChannelResult {
                    channel: leak_str(str_field(part, "channel")?),
                    mechanism: leak_str(str_field(part, "mechanism")?),
                    metric: leak_str(str_field(part, "metric")?),
                    value: f64::from_bits(u64_field(part, "value_bits")?),
                    baseline: f64::from_bits(u64_field(part, "baseline_bits")?),
                    leaks: bool_field(part, "leaks")?,
                    samples: u64_field(part, "samples")? as usize,
                });
            }
        }
        Some(CellRecord {
            experiment,
            platform,
            config_fnv,
            seconds,
            channels,
        })
    }
}

/// Intern a journal string as `&'static str` (the campaign result types
/// carry static names). The table dedups across resumes in one process so
/// repeated replays don't leak the same handful of identifiers twice.
fn leak_str(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static INTERN: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERN
        .get_or_init(Mutex::default)
        .lock()
        .expect("intern table poisoned");
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// What a journal load recovered, and what it had to drop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Verified records, in append order (first write of a key wins).
    pub records: Vec<CellRecord>,
    /// Records replayed (equals `records.len()`).
    pub recovered: u64,
    /// Lines dropped at or after the first torn/rotted record (or the whole
    /// journal, when its header doesn't match this run).
    pub truncated: u64,
    /// 0-based index (counting cell records) of the first damaged record,
    /// when any was dropped.
    pub first_damaged: Option<usize>,
    /// Human-readable reason for any truncation.
    pub why: Option<String>,
}

/// Replay journal `text`, verifying every record against `expect` and
/// truncating at the first torn one. Pure string-level core of
/// [`Journal::load`], exposed for the damage property tests.
#[must_use]
pub fn replay_journal(text: &str, expect: &JournalHeader) -> LoadReport {
    let mut report = LoadReport::default();
    let mut lines = text.lines();
    let count_cells = |s: &str| s.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    match lines.next() {
        None => return report,
        Some(first) => {
            let header = unseal(first).and_then(JournalHeader::parse);
            if header.as_ref() != Some(expect) {
                report.truncated = count_cells(text).saturating_sub(1);
                report.first_damaged = Some(0);
                report.why = Some(match header {
                    Some(h) => {
                        format!("journal header mismatch (journal: {h:?}, this run: {expect:?})")
                    }
                    None => "journal header torn or unparseable".to_string(),
                });
                return report;
            }
        }
    }
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match unseal(line).and_then(CellRecord::parse) {
            Some(rec) => {
                report.recovered += 1;
                report.records.push(rec);
            }
            None => {
                // Append-only file: everything after the first damaged
                // record is unreliable too. Truncate, never skip-and-trust.
                report.truncated = count_cells(text)
                    .saturating_sub(1) // header
                    .saturating_sub(report.recovered);
                report.first_damaged = Some(i);
                report.why = Some(format!("record #{i} torn or rotted"));
                return report;
            }
        }
    }
    report
}

/// The append-only per-cell journal.
///
/// `create` starts a fresh journal (header only); `open_resume` replays an
/// existing one, rewrites it to just its verified prefix (physically
/// truncating any torn tail) and reopens for append. Every [`append`] is
/// flushed and fsynced before it returns, so a completed cell survives a
/// SIGKILL in the very next instruction.
///
/// [`append`]: Journal::append
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    path: PathBuf,
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
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Replay the journal at `path` (missing file ⇒ empty report), rewrite
    /// it to its verified prefix, and reopen it for appending. Updates the
    /// global [`resume_counters`].
    ///
    /// # Errors
    /// Propagates I/O errors from the rewrite.
    pub fn open_resume(
        path: impl AsRef<Path>,
        header: &JournalHeader,
    ) -> std::io::Result<(Self, LoadReport)> {
        let path = path.as_ref();
        let report = Self::load(path, header);
        RECORDS_RECOVERED.fetch_add(report.recovered, Ordering::Relaxed);
        RECORDS_TRUNCATED.fetch_add(report.truncated, Ordering::Relaxed);
        if let Some(why) = &report.why {
            eprintln!(
                "[journal {}: {} — {} record(s) recovered, {} dropped and will recompute]",
                path.display(),
                why,
                report.recovered,
                report.truncated,
            );
        }
        // Rewrite to the verified prefix so the torn tail can't shadow the
        // records we are about to append after it.
        let mut journal = Self::create(path, header)?;
        for rec in &report.records {
            journal.append_unsynced(rec)?;
        }
        journal.file.sync_all()?;
        Ok((journal, report))
    }

    /// Replay the journal at `path` without opening it for append (missing
    /// file ⇒ empty report). Does **not** touch the global counters.
    #[must_use]
    pub fn load(path: impl AsRef<Path>, header: &JournalHeader) -> LoadReport {
        match fs::read(path.as_ref()) {
            Err(_) => LoadReport::default(),
            Ok(bytes) => replay_journal(&String::from_utf8_lossy(&bytes), header),
        }
    }

    /// Append one completed cell and fsync before returning.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn append(&mut self, rec: &CellRecord) -> std::io::Result<()> {
        self.append_unsynced(rec)?;
        self.file.sync_data()
    }

    fn append_unsynced(&mut self, rec: &CellRecord) -> std::io::Result<()> {
        self.file.write_all(seal(&rec.body()).as_bytes())
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Index a load report's records by (experiment, platform), keeping the
/// first record per key and dropping records whose platform fingerprint no
/// longer matches the current code's.
#[must_use]
pub fn completed_cells(report: &LoadReport) -> BTreeMap<(String, String), CellRecord> {
    let mut m = BTreeMap::new();
    for rec in &report.records {
        let stale = Platform::from_key(&rec.platform)
            .is_none_or(|p| config_fingerprint(p) != rec.config_fnv);
        if !stale {
            m.entry(rec.key()).or_insert_with(|| rec.clone());
        }
    }
    m
}

// ----------------------------------------------------------- file locking

/// An advisory lock file (`<journal>.lock`) so two concurrent campaigns
/// can't interleave appends into one journal or race the artifact writes.
///
/// Acquisition creates the file exclusively and writes the holder's PID.
/// A lock whose holder is no longer alive (checked via `/proc/<pid>`, with
/// an age-based fallback where `/proc` doesn't exist) is broken as stale —
/// a SIGKILLed campaign must not wedge every future `--resume`. Contending
/// against a *live* holder waits (counted in [`resume_counters`]
/// `lock_waits`) up to `timeout`, then errors.
#[derive(Debug)]
pub struct CampaignLock {
    path: PathBuf,
}

impl CampaignLock {
    /// Acquire the lock at `path`, waiting up to `timeout` for a live
    /// holder to release it.
    ///
    /// # Errors
    /// When a live holder still holds the lock after `timeout`.
    pub fn acquire(path: impl AsRef<Path>, timeout: Duration) -> Result<Self, String> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = fs::create_dir_all(dir);
            }
        }
        let deadline = Instant::now() + timeout;
        let mut waited = false;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok(CampaignLock {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Self::is_stale(path) {
                        eprintln!("[breaking stale campaign lock {}]", path.display());
                        let _ = fs::remove_file(path);
                        continue;
                    }
                    if !waited {
                        waited = true;
                        LOCK_WAITS.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "[campaign lock {} held by a live campaign; waiting]",
                            path.display()
                        );
                    }
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "campaign lock {} still held after {:.0}s; \
                             another campaign is running (or remove the lock by hand)",
                            path.display(),
                            timeout.as_secs_f64(),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => return Err(format!("cannot create lock {}: {e}", path.display())),
            }
        }
    }

    /// A lock is stale when its holder PID is provably dead, or — where
    /// `/proc` is unavailable — when the lock file is over ten minutes old.
    fn is_stale(path: &Path) -> bool {
        let pid = fs::read_to_string(path)
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        match pid {
            Some(pid) if Path::new("/proc").is_dir() => {
                pid != std::process::id() && !Path::new(&format!("/proc/{pid}")).exists()
            }
            _ => fs::metadata(path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > Duration::from_secs(600)),
        }
    }
}

impl Drop for CampaignLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
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

    fn channel(mech: &'static str, leaks: bool) -> ChannelResult {
        ChannelResult {
            channel: "L1-D",
            mechanism: mech,
            metric: "M_mb",
            value: 123.456_789,
            baseline: 40.25,
            leaks,
            samples: 120,
        }
    }

    fn record(exp: &str, value_salt: f64) -> CellRecord {
        let mut c = vec![channel("raw", true), channel("protected", false)];
        c[0].value += value_salt;
        CellRecord::new(exp, Platform::Haswell, 1.25 + value_salt, &c)
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

    #[test]
    fn cell_record_roundtrips_bit_exactly() {
        let rec = record("l1d", 0.000_123);
        let body = rec.body();
        let parsed = CellRecord::parse(&body).expect("parses");
        assert_eq!(parsed, rec);
        assert_eq!(parsed.seconds.to_bits(), rec.seconds.to_bits());
        assert_eq!(
            parsed.channels[0].value.to_bits(),
            rec.channels[0].value.to_bits()
        );
        // Empty channel lists roundtrip too.
        let empty = CellRecord::new("x", Platform::Sabre, 0.5, &[]);
        assert_eq!(CellRecord::parse(&empty.body()), Some(empty));
    }

    #[test]
    fn journal_create_append_resume() {
        let dir = tmp_dir("journal");
        let path = dir.join("campaign.journal");
        let header = JournalHeader::current();

        let mut j = Journal::create(&path, &header).unwrap();
        j.append(&record("l1d", 0.0)).unwrap();
        j.append(&record("tlb", 1.0)).unwrap();
        drop(j);

        let report = Journal::load(&path, &header);
        assert_eq!(report.recovered, 2);
        assert_eq!(report.truncated, 0);
        assert_eq!(report.records[0].experiment, "l1d");
        assert_eq!(report.records[1].experiment, "tlb");

        // A header from different run parameters discards the journal.
        let mut other = header.clone();
        other.tp_samples += 1.0;
        let stale = Journal::load(&path, &other);
        assert_eq!(stale.recovered, 0);
        assert_eq!(stale.truncated, 2);
        assert!(stale.why.as_deref().unwrap_or("").contains("header"));
    }

    #[test]
    fn torn_tail_truncates_and_resume_rewrites() {
        let dir = tmp_dir("torn");
        let path = dir.join("campaign.journal");
        let header = JournalHeader::current();
        let mut j = Journal::create(&path, &header).unwrap();
        j.append(&record("l1d", 0.0)).unwrap();
        j.append(&record("tlb", 1.0)).unwrap();
        drop(j);

        // Tear the last record mid-line, as a SIGKILL mid-append would.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();

        let (mut j, report) = Journal::open_resume(&path, &header).unwrap();
        assert_eq!(report.recovered, 1);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.first_damaged, Some(1));
        assert_eq!(report.records[0].experiment, "l1d");

        // The rewrite dropped the torn tail; appends after it are clean.
        j.append(&record("btb", 2.0)).unwrap();
        drop(j);
        let report = Journal::load(&path, &header);
        assert_eq!(report.recovered, 2);
        assert_eq!(report.truncated, 0);
        assert_eq!(report.records[1].experiment, "btb");
    }

    #[test]
    fn rotted_record_truncates_everything_after_it() {
        let dir = tmp_dir("rot");
        let path = dir.join("campaign.journal");
        let header = JournalHeader::current();
        let mut j = Journal::create(&path, &header).unwrap();
        for (i, exp) in ["l1d", "tlb", "btb"].iter().enumerate() {
            j.append(&record(exp, i as f64)).unwrap();
        }
        drop(j);

        // Flip one byte inside the second cell record's body.
        let mut bytes = fs::read(&path).unwrap();
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let target = line_starts[2] + 60;
        bytes[target] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let report = Journal::load(&path, &header);
        assert_eq!(report.recovered, 1, "only the record before the rot");
        assert_eq!(report.truncated, 2, "the rotted record and its successors");
        assert_eq!(report.first_damaged, Some(1));
    }

    #[test]
    fn completed_cells_keeps_first_and_drops_stale_fingerprints() {
        let a = record("l1d", 0.0);
        let mut dup = record("l1d", 9.0);
        dup.platform = a.platform.clone();
        let mut stale = record("tlb", 1.0);
        stale.config_fnv ^= 1;
        let m = completed_cells(&LoadReport {
            records: vec![a.clone(), dup, stale],
            recovered: 3,
            ..Default::default()
        });
        assert_eq!(m.len(), 1);
        assert_eq!(m[&a.key()], a, "first record for a key wins");
    }

    #[test]
    fn lock_excludes_and_breaks_stale() {
        let dir = tmp_dir("lock");
        let path = dir.join("campaign.journal.lock");

        let lock = CampaignLock::acquire(&path, Duration::from_millis(50)).unwrap();
        // Held by this (live) process: a second acquire waits, then errors.
        let before = resume_counters().lock_waits;
        let err = CampaignLock::acquire(&path, Duration::from_millis(50)).unwrap_err();
        assert!(err.contains("still held"), "{err}");
        assert!(resume_counters().lock_waits > before);
        drop(lock);
        assert!(!path.exists(), "drop releases the lock");

        // A lock naming a dead PID is broken as stale.
        fs::write(&path, "999999999\n").unwrap();
        let lock = CampaignLock::acquire(&path, Duration::from_millis(50)).unwrap();
        drop(lock);
    }
}
