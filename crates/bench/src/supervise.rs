//! The cell supervisor: run every cell to a verdict, never to a hang.
//!
//! A *cell* is one experiment × platform combination. The supervisor runs
//! each attempt on the calling thread under `catch_unwind`, with the
//! engine's cooperative watchdog as its only deadline (a hang outside the
//! engine is not caught; no fault class reaches one), classifies every
//! failure into a [`CellOutcome`] by its typed [`SimErrorKind`] (a caught
//! panic is `Panicked`, whatever its message), retries transient classes with
//! deterministically bumped seeds, and hands `reproduce_all` enough
//! structure to quarantine the cell and keep going — one sick cell never
//! hides the other cells' verdicts.
//!
//! The state machine per cell:
//!
//! ```text
//!         ┌──────────── retry (≤2, seed-bumped) ────────────┐
//!         ▼                                                 │
//!   arm → run ─ Ok ──→ selfchecks ──→ Ok                    │
//!         │             │                                   │
//!         │             └ env died in isolation → EnvFailed │
//!         ├─ SimError(watchdog)         → TimedOut ─────────┤
//!         ├─ SimError(deadlock)         → Deadlock ─────────┤
//!         └─ panic / SimError(program)  → Panicked ─────────┘
//! ```
//!
//! All counters feed the `supervisor` object of `BENCH.json`; a healthy
//! run reports zeroes everywhere and CI gates on that. The fault classes
//! that exercise each branch are `tp_core::fault`'s; every branch has a
//! unit test below, and the `chaos` binary fuzzes them over real cells.

use crate::campaign::ChannelResult;
use crate::store::{num_field, str_field};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tp_core::{fault, FaultKind, FaultPlan, SimError, SimErrorKind};

/// Maximum attempts per cell: the first run plus two seed-bumped retries.
pub const MAX_ATTEMPTS: u32 = 3;

/// Seed-salt stride between attempts. Attempt `n` salts every vote seed
/// with `n * RETRY_SALT_STRIDE`; attempt 0 therefore runs the canonical
/// seeds and is byte-identical to an unsupervised run.
pub const RETRY_SALT_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

thread_local! {
    /// The seed salt for the attempt running on this thread (0 outside a
    /// retry). Read by the registry's `vote` when deriving channel seeds.
    static RETRY_SALT: Cell<u64> = const { Cell::new(0) };
}

/// Set the retry salt for work subsequently run on this thread.
pub fn set_retry_salt(salt: u64) {
    RETRY_SALT.with(|c| c.set(salt));
}

/// The retry salt of the current thread (0 outside a supervised retry).
#[must_use]
pub fn retry_salt() -> u64 {
    RETRY_SALT.with(Cell::get)
}

static RETRIES: AtomicU64 = AtomicU64::new(0);
static TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static PANICS: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static ENV_FAILED: AtomicU64 = AtomicU64::new(0);
static DEADLOCKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide supervisor accounting, serialised into `BENCH.json` as
/// the `supervisor` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Retried attempts (beyond each cell's first).
    pub retries: u64,
    /// Attempts stopped by the engine watchdog.
    pub timeouts: u64,
    /// Attempts that panicked (host panic or simulated-program failure).
    pub panics: u64,
    /// Cells written to the quarantine ledger.
    pub quarantined: u64,
    /// Cells that completed with at least one environment failed in
    /// isolation (partial results over the survivors).
    pub env_failed: u64,
    /// Attempts classified as a deterministic scheduler deadlock.
    pub deadlocks: u64,
}

/// Snapshot the supervisor counters.
#[must_use]
pub fn counters() -> SupervisorCounters {
    SupervisorCounters {
        retries: RETRIES.load(Ordering::Relaxed),
        timeouts: TIMEOUTS.load(Ordering::Relaxed),
        panics: PANICS.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
        env_failed: ENV_FAILED.load(Ordering::Relaxed),
        deadlocks: DEADLOCKS.load(Ordering::Relaxed),
    }
}

/// Record that one cell was written to the quarantine ledger.
pub fn note_quarantined() {
    QUARANTINED.fetch_add(1, Ordering::Relaxed);
}

/// The supervisor's classification of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell completed and passed every selfcheck.
    Ok,
    /// Every attempt panicked (host panic or simulated-program failure).
    Panicked,
    /// Every attempt was stopped by the engine watchdog.
    TimedOut,
    /// The cell completed, but one or more non-primary environments failed
    /// in isolation: partial results over the survivors, not a quarantine.
    EnvFailed,
    /// Every attempt ended in a deterministic scheduler deadlock (the
    /// driver proved no environment can ever be admitted again).
    Deadlock,
}

impl CellOutcome {
    /// Stable name used in the quarantine ledger.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CellOutcome::Ok => "ok",
            CellOutcome::Panicked => "panicked",
            CellOutcome::TimedOut => "timed-out",
            CellOutcome::EnvFailed => "env-failed",
            CellOutcome::Deadlock => "deadlock",
        }
    }
}

/// What the supervisor learned about one cell whose closure returns `T`
/// (a registry cell's rows, by default).
#[derive(Debug)]
pub struct CellReport<T = Vec<ChannelResult>> {
    /// Final classification.
    pub outcome: CellOutcome,
    /// The cell's results, when an attempt completed (present for
    /// [`CellOutcome::Ok`] and for the degraded-but-complete classes).
    pub channels: Option<T>,
    /// Attempts consumed (1 ⇒ no retry).
    pub attempts: u32,
    /// Environments that failed in isolation during the reported attempt
    /// (non-zero only for [`CellOutcome::EnvFailed`]).
    pub env_failed: u64,
    /// Human-readable failure description for non-`Ok` outcomes.
    pub error: Option<String>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Disarms the calling thread's fault plan, engine deadline and retry
/// salt when dropped, however the attempt it guards ends.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        fault::arm(None);
        fault::set_deadline(None);
        set_retry_salt(0);
    }
}

/// Run one attempt on the calling thread: its channels and how many
/// environments failed in isolation, or its failure class and message.
fn run_attempt<T>(
    armed: Option<FaultKind>,
    deadline: Duration,
    salt: u64,
    f: &dyn Fn() -> Result<T, SimError>,
) -> Result<(T, u64), (CellOutcome, String)> {
    fault::arm(armed);
    fault::set_deadline(Some(Instant::now() + deadline));
    set_retry_salt(salt);
    let _disarm = Disarm;
    // The engine counts isolated env failures on the thread that drives
    // the system, so this delta is exactly this attempt's, whatever other
    // cells run concurrently.
    let env_failed_before = tp_core::thread_env_failed();
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(channels)) => Ok((channels, tp_core::thread_env_failed() - env_failed_before)),
        Ok(Err(e)) => Err((
            match e.kind {
                SimErrorKind::Watchdog => CellOutcome::TimedOut,
                SimErrorKind::ProgramPanic => CellOutcome::Panicked,
                SimErrorKind::Deadlock { .. } => CellOutcome::Deadlock,
            },
            e.to_string(),
        )),
        // Every cell reports engine failures through `try_run`, so a
        // caught panic is a host panic whatever its message says.
        Err(payload) => Err((CellOutcome::Panicked, panic_message(payload.as_ref()))),
    }
}

/// Supervise one cell: run `f` on the calling thread with the given fault
/// plan (if it matches this cell) and the engine's wall-clock deadline,
/// classify the outcome, and retry panicked/timed-out attempts up to
/// [`MAX_ATTEMPTS`] with deterministically salted seeds.
pub fn run_cell<T>(
    experiment: &str,
    platform: &str,
    plan: Option<&FaultPlan>,
    deadline: Duration,
    f: impl Fn() -> Result<T, SimError>,
) -> CellReport<T> {
    let armed = plan
        .filter(|p| p.matches(experiment, platform))
        .map(|p| p.kind);
    let mut last = (CellOutcome::Panicked, String::new());
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            RETRIES.fetch_add(1, Ordering::Relaxed);
        }
        let salt = u64::from(attempt).wrapping_mul(RETRY_SALT_STRIDE);
        match run_attempt(armed, deadline, salt, &f) {
            Ok((channels, env_failed)) => {
                // Graceful degradation, not a quarantine: partial results
                // over the surviving environments.
                let mut outcome = CellOutcome::Ok;
                if env_failed > 0 {
                    ENV_FAILED.fetch_add(1, Ordering::Relaxed);
                    outcome = CellOutcome::EnvFailed;
                }
                return CellReport {
                    outcome,
                    channels: Some(channels),
                    attempts: attempt + 1,
                    env_failed,
                    error: (env_failed > 0).then(|| {
                        format!(
                            "{env_failed} environment(s) failed in isolation; \
                             results cover the survivors"
                        )
                    }),
                };
            }
            Err((outcome, msg)) => {
                let counter = match outcome {
                    CellOutcome::TimedOut => &TIMEOUTS,
                    CellOutcome::Deadlock => &DEADLOCKS,
                    _ => &PANICS,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                last = (outcome, msg);
            }
        }
    }
    CellReport {
        outcome: last.0,
        channels: None,
        attempts: MAX_ATTEMPTS,
        env_failed: 0,
        error: Some(last.1),
    }
}

/// A miniature synthetic cell for the supervisor tests: a single domain
/// issuing enough syscalls to trip the env faults, in well under a second.
///
/// # Errors
/// Returns the [`SimError`] when the simulation fails — which is the
/// point: every injected fault class surfaces here.
pub fn probe_cell(seed: u64) -> Result<Vec<ChannelResult>, SimError> {
    use tp_core::{ProtectionConfig, Syscall, SystemBuilder, UserEnv};
    let mut b = SystemBuilder::new(tp_sim::Platform::Haswell, ProtectionConfig::raw())
        .seed(seed)
        .max_cycles(200_000_000);
    let d = b.domain(None);
    b.spawn(d, 0, 100, async |env: &mut UserEnv| {
        let (base, _) = env.map_pages(32).await;
        for i in 0..600u64 {
            env.load(tp_sim::VAddr(base.0 + (i % 32) * tp_sim::FRAME_SIZE))
                .await;
            if i % 20 == 0 {
                let _ = env.syscall(Syscall::Yield).await;
            }
        }
    });
    b.try_run()?;
    Ok(Vec::new())
}

/// A two-core pair cell: one primary per core, each interleaving probe
/// loads with `Yield`s, so forward progress *requires* cross-core token
/// rotation. The `lost-wakeup` fault wedges the token here and the
/// driver's deadlock detector must classify it — deterministically, at the
/// same interaction ordinal on every run.
///
/// # Errors
/// The [`SimError`] when the simulation fails (under `lost-wakeup`, a
/// [`tp_core::SimErrorKind::Deadlock`]).
pub fn pair_cell(seed: u64) -> Result<Vec<ChannelResult>, SimError> {
    use tp_core::{ProtectionConfig, Syscall, SystemBuilder, UserEnv};
    let mut b = SystemBuilder::new(tp_sim::Platform::Haswell, ProtectionConfig::raw())
        .seed(seed)
        .max_cycles(400_000_000);
    let d0 = b.domain(None);
    let d1 = b.domain(None);
    for (core, d) in [d0, d1].into_iter().enumerate() {
        b.spawn(d, core, 100, async |env: &mut UserEnv| {
            let (base, _) = env.map_pages(16).await;
            for i in 0..400u64 {
                env.load(tp_sim::VAddr(base.0 + (i % 16) * tp_sim::FRAME_SIZE))
                    .await;
                if i % 25 == 0 {
                    let _ = env.syscall(Syscall::Yield).await;
                }
            }
        });
    }
    b.try_run()?;
    Ok(Vec::new())
}

/// Parse a `TP_CELL_TIMEOUT` value (seconds). `None`/empty means "unset";
/// anything set but not a positive finite number is a hard error naming
/// the variable — a typo must never silently degrade to the default
/// deadline and let a wedged cell run 10× longer than asked.
///
/// # Errors
/// A human-readable message naming `TP_CELL_TIMEOUT` and the rejected
/// value.
pub fn parse_cell_timeout(raw: Option<&str>) -> Result<Option<Duration>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(Some(Duration::from_secs_f64(v))),
        _ => Err(format!(
            "TP_CELL_TIMEOUT: `{raw}` is not a positive number of seconds"
        )),
    }
}

/// The `TP_CELL_TIMEOUT` override, if set. Exits with status 2 on a
/// malformed value, naming the variable — same contract as `TP_FAULT`.
fn cell_timeout_override() -> Option<Duration> {
    match parse_cell_timeout(std::env::var("TP_CELL_TIMEOUT").ok().as_deref()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// The wall-clock deadline for one cell: 20× its last recorded wall time
/// (clamped to \[30 s, 600 s\]), 120 s with no history, and whatever
/// `TP_CELL_TIMEOUT` (seconds) says when set.
#[must_use]
pub fn cell_deadline(history_seconds: Option<f64>) -> Duration {
    if let Some(d) = cell_timeout_override() {
        return d;
    }
    match history_seconds {
        Some(s) if s > 0.0 => Duration::from_secs_f64((s * 20.0).clamp(30.0, 600.0)),
        _ => Duration::from_secs(120),
    }
}

/// Parse the `cells` records of a previous `BENCH.json` into a
/// per-cell wall-time history (seconds), for deadline derivation. The
/// file is machine-written one cell object per line; unknown lines are
/// skipped, so a missing or stale file degrades to the default deadline.
#[must_use]
pub fn parse_bench_history(text: &str) -> BTreeMap<(String, String), f64> {
    let mut m = BTreeMap::new();
    for line in text.lines() {
        let (Some(exp), Some(plat), Some(secs)) = (
            str_field(line, "experiment"),
            str_field(line, "platform"),
            num_field(line, "seconds"),
        ) else {
            continue;
        };
        m.insert((exp.to_string(), plat.to_string()), secs);
    }
    m
}

/// One quarantined cell, as written to `goldens/quarantine.json`.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Experiment name of the quarantined cell.
    pub experiment: String,
    /// Platform key of the quarantined cell.
    pub platform: String,
    /// Final classification (never `ok`).
    pub outcome: CellOutcome,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The last failure message.
    pub error: String,
}

/// Serialise the quarantine ledger: a JSON array, one entry per line,
/// `[]` when every cell was healthy. `reproduce_all` writes it on every
/// run, so a clean run visibly overwrites an old ledger.
#[must_use]
pub fn quarantine_json(entries: &[QuarantineEntry]) -> String {
    if entries.is_empty() {
        return "[]\n".to_string();
    }
    let mut s = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "  {{\"experiment\": \"{}\", \"platform\": \"{}\", \"outcome\": \"{}\", \"attempts\": {}, \"error\": \"{}\"}}{comma}",
            e.experiment,
            e.platform,
            e.outcome.name(),
            e.attempts,
            e.error.replace('\\', "\\\\").replace('"', "\\\""),
        );
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fleet cell: one primary plus two daemon tenants in their own
    /// domains on one core. The daemons issue all the early syscalls (tight
    /// `Yield` loops), so a low-ordinal `env-panic@N` deterministically kills a
    /// *daemon* — exercising per-environment isolation ([`CellOutcome::EnvFailed`],
    /// survivors unperturbed).
    ///
    /// # Errors
    /// The [`SimError`] when the simulation fails.
    fn fleet_cell(seed: u64) -> Result<Vec<ChannelResult>, SimError> {
        use tp_core::{ProtectionConfig, Syscall, SystemBuilder, UserEnv};
        let mut b = SystemBuilder::new(tp_sim::Platform::Haswell, ProtectionConfig::raw())
            .seed(seed)
            .slice_us(50.0)
            .max_cycles(300_000_000);
        let d0 = b.domain(None);
        let d1 = b.domain(None);
        let d2 = b.domain(None);
        b.spawn(d0, 0, 100, async |env: &mut UserEnv| {
            let (base, _) = env.map_pages(16).await;
            for i in 0..400u64 {
                env.load(tp_sim::VAddr(base.0 + (i % 16) * tp_sim::FRAME_SIZE))
                    .await;
                env.compute(500).await;
            }
        });
        for d in [d1, d2] {
            b.spawn_daemon(d, 0, 100, async |env: &mut UserEnv| loop {
                let _ = env.syscall(Syscall::Yield).await;
            });
        }
        b.try_run()?;
        Ok(Vec::new())
    }

    #[test]
    fn healthy_cell_is_ok_first_attempt() {
        let r = run_cell("tiny", "haswell", None, Duration::from_secs(60), || {
            probe_cell(0xA11C_E000)
        });
        assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
        assert_eq!(r.attempts, 1);
        assert!(r.channels.is_some());
        assert!(r.error.is_none());
    }

    #[test]
    fn env_panic_classifies_as_panicked_with_deterministic_retries() {
        let p = FaultPlan::new(FaultKind::EnvPanic { at: 3 });
        let r1 = run_cell("tiny", "haswell", Some(&p), Duration::from_secs(60), || {
            probe_cell(0xA11C_E001)
        });
        assert_eq!(r1.outcome, CellOutcome::Panicked);
        assert_eq!(
            r1.attempts, MAX_ATTEMPTS,
            "deterministic fault on every attempt"
        );
        assert!(r1.channels.is_none());
        assert!(
            r1.error.as_deref().unwrap_or("").contains("env-panic"),
            "{:?}",
            r1.error
        );
        // A deterministic fault reclassifies identically on a second
        // supervised run — same outcome, same attempt count.
        let r2 = run_cell("tiny", "haswell", Some(&p), Duration::from_secs(60), || {
            probe_cell(0xA11C_E001)
        });
        assert_eq!((r2.outcome, r2.attempts), (r1.outcome, r1.attempts));
    }

    #[test]
    fn env_stall_is_caught_by_the_watchdog_as_timed_out() {
        let p = FaultPlan::new(FaultKind::EnvStall { at: 3 });
        let r = run_cell("tiny", "haswell", Some(&p), Duration::from_secs(1), || {
            probe_cell(0xA11C_E002)
        });
        assert_eq!(r.outcome, CellOutcome::TimedOut, "{:?}", r.error);
        assert_eq!(r.attempts, MAX_ATTEMPTS);
        assert!(
            r.error.as_deref().unwrap_or("").contains("watchdog"),
            "{:?}",
            r.error
        );
    }

    /// A primary program that panics with `msg`.
    fn panicking_primary_cell(msg: &'static str) -> Result<Vec<ChannelResult>, SimError> {
        use tp_core::{ProtectionConfig, Syscall, SystemBuilder, UserEnv};
        let mut b = SystemBuilder::new(tp_sim::Platform::Haswell, ProtectionConfig::raw());
        let d = b.domain(None);
        b.spawn(d, 0, 100, async move |env: &mut UserEnv| {
            let _ = env.syscall(Syscall::Yield).await;
            panic!("{msg}");
        });
        b.try_run()?;
        Ok(Vec::new())
    }

    /// Every attempt runs on the calling thread with its deadline armed,
    /// and however a cell ends — healthy, panicked, or stopped by the
    /// engine watchdog — it leaves that thread with no fault, deadline or
    /// salt, so the next healthy cell on it runs clean. Failures classify
    /// by their typed kind, never by what a panic message happens to say.
    #[test]
    fn attempts_run_on_the_caller_and_leave_it_disarmed() {
        let here = std::thread::current().id();
        let probe = || {
            assert_eq!(std::thread::current().id(), here);
            assert!(fault::deadline().is_some());
            probe_cell(0xA11C_E00B)
        };
        let named_deadlock = || panicking_primary_cell("deadlock: in name only");
        let named_watchdog =
            || -> Result<Vec<ChannelResult>, SimError> { panic!("watchdog: in name only") };
        let (panic, stall) = (FaultKind::EnvPanic { at: 3 }, FaultKind::EnvStall { at: 3 });
        let (n, long) = (MAX_ATTEMPTS, 60_000);
        let cases: [(Option<FaultKind>, u64, &dyn Fn() -> _, _, _, _); 6] = [
            (None, long, &probe, CellOutcome::Ok, 1, ""),
            (
                Some(panic),
                long,
                &probe,
                CellOutcome::Panicked,
                n,
                "env-panic",
            ),
            (
                Some(stall),
                500,
                &probe,
                CellOutcome::TimedOut,
                n,
                "watchdog",
            ),
            (
                None,
                long,
                &named_deadlock,
                CellOutcome::Panicked,
                n,
                "in name only",
            ),
            (
                None,
                long,
                &named_watchdog,
                CellOutcome::Panicked,
                n,
                "in name only",
            ),
            (None, long, &probe, CellOutcome::Ok, 1, ""),
        ];
        for (kind, ms, cell, outcome, attempts, error) in cases {
            let plan = kind.map(FaultPlan::new);
            let deadline = Duration::from_millis(ms);
            let r = run_cell("tiny", "haswell", plan.as_ref(), deadline, cell);
            let got = (r.outcome, r.attempts, r.env_failed);
            assert_eq!(got, (outcome, attempts, 0), "{:?}", r.error);
            assert_eq!(r.channels.is_some(), outcome == CellOutcome::Ok);
            assert_eq!(r.error.is_some(), !error.is_empty());
            assert!(r.error.unwrap_or_default().contains(error));
            let left = (fault::armed(), fault::deadline(), retry_salt());
            assert_eq!(left, (None, None, 0), "{} left it armed", outcome.name());
        }
    }

    #[test]
    fn scoped_plan_leaves_other_cells_alone() {
        let p = FaultPlan::parse("env-panic@3:cell=other/skylake").unwrap();
        let r = run_cell("tiny", "haswell", Some(&p), Duration::from_secs(60), || {
            probe_cell(0xA11C_E006)
        });
        assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
    }

    #[test]
    fn cell_timeout_parses_or_errors_naming_the_variable() {
        assert_eq!(parse_cell_timeout(None), Ok(None));
        assert_eq!(parse_cell_timeout(Some("")), Ok(None));
        assert_eq!(parse_cell_timeout(Some("  ")), Ok(None));
        assert_eq!(
            parse_cell_timeout(Some("1.5")),
            Ok(Some(Duration::from_secs_f64(1.5)))
        );
        assert_eq!(
            parse_cell_timeout(Some(" 120 ")),
            Ok(Some(Duration::from_secs(120)))
        );
        for bad in ["soon", "0", "-5", "12s", "inf"] {
            let err = parse_cell_timeout(Some(bad)).unwrap_err();
            assert!(err.contains("TP_CELL_TIMEOUT"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn deadline_derivation_and_history_parse() {
        assert_eq!(cell_deadline(None), Duration::from_secs(120));
        assert_eq!(cell_deadline(Some(1.0)), Duration::from_secs(30));
        assert_eq!(cell_deadline(Some(10.0)), Duration::from_secs(200));
        assert_eq!(cell_deadline(Some(1e6)), Duration::from_secs(600));

        let hist = parse_bench_history(
            "{\n  \"cells\": [\n    {\"experiment\": \"l1d\", \"platform\": \"haswell\", \"seconds\": 1.250},\n    {\"experiment\": \"llc\", \"platform\": \"skylake\", \"seconds\": 9.000}\n  ]\n}\n",
        );
        assert_eq!(hist.len(), 2);
        assert!((hist[&("l1d".into(), "haswell".into())] - 1.25).abs() < 1e-9);
    }

    #[test]
    fn lost_wakeup_classifies_as_deadlock_at_one_ordinal() {
        let p = FaultPlan::new(FaultKind::LostWakeup { at: 2 });
        let mut errors = Vec::new();
        for _ in 0..2 {
            let r = run_cell("pair", "haswell", Some(&p), Duration::from_secs(60), || {
                pair_cell(0xA11C_E007)
            });
            assert_eq!(r.outcome, CellOutcome::Deadlock, "{:?}", r.error);
            assert_eq!(r.attempts, MAX_ATTEMPTS, "deterministic on every attempt");
            let err = r.error.expect("deadlock detail");
            assert!(err.starts_with("deadlock:"), "{err}");
            assert!(err.contains("at interaction"), "{err}");
            errors.push(err);
        }
        assert_eq!(
            errors[0], errors[1],
            "deadlock ordinal must be the same on every run"
        );
    }

    #[test]
    fn fleet_daemon_panic_degrades_to_env_failed() {
        let p = FaultPlan::new(FaultKind::EnvPanic { at: 2 });
        let r = run_cell(
            "fleet",
            "haswell",
            Some(&p),
            Duration::from_secs(60),
            || fleet_cell(0xA11C_E009),
        );
        assert_eq!(r.outcome, CellOutcome::EnvFailed, "{:?}", r.error);
        assert_eq!(r.attempts, 1, "partial completion, not a retry");
        assert!(r.channels.is_some(), "survivor results are reported");
        assert!(r.env_failed > 0);
        assert!(
            r.error.as_deref().unwrap_or("").contains("survivors"),
            "{:?}",
            r.error
        );
    }

    /// A daemon that dies in the primary's own domain with no fault armed
    /// is a real failure: the cell completes over the survivors and must
    /// be reported `EnvFailed`, never as healthy.
    #[test]
    fn unarmed_daemon_death_is_env_failed() {
        use tp_core::{ProtectionConfig, Syscall, SystemBuilder, UserEnv};
        let r = run_cell("daemon", "haswell", None, Duration::from_secs(60), || {
            let mut b = SystemBuilder::new(tp_sim::Platform::Haswell, ProtectionConfig::raw())
                .seed(0xA11C_E00A)
                .max_cycles(300_000_000);
            let d = b.domain(None);
            b.spawn(d, 0, 100, async |env: &mut UserEnv| {
                let (base, _) = env.map_pages(16).await;
                for i in 0..400u64 {
                    env.load(tp_sim::VAddr(base.0 + (i % 16) * tp_sim::FRAME_SIZE))
                        .await;
                    if i % 20 == 0 {
                        let _ = env.syscall(Syscall::Yield).await;
                    }
                }
            });
            b.spawn_daemon(d, 0, 100, async |env: &mut UserEnv| {
                let _ = env.syscall(Syscall::Yield).await;
                panic!("daemon died");
            });
            b.try_run()?;
            Ok(())
        });
        assert_eq!(r.outcome, CellOutcome::EnvFailed, "{:?}", r.error);
        assert_eq!(r.env_failed, 1);
        assert_eq!(r.attempts, 1, "partial completion, not a retry");
        assert!(r.channels.is_some(), "survivor results are reported");
    }

    #[test]
    fn quarantine_ledger_roundtrips_shape() {
        assert_eq!(quarantine_json(&[]), "[]\n");
        let entries = vec![QuarantineEntry {
            experiment: "l1d".into(),
            platform: "haswell".into(),
            outcome: CellOutcome::Panicked,
            attempts: 3,
            error: "injected fault: env-panic at syscall 3".into(),
        }];
        let s = quarantine_json(&entries);
        assert!(s.contains("\"outcome\": \"panicked\""));
        assert!(s.contains("\"attempts\": 3"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
