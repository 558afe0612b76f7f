//! The cell supervisor: run every cell to a verdict, never to a hang.
//!
//! A *cell* is one experiment × platform combination. The supervisor runs
//! each attempt on the calling thread under `catch_unwind`, with the
//! engine's cooperative watchdog as its only deadline (a hang outside the
//! engine is not caught; no fault class reaches one), classifies every
//! failure into a [`CellOutcome`] by its typed [`SimErrorKind`] (a caught
//! panic is `Panicked`, whatever its message), and hands `reproduce_all`
//! enough structure to quarantine the cell and keep going — one sick cell
//! never hides the other cells' verdicts.
//!
//! Every outcome but a watchdog timeout is a deterministic function of the
//! cell, its seeds and `TP_SAMPLES`, so only `TimedOut` — the one outcome
//! that depends on the host — is retried, and every attempt runs the
//! canonical seeds. A retry can therefore only finish what a slow host cut
//! short, never change a result. The state machine per cell:
//!
//! ```text
//!         ┌──────────── retry (≤2, same seeds) ─────────────┐
//!         ▼                                                 │
//!   arm → run ─ Ok ──→ selfchecks ──→ Ok                    │
//!         │             │                                   │
//!         │             └ env died in isolation → EnvFailed │
//!         ├─ SimError(watchdog)         → TimedOut ─────────┘
//!         ├─ SimError(deadlock)         → Deadlock
//!         └─ panic / SimError(program)  → Panicked
//! ```
//!
//! All counters feed the `supervisor` object of `BENCH.json`; a healthy
//! run reports zeroes everywhere and CI gates on that. The fault classes
//! that exercise each branch are `tp_core::fault`'s; every branch has a
//! unit test below, and the `chaos` binary fuzzes them over real cells.

use crate::campaign::ChannelResult;
use std::cell::Cell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tp_core::{fault, FaultKind, FaultPlan, SimError, SimErrorKind};

/// Maximum attempts per cell: the first run plus two retries of a
/// watchdog timeout.
pub const MAX_ATTEMPTS: u32 = 3;

thread_local! {
    /// The seed salt for work running on this thread, XORed into every
    /// vote seed by the registry's `vote`. Every supervised attempt starts
    /// at 0, the canonical seeds; a caller exploring other seeds sets it
    /// inside its cell closure.
    static RETRY_SALT: Cell<u64> = const { Cell::new(0) };
}

/// Set the seed salt for work subsequently run on this thread.
pub fn set_retry_salt(salt: u64) {
    RETRY_SALT.with(|c| c.set(salt));
}

/// The seed salt of the current thread (0 unless a cell closure set it).
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
    /// The attempt panicked (host panic or simulated-program failure).
    Panicked,
    /// Every attempt was stopped by the engine watchdog.
    TimedOut,
    /// The cell completed, but one or more non-primary environments failed
    /// in isolation: partial results over the survivors, not a quarantine.
    EnvFailed,
    /// The attempt ended in a deterministic scheduler deadlock (the
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
    /// Attempts consumed (1 ⇒ no retry; only a timeout is retried).
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
    f: &dyn Fn() -> Result<T, SimError>,
) -> Result<(T, u64), (CellOutcome, String)> {
    fault::arm(armed);
    fault::set_deadline(Some(Instant::now() + deadline));
    set_retry_salt(0);
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
/// classify the outcome, and retry a watchdog timeout up to
/// [`MAX_ATTEMPTS`] on the same canonical seeds. Any other failure is
/// deterministic, so it is reported after one attempt.
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
    let mut attempts = 0;
    loop {
        attempts += 1;
        match run_attempt(armed, deadline, &f) {
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
                    attempts,
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
                if outcome == CellOutcome::TimedOut && attempts < MAX_ATTEMPTS {
                    RETRIES.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                return CellReport {
                    outcome,
                    channels: None,
                    attempts,
                    env_failed: 0,
                    error: Some(msg),
                };
            }
        }
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

/// The wall-clock deadline for one cell expected to take
/// `expected_seconds`: 20× that, clamped to \[30 s, 600 s\], and 120 s
/// with no expectation.
#[must_use]
pub fn cell_deadline(expected_seconds: Option<f64>) -> Duration {
    match expected_seconds {
        Some(s) if s > 0.0 => Duration::from_secs_f64((s * 20.0).clamp(30.0, 600.0)),
        _ => Duration::from_secs(120),
    }
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

/// `text` as the body of a JSON string: `\`, `"` and the control
/// characters U+0000–U+001F escaped, as RFC 8259 requires, so a
/// multi-line panic message stays one valid line.
fn json_escape(text: &str) -> String {
    let mut s = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", u32::from(c));
            }
            c => s.push(c),
        }
    }
    s
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
            json_escape(&e.error),
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
    fn env_panic_classifies_as_panicked_without_retry() {
        let p = FaultPlan::new(FaultKind::EnvPanic { at: 3 });
        let r1 = run_cell("tiny", "haswell", Some(&p), Duration::from_secs(60), || {
            probe_cell(0xA11C_E001)
        });
        assert_eq!(r1.outcome, CellOutcome::Panicked);
        assert_eq!(r1.attempts, 1, "a deterministic fault is not retried");
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

    /// A timeout is the one outcome a slow host can cause, so it is
    /// retried, and on the canonical seeds: the retry reruns exactly the
    /// work the deadline cut short.
    #[test]
    fn watchdog_timeout_retries_on_the_canonical_seeds() {
        let salts = std::cell::RefCell::new(Vec::new());
        let r = run_cell("tiny", "haswell", None, Duration::from_secs(60), || {
            salts.borrow_mut().push(retry_salt());
            if salts.borrow().len() == 1 {
                return Err(SimError {
                    kind: SimErrorKind::Watchdog,
                    message: "watchdog: deadline passed".into(),
                });
            }
            Ok(())
        });
        assert_eq!(r.outcome, CellOutcome::Ok, "{:?}", r.error);
        assert_eq!(r.attempts, 2);
        assert!(r.channels.is_some() && r.error.is_none());
        assert_eq!(salts.into_inner(), [0, 0], "every attempt runs seed salt 0");
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
    /// and however a cell ends — healthy, panicked after its one attempt,
    /// or stopped by the engine watchdog on every attempt — it leaves that
    /// thread with no fault, deadline or salt, so the next healthy cell on
    /// it runs clean. Failures classify by their typed kind, never by what
    /// a panic message happens to say.
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
                1,
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
                1,
                "in name only",
            ),
            (
                None,
                long,
                &named_watchdog,
                CellOutcome::Panicked,
                1,
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
    fn deadline_derivation_scales_and_clamps() {
        assert_eq!(cell_deadline(None), Duration::from_secs(120));
        assert_eq!(cell_deadline(Some(1.0)), Duration::from_secs(30));
        assert_eq!(cell_deadline(Some(10.0)), Duration::from_secs(200));
        assert_eq!(cell_deadline(Some(1e6)), Duration::from_secs(600));
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
            assert_eq!(r.attempts, 1, "a deterministic deadlock is not retried");
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
        let entries = vec![
            QuarantineEntry {
                experiment: "l1d".into(),
                platform: "haswell".into(),
                outcome: CellOutcome::Panicked,
                attempts: 1,
                error: "injected fault: env-panic at syscall 3".into(),
            },
            QuarantineEntry {
                experiment: "tlb".into(),
                platform: "sabre".into(),
                outcome: CellOutcome::Panicked,
                attempts: 1,
                error: "assertion `left == right` failed\n  left: 1\r\n\t\"right\": 2\u{1}".into(),
            },
        ];
        let s = quarantine_json(&entries);
        assert!(s.contains("\"outcome\": \"panicked\""));
        assert!(s.contains("\"attempts\": 1"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        // One line per entry plus the brackets: no raw control character
        // survives, so the file is valid JSON.
        assert_eq!(s.lines().count(), entries.len() + 2, "{s}");
        assert!(
            s.contains(r#"failed\n  left: 1\r\n\t\"right\": 2\u0001""#),
            "{s}"
        );
        assert!(!s.chars().any(|c| c.is_control() && c != '\n'), "{s}");
    }
}
