//! Deterministic fault injection for testing the cell supervisor.
//!
//! A [`FaultPlan`] names one fault class (and optionally the single
//! experiment×platform cell it applies to). Faults are **deterministic**: a
//! fault point is an interaction ordinal in the simulated event stream,
//! never a wall-clock instant, so a faulted run with the same plan and
//! seed reproduces bit-for-bit.
//!
//! Plans travel to a cell through a thread-local rather than a global: the
//! supervisor arms the plan with [`arm`] for one attempt on the thread
//! running it, and [`SystemBuilder::run`](crate::SystemBuilder) reads it
//! when each of the cell's systems boots. Cells on other threads (and parallel
//! `cargo test` threads) therefore never see each other's faults.
//!
//! The `TP_FAULT` environment knob is the CLI spelling of a plan — grammar
//! in [`FaultPlan::parse`]:
//!
//! ```text
//! TP_FAULT=env-panic@120
//! TP_FAULT=env-stall@2:cell=tlb/haswell
//! ```

use std::fmt;
use std::time::Instant;

/// One injectable fault class, with its deterministic trigger point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The simulated environment panics on its `at`-th syscall (counted
    /// under the engine lock, so the count is schedule-deterministic).
    EnvPanic {
        /// 1-based syscall ordinal at which the panic fires.
        at: u64,
    },
    /// The simulated environment stops yielding after its `at`-th syscall:
    /// it holds the driver thread forever, exercising the engine watchdog.
    EnvStall {
        /// 1-based syscall ordinal after which the environment hangs.
        at: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::EnvPanic { at } => write!(f, "env-panic@{at}"),
            FaultKind::EnvStall { at } => write!(f, "env-stall@{at}"),
        }
    }
}

/// A fault to inject, optionally scoped to one campaign cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault class and trigger point.
    pub kind: FaultKind,
    /// `Some((experiment, platform))` scopes the fault to that one cell;
    /// `None` applies it to every cell.
    pub cell: Option<(String, String)>,
}

impl FaultPlan {
    /// A plan for `kind` applying to every cell.
    #[must_use]
    pub fn new(kind: FaultKind) -> Self {
        FaultPlan { kind, cell: None }
    }

    /// Parse the `TP_FAULT` grammar:
    ///
    /// ```text
    /// plan  := class [ "@" N ] [ ":cell=" experiment "/" platform ]
    /// class := "env-panic" | "env-stall"
    /// ```
    ///
    /// `@N` sets the 1-based interaction ordinal of the trigger point and
    /// defaults to 3.
    ///
    /// # Errors
    /// Returns a human-readable message for an unknown class, a malformed
    /// or zero trigger point, or a malformed cell scope.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let (head, cell) = match spec.split_once(":cell=") {
            Some((head, cell_spec)) => {
                let (exp, plat) = cell_spec.split_once('/').ok_or_else(|| {
                    format!("cell scope `{cell_spec}` is not experiment/platform")
                })?;
                if exp.is_empty() || plat.is_empty() {
                    return Err(format!("cell scope `{cell_spec}` has an empty component"));
                }
                (head, Some((exp.to_string(), plat.to_string())))
            }
            None => (spec, None),
        };
        let (class, at) = match head.split_once('@') {
            Some((class, n)) => {
                let at = n.parse::<u64>().ok().filter(|&at| at > 0).ok_or_else(|| {
                    format!("trigger point `{n}` is not a positive integer (ordinals count from 1)")
                })?;
                (class, Some(at))
            }
            None => (head, None),
        };
        let kind = match class {
            "env-panic" => FaultKind::EnvPanic {
                at: at.unwrap_or(3),
            },
            "env-stall" => FaultKind::EnvStall {
                at: at.unwrap_or(3),
            },
            other => {
                return Err(format!(
                    "unknown fault class `{other}` (expected env-panic or env-stall)"
                ))
            }
        };
        Ok(FaultPlan { kind, cell })
    }

    /// The plan from `TP_FAULT`, if set. `Ok(None)` when the knob is unset
    /// or empty.
    ///
    /// # Errors
    /// Propagates [`FaultPlan::parse`] errors, prefixed with the knob name.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("TP_FAULT") {
            Ok(s) if !s.trim().is_empty() => Self::parse(&s)
                .map(Some)
                .map_err(|e| format!("TP_FAULT: {e}")),
            _ => Ok(None),
        }
    }

    /// Whether this plan applies to the cell `experiment` × `platform`.
    #[must_use]
    pub fn matches(&self, experiment: &str, platform: &str) -> bool {
        match &self.cell {
            None => true,
            Some((e, p)) => e == experiment && p == platform,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some((e, p)) = &self.cell {
            write!(f, ":cell={e}/{p}")?;
        }
        Ok(())
    }
}

thread_local! {
    /// The fault armed for the next system boot on this thread.
    static ARMED: std::cell::Cell<Option<FaultKind>> = const { std::cell::Cell::new(None) };
    /// The wall-clock deadline armed for the next system run on this thread.
    static DEADLINE: std::cell::Cell<Option<Instant>> = const { std::cell::Cell::new(None) };
}

/// Arm (or with `None`, disarm) a fault for systems subsequently built on
/// *this thread*. The supervisor arms it for one attempt on the thread
/// running it; [`SystemBuilder::run`](crate::SystemBuilder) reads it at boot.
pub fn arm(kind: Option<FaultKind>) {
    ARMED.with(|c| c.set(kind));
}

/// The fault currently armed on this thread, if any.
#[must_use]
pub fn armed() -> Option<FaultKind> {
    ARMED.with(std::cell::Cell::get)
}

/// Arm (or with `None`, disarm) a wall-clock deadline for systems
/// subsequently run on this thread. When set, the engine's watchdog aborts
/// the simulation once the deadline passes instead of hanging.
pub fn set_deadline(deadline: Option<Instant>) {
    DEADLINE.with(|c| c.set(deadline));
}

/// The deadline currently armed on this thread, if any.
#[must_use]
pub fn deadline() -> Option<Instant> {
    DEADLINE.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_class_with_and_without_trigger() {
        assert_eq!(
            FaultPlan::parse("env-panic@120").unwrap().kind,
            FaultKind::EnvPanic { at: 120 }
        );
        assert_eq!(
            FaultPlan::parse("env-stall").unwrap().kind,
            FaultKind::EnvStall { at: 3 }
        );
        assert_eq!(
            FaultPlan::parse("env-panic").unwrap().kind,
            FaultKind::EnvPanic { at: 3 }
        );
        assert_eq!(
            FaultPlan::parse("env-stall@7").unwrap().kind,
            FaultKind::EnvStall { at: 7 }
        );
    }

    #[test]
    fn parses_cell_scope_and_matches() {
        let p = FaultPlan::parse("env-panic@5:cell=flush/haswell").unwrap();
        assert_eq!(p.cell, Some(("flush".to_string(), "haswell".to_string())));
        assert!(p.matches("flush", "haswell"));
        assert!(!p.matches("flush", "sabre"));
        assert!(!p.matches("bus", "haswell"));
        let unscoped = FaultPlan::parse("env-panic").unwrap();
        assert!(unscoped.matches("anything", "anywhere"));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("frob").is_err());
        assert!(FaultPlan::parse("env-panic@lots").is_err());
        assert!(FaultPlan::parse("env-panic:cell=flush").is_err());
        assert!(FaultPlan::parse("env-panic:cell=/haswell").is_err());
        // Trigger points are 1-based, so `@0` would fire at 1 while the
        // plan prints `@0`.
        for zero in ["env-panic@0", "env-stall@0:cell=tlb/haswell"] {
            let err = FaultPlan::parse(zero).unwrap_err();
            assert!(err.contains("`0`"), "{err}");
        }
        // The retired classes are unknown, and the error names the two
        // that remain.
        for retired in [
            "commit-flip@17",
            "noise-poison@64",
            "snapshot-corrupt",
            "stack-overflow",
        ] {
            let err = FaultPlan::parse(retired).unwrap_err();
            assert!(err.starts_with("unknown fault class"), "{err}");
            for class in ["env-panic", "env-stall"] {
                assert!(err.contains(class), "{err}");
            }
        }
    }

    /// Environments are futures with no stacks, so there is no
    /// `stack-overflow` class: a plan naming it, with or without a trigger
    /// point, is an unknown class.
    #[test]
    fn stack_overflow_class_is_rejected() {
        for spec in ["stack-overflow", "stack-overflow@3"] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.contains("unknown fault class `stack-overflow`"),
                "{err}"
            );
        }
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for spec in [
            "env-panic@3",
            "env-stall@7",
            "env-panic@5:cell=flush/haswell",
        ] {
            let p = FaultPlan::parse(spec).unwrap();
            assert_eq!(p.to_string(), spec);
            assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
        }
    }

    #[test]
    fn thread_local_arming_is_per_thread() {
        arm(Some(FaultKind::EnvStall { at: 2 }));
        assert_eq!(armed(), Some(FaultKind::EnvStall { at: 2 }));
        let other = std::thread::spawn(armed).join().unwrap();
        assert_eq!(other, None, "arming must not leak across threads");
        arm(None);
        assert_eq!(armed(), None);
    }
}
