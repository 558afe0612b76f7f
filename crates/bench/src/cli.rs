//! Shared command-line parsing for the tp-bench binaries.
//!
//! The `reproduce_all`, `chaos` and `replay` binaries share this module:
//! an argument stream with value-taking flags, number parsing, the
//! `--platform` and `--seed` flags `replay` takes (through [`Common`]),
//! and one exit-code convention: a bad flag is reported on stderr and the
//! process exits with status 2.
//!
//! The parsing core is pure (`Result`-returning, fed from any iterator of
//! strings) so it is unit-testable; only [`parse_or_exit`] touches the
//! process.

use std::collections::VecDeque;
use tp_sim::Platform;

/// A stream of command-line arguments with flag-value helpers.
pub struct ArgStream {
    args: VecDeque<String>,
}

impl ArgStream {
    /// The process's arguments, program name stripped.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// A stream over explicit arguments (tests).
    pub fn new(args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        ArgStream {
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// The next argument, if any.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<String> {
        self.args.pop_front()
    }

    /// The value of a flag that requires one.
    ///
    /// # Errors
    /// When the stream is exhausted.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }
}

/// Parse an unsigned integer flag value.
///
/// # Errors
/// When `s` is not a `u64`.
pub fn parse_u64(flag: &str, s: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{flag} needs a number, got {s:?}"))
}

/// Parse a `--platform` value: `all`, or a comma-separated list of
/// registered platform keys.
///
/// # Errors
/// When a key is not in the platform registry.
pub fn platform_list(spec: &str) -> Result<Vec<Platform>, String> {
    if spec == "all" {
        return Ok(Platform::ALL.to_vec());
    }
    spec.split(',')
        .map(|key| {
            Platform::from_key(key).ok_or_else(|| {
                let known: Vec<_> = Platform::ALL.iter().map(|p| p.key()).collect();
                format!("unknown platform {key:?}; known: {}, all", known.join(", "))
            })
        })
        .collect()
}

/// The flags shared across tp-bench binaries. Each binary enables the
/// subset it honours; [`Common::accept`] consumes an enabled flag and
/// leaves everything else to the binary's own match.
pub struct Common {
    /// Platforms selected by `--platform` (defaults to the full registry).
    pub platforms: Vec<Platform>,
    /// Whether `--platform` appeared explicitly.
    pub platforms_given: bool,
    /// Seed from `--seed` (present iff the binary enabled it).
    pub seed: Option<u64>,
    accept_seed: bool,
}

impl Common {
    /// Platform selection only.
    #[must_use]
    pub fn new() -> Self {
        Common {
            platforms: Platform::ALL.to_vec(),
            platforms_given: false,
            seed: None,
            accept_seed: false,
        }
    }

    /// Also honour `--seed`, with the given default.
    #[must_use]
    pub fn with_seed(mut self, default: u64) -> Self {
        self.seed = Some(default);
        self.accept_seed = true;
        self
    }

    /// Try to consume `flag` as one of the enabled common flags. Returns
    /// `Ok(true)` when consumed, `Ok(false)` when the flag is not ours.
    ///
    /// # Errors
    /// When the flag is ours but its value is missing or malformed.
    pub fn accept(&mut self, flag: &str, it: &mut ArgStream) -> Result<bool, String> {
        match flag {
            "--platform" => {
                let list = platform_list(&it.value("--platform")?)?;
                if self.platforms_given {
                    self.platforms.extend(list);
                } else {
                    self.platforms = list;
                    self.platforms_given = true;
                }
                Ok(true)
            }
            "--seed" if self.accept_seed => {
                self.seed = Some(parse_u64("--seed", &it.value("--seed")?)?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

impl Default for Common {
    fn default() -> Self {
        Self::new()
    }
}

/// Run a parse function; on error, report `bin: error` on stderr and exit
/// the process with status 2 (the shared bad-flag convention).
pub fn parse_or_exit<T>(bin: &str, parse: impl FnOnce() -> Result<T, String>) -> T {
    match parse() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_list_grammar() {
        assert_eq!(platform_list("all").unwrap(), Platform::ALL.to_vec());
        let two = platform_list("haswell,sabre").unwrap();
        assert_eq!(two.len(), 2);
        let err = platform_list("z80").unwrap_err();
        assert!(err.contains("unknown platform"), "{err}");
    }

    #[test]
    fn common_consumes_enabled_flags_only() {
        let mut it = ArgStream::new(["--platform", "haswell", "--seed", "7"]);
        let mut c = Common::new().with_seed(1);
        while let Some(flag) = it.next() {
            assert!(c.accept(&flag, &mut it).unwrap(), "{flag} not consumed");
        }
        assert!(c.platforms_given);
        assert_eq!(c.platforms.len(), 1);
        assert_eq!(c.seed, Some(7));

        // A binary that did not enable --seed leaves it to its own match.
        let mut it = ArgStream::new(["--seed", "7"]);
        let mut c = Common::new();
        assert!(!c.accept("--seed", &mut it).unwrap());
    }

    #[test]
    fn missing_values_are_errors() {
        let mut it = ArgStream::new(Vec::<String>::new());
        let mut c = Common::new().with_seed(0);
        assert!(c.accept("--platform", &mut it).is_err());
        assert!(parse_u64("--ops", "ten").is_err());
    }

    #[test]
    fn repeated_platform_flags_accumulate() {
        let mut it = ArgStream::new(["--platform", "haswell", "--platform", "sabre"]);
        let mut c = Common::new();
        while let Some(flag) = it.next() {
            assert!(c.accept(&flag, &mut it).unwrap());
        }
        assert_eq!(c.platforms.len(), 2);
    }
}
