//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, its start and end (nanoseconds since the first
//! span of the process), its parent and its id. Spans stay in memory until
//! [`take`] hands them to the ledger and the JSON-lines writer at exit.
//! With tracing off, [`span`] calls straight through and records nothing.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Identifies a recorded span; [`SpanId::ROOT`] stands for "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The parent of a top-level span.
    pub const ROOT: SpanId = SpanId(0);
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0.
    pub parent: u64,
    /// The layer call this span surrounds.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Start recording spans for the rest of the process.
pub fn enable() {
    now_ns();
    ON.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` under `parent`. `f` receives the
/// new span's id so calls it makes (on any thread) can nest under it.
pub fn span<R>(name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f(SpanId::ROOT);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let r = f(SpanId(id));
    let end_ns = now_ns();
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent: parent.0,
        name,
        start_ns,
        end_ns,
    });
    r
}

/// Remove and return every span recorded so far, ordered by start.
#[must_use]
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Total length of the union of half-open intervals.
#[must_use]
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover. Indexed like `spans`.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|p| {
            let covered = union_ns(
                spans
                    .iter()
                    .filter(|c| c.parent == p.id)
                    .map(|c| (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns)))
                    .filter(|(s, e)| s < e)
                    .collect(),
            );
            p.dur_ns() - covered
        })
        .collect()
}

/// Write the spans as JSON lines, each tagged with `run`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_jsonl(path: &Path, run: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"run\": \"{run}\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(20, 25), (0, 10), (10, 12)]), 17);
    }

    /// Spans recorded across threads nest inside their parents, so no
    /// self time can come out negative (which would underflow here).
    #[test]
    fn spans_nest_and_self_times_are_non_negative() {
        enable();
        span("root", SpanId::ROOT, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || {
                        span("cell", root, |cell| {
                            span("leaf", cell, |_| {
                                std::hint::black_box((0..1000).sum::<u64>())
                            });
                            span("leaf", cell, |_| ());
                        });
                    });
                }
            });
        });
        let spans = take();
        assert_eq!(spans.len(), 7);
        for c in &spans {
            assert!(c.start_ns <= c.end_ns);
            if c.parent != 0 {
                let p = spans.iter().find(|p| p.id == c.parent).expect("parent");
                assert!(
                    p.start_ns <= c.start_ns && c.end_ns <= p.end_ns,
                    "{c:?} in {p:?}"
                );
            }
        }
        let selfs = self_times_ns(&spans);
        for (s, t) in spans.iter().zip(&selfs) {
            assert!(*t <= s.dur_ns());
        }
        // Leaves have no children: self time is the whole duration.
        for (s, t) in spans.iter().zip(&selfs) {
            if s.name == "leaf" {
                assert_eq!(*t, s.dur_ns());
            }
        }
    }
}
