//! Prefetcher state machines.
//!
//! These are the villains of the paper's §5.3.2: on Haswell, the *data
//! prefetcher* retains stride-stream state across a domain switch because no
//! architected mechanism resets it short of `wbinvd` or disabling it via MSR
//! 0x1A4. The result is the residual ~50 mb protected-mode L2 channel in
//! Table 3, which shrinks (to ~6 mb) when the data prefetcher is disabled —
//! the remainder being attributed to the *instruction prefetcher*, which
//! cannot be disabled at all.
//!
//! The model: a table of stride streams trained by demand misses. Prefetches
//! fill the next lines of a stream into the L2 (helping sequential
//! workloads). After a domain switch the stale streams of the previous
//! domain *resume* on the first demand misses of the new domain, consuming
//! fill bandwidth proportional to the number of live trained streams — a
//! timing signature of the previous domain's working set.

use crate::FRAME_SIZE;

/// Number of lines a confident stream prefetches ahead.
pub const PREFETCH_DEGREE: u64 = 2;

/// Up to [`PREFETCH_DEGREE`] prefetch target lines, stored inline.
///
/// Returned by [`StreamPrefetcher::on_demand_miss`], which sits on the
/// simulator's per-access hot path — an inline buffer keeps the miss path
/// free of heap allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchLines {
    buf: [u64; PREFETCH_DEGREE as usize],
    len: usize,
}

impl PrefetchLines {
    /// Append a line address.
    ///
    /// # Panics
    /// Panics if already full ([`PREFETCH_DEGREE`] entries).
    pub fn push(&mut self, line_addr: u64) {
        self.buf[self.len] = line_addr;
        self.len += 1;
    }

    /// Number of prefetch targets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no prefetch targets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The prefetch target lines.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.buf[..self.len]
    }
}

impl<'a> IntoIterator for &'a PrefetchLines {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Confidence threshold before a stream issues prefetches.
const CONFIDENCE_THRESHOLD: u8 = 2;

/// How many resumed prefetches each stale stream issues after a domain
/// switch before the table is retrained.
const RESUME_PER_STREAM: u64 = 2;

#[derive(Debug, Clone, Copy)]
struct Stream {
    page: u64,
    last_line: i64,
    stride: i64,
    confidence: u8,
    stamp: u64,
    /// Furthest line (in stride direction) already prefetched, so a
    /// confident stream does not re-issue fills for targets it covered on
    /// the previous miss — real prefetchers track outstanding requests the
    /// same way, and on a monotone sweep this halves the fill traffic.
    last_pf: i64,
}

/// A stride-detecting stream data prefetcher.
///
/// The stream table is direct-mapped by page number (as hardware stream
/// tables are hash-indexed): lookup and allocation are O(1) on the miss
/// path, and a page whose slot is taken simply retrains the slot.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    entries: Vec<Option<Stream>>,
    capacity: usize,
    enabled: bool,
    clock: u64,
    /// Budget of stale-stream resumptions outstanding since the last
    /// domain switch (see [`StreamPrefetcher::note_domain_switch`]).
    resume_budget: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Create a prefetcher with `capacity` stream entries. A capacity of 0
    /// disables prefetching entirely (the Sabre model).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        StreamPrefetcher {
            entries: vec![None; capacity],
            capacity,
            enabled: capacity > 0,
            clock: 0,
            resume_budget: 0,
            issued: 0,
        }
    }

    /// Enable or disable the prefetcher (MSR 0x1A4 on Intel; §5.2's full
    /// flush scenario disables it). Disabling clears all stream state.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled && self.capacity > 0;
        if !self.enabled {
            self.entries.fill(None);
            self.resume_budget = 0;
        }
    }

    /// Reset all stream state (part of a full hierarchy flush).
    pub fn reset(&mut self) {
        self.entries.fill(None);
        self.resume_budget = 0;
    }

    /// Number of streams trained to confidence.
    #[must_use]
    pub fn trained_streams(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .filter(|s| s.confidence >= CONFIDENCE_THRESHOLD)
            .count()
    }

    /// Total prefetch lines issued (for statistics).
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Inform the prefetcher that the OS switched security domains.
    ///
    /// The hardware has no such notion — this models the *consequence*: the
    /// stale streams trained by the previous domain will fire their
    /// resumption prefetches against the new domain's first demand misses.
    pub fn note_domain_switch(&mut self) {
        self.resume_budget = self.trained_streams() as u64 * RESUME_PER_STREAM;
    }

    /// Record a demand miss for `paddr`. Returns
    /// `(prefetch_lines, resumed)`: line addresses to fill into the L2, and
    /// the number of stale-stream resumption prefetches that fired (each of
    /// which costs the demand miss fill bandwidth).
    pub fn on_demand_miss(&mut self, paddr: u64, line_size: u64) -> (PrefetchLines, u64) {
        if !self.enabled {
            return (PrefetchLines::default(), 0);
        }
        self.clock += 1;
        let clock = self.clock;
        let page = paddr / FRAME_SIZE;
        let line = ((paddr % FRAME_SIZE) / line_size) as i64;
        let lines_per_page = (FRAME_SIZE / line_size) as i64;

        // Stale-stream resumption: consume budget on this miss.
        let resumed = self.resume_budget.min(RESUME_PER_STREAM);
        self.resume_budget -= resumed;

        let mut prefetches = PrefetchLines::default();
        let slot = (page % self.capacity as u64) as usize;
        match &mut self.entries[slot] {
            Some(s) if s.page == page => {
                let stride = line - s.last_line;
                if stride != 0 && stride == s.stride {
                    s.confidence = (s.confidence + 1).min(4);
                } else if stride != 0 {
                    // Direction/stride change: restart the covered-target
                    // watermark from the current position.
                    s.stride = stride;
                    s.confidence = 1;
                    s.last_pf = line;
                }
                s.last_line = line;
                s.stamp = clock;
                if s.confidence >= CONFIDENCE_THRESHOLD {
                    for k in 1..=PREFETCH_DEGREE as i64 {
                        let next = line + s.stride * k;
                        let fresh = if s.stride > 0 {
                            next > s.last_pf
                        } else {
                            next < s.last_pf
                        };
                        if fresh && (0..lines_per_page).contains(&next) {
                            prefetches.push(page * (FRAME_SIZE / line_size) + next as u64);
                            s.last_pf = next;
                            self.issued += 1;
                        }
                    }
                }
            }
            e => {
                // Allocate (or retrain a colliding slot).
                *e = Some(Stream {
                    page,
                    last_line: line,
                    stride: 0,
                    confidence: 0,
                    stamp: clock,
                    last_pf: line,
                });
            }
        }
        (prefetches, resumed)
    }
}

/// Next-line instruction prefetcher.
///
/// Unlike the data prefetcher it cannot be disabled — the paper attributes
/// the final, unclosable few-millibit residue of the x86 L2 channel to it.
#[derive(Debug, Clone)]
pub struct InsnPrefetcher {
    last_line: Option<u64>,
    /// Stale fetch-region state pending after a domain switch.
    resume_budget: u64,
}

impl InsnPrefetcher {
    /// Create an instruction prefetcher with no history.
    #[must_use]
    pub fn new() -> Self {
        InsnPrefetcher {
            last_line: None,
            resume_budget: 0,
        }
    }

    /// Note a domain switch: a small amount of stale fetch-region state
    /// remains live.
    pub fn note_domain_switch(&mut self) {
        self.resume_budget = if self.last_line.is_some() { 2 } else { 0 };
    }

    /// Record an instruction-fetch miss of line `line_addr`.
    /// Returns `(next_line_prefetch, resumed)`.
    pub fn on_fetch_miss(&mut self, line_addr: u64) -> (Option<u64>, u64) {
        let sequential = self.last_line == Some(line_addr.wrapping_sub(1));
        self.last_line = Some(line_addr);
        let resumed = self.resume_budget.min(1);
        self.resume_budget -= resumed;
        let pf = if sequential {
            Some(line_addr + 1)
        } else {
            None
        };
        (pf, resumed)
    }

    /// Reset state (full flush only).
    pub fn reset(&mut self) {
        self.last_line = None;
        self.resume_budget = 0;
    }
}

impl Default for InsnPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_stream_trains_and_prefetches() {
        let mut p = StreamPrefetcher::new(16);
        let line = 64;
        // Sequential misses within one page.
        let (pf, _) = p.on_demand_miss(0x1000, line);
        assert!(pf.is_empty(), "untrained stream must not prefetch");
        let (pf, _) = p.on_demand_miss(0x1000 + 64, line);
        assert!(pf.is_empty(), "confidence 1 is below threshold");
        let (pf, _) = p.on_demand_miss(0x1000 + 128, line);
        assert_eq!(pf.len() as u64, PREFETCH_DEGREE);
        assert_eq!(p.trained_streams(), 1);
    }

    #[test]
    fn prefetch_stays_within_page() {
        let mut p = StreamPrefetcher::new(16);
        let line = 64;
        let last = 0x1000 + 4096 - 64;
        p.on_demand_miss(last - 128, line);
        p.on_demand_miss(last - 64, line);
        let (pf, _) = p.on_demand_miss(last, line);
        assert!(pf.is_empty(), "no prefetch beyond the page boundary");
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut p = StreamPrefetcher::new(4);
        for page in 0..32u64 {
            // Two misses per page to create entries.
            p.on_demand_miss(page * 4096, 64);
            p.on_demand_miss(page * 4096 + 64, 64);
        }
        assert!(p.trained_streams() <= 4);
    }

    #[test]
    fn stale_streams_resume_after_domain_switch() {
        let mut p = StreamPrefetcher::new(16);
        // Train 3 streams.
        for page in 0..3u64 {
            for l in 0..3u64 {
                p.on_demand_miss(page * 4096 + l * 64, 64);
            }
        }
        assert_eq!(p.trained_streams(), 3);
        p.note_domain_switch();
        // The receiver's first misses pay for the stale streams.
        let mut resumed_total = 0;
        for l in 0..8u64 {
            let (_, r) = p.on_demand_miss(0x100_0000 + l * 4096, 64);
            resumed_total += r;
        }
        assert_eq!(resumed_total, 6, "2 resumptions per trained stream");
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let mut p = StreamPrefetcher::new(16);
        for l in 0..4u64 {
            p.on_demand_miss(l * 64, 64);
        }
        p.set_enabled(false);
        p.note_domain_switch();
        let (pf, resumed) = p.on_demand_miss(0x9000, 64);
        assert!(pf.is_empty());
        assert_eq!(resumed, 0);
        assert_eq!(p.trained_streams(), 0);
    }

    #[test]
    fn insn_prefetcher_next_line() {
        let mut p = InsnPrefetcher::new();
        assert_eq!(p.on_fetch_miss(100).0, None);
        assert_eq!(p.on_fetch_miss(101).0, Some(102));
        assert_eq!(p.on_fetch_miss(200).0, None);
    }

    #[test]
    fn insn_prefetcher_resumes_once() {
        let mut p = InsnPrefetcher::new();
        p.on_fetch_miss(100);
        p.note_domain_switch();
        let (_, r1) = p.on_fetch_miss(500);
        let (_, r2) = p.on_fetch_miss(600);
        let (_, r3) = p.on_fetch_miss(700);
        assert_eq!(r1 + r2 + r3, 2);
    }
}
