//! Scheduler ready queues.
//!
//! seL4's scheduler keeps an array of per-priority ready-queue head
//! pointers plus a bitmap used to find the highest-priority thread in
//! constant time — these two structures are the first items of the §4.1
//! shared-data list (they remain shared between all kernel images). Here
//! each `(core, domain)` pair owns one [`ReadyQueues`] instance; the
//! *shared* nature of the hardware-visible structure is modelled by the
//! kernel's cache footprint touching the shared-data region on scheduling
//! operations.

use crate::objects::TcbId;
use std::collections::VecDeque;

/// Number of priorities, matching seL4.
pub const NUM_PRIOS: usize = 256;

/// Per-priority ready queues with a constant-time highest-priority lookup
/// bitmap. A queue exists only for a priority that has held a thread
/// (kept in ascending priority order), so every `(core, domain)` of a
/// large fleet costs a few words rather than `NUM_PRIOS` queues.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueues {
    queues: Vec<(u8, VecDeque<TcbId>)>,
    bitmap: [u64; NUM_PRIOS / 64],
}

impl ReadyQueues {
    /// Create empty queues.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The queue of priority `prio`, created empty on first use.
    fn queue_mut(&mut self, prio: u8) -> &mut VecDeque<TcbId> {
        let i = match self.queues.binary_search_by_key(&prio, |(p, _)| *p) {
            Ok(i) => i,
            Err(i) => {
                self.queues.insert(i, (prio, VecDeque::new()));
                i
            }
        };
        &mut self.queues[i].1
    }

    fn mark(&mut self, prio: u8, ready: bool) {
        let p = prio as usize;
        if ready {
            self.bitmap[p / 64] |= 1u64 << (p % 64);
        } else {
            self.bitmap[p / 64] &= !(1u64 << (p % 64));
        }
    }

    /// Enqueue a thread at the tail of its priority queue (round-robin).
    pub fn enqueue(&mut self, prio: u8, t: TcbId) {
        self.queue_mut(prio).push_back(t);
        self.mark(prio, true);
    }

    /// Enqueue at the head (used when a thread is preempted mid-operation
    /// and must resume first).
    pub fn enqueue_front(&mut self, prio: u8, t: TcbId) {
        self.queue_mut(prio).push_front(t);
        self.mark(prio, true);
    }

    /// Highest ready priority, if any (constant-time via the bitmap).
    #[must_use]
    pub fn highest(&self) -> Option<u8> {
        for w in (0..self.bitmap.len()).rev() {
            if self.bitmap[w] != 0 {
                let bit = 63 - self.bitmap[w].leading_zeros() as usize;
                return Some((w * 64 + bit) as u8);
            }
        }
        None
    }

    /// Dequeue the highest-priority thread.
    pub fn dequeue(&mut self) -> Option<TcbId> {
        let p = self.highest()?;
        let q = self.queue_mut(p);
        let t = q.pop_front();
        if q.is_empty() {
            self.mark(p, false);
        }
        t
    }

    /// Remove a specific thread (e.g. on destruction or suspension).
    pub fn remove(&mut self, prio: u8, t: TcbId) -> bool {
        let Ok(i) = self.queues.binary_search_by_key(&prio, |(p, _)| *p) else {
            return false;
        };
        let q = &mut self.queues[i].1;
        let before = q.len();
        q.retain(|&x| x != t);
        let removed = q.len() != before;
        if q.is_empty() {
            self.mark(prio, false);
        }
        removed
    }

    /// Whether no thread is ready.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bitmap.iter().all(|&w| w == 0)
    }

    /// Total ready threads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.len()).sum()
    }

    /// Iterate over the non-empty priority queues in ascending priority
    /// order, yielding `(priority, queued threads front-to-back)`. This is
    /// the canonical order used by `Kernel::state_hash`.
    pub fn iter(&self) -> impl Iterator<Item = (u8, impl Iterator<Item = TcbId> + '_)> + '_ {
        self.queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(p, q)| (*p, q.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_priority_wins() {
        let mut q = ReadyQueues::new();
        q.enqueue(10, TcbId(1));
        q.enqueue(200, TcbId(2));
        q.enqueue(10, TcbId(3));
        assert_eq!(q.highest(), Some(200));
        assert_eq!(q.dequeue(), Some(TcbId(2)));
        assert_eq!(q.dequeue(), Some(TcbId(1)));
        assert_eq!(q.dequeue(), Some(TcbId(3)));
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn round_robin_within_priority() {
        let mut q = ReadyQueues::new();
        q.enqueue(5, TcbId(1));
        q.enqueue(5, TcbId(2));
        let first = q.dequeue().unwrap();
        q.enqueue(5, first);
        assert_eq!(q.dequeue(), Some(TcbId(2)), "rotation must be fair");
    }

    #[test]
    fn enqueue_front_preempts_rotation() {
        let mut q = ReadyQueues::new();
        q.enqueue(5, TcbId(1));
        q.enqueue_front(5, TcbId(2));
        assert_eq!(q.dequeue(), Some(TcbId(2)));
    }

    #[test]
    fn remove_clears_bitmap() {
        let mut q = ReadyQueues::new();
        q.enqueue(7, TcbId(1));
        assert!(q.remove(7, TcbId(1)));
        assert!(q.is_empty());
        assert_eq!(q.highest(), None);
        assert!(!q.remove(7, TcbId(1)));
    }

    #[test]
    fn iter_is_ascending_and_skips_emptied_queues() {
        let mut q = ReadyQueues::new();
        q.enqueue(200, TcbId(1));
        q.enqueue(10, TcbId(2));
        q.enqueue(50, TcbId(3));
        q.enqueue(10, TcbId(4));
        assert_eq!(q.dequeue(), Some(TcbId(1)));
        let seen: Vec<(u8, Vec<TcbId>)> = q.iter().map(|(p, ts)| (p, ts.collect())).collect();
        assert_eq!(seen, [(10, vec![TcbId(2), TcbId(4)]), (50, vec![TcbId(3)])]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn bitmap_boundaries() {
        let mut q = ReadyQueues::new();
        for p in [0u8, 63, 64, 127, 128, 191, 192, 255] {
            q.enqueue(p, TcbId(p as usize));
        }
        assert_eq!(q.highest(), Some(255));
        for expect in [255u8, 192, 191, 128, 127, 64, 63, 0] {
            assert_eq!(q.dequeue(), Some(TcbId(expect as usize)));
        }
    }
}
