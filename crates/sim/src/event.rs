//! Deterministic future-event list.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with ties broken by
//! insertion order, so two events scheduled for the same instant always fire
//! in the order they were scheduled. This is the property that makes whole
//! simulation runs reproducible bit-for-bit from a seed.
//!
//! Events can be cancelled by the [`ScheduledId`] returned at scheduling time
//! (lazy deletion: cancelled entries are skipped on pop), which the
//! orchestrator uses to retract slice-expiry timers when a slice is
//! terminated early or its duration is renegotiated.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledId(u64);

/// An event popped from the queue: when it fires and what it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEntry<E> {
    /// The instant the event fires.
    pub at: SimTime,
    /// Cancellation handle (already spent once the entry is popped).
    pub id: ScheduledId,
    /// The event payload.
    pub payload: E,
}

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to get earliest-first, and break
        // ties by ascending sequence number (earlier scheduling first).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Future-event list with deterministic tie-breaking and O(log n) operations.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    /// Sequence numbers of events still pending (not fired, not cancelled).
    live: HashSet<u64>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    /// Latest time ever popped; used to reject scheduling into the past.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the last popped event: a discrete-event
    /// simulation must never schedule into its own past.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> ScheduledId {
        assert!(
            at >= self.watermark,
            "cannot schedule at {at:?}: time already advanced to {:?}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(HeapEntry { at, seq, payload });
        ScheduledId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now guaranteed not to fire), `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, id: ScheduledId) -> bool {
        if !self.live.remove(&id.0) {
            return false; // never scheduled, already fired, or already cancelled
        }
        self.cancelled.insert(id.0);
        true
    }

    /// Pop the earliest pending event, advancing the queue's watermark.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue; // lazily dropped
            }
            self.live.remove(&entry.seq);
            self.watermark = entry.at;
            return Some(EventEntry {
                at: entry.at,
                id: ScheduledId(entry.seq),
                payload: entry.payload,
            });
        }
        None
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Purge cancelled heads so the answer reflects a live event.
        while let Some(head) = self.heap.peek() {
            if self.cancelled.contains(&head.seq) {
                let seq = head.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(head.at);
            }
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest instant ever popped (the queue's notion of "now").
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Live pending entries as `(at, seq, &payload)`, sorted by sequence
    /// number. Cancelled entries are omitted: they are semantically deleted,
    /// only their lazy heap slots remain.
    fn live_entries(&self) -> Vec<(SimTime, u64, &E)> {
        let mut entries: Vec<(SimTime, u64, &E)> = self
            .heap
            .iter()
            .filter(|h| !self.cancelled.contains(&h.seq))
            .map(|h| (h.at, h.seq, &h.payload))
            .collect();
        entries.sort_by_key(|&(_, seq, _)| seq);
        entries
    }
}

impl<E: PartialEq> PartialEq for EventQueue<E> {
    fn eq(&self, other: &Self) -> bool {
        self.next_seq == other.next_seq
            && self.watermark == other.watermark
            && self.live_entries() == other.live_entries()
    }
}

/// Serialized form of an [`EventQueue`]: live entries plus the counters that
/// keep tie-breaking and the no-scheduling-into-the-past check intact.
#[derive(Serialize, Deserialize)]
struct QueueState<E> {
    next_seq: u64,
    watermark: SimTime,
    entries: Vec<(SimTime, u64, E)>,
}

impl<E: Serialize> Serialize for EventQueue<E> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let state = QueueState {
            next_seq: self.next_seq,
            watermark: self.watermark,
            entries: self.live_entries(),
        };
        state.serialize(serializer)
    }
}

impl<'de, E: Deserialize<'de>> Deserialize<'de> for EventQueue<E> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let state = QueueState::<E>::deserialize(deserializer)?;
        let mut queue = EventQueue::new();
        for (at, seq, payload) in state.entries {
            queue.live.insert(seq);
            queue.heap.push(HeapEntry { at, seq, payload });
        }
        queue.next_seq = state.next_seq;
        queue.watermark = state.watermark;
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut q = EventQueue::new();
        let keep = q.schedule(t(1), "keep");
        let drop_id = q.schedule(t(1), "drop");
        assert!(q.cancel(drop_id));
        assert!(!q.cancel(drop_id), "second cancel is a no-op");
        let fired: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(fired, vec!["keep"]);
        assert!(!q.cancel(keep), "already fired");
    }

    #[test]
    fn cancel_of_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(ScheduledId(99)));
    }

    #[test]
    fn peek_time_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let early = q.schedule(t(1), "early");
        q.schedule(t(2), "late");
        q.cancel(early);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.pop();
        q.schedule(t(4), ());
    }

    #[test]
    fn scheduling_at_watermark_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        q.pop();
        q.schedule(t(5), 2); // same instant as "now" is legal
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn serde_round_trip_preserves_order_watermark_and_guard() {
        let mut q = EventQueue::new();
        q.schedule(t(1), "fires-first");
        let dead = q.schedule(t(2), "cancelled");
        q.schedule(t(2), "tie-a");
        q.schedule(t(2), "tie-b");
        q.cancel(dead);
        q.pop(); // watermark now t(1)

        let json = serde_json::to_string(&q).unwrap();
        let mut back: EventQueue<&str> = serde_json::from_str(&json).unwrap();
        assert!(back == q, "round trip preserves the live entries and counters");

        // Tie-break order survives, the cancelled entry is gone for good...
        let fired: Vec<&str> = std::iter::from_fn(|| back.pop()).map(|e| e.payload).collect();
        assert_eq!(fired, vec!["tie-a", "tie-b"]);
        // ...the sequence counter does not restart (fresh ids stay unique)...
        let id = back.schedule(t(9), "later");
        assert!(!q.cancel(id), "restored ids must not collide with spent ones");
        // ...and the watermark still rejects scheduling into the past.
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut fresh: EventQueue<&str> = serde_json::from_str(&json).unwrap();
            fresh.schedule(SimTime::ZERO, "too-early");
        }));
        assert!(past.is_err(), "restored watermark must still guard the past");
    }

    #[test]
    fn watermark_tracks_progress() {
        let mut q = EventQueue::new();
        assert_eq!(q.watermark(), SimTime::ZERO);
        q.schedule(t(1) + SimDuration::from_millis(500), ());
        q.pop();
        assert_eq!(q.watermark().as_millis(), 1_500);
    }
}
