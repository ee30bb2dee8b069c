//! A minimal discrete-event engine.
//!
//! The WiFi DCF simulation in `blu-wifi` is event-driven at µs
//! resolution (backoff expiries, frame ends, DIFS timers). This module
//! provides the classic calendar: a time-ordered queue with stable
//! FIFO tie-breaking so simultaneous events execute in schedule order,
//! keeping runs deterministic.

use crate::time::Micros;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: fire time, insertion sequence, payload.
struct Entry<E> {
    at: Micros,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behaviour on BinaryHeap (max-heap).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Micros,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Micros::ZERO,
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics if `at` is in the past — discrete-event time must not
    /// run backwards.
    pub fn schedule_at(&mut self, at: Micros, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedule `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Micros, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Micros, E)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.at >= self.now);
            self.now = e.at;
            (e.at, e.event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Micros(30), "c");
        q.schedule_at(Micros(10), "a");
        q.schedule_at(Micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(Micros(5), 1);
        q.schedule_at(Micros(5), 2);
        q.schedule_at(Micros(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(Micros(7), ());
        assert_eq!(q.now(), Micros::ZERO);
        q.pop();
        assert_eq!(q.now(), Micros(7));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Micros(10), "first");
        q.pop();
        q.schedule_in(Micros(5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Micros(15));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Micros(10), ());
        q.pop();
        q.schedule_at(Micros(5), ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(Micros(3), ());
        q.schedule_at(Micros(1), ());
        assert_eq!(q.len(), 2);
    }
}
