//! The bounded flight-recorder ring buffer.
//!
//! Keeps the last `capacity` trace events; older ones are overwritten and
//! counted, never reallocated past the cap. Analogous to an aircraft
//! flight recorder: always cheap to keep on, and the recent past is what
//! a post-mortem needs.

use std::collections::VecDeque;

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// Default number of events retained (per thread-local recorder).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A bounded ring of [`TraceEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    overwritten: u64,
}

impl FlightRecorder {
    /// Creates a ring holding at most `capacity` events (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            overwritten: 0,
        }
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to make room since creation / last clear.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The retention cap.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops all retained events and resets the eviction counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.overwritten = 0;
    }

    /// Appends `event`, evicting the oldest one when the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.overwritten += 1;
        }
        self.buf.push_back(event);
    }

    /// Copies out the retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            event: Event {
                seq,
                trace: 1,
                span: 0,
                parent: 0,
                at_us: 0,
            },
            kind: EventKind::ScriptRun {
                fuel_used: seq,
                host_calls: 0,
            },
        }
    }

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let mut ring = FlightRecorder::with_capacity(3);
        for seq in 0..5 {
            ring.record(&ev(seq));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 2);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|t| t.event.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn clear_resets_contents_and_counter() {
        let mut ring = FlightRecorder::with_capacity(2);
        ring.record(&ev(0));
        ring.record(&ev(1));
        ring.record(&ev(2));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.overwritten(), 0);
        assert_eq!(ring.capacity(), 2);
    }
}
