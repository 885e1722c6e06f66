//! Spans and instants on the modeled clock.
//!
//! # Span taxonomy
//!
//! Every event carries an ordering key `(tick, job, step)` and a
//! modeled timestamp `ts_ns` (plus `dur_ns` for spans). The key — not
//! the timestamp, and never wall clock — is the collector's sort
//! order, which is what keeps a recorded trace byte-identical across
//! shard counts and vm/bender backends:
//!
//! | key                | event                | emitted by        |
//! |--------------------|----------------------|-------------------|
//! | `(t, 0, 0)`        | `tick` span          | daemon tick loop  |
//! | `(t, 0, 1)`        | `ingest` instant     | daemon tick loop  |
//! | `(t, 0, 2)`        | `batch` span         | sched executor    |
//! | `(t, 0, 3)`        | `snapshot` instant   | daemon health     |
//! | `(t, 0, 50+k)`     | fault instants       | sched executor    |
//! | `(t, 1+j, 0)`      | job span             | sched executor    |
//! | `(t, 1+j, 1+i)`    | step spans           | engine observer   |
//!
//! Standalone (non-daemon) batches use `tick = 0`.

/// Whether an event is a duration span or a point instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span with a duration (`ph: "X"` in Chrome terms).
    Span,
    /// A zero-duration instant (`ph: "i"`).
    Instant,
}

/// One trace event on the modeled clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span or instant.
    pub phase: Phase,
    /// Category: `daemon`, `sched`, `exec`, or `fault`.
    pub cat: String,
    /// Event name: `tick`, `batch`, a job label, an op shape
    /// (`and16`, `not`), `dropout`, ...
    pub name: String,
    /// The actor: a chip label, a tenant, or `daemon`.
    pub who: String,
    /// Display track (Chrome `tid`): 0 is the daemon control lane,
    /// `1 + member` is a fleet member's lane.
    pub track: u64,
    /// Ordering key, major: the daemon tick (0 outside a daemon).
    pub tick: u64,
    /// Ordering key, middle: `1 + submission index` for job-scoped
    /// events, 0 for tick-scoped ones.
    pub job: u64,
    /// Ordering key, minor: `1 + step index` for step spans.
    pub step: u64,
    /// Modeled start, nanoseconds.
    pub ts_ns: f64,
    /// Modeled duration, nanoseconds (0 for instants).
    pub dur_ns: f64,
    /// Numeric payload, in a fixed emission order.
    pub args: Vec<(String, f64)>,
}

impl TraceEvent {
    /// The `(tick, job, step)` ordering key.
    pub fn key(&self) -> (u64, u64, u64) {
        (self.tick, self.job, self.step)
    }
}

/// Anything that accepts trace events. The executor and daemon write
/// through this trait so tests can substitute counting sinks.
pub trait TraceSink {
    /// Whether the sink wants events at all. Emitters may skip
    /// building events when this is false.
    fn enabled(&self) -> bool;
    /// Record one event.
    fn record(&mut self, ev: TraceEvent);
}

/// A sink that drops everything (the disabled path).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _ev: TraceEvent) {}
}

/// Ring-buffered collector: keeps the most recent `capacity` events
/// and counts what it sheds. [`TraceBuffer::finish`] restores the
/// deterministic order by a stable sort on `(tick, job, step)`.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    ring: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// Default ring capacity: comfortably holds every event of the demo
/// daemon while still bounding pathological runs.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    /// A collector bounded to `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            ring: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Events shed at the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain into the deterministic order: stable sort by
    /// `(tick, job, step)`, ties keep emission order.
    pub fn finish(self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self.ring.into();
        events.sort_by_key(TraceEvent::key);
        events
    }
}

impl TraceSink for TraceBuffer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, job: u64, step: u64, name: &str) -> TraceEvent {
        TraceEvent {
            phase: Phase::Span,
            cat: "test".into(),
            name: name.into(),
            who: "w".into(),
            track: 0,
            tick,
            job,
            step,
            ts_ns: tick as f64 * 10.0,
            dur_ns: 1.0,
            args: vec![("v".into(), 1.0)],
        }
    }

    #[test]
    fn finish_orders_by_tick_job_step() {
        let mut buf = TraceBuffer::new(16);
        buf.record(ev(1, 2, 0, "late"));
        buf.record(ev(0, 1, 1, "mid"));
        buf.record(ev(0, 1, 0, "early"));
        let names: Vec<String> = buf.finish().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["early", "mid", "late"]);
    }

    #[test]
    fn ring_sheds_oldest_and_counts() {
        let mut buf = TraceBuffer::new(2);
        for t in 0..5 {
            buf.record(ev(t, 0, 0, "e"));
        }
        assert_eq!(buf.ring.len(), 2);
        assert_eq!(buf.dropped(), 3);
        let ticks: Vec<u64> = buf.finish().into_iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [3, 4]);
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(ev(0, 0, 0, "ignored"));
    }

    #[test]
    fn stable_sort_keeps_emission_order_on_ties() {
        let mut buf = TraceBuffer::new(8);
        buf.record(ev(0, 0, 0, "first"));
        buf.record(ev(0, 0, 0, "second"));
        let names: Vec<String> = buf.finish().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["first", "second"]);
    }
}
