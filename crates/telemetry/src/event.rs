//! Trace events: the unit of structured tracing.
//!
//! Every event is stamped with **simulated time** (`SimTime`), never
//! wall-clock, so a trace is a pure function of the simulation inputs and is
//! byte-identical no matter how many OS threads the bench harness uses.

use jl_simkit::time::{SimDuration, SimTime};

/// A fixed set of per-node tracks. In the Chrome trace-event export each
/// simulated node becomes a *process* and each track becomes a *thread*
/// inside it, so Perfetto renders one swim-lane per `(node, track)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// CPU service at this node (analytic FIFO grants).
    Cpu,
    /// Disk service at this node.
    Disk,
    /// Outbound NIC serialization.
    NicOut,
    /// Inbound NIC serialization.
    NicIn,
    /// Tuple lifecycles on compute nodes (ingest -> complete).
    Lifecycle,
    /// Remote request round-trips (batch send -> reply).
    Wire,
    /// Batch serving on data nodes.
    Serve,
    /// Placement-policy decisions and cache admissions.
    Decision,
    /// Faults, retries, failovers, give-ups.
    Fault,
}

impl Track {
    /// Stable thread id used in the Chrome export.
    pub fn tid(self) -> u32 {
        match self {
            Track::Cpu => 0,
            Track::Disk => 1,
            Track::NicOut => 2,
            Track::NicIn => 3,
            Track::Lifecycle => 4,
            Track::Wire => 5,
            Track::Serve => 6,
            Track::Decision => 7,
            Track::Fault => 8,
        }
    }

    /// Human-readable track name (Perfetto thread name).
    pub fn name(self) -> &'static str {
        match self {
            Track::Cpu => "cpu",
            Track::Disk => "disk",
            Track::NicOut => "nic-out",
            Track::NicIn => "nic-in",
            Track::Lifecycle => "lifecycle",
            Track::Wire => "wire",
            Track::Serve => "serve",
            Track::Decision => "decision",
            Track::Fault => "fault",
        }
    }
}

/// Argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Unsigned integer payload (counts, ids, bytes).
    U64(u64),
    /// Floating payload (ratios, estimates).
    F64(f64),
    /// Short string payload (labels).
    Str(Box<str>),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U64(v)
    }
}

impl From<f64> for ArgVal {
    fn from(v: f64) -> Self {
        ArgVal::F64(v)
    }
}

impl From<&str> for ArgVal {
    fn from(v: &str) -> Self {
        ArgVal::Str(v.into())
    }
}

/// One key/value annotation.
pub type Arg = (&'static str, ArgVal);

/// Sentinel duration marking an instant event in [`PackedEvent`]. Half a
/// millennium of simulated time — unreachable by construction (the kernel
/// would overflow first), asserted against anyway.
const INSTANT: u64 = u64::MAX;

/// One event of an [`EventLog`], packed into 48 bytes: the argument list
/// lives in the log's shared arena and the span-or-instant distinction
/// folds into a duration sentinel.
#[derive(Debug, Clone)]
struct PackedEvent {
    name: &'static str,
    start: SimTime,
    /// Span duration in nanoseconds, or [`INSTANT`].
    dur_nanos: u64,
    node: u32,
    /// Offset of this event's arguments in the log's arena.
    args_at: u32,
    track: Track,
    args_len: u8,
}

/// Borrowed view of one recorded event, with the arguments as a slice
/// into the log's arena. `dur == None` marks an *instant* (Chrome `"i"`
/// phase); `dur == Some(_)` marks a *complete span* (`"X"` phase).
#[derive(Debug, Clone, Copy)]
pub struct EventView<'a> {
    /// Simulated node the event belongs to (Chrome `pid`).
    pub node: u32,
    /// Track within the node (Chrome `tid`).
    pub track: Track,
    /// Event name shown on the slice.
    pub name: &'static str,
    /// Event start, in simulated time.
    pub start: SimTime,
    /// Span duration, or `None` for an instant event.
    pub dur: Option<SimDuration>,
    /// Key/value annotations, in insertion order.
    pub args: &'a [Arg],
}

/// Compact columnar buffer of recorded trace events.
///
/// Instrumented runs record hundreds of thousands of events, and the page
/// traffic of buffering them — not the recording logic — is the bulk of
/// traced-run overhead. The log splits each event into a 48-byte packed
/// core plus its arguments appended to one shared arena, about half the
/// bytes a whole event value with inline argument slots would touch.
/// Events are read back through [`EventView`]s in emission order.
#[derive(Debug, Default)]
pub struct EventLog {
    core: Vec<PackedEvent>,
    args: Vec<Arg>,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty log with room for `events` events (and a proportionate
    /// argument arena) before regrowth.
    pub fn with_capacity(events: usize) -> Self {
        EventLog {
            core: Vec::with_capacity(events),
            // High-volume emitters average well under two args per event.
            args: Vec::with_capacity(events * 2),
        }
    }

    /// Append one event from its parts, copying `args` straight into the
    /// arena: no event value is built just to be unpacked.
    #[inline]
    pub fn push_parts(
        &mut self,
        node: u32,
        track: Track,
        name: &'static str,
        start: SimTime,
        dur: Option<SimDuration>,
        args: &[Arg],
    ) {
        let args_at = self.args.len() as u32;
        self.args.extend_from_slice(args);
        let dur_nanos = match dur {
            Some(d) => {
                debug_assert!(
                    d.nanos() != INSTANT,
                    "span duration hit the instant sentinel"
                );
                d.nanos()
            }
            None => INSTANT,
        };
        self.core.push(PackedEvent {
            name,
            start,
            dur_nanos,
            node,
            args_at,
            track,
            args_len: args.len() as u8,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// Iterate the events in emission order.
    pub fn iter(&self) -> impl Iterator<Item = EventView<'_>> {
        self.core.iter().map(|p| EventView {
            node: p.node,
            track: p.track,
            name: p.name,
            start: p.start,
            dur: (p.dur_nanos != INSTANT).then_some(SimDuration(p.dur_nanos)),
            args: &self.args[p.args_at as usize..p.args_at as usize + p.args_len as usize],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_ids_distinct() {
        let all = [
            Track::Cpu,
            Track::Disk,
            Track::NicOut,
            Track::NicIn,
            Track::Lifecycle,
            Track::Wire,
            Track::Serve,
            Track::Decision,
            Track::Fault,
        ];
        let mut tids: Vec<u32> = all.iter().map(|t| t.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), all.len());
    }
}
