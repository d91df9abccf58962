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

/// How many arguments an [`Args`] list holds without touching the heap.
/// Four covers every engine emitter — resource grants, wire round-trips
/// and lifecycle spans carry one or two, and the widest (placement
/// decisions, batch serves) carry exactly four. Spilling those to a boxed
/// `Vec` cost two allocations per event and showed up as a double-digit
/// share of traced-run overhead; the wider inline array trades a larger
/// per-event memcpy for zero allocations on every hot emitter. The spill
/// remains as a safety valve for ad-hoc wider events.
const INLINE_ARGS: usize = 4;

/// Argument list with inline storage for the common case.
///
/// Instrumented runs record hundreds of thousands of events, most carrying
/// one or two arguments; storing those in a heap `Vec` made the allocator
/// the dominant telemetry cost. The first `INLINE_ARGS` arguments live
/// inside the event itself (kept small — the event is moved by value
/// through the builder and into the sink); only wider lists allocate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    len: u8,
    inline: [Option<Arg>; INLINE_ARGS],
    // Boxed so the (almost always absent) spill costs one pointer in the
    // event instead of a full Vec header — every byte here is memcpy'd per
    // recorded event.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<Arg>>>,
}

impl Args {
    /// Empty list.
    #[inline]
    pub fn new() -> Self {
        Args::default()
    }

    /// Append one argument.
    #[inline]
    pub fn push(&mut self, key: &'static str, val: ArgVal) {
        let i = self.len as usize;
        if i < INLINE_ARGS {
            self.inline[i] = Some((key, val));
            self.len += 1;
        } else {
            self.spill
                .get_or_insert_with(Default::default)
                .push((key, val));
        }
    }

    /// Number of arguments.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize + self.spill.as_ref().map_or(0, |s| s.len())
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the arguments in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Arg> {
        self.inline
            .iter()
            .filter_map(|a| a.as_ref())
            .chain(self.spill.iter().flat_map(|s| s.iter()))
    }
}

impl std::ops::Index<usize> for Args {
    type Output = Arg;

    fn index(&self, i: usize) -> &Arg {
        if i < self.len as usize {
            self.inline[i].as_ref().expect("arg slot populated")
        } else {
            &self.spill.as_ref().expect("index in bounds")[i - self.len as usize]
        }
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Arg;
    type IntoIter = Box<dyn Iterator<Item = &'a Arg> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// One recorded trace event. `dur == None` marks an *instant* (Chrome `"i"`
/// phase); `dur == Some(_)` marks a *complete span* (`"X"` phase).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
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
    /// Key/value annotations rendered in the Perfetto detail pane.
    pub args: Args,
}

impl TraceEvent {
    /// A complete span on `track` of `node`, covering `[start, start + dur]`.
    #[inline]
    pub fn span(
        node: u32,
        track: Track,
        name: &'static str,
        start: SimTime,
        dur: SimDuration,
    ) -> Self {
        Self {
            node,
            track,
            name,
            start,
            dur: Some(dur),
            args: Args::new(),
        }
    }

    /// An instant event at `at`.
    #[inline]
    pub fn instant(node: u32, track: Track, name: &'static str, at: SimTime) -> Self {
        Self {
            node,
            track,
            name,
            start: at,
            dur: None,
            args: Args::new(),
        }
    }

    /// Attach an argument (builder-style).
    #[inline]
    pub fn arg(mut self, key: &'static str, val: impl Into<ArgVal>) -> Self {
        self.args.push(key, val.into());
        self
    }
}

/// Sentinel duration marking an instant event in [`PackedEvent`]. Half a
/// millennium of simulated time — unreachable by construction (the kernel
/// would overflow first), asserted against anyway.
const INSTANT: u64 = u64::MAX;

/// One event of an [`EventLog`], packed: the argument list lives in the
/// log's shared arena and the span-or-instant distinction folds into a
/// duration sentinel, bringing the per-event footprint from ~224 bytes
/// (a full [`TraceEvent`] with inline args) down to 48.
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

/// Borrowed view of one recorded event: everything a [`TraceEvent`]
/// carries, with the arguments as a slice into the log's arena.
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
/// Instrumented runs record hundreds of thousands of events; buffering
/// them as whole [`TraceEvent`]s writes ~224 bytes of freshly-faulted heap
/// per event, and that page traffic — not the recording logic — was the
/// bulk of traced-run overhead. The log splits each event into a 48-byte
/// packed core plus its arguments appended to one shared arena, roughly
/// halving the bytes touched per event. Events are read back through
/// [`EventView`]s; emission order is preserved, so exports over a log are
/// byte-identical to exports over the equivalent `Vec<TraceEvent>`.
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

    /// Append one event, moving its arguments into the arena.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        let args_at = self.args.len() as u32;
        let mut args_len = 0u8;
        for a in ev.args.inline.into_iter().flatten() {
            self.args.push(a);
            args_len += 1;
        }
        if let Some(spill) = ev.args.spill {
            for a in *spill {
                self.args.push(a);
                args_len += 1;
            }
        }
        let dur_nanos = match ev.dur {
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
            name: ev.name,
            start: ev.start,
            dur_nanos,
            node: ev.node,
            args_at,
            track: ev.track,
            args_len,
        });
    }

    /// Append one event from its parts, copying `args` straight into the
    /// arena. Equivalent to `push(TraceEvent { .. })` but skips building
    /// the event value: hot emitters record hundreds of thousands of
    /// events per run, and assembling the ~220-byte `TraceEvent` (inline
    /// argument slots included) just for [`EventLog::push`] to unpack it
    /// was a measurable share of traced-run overhead.
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

impl From<Vec<TraceEvent>> for EventLog {
    fn from(events: Vec<TraceEvent>) -> Self {
        let mut log = EventLog::with_capacity(events.len());
        for ev in events {
            log.push(ev);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let ev = TraceEvent::span(
            3,
            Track::Cpu,
            "service",
            SimTime(10_000),
            SimDuration::from_micros(5),
        )
        .arg("jobs", 4u64)
        .arg("util", 0.5f64)
        .arg("kind", "udf");
        assert_eq!(ev.node, 3);
        assert_eq!(ev.track.tid(), 0);
        assert_eq!(ev.args.len(), 3);
        assert_eq!(ev.args[0], ("jobs", ArgVal::U64(4)));
    }

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
