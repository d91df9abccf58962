//! The data node's batches as one sans-IO table, from admission to
//! completion.
//!
//! A batch is admitted or refused as a whole. Admitted, its items sit in
//! the ingest queue until the batch is served; serving it files how its
//! items were answered under a completion-timer tag, and when that timer
//! fires the batch leaves the queue and the load model's pending counters
//! are released. With an [`OverloadConfig`] the queue is bounded:
//!
//! | event               | effect                                                               |
//! |---------------------|----------------------------------------------------------------------|
//! | admit, over the cap | refused (one NACK), unless the node is draining                      |
//! | admit               | depth += items; pressure on when depth first reaches the high mark   |
//! | done                | depth −= items; pressure off once depth is at or below the low mark  |
//! | crash               | batches, depth and pressure cleared; peak depth and NACKs kept       |
//!
//! Without one the table never refuses and its depth reads 0. Nothing here
//! reads a clock or touches the wire.

use rustc_hash::FxHashMap;

use crate::config::OverloadConfig;

/// How one served batch answered its items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Served {
    /// Compute requests whose UDF ran here.
    pub(crate) computed: u64,
    /// Compute requests bounced back as values (or misses).
    pub(crate) bounced: u64,
    /// Data requests served.
    pub(crate) data: u64,
}

impl Served {
    /// Every item the batch held.
    pub(crate) fn items(&self) -> u64 {
        self.computed + self.bounced + self.data
    }
}

/// The admission verdict on a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// The queue cannot take it: NACK it before any disk or CPU is paid.
    Refused,
    /// Admitted; `pressure_on` when it pushed the depth over the high mark.
    Admitted { pressure_on: bool },
}

/// Every batch a data node holds between admission and completion, and
/// the bounded ingest queue they fill.
pub(crate) struct Ingest {
    /// The queue bounds; `None` admits everything and tracks no depth.
    overload: Option<OverloadConfig>,
    /// Served batches awaiting their completion timers, by tag.
    batches: FxHashMap<u64, Served>,
    next_tag: u64,
    /// Items admitted and not yet completed.
    depth: u64,
    /// Over the high mark and not yet back at the low one. Piggybacked on
    /// every reply and heartbeat.
    pressured: bool,
    peak_depth: u64,
    nacks: u64,
    pressure_events: u64,
}

impl Ingest {
    /// An empty table, bounded by `overload` when given.
    pub(crate) fn new(overload: Option<OverloadConfig>) -> Self {
        Ingest {
            overload,
            batches: FxHashMap::default(),
            next_tag: 0,
            depth: 0,
            pressured: false,
            peak_depth: 0,
            nacks: 0,
            pressure_events: 0,
        }
    }

    /// Whether the queue is bounded (and its depth tracked).
    pub(crate) fn bounded(&self) -> bool {
        self.overload.is_some()
    }

    /// Admit a batch of `items`. A draining node never refuses: its job is
    /// to empty its queues, and a refusal would bounce work back to a
    /// sender already steering away. Its depth is still counted, so the
    /// drain stays observable.
    pub(crate) fn admit(&mut self, items: u64, draining: bool) -> Admit {
        let Some(ov) = self.overload else {
            return Admit::Admitted { pressure_on: false };
        };
        if !draining && self.depth + items > ov.data_queue_cap {
            self.nacks += 1;
            return Admit::Refused;
        }
        self.depth += items;
        self.peak_depth = self.peak_depth.max(self.depth);
        let pressure_on = !self.pressured && self.depth >= ov.high_watermark;
        self.pressured |= pressure_on;
        self.pressure_events += pressure_on as u64;
        Admit::Admitted { pressure_on }
    }

    /// File a served batch; returns the tag to arm its completion timer
    /// under.
    pub(crate) fn served(&mut self, served: Served) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.batches.insert(tag, served);
        tag
    }

    /// The completion timer `tag` fired: the batch leaves the queue.
    /// Returns how it was served and whether the pressure flag just
    /// cleared; `None` for a tag whose batch a crash lost.
    pub(crate) fn done(&mut self, tag: u64) -> Option<(Served, bool)> {
        let served = self.batches.remove(&tag)?;
        let Some(ov) = self.overload else {
            return Some((served, false));
        };
        self.depth = self.depth.saturating_sub(served.items());
        let pressure_off = self.pressured && self.depth <= ov.low_watermark;
        self.pressured &= !pressure_off;
        Some((served, pressure_off))
    }

    /// The process crashed: its batches (their timers died with it), the
    /// queue and the pressure flag go. Peak depth and NACKs are run
    /// statistics and survive.
    pub(crate) fn crash(&mut self) {
        self.batches.clear();
        self.depth = 0;
        self.pressured = false;
    }

    /// Items admitted and not yet completed.
    pub(crate) fn depth(&self) -> u64 {
        self.depth
    }

    /// Whether the node is signalling backpressure.
    pub(crate) fn pressured(&self) -> bool {
        self.pressured
    }

    /// `(refused batches, pressure-on transitions, peak depth)`.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.nacks, self.pressure_events, self.peak_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One call against the table.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Admit this many items on an active node.
        Admit(u64),
        /// Admit this many items on a draining node.
        Drain(u64),
        Serve(Served),
        Done(u64),
        Crash,
    }

    /// What the call returned.
    #[derive(Debug, PartialEq, Eq)]
    enum Res {
        Admit(Admit),
        Tag(u64),
        Done(Option<(Served, bool)>),
        Crashed,
    }

    const ON: Res = Res::Admit(Admit::Admitted { pressure_on: true });
    const OK: Res = Res::Admit(Admit::Admitted { pressure_on: false });
    const NO: Res = Res::Admit(Admit::Refused);

    /// Cap 10, high watermark 6, low watermark 3.
    fn bounded() -> Ingest {
        Ingest::new(Some(OverloadConfig {
            data_queue_cap: 10,
            high_watermark: 6,
            low_watermark: 3,
            ..OverloadConfig::default()
        }))
    }

    /// A batch of `n` data requests.
    fn data(n: u64) -> Served {
        Served {
            computed: 0,
            bounced: 0,
            data: n,
        }
    }

    /// Run each row's call and check what it returned, then the depth and
    /// the pressure flag it left.
    fn run(t: &mut Ingest, rows: &[(Op, Res, u64, bool)]) {
        for (i, (op, want, depth, pressured)) in rows.iter().enumerate() {
            let got = match *op {
                Op::Admit(n) => Res::Admit(t.admit(n, false)),
                Op::Drain(n) => Res::Admit(t.admit(n, true)),
                Op::Serve(served) => Res::Tag(t.served(served)),
                Op::Done(tag) => Res::Done(t.done(tag)),
                Op::Crash => {
                    t.crash();
                    Res::Crashed
                }
            };
            let state = (t.depth(), t.pressured());
            assert_eq!(
                (&got, state),
                (want, (*depth, *pressured)),
                "row {i}: {op:?}"
            );
        }
    }

    #[test]
    fn a_refusal_at_the_cap_counts_a_nack_and_admits_nothing() {
        let mut t = bounded();
        run(
            &mut t,
            &[
                (Op::Admit(4), OK, 4, false),
                (Op::Admit(7), NO, 4, false),
                (Op::Admit(6), ON, 10, true),
                (Op::Admit(1), NO, 10, true),
            ],
        );
        assert_eq!(t.stats(), (2, 1, 10), "(nacks, pressure events, peak)");
    }

    #[test]
    fn a_draining_node_admits_past_the_cap() {
        let mut t = bounded();
        run(
            &mut t,
            &[
                (Op::Drain(8), ON, 8, true),
                (Op::Drain(9), OK, 17, true),
                (Op::Admit(1), NO, 17, true),
            ],
        );
        assert_eq!(t.stats(), (1, 1, 17));
    }

    #[test]
    fn pressure_turns_on_once_per_high_crossing_and_off_at_the_low_mark() {
        let mut t = bounded();
        run(
            &mut t,
            &[
                (Op::Admit(2), OK, 2, false),
                (Op::Serve(data(2)), Res::Tag(0), 2, false),
                (Op::Admit(4), ON, 6, true),
                (Op::Serve(data(4)), Res::Tag(1), 6, true),
                (Op::Admit(3), OK, 9, true),
                (Op::Serve(data(3)), Res::Tag(2), 9, true),
                // Above the low mark: still on.
                (Op::Done(0), Res::Done(Some((data(2), false))), 7, true),
                // At the low mark: off.
                (Op::Done(1), Res::Done(Some((data(4), true))), 3, false),
                (Op::Admit(2), OK, 5, false),
                (Op::Admit(1), ON, 6, true),
                (Op::Done(2), Res::Done(Some((data(3), true))), 3, false),
            ],
        );
        assert_eq!(t.stats(), (0, 2, 9));
    }

    #[test]
    fn a_crash_clears_the_queue_but_keeps_peak_depth_and_nacks() {
        let mut t = bounded();
        let batch = Served {
            computed: 3,
            bounced: 2,
            data: 2,
        };
        run(
            &mut t,
            &[
                (Op::Admit(7), ON, 7, true),
                (Op::Serve(batch), Res::Tag(0), 7, true),
                (Op::Admit(4), NO, 7, true),
                (Op::Crash, Res::Crashed, 0, false),
                (Op::Done(0), Res::Done(None), 0, false),
                // Tags keep counting, so no pre-crash timer can match.
                (Op::Admit(1), OK, 1, false),
                (Op::Serve(data(1)), Res::Tag(1), 1, false),
                (Op::Done(1), Res::Done(Some((data(1), false))), 0, false),
            ],
        );
        assert_eq!(t.stats(), (1, 1, 7));
    }

    #[test]
    fn a_tag_lost_to_a_crash_returns_none() {
        for mut t in [bounded(), Ingest::new(None)] {
            let tag = t.served(data(1));
            t.crash();
            assert_eq!(t.done(tag), None);
            assert_eq!(t.done(tag + 1), None, "never filed");
        }
    }

    #[test]
    fn an_unbounded_table_never_refuses_and_reads_depth_zero() {
        let mut t = Ingest::new(None);
        assert!(!t.bounded() && bounded().bounded());
        run(
            &mut t,
            &[
                (Op::Admit(u64::MAX), OK, 0, false),
                (Op::Drain(u64::MAX), OK, 0, false),
                (Op::Serve(data(5)), Res::Tag(0), 0, false),
                (Op::Done(0), Res::Done(Some((data(5), false))), 0, false),
                (Op::Crash, Res::Crashed, 0, false),
            ],
        );
        assert_eq!(t.stats(), (0, 0, 0));
    }
}
