//! Chrome trace-event JSON exporter.
//!
//! Produces the JSON Object Format of the trace-event spec, loadable in
//! Perfetto (ui.perfetto.dev) and chrome://tracing. Mapping:
//!
//! * simulated node  -> `pid` (with a `process_name` metadata record)
//! * [`Track`]       -> `tid` (with a `thread_name` metadata record)
//! * span event      -> `"X"` (complete) with `ts` + `dur`
//! * instant event   -> `"i"` with thread scope
//!
//! Timestamps are microseconds of **simulated** time, printed with fixed
//! nanosecond precision so export is byte-stable across platforms.

use std::collections::BTreeSet;

use crate::event::{ArgVal, EventLog, Track};
use crate::json::json_string;

/// All tracks, in tid order, for metadata emission.
const ALL_TRACKS: [Track; 9] = [
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

/// Render `events` as a Chrome trace-event JSON document.
///
/// `processes` names each simulated node: `(pid, display name)`. Metadata
/// records are emitted for every named process and for every `(pid, track)`
/// pair that actually carries events, followed by the events in emission
/// order (which is deterministic because each cell is single-threaded).
pub fn chrome_trace_json(events: &EventLog, processes: &[(u32, String)]) -> String {
    let mut used: BTreeSet<(u32, u32)> = BTreeSet::new();
    for ev in events.iter() {
        used.insert((ev.node, ev.track.tid()));
    }

    let mut out = String::with_capacity(512 + events.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    for (pid, name) in processes {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ),
            &mut first,
        );
    }
    for &(pid, tid) in &used {
        let track = ALL_TRACKS[tid as usize];
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_string(track.name())
            ),
            &mut first,
        );
    }

    for ev in events.iter() {
        let pid = ev.node;
        let tid = ev.track.tid();
        let cat = ev.track.name();
        let ts = micros(ev.start.nanos());
        let mut line = match ev.dur {
            Some(d) => format!(
                "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{ts},\"dur\":{}",
                json_string(ev.name),
                micros(d.nanos())
            ),
            None => format!(
                "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{ts}",
                json_string(ev.name)
            ),
        };
        if !ev.args.is_empty() {
            line.push_str(",\"args\":{");
            for (i, (k, v)) in ev.args.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{}:{}", json_string(k), arg_json(v)));
            }
            line.push('}');
        }
        line.push('}');
        push(&mut out, line, &mut first);
    }

    out.push_str("\n]}\n");
    out
}

/// Nanoseconds rendered as microseconds with exactly three decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn arg_json(v: &ArgVal) -> String {
    match v {
        ArgVal::U64(u) => u.to_string(),
        ArgVal::F64(x) => crate::registry::jf(*x),
        ArgVal::Str(s) => json_string(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jl_simkit::time::{SimDuration, SimTime};

    #[test]
    fn micros_is_fixed_precision() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn export_shape() {
        let mut events = EventLog::new();
        let span = Some(SimDuration::from_nanos(500));
        events.push_parts(
            0,
            Track::Cpu,
            "service",
            SimTime(2_000),
            span,
            &[("jobs", 3u64.into())],
        );
        events.push_parts(
            1,
            Track::Decision,
            "buy",
            SimTime(3_000),
            None,
            &[("key", "k\"7".into())],
        );
        let procs = vec![(0, "C0".to_string()), (1, "D0".to_string())];
        let j = chrome_trace_json(&events, &procs);
        assert!(j.contains("\"process_name\""));
        assert!(j.contains("\"thread_name\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ts\":2.000,\"dur\":0.500"));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"key\":\"k\\\"7\""));
        // Valid per our own parser.
        let check = crate::json::validate_chrome_trace(&j).unwrap();
        assert_eq!(check.spans, 1);
        assert_eq!(check.instants, 1);
        assert_eq!(check.metadata, 4); // 2 process names + 2 thread names
    }

    #[test]
    fn export_is_deterministic() {
        let mut events = EventLog::new();
        events.push_parts(5, Track::Fault, "retry", SimTime(9), None, &[]);
        let procs = vec![(5, "C5".to_string())];
        assert_eq!(
            chrome_trace_json(&events, &procs),
            chrome_trace_json(&events, &procs)
        );
    }
}
