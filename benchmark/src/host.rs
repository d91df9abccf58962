//! What the benchmark reads from the host about its own process, and the
//! host-time spans it records around every call it makes into a layer.

use std::time::Instant;

/// Peak resident set size of this process, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Restart the kernel's high-water mark of this process's resident set, so
/// the next [`peak_rss_mb`] covers only what follows: a repetition's peak
/// then does not depend on how many repetitions the host's speed allowed
/// before it. Where the kernel refuses, peaks accumulate over the process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time this process (all threads, exited ones included) has used.
#[derive(Clone, Copy)]
pub struct CpuTime {
    pub user_s: f64,
    pub system_s: f64,
}

impl CpuTime {
    /// Read `utime`/`stime` from `/proc/self/stat`. Linux reports them in
    /// clock ticks of 1/100 s on every architecture in use, so a window
    /// of a few seconds resolves to well under 1 %.
    pub fn now() -> CpuTime {
        const TICKS_PER_SEC: f64 = 100.0;
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // The command name (field 2) may hold spaces; fields resume after
        // its closing parenthesis, the first of them being field 3.
        let after = &stat[stat.rfind(')').expect("comm field") + 1..];
        let mut fields = after.split_whitespace().skip(11);
        let mut tick = || -> f64 {
            fields
                .next()
                .and_then(|f| f.parse().ok())
                .expect("utime/stime in /proc/self/stat")
        };
        CpuTime {
            user_s: tick() / TICKS_PER_SEC,
            system_s: tick() / TICKS_PER_SEC,
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.system_s
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            system_s: self.system_s - earlier.system_s,
        }
    }
}

struct Span {
    name: &'static str,
    /// The workload/repetition this span belongs to.
    id: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory recorder of the benchmark's own spans: name, start, end,
/// parent, and an id shared by the spans of one repetition. Kept in
/// memory and written once, when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: String,
}

impl Spans {
    pub fn new(id: impl Into<String>) -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: id.into(),
        }
    }

    /// The id the spans recorded from now on share.
    pub fn set_id(&mut self, id: impl Into<String>) {
        self.id = id.into();
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id: self.id.clone(),
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].start_ns = (start - self.origin).as_nanos();
        self.spans[idx].end_ns = (end - self.origin).as_nanos();
        (out, (end - start).as_secs_f64())
    }

    /// The spans as a JSON array, in start order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"span\": {i}, \"name\": \"{}\", \"id\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_repetition_id() {
        let mut spans = Spans::new("w/0");
        let ((), outer) = spans.time("outer", |s| {
            s.time("inner", |_| std::hint::black_box(1 + 1));
        });
        spans.set_id("w/1");
        spans.time("next", |_| ());
        assert!(outer >= 0.0);
        let json = jl_telemetry::json::parse(&spans.to_json()).expect("valid JSON");
        let arr = json.as_arr().expect("array");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("name").and_then(|n| n.as_str()), Some("inner"));
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_num()), Some(0.0));
        assert_eq!(arr[1].get("id").and_then(|p| p.as_str()), Some("w/0"));
        assert_eq!(arr[2].get("id").and_then(|p| p.as_str()), Some("w/1"));
        assert!(
            arr[0].get("end_ns").and_then(|e| e.as_num())
                >= arr[1].get("end_ns").and_then(|e| e.as_num())
        );
    }

    #[test]
    fn host_probes_read() {
        assert!(peak_rss_mb() > 0.0);
        let a = CpuTime::now();
        assert!(a.total_s() >= 0.0);
        assert!(CpuTime::now().since(a).total_s() >= 0.0);
    }
}
