//! The benchmark's own spans around every call it makes into a layer.
//!
//! Spans are recorded only in a traced run and kept in memory: name
//! (`<layer>.<call>`), start, end, parent span and episode id. At exit they
//! are written as Chrome-trace JSON, which Perfetto opens. A layer's self
//! time is its spans' durations minus the part of each interval that the
//! span's children cover.

use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub episode: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    episode: u32,
    recording: bool,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            episode: 0,
            recording: true,
        })
    });
}

/// Stops recording and hands back every span recorded so far.
pub fn disable() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Tags the spans recorded from now on with episode `e`, and records them
/// only if `recording` (a traced run interleaves untraced episodes to
/// measure the spans' own overhead).
pub fn set_episode(e: u32, recording: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.episode = e;
            t.recording = recording;
        }
    });
}

/// Closes every span a panic left open, at the current time.
pub fn close_open() {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let now = t.origin.elapsed().as_nanos() as u64;
            while let Some(i) = t.open.pop() {
                t.spans[i].end_ns = now;
            }
        }
    });
}

/// Runs `f` inside a span named `name` when tracing is on; otherwise just
/// runs `f`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        t.borrow_mut().as_mut().filter(|t| t.recording).map(|t| {
            let now = t.origin.elapsed().as_nanos() as u64;
            let i = t.spans.len();
            let parent = t.open.last().copied();
            t.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent,
                episode: t.episode,
            });
            t.open.push(i);
            i
        })
    });
    let r = f();
    if let Some(i) = idx {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[i].end_ns = t.origin.elapsed().as_nanos() as u64;
                t.open.pop();
            }
        });
    }
    r
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event JSON of `spans`, one complete (`X`) event each, with
/// the run's settings and host stamp as trace metadata.
pub fn chrome_json(spans: &[Span], stamp_json: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":");
    out.push_str(stamp_json);
    out.push_str(",\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"perfbench\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"episode\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            s.parent.map_or(-1, |p| p as i64),
            s.episode,
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            episode: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("node.step", 0, 100, None),
            sp("hv.mmio", 10, 30, Some(0)),
            // Overlaps the first child: only 30..40 is new coverage.
            sp("hv.mmio", 20, 40, Some(0)),
            // Sticks out past the parent: clipped at 100.
            sp("obs.scrape", 90, 120, Some(0)),
            sp("mem.walk", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
    }

    #[test]
    fn recorder_nests_and_tags_episodes() {
        enable();
        set_episode(3, true);
        let v = span("node.run", || span("hv.mmio", || 7));
        assert_eq!(v, 7);
        let spans = disable();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "hv");
        assert!(spans
            .iter()
            .all(|s| s.episode == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Paused or off: no recording, `f` still runs.
        enable();
        set_episode(4, false);
        assert_eq!(span("node.run", || 1), 1);
        assert!(disable().is_empty());
        assert_eq!(span("node.run", || 2), 2);
        assert!(disable().is_empty());
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let spans = vec![
            sp("node.step", 1000, 3000, None),
            sp("hv.mmio", 1500, 2000, Some(0)),
        ];
        let json = chrome_json(&spans, "{}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"cat\":\"hv\""));
        assert!(json.contains("\"parent\":0"));
    }
}
