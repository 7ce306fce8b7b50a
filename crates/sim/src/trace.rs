//! Flight recorder: cycle-stamped event tracing for the whole stack.
//!
//! Every layer of the simulator (hypervisor traps, IOTLB fills, channel
//! arbitration, mux-tree grants, preemption phases) can emit events into
//! a bounded per-thread ring buffer. The recorder exports Chrome
//! `trace_event` JSON that loads directly into Perfetto / `chrome://tracing`,
//! with one track per vAccel, per DMA link, and per mux node, plus a
//! per-track counter registry for aggregate dumps in bench reports.
//!
//! # Gating
//!
//! Tracing is **off by default** (`OPTIMUS_TRACE`, see [`crate::obs`]).
//! When the gate is off every emit helper returns after one thread-local
//! read, so instrumented hot paths cost one predictable branch.
//! Instrumentation is read-only with respect to simulation state — a
//! traced run and an untraced run of the same workload produce bit-equal
//! fingerprints (enforced by a differential property test in
//! `optimus-core`).
//!
//! # Bounds
//!
//! The ring buffer holds [`DEFAULT_CAPACITY`] events (override with
//! `OPTIMUS_TRACE_CAP`); when full, the oldest events are overwritten
//! and counted in [`dropped`], so memory stays bounded no matter how
//! long the run. Counters are exact regardless of ring occupancy.

use crate::obs;
use crate::time::Cycle;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Default ring-buffer capacity, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Microseconds per fabric cycle (400 MHz fabric → 2.5 ns → 0.0025 µs),
/// the unit Chrome trace timestamps are expressed in.
const US_PER_CYCLE: f64 = 0.0025;

/// Maximum number of key/value arguments attached to one event.
const MAX_ARGS: usize = 3;

/// A Perfetto track: a (process, thread) pair. Processes group the
/// architectural layers; threads are the per-instance lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    pid: u32,
    tid: u32,
}

impl Track {
    /// Hypervisor-global lane (scheduler decisions, slice boundaries).
    pub const fn hypervisor() -> Track {
        Track { pid: 1, tid: 0 }
    }

    /// One lane per vAccel (traps, hypercalls, preemption phases).
    pub const fn vaccel(id: u32) -> Track {
        Track { pid: 1, tid: 1 + id }
    }

    /// The IOMMU / IOTLB lane (hits, misses, evictions, page walks).
    pub const fn iommu() -> Track {
        Track { pid: 2, tid: 0 }
    }

    /// The channel-selector lane (UPI/PCIe switches).
    pub const fn channels() -> Track {
        Track { pid: 2, tid: 1 }
    }

    /// One lane per physical-accelerator DMA link (round-trips).
    pub const fn link(accel: usize) -> Track {
        Track {
            pid: 2,
            tid: 2 + accel as u32,
        }
    }

    /// One lane per mux-tree node (grants and stalls).
    pub const fn mux_node(node: usize) -> Track {
        Track {
            pid: 3,
            tid: node as u32,
        }
    }

    /// One lane per accelerator slot / auditor (save/restore streaming).
    pub const fn accel(slot: usize) -> Track {
        Track {
            pid: 4,
            tid: slot as u32,
        }
    }

    /// Human-readable process name for the Perfetto process rail.
    fn process_name(self) -> &'static str {
        match self.pid {
            1 => "hypervisor",
            2 => "host-interface",
            3 => "mux-tree",
            _ => "accelerators",
        }
    }

    /// Human-readable thread (track) name.
    fn thread_name(self) -> String {
        match (self.pid, self.tid) {
            (1, 0) => "scheduler".to_string(),
            (1, t) => format!("vaccel{}", t - 1),
            (2, 0) => "iommu".to_string(),
            (2, 1) => "channel-selector".to_string(),
            (2, t) => format!("link{}", t - 2),
            (3, t) => format!("node{t}"),
            (_, t) => format!("accel{t}"),
        }
    }

    /// Stable label used for counter keys and plain-text dumps.
    fn label(self) -> String {
        format!("{}/{}", self.process_name(), self.thread_name())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A span with a known duration at emit time (`ph: "X"`).
    Complete,
    /// Opening edge of a nesting span (`ph: "B"`).
    Begin,
    /// Closing edge of a nesting span (`ph: "E"`).
    End,
    /// Flow-arrow start (`ph: "s"`): the `dur` field carries the flow id.
    FlowStart,
    /// Flow-arrow finish (`ph: "f"`, binding `bp: "e"`); id in `dur`.
    FlowEnd,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    track: Track,
    name: &'static str,
    kind: EventKind,
    ts: Cycle,
    dur: Cycle,
    args: [(&'static str, u64); MAX_ARGS],
    nargs: u8,
}

#[derive(Debug, Default)]
pub(crate) struct Recorder {
    buf: Vec<Event>,
    /// Next overwrite position once `buf.len() == cap`.
    head: usize,
    cap: usize,
    dropped: u64,
    /// Hash-indexed so [`counter_value`] polls are O(1) (watchdogs and
    /// tests); deterministic dumps sort a snapshot in [`counters`].
    counters: HashMap<(Track, &'static str), u64>,
}

impl Recorder {
    pub(crate) fn with_capacity(cap: usize) -> Recorder {
        Recorder {
            cap: cap.max(1),
            ..Recorder::default()
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events in emission (chronological) order.
    fn ordered(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        self.counters.clear();
    }

    /// Drains everything recorded, leaving an empty ring of the same
    /// capacity.
    pub(crate) fn take(&mut self) -> Recorder {
        std::mem::replace(self, Recorder::with_capacity(self.cap))
    }

    /// Replays another recorder's events as if emitted here (ring bounds
    /// and drop accounting apply as usual); counters accumulate.
    pub(crate) fn absorb(&mut self, other: Recorder) {
        for &ev in other.ordered() {
            self.push(ev);
        }
        self.dropped += other.dropped;
        for (key, v) in other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
    }
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    obs::with(|c| f(&mut c.trace.borrow_mut()))
}

/// Returns `true` if the flight recorder is capturing on this thread.
#[inline]
pub fn enabled() -> bool {
    obs::gates().trace
}

/// Overrides the `OPTIMUS_TRACE` gate for the current thread (used by
/// tests and the differential trace-on/off property).
pub fn set_enabled(on: bool) {
    obs::update_gates(|g| g.trace = on);
}

/// Discards all recorded events and counters (capacity is kept).
pub fn reset() {
    with_recorder(Recorder::clear);
}

/// Resizes the ring buffer (dropping anything recorded so far).
pub fn set_capacity(cap: usize) {
    with_recorder(|r| *r = Recorder::with_capacity(cap));
}

/// Number of events currently held in the ring.
pub fn event_count() -> usize {
    with_recorder(|r| r.buf.len())
}

/// Number of events overwritten because the ring was full.
pub fn dropped() -> u64 {
    with_recorder(|r| r.dropped)
}

/// Records one event. Out of line and cold, like `bump`: with tracing off
/// (the common case) an emission site inlines only its gate check.
#[cold]
#[inline(never)]
fn emit(track: Track, name: &'static str, kind: EventKind, ts: Cycle, dur: Cycle, args: &[(&'static str, u64)]) {
    let mut packed = [("", 0u64); MAX_ARGS];
    let nargs = args.len().min(MAX_ARGS);
    packed[..nargs].copy_from_slice(&args[..nargs]);
    with_recorder(|r| {
        r.push(Event {
            track,
            name,
            kind,
            ts,
            dur,
            args: packed,
            nargs: nargs as u8,
        })
    });
}

/// Emits a point-in-time marker at cycle `ts`.
#[inline]
pub fn instant(track: Track, name: &'static str, ts: Cycle, args: &[(&'static str, u64)]) {
    if enabled() {
        emit(track, name, EventKind::Instant, ts, 0, args);
    }
}

/// Emits a span whose duration is already known (e.g. a trap cost or a
/// DMA round-trip), stamped at its *start* cycle.
#[inline]
pub fn complete(track: Track, name: &'static str, ts: Cycle, dur: Cycle, args: &[(&'static str, u64)]) {
    if enabled() {
        emit(track, name, EventKind::Complete, ts, dur, args);
    }
}

/// Opens a nesting span (close it with [`end`] on the same track).
#[inline]
pub fn begin(track: Track, name: &'static str, ts: Cycle, args: &[(&'static str, u64)]) {
    if enabled() {
        emit(track, name, EventKind::Begin, ts, 0, args);
    }
}

/// Closes the innermost open span on `track`.
#[inline]
pub fn end(track: Track, name: &'static str, ts: Cycle) {
    if enabled() {
        emit(track, name, EventKind::End, ts, 0, &[]);
    }
}

/// Opens a flow arrow (Perfetto `ph:"s"`): connect with a later
/// [`flow_end`] carrying the same `id` (the job-lifecycle journal keys
/// flows by `JobId`, so one job reads as one connected lane across
/// preemption, migration, and share handoffs). Id 0 means "no job" and
/// records nothing.
#[inline]
pub fn flow_start(track: Track, name: &'static str, ts: Cycle, id: u64) {
    if id != 0 && enabled() {
        emit(track, name, EventKind::FlowStart, ts, id, &[]);
    }
}

/// Terminates a flow arrow (Perfetto `ph:"f"`, `bp:"e"`) opened by a
/// [`flow_start`] with the same `id` (0 records nothing).
#[inline]
pub fn flow_end(track: Track, name: &'static str, ts: Cycle, id: u64) {
    if id != 0 && enabled() {
        emit(track, name, EventKind::FlowEnd, ts, id, &[]);
    }
}

/// Adds `delta` to the per-track counter `name` in the registry.
#[inline]
pub fn count(track: Track, name: &'static str, delta: u64) {
    if enabled() {
        bump(track, name, delta);
    }
}

#[cold]
#[inline(never)]
fn bump(track: Track, name: &'static str, delta: u64) {
    with_recorder(|r| *r.counters.entry((track, name)).or_insert(0) += delta);
}

/// Snapshot of the counter registry as `("layer/track counter", value)`
/// pairs in deterministic (track, name) order.
pub fn counters() -> Vec<(String, u64)> {
    with_recorder(|r| {
        let mut entries: Vec<(&(Track, &'static str), &u64)> = r.counters.iter().collect();
        entries.sort_unstable_by_key(|&(&(track, name), _)| (track, name));
        entries
            .into_iter()
            .map(|(&(track, name), &v)| (format!("{} {}", track.label(), name), v))
            .collect()
    })
}

/// Reads one counter back in O(1) (0 if never incremented). Counter
/// names are interned `&'static str`s, so the hash lookup needs no
/// allocation — cheap enough for watchdogs and tests to poll.
pub fn counter_value(track: Track, name: &'static str) -> u64 {
    with_recorder(|r| {
        r.counters
            .get(&(track, name))
            .copied()
            .unwrap_or(0)
    })
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders everything recorded on this thread as Chrome `trace_event`
/// JSON (the format Perfetto and `chrome://tracing` load natively).
///
/// Events are sorted by cycle timestamp, so the `cycle` argument of
/// successive `traceEvents` entries is monotone non-decreasing —
/// exploited by the CI trace validator. Timestamps (`ts`) and durations
/// (`dur`) are in microseconds of simulated time; the raw fabric-cycle
/// stamp rides along in `args.cycle` (and `args.dur_cycles` for spans).
pub fn chrome_trace_json() -> String {
    with_recorder(|r| {
        let mut events: Vec<&Event> = r.ordered().collect();
        events.sort_by_key(|e| e.ts);

        let tracks: BTreeSet<Track> = events.iter().map(|e| e.track).collect();
        let pids: BTreeSet<u32> = tracks.iter().map(|t| t.pid).collect();

        let mut out = String::with_capacity(events.len() * 128 + 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("\n  ");
        };

        for &pid in &pids {
            sep(&mut out, &mut first);
            let name = tracks
                .iter()
                .find(|t| t.pid == pid)
                .map(|t| t.process_name())
                .unwrap_or("?");
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for track in &tracks {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":",
                track.pid, track.tid
            );
            push_json_str(&mut out, &track.thread_name());
            out.push_str("}}");
        }

        for e in events {
            sep(&mut out, &mut first);
            let ph = match e.kind {
                EventKind::Instant => "i",
                EventKind::Complete => "X",
                EventKind::Begin => "B",
                EventKind::End => "E",
                EventKind::FlowStart => "s",
                EventKind::FlowEnd => "f",
            };
            let _ = write!(
                out,
                "{{\"ph\":\"{ph}\",\"pid\":{},\"tid\":{},\"name\":",
                e.track.pid, e.track.tid
            );
            push_json_str(&mut out, e.name);
            let _ = write!(out, ",\"ts\":{:.4}", e.ts as f64 * US_PER_CYCLE);
            if e.kind == EventKind::Complete {
                let _ = write!(out, ",\"dur\":{:.4}", e.dur as f64 * US_PER_CYCLE);
            }
            if e.kind == EventKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if matches!(e.kind, EventKind::FlowStart | EventKind::FlowEnd) {
                // Flow id rides in `dur`; the journal passes the JobId.
                let _ = write!(out, ",\"cat\":\"job\",\"id\":{}", e.dur);
                if e.kind == EventKind::FlowEnd {
                    out.push_str(",\"bp\":\"e\"");
                }
            }
            let _ = write!(out, ",\"args\":{{\"cycle\":{}", e.ts);
            if e.kind == EventKind::Complete {
                let _ = write!(out, ",\"dur_cycles\":{}", e.dur);
            }
            for &(k, v) in &e.args[..e.nargs as usize] {
                out.push(',');
                push_json_str(&mut out, k);
                let _ = write!(out, ":{v}");
            }
            out.push_str("}}");
        }

        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}\n",
            r.dropped
        );
        out
    })
}

/// Renders the counter registry as plain text, one `layer/track counter
/// = value` line per entry, for appending to bench reports.
pub fn counters_dump() -> String {
    let mut out = String::new();
    for (key, value) in counters() {
        let _ = writeln!(out, "{key} = {value}");
    }
    out
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each #[test] runs on its own thread, so the thread-local recorder
    // is naturally isolated between tests.

    #[test]
    fn disabled_recorder_stays_empty() {
        set_enabled(false);
        instant(Track::iommu(), "iotlb_miss", 10, &[]);
        complete(Track::vaccel(0), "mmio_trap", 5, 800, &[]);
        count(Track::iommu(), "misses", 1);
        assert_eq!(event_count(), 0);
        assert!(counters().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        set_enabled(true);
        set_capacity(4);
        for i in 0..6u64 {
            instant(Track::hypervisor(), "tick", i, &[("i", i)]);
        }
        assert_eq!(event_count(), 4);
        assert_eq!(dropped(), 2);
        let json = chrome_trace_json();
        // Oldest two (cycle 0 and 1) were overwritten.
        assert!(!json.contains("\"cycle\":0,"));
        assert!(!json.contains("\"cycle\":1,"));
        assert!(json.contains("\"cycle\":2"));
        assert!(json.contains("\"cycle\":5"));
        assert!(json.contains("\"dropped_events\":2"));
    }

    #[test]
    fn counters_accumulate_per_track() {
        set_enabled(true);
        reset();
        count(Track::iommu(), "misses", 2);
        count(Track::iommu(), "misses", 3);
        count(Track::vaccel(1), "traps", 1);
        assert_eq!(counter_value(Track::iommu(), "misses"), 5);
        assert_eq!(counter_value(Track::vaccel(1), "traps"), 1);
        let dump = counters_dump();
        assert!(dump.contains("host-interface/iommu misses = 5"));
        assert!(dump.contains("hypervisor/vaccel1 traps = 1"));
    }

    #[test]
    fn chrome_json_has_metadata_and_sorted_cycles() {
        set_enabled(true);
        reset();
        // Emit deliberately out of cycle order (a span stamped at its
        // start can be emitted after later instants).
        instant(Track::iommu(), "iotlb_miss", 40, &[("set", 7)]);
        complete(Track::link(0), "dma_read", 12, 100, &[("bytes", 64)]);
        begin(Track::vaccel(0), "preempt.drain", 50, &[]);
        end(Track::vaccel(0), "preempt.drain", 90);
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"vaccel0\""));
        assert!(json.contains("\"name\":\"link0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        // Sorted: the dma_read at cycle 12 precedes the miss at 40.
        let dma = json.find("dma_read").unwrap();
        let miss = json.find("iotlb_miss").unwrap();
        assert!(dma < miss);
        // 12 cycles = 0.03 µs.
        assert!(json.contains("\"ts\":0.0300"));
    }

    #[test]
    fn flow_events_render_with_id_and_binding_point() {
        set_enabled(true);
        reset();
        flow_start(Track::vaccel(0), "job", 100, 0x1_0000_0007);
        flow_end(Track::vaccel(3), "job", 900, 0x1_0000_0007);
        let json = chrome_trace_json();
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"cat\":\"job\",\"id\":4294967303"));
        assert!(json.contains("\"bp\":\"e\""));
        // Flows never leak a dur field (the id rides there internally).
        assert!(!json.contains("\"dur\":"));
        reset();
    }

    #[test]
    fn chunk_round_trip_preserves_events_and_counters() {
        set_enabled(true);
        reset();
        instant(Track::iommu(), "iotlb_miss", 40, &[("set", 7)]);
        complete(Track::link(0), "dma_read", 12, 100, &[("bytes", 64)]);
        count(Track::iommu(), "misses", 3);
        let direct = chrome_trace_json();
        let chunk = obs::take_chunk();
        assert_eq!(event_count(), 0);
        assert!(counters().is_empty());
        obs::absorb_chunk(chunk);
        assert_eq!(chrome_trace_json(), direct);
        assert_eq!(counter_value(Track::iommu(), "misses"), 3);
        reset();
    }

    #[test]
    fn chunks_absorb_cross_thread_in_caller_order() {
        set_enabled(true);
        reset();
        let mut chunks = Vec::new();
        for dev in 0..2u64 {
            chunks.push(
                std::thread::spawn(move || {
                    set_enabled(true);
                    instant(Track::accel(dev as usize), "tick", 10 + dev, &[]);
                    count(Track::accel(dev as usize), "ticks", 1);
                    obs::take_chunk()
                })
                .join()
                .expect("worker"),
            );
        }
        for c in chunks {
            obs::absorb_chunk(c);
        }
        assert_eq!(event_count(), 2);
        assert_eq!(counter_value(Track::accel(0), "ticks"), 1);
        assert_eq!(counter_value(Track::accel(1), "ticks"), 1);
        let json = chrome_trace_json();
        assert!(json.contains("\"cycle\":10"));
        assert!(json.contains("\"cycle\":11"));
        reset();
    }

    #[test]
    fn reset_clears_events_and_counters() {
        set_enabled(true);
        instant(Track::channels(), "channel_switch", 1, &[]);
        count(Track::channels(), "switches", 1);
        reset();
        assert_eq!(event_count(), 0);
        assert_eq!(dropped(), 0);
        assert!(counters().is_empty());
    }
}
