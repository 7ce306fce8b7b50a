//! The observation context: the per-thread state behind the four
//! observation planes ([`crate::trace`], [`crate::metrics`],
//! [`crate::journal`], [`crate::spec`]) and the process-wide settings read
//! from the environment.
//!
//! # Gates
//!
//! Each thread owns one [`Gates`] value, copied from the environment when
//! the thread first touches a plane and overridden with [`set_gates`] (or a
//! plane's own `set_enabled`). Every emission function checks its own gate,
//! so instrumented sites call it unconditionally; a site only tests the gate
//! itself when building the arguments would cost a loop or an allocation.
//! The metrics gate is applied as a mask on an always-executed add, so the
//! metrics record path is branch-free.
//!
//! # The datapath tap
//!
//! The per-cycle device datapath (fabric mux tree and auditors, CCI host
//! side, IOMMU) does not gate itself site by site. The device takes one
//! [`crate::metrics::Tap`] per stepping burst ([`crate::metrics::with_tap`]),
//! which reads the gates and the device scope **once** and holds the
//! metrics plane for the burst, and passes it down: counters and
//! histograms are recorded through the tap, trace and spec calls are
//! skipped with `if tap.trace` / `if tap.spec`. Gates and scope change
//! only between runs, so a burst-held value is the value every site would
//! have read. The free recording functions are wrappers over a tap.
//!
//! # Device scope
//!
//! Deep layers (IOMMU, CCI host side, mux tree, auditors) record without
//! knowing which FPGA they belong to. The hypervisor claims the scope with
//! [`set_device`] before it steps its device; metrics series and spec
//! checks issued underneath read it back with [`device`] (the datapath
//! through its burst's tap).
//!
//! # Chunks
//!
//! All of a thread's observation state drains into one [`Chunk`]
//! ([`take_chunk`]) and merges into another thread's with
//! [`absorb_chunk`]. The node layer steps devices on worker threads: it
//! hands each worker the device's spec model ([`take_device`]), the worker
//! runs the device and drains one chunk, and the main thread absorbs the
//! chunks in device-index order. Trace events and journal phases are
//! appended in that order and every metric merge is a commutative add (or
//! a device-disjoint gauge write), so a parallel run's exports are
//! byte-identical to a serial run's.

use crate::time::Cycle;
use crate::{journal, metrics, spec, trace};
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Which observation planes record on a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gates {
    /// Flight recorder (`OPTIMUS_TRACE`, default off).
    pub trace: bool,
    /// Metrics plane (`OPTIMUS_METRICS`, default on).
    pub metrics: bool,
    /// Job-lifecycle journal (`OPTIMUS_JOURNAL`, default on).
    pub journal: bool,
    /// Isolation spec (`OPTIMUS_SPEC`, default off).
    pub spec: bool,
}

/// Every `OPTIMUS_*` setting the simulator reads, parsed once per process.
///
/// Flags share one spelling rule: unset or empty keeps the default;
/// `0`, `off`, `false` and `no` (any case) turn the flag off; any other
/// value turns it on. Numbers that do not parse keep the default.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Initial gates of every thread.
    pub gates: Gates,
    /// Trace ring capacity in events (`OPTIMUS_TRACE_CAP`).
    pub trace_cap: usize,
    /// Event-horizon fast-forward; `OPTIMUS_NO_FASTFWD` turns it off.
    pub fast_forward: bool,
    /// Batched-stepping burst length (`OPTIMUS_BATCH_STEP`, at least 1).
    pub batch_step: Cycle,
    /// Node worker threads (`OPTIMUS_NODE_THREADS`, at least 1).
    pub node_threads: Option<usize>,
    /// Lock-step node chunking instead of free-running (`OPTIMUS_LOCKSTEP`).
    pub lockstep: bool,
}

fn flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" => default,
            "0" | "off" | "false" | "no" => false,
            _ => true,
        },
        Err(_) => default,
    }
}

fn number<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl Env {
    fn parse() -> Env {
        Env {
            gates: Gates {
                trace: flag("OPTIMUS_TRACE", false),
                metrics: flag("OPTIMUS_METRICS", true),
                journal: flag("OPTIMUS_JOURNAL", true),
                spec: flag("OPTIMUS_SPEC", false),
            },
            trace_cap: number("OPTIMUS_TRACE_CAP")
                .filter(|&c| c > 0)
                .unwrap_or(trace::DEFAULT_CAPACITY),
            fast_forward: !flag("OPTIMUS_NO_FASTFWD", false),
            batch_step: number("OPTIMUS_BATCH_STEP")
                .unwrap_or(crate::simrate::DEFAULT_BATCH_STEP)
                .max(1),
            node_threads: number("OPTIMUS_NODE_THREADS").filter(|&n| n >= 1),
            lockstep: flag("OPTIMUS_LOCKSTEP", false),
        }
    }
}

/// The process's environment settings (read on first call).
pub fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(Env::parse)
}

/// One thread's observation state.
pub(crate) struct Ctx {
    pub(crate) gates: Cell<Gates>,
    pub(crate) device: Cell<u32>,
    pub(crate) trace: RefCell<trace::Recorder>,
    pub(crate) metrics: RefCell<metrics::Plane>,
    pub(crate) journal: RefCell<journal::Journal>,
    pub(crate) spec: RefCell<spec::SpecState>,
}

thread_local! {
    static CTX: Ctx = Ctx {
        gates: Cell::new(env().gates),
        device: Cell::new(0),
        trace: RefCell::new(trace::Recorder::with_capacity(env().trace_cap)),
        metrics: RefCell::new(metrics::Plane::default()),
        journal: RefCell::new(journal::Journal::default()),
        spec: RefCell::new(spec::SpecState::default()),
    };
}

/// Runs `f` on this thread's context (one TLS access).
#[inline]
pub(crate) fn with<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    CTX.with(f)
}

/// This thread's gates.
#[inline]
pub fn gates() -> Gates {
    with(|c| c.gates.get())
}

/// Replaces this thread's gates (node workers copy the main thread's).
pub fn set_gates(g: Gates) {
    with(|c| c.gates.set(g));
}

/// Changes one gate of this thread (the planes' `set_enabled`).
pub(crate) fn update_gates(f: impl FnOnce(&mut Gates)) {
    with(|c| {
        let mut g = c.gates.get();
        f(&mut g);
        c.gates.set(g);
    });
}

/// Scopes subsequent device-relative metrics and spec checks to device `d`.
#[inline]
pub fn set_device(d: u32) {
    with(|c| c.device.set(d));
}

/// The current device scope.
#[inline]
pub fn device() -> u32 {
    with(|c| c.device.get())
}

/// A thread's drained observation state, for replay on another thread.
/// The contents are opaque: a chunk only moves between contexts.
#[derive(Default)]
pub struct Chunk {
    trace: trace::Recorder,
    metrics: metrics::Plane,
    journal: journal::Journal,
    spec: spec::SpecState,
}

/// Drains everything this thread has observed into a [`Chunk`], leaving the
/// planes empty (the trace ring keeps its capacity, the gates and device
/// scope are untouched).
pub fn take_chunk() -> Chunk {
    with(|c| Chunk {
        trace: c.trace.borrow_mut().take(),
        metrics: std::mem::take(&mut *c.metrics.borrow_mut()),
        journal: std::mem::take(&mut *c.journal.borrow_mut()),
        spec: std::mem::take(&mut *c.spec.borrow_mut()),
    })
}

/// Moves device `d`'s spec model out of this thread, as a chunk a worker
/// absorbs before stepping that device.
pub fn take_device(d: u32) -> Chunk {
    Chunk {
        spec: with(|c| c.spec.borrow_mut().take_device(d)),
        ..Chunk::default()
    }
}

/// Merges a chunk into this thread as if it had been observed here: trace
/// events replay through the ring, journal phases append, metrics add and
/// spec models and violations move in.
pub fn absorb_chunk(chunk: Chunk) {
    with(|c| {
        c.trace.borrow_mut().absorb(chunk.trace);
        c.metrics.borrow_mut().absorb(chunk.metrics);
        c.journal.borrow_mut().absorb(chunk.journal);
        c.spec.borrow_mut().absorb(chunk.spec);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_chunk_carries_every_plane_across_threads() {
        set_gates(Gates {
            trace: true,
            metrics: true,
            journal: true,
            spec: true,
        });
        let gates = gates();
        let chunk = std::thread::spawn(move || {
            set_gates(gates);
            set_device(2);
            trace::instant(trace::Track::iommu(), "tick", 5, &[]);
            metrics::inc(metrics::HV_MMIO_TRAPS, 1, 3);
            journal::phase(9, journal::Phase::Executing, 5);
            spec::check_dma(0, 0x40, 0x40, false);
            take_chunk()
        })
        .join()
        .expect("worker");
        absorb_chunk(chunk);
        assert_eq!(trace::event_count(), 1);
        assert_eq!(metrics::counter_value(metrics::HV_MMIO_TRAPS, 2, 1), 3);
        assert_eq!(journal::job_count(), 1);
        assert_eq!(spec::violation_count(), 1);
    }

    #[test]
    fn device_chunk_moves_only_that_model() {
        set_gates(Gates {
            trace: false,
            metrics: true,
            journal: true,
            spec: true,
        });
        spec::map_page(1, 0x0, 0x1000, 0x1000, true, 5);
        spec::bind_slot(1, 0, 5);
        spec::map_page(2, 0x0, 0x9000, 0x1000, true, 6);
        let chunk = take_device(1);
        // Device 1's model left this thread: its access is now unmodeled.
        set_device(1);
        spec::check_dma(0, 0x40, 0x1040, false);
        assert_eq!(spec::violations()[0].kind, "dma_unmodeled_device");
        absorb_chunk(chunk);
        spec::check_dma(0, 0x40, 0x1040, false);
        assert_eq!(spec::violation_count(), 1);
    }

    #[test]
    fn flag_spellings() {
        for (v, want) in [("1", true), ("on", true), ("TRUE", true), ("yes", true)] {
            std::env::set_var("OPTIMUS_OBS_TEST_FLAG", v);
            assert_eq!(flag("OPTIMUS_OBS_TEST_FLAG", false), want, "{v}");
        }
        for v in ["0", "off", "False", "no", " 0 "] {
            std::env::set_var("OPTIMUS_OBS_TEST_FLAG", v);
            assert!(!flag("OPTIMUS_OBS_TEST_FLAG", true), "{v}");
        }
        std::env::set_var("OPTIMUS_OBS_TEST_FLAG", "");
        assert!(flag("OPTIMUS_OBS_TEST_FLAG", true));
        assert!(!flag("OPTIMUS_OBS_TEST_FLAG", false));
        std::env::remove_var("OPTIMUS_OBS_TEST_FLAG");
        assert!(flag("OPTIMUS_OBS_TEST_FLAG", true));
    }
}
