//! The three seeded workloads and what they share: the per-episode
//! record, operation accounting, and the probes that read each layer's
//! public counters.
//!
//! An episode is one fresh set-up followed by a fixed-size measured phase
//! (and, for churn_mix, a drain). Every episode of a run replays the same
//! inputs, so its simulated outputs — and their digest — repeat exactly. A
//! run is a warm-up episode plus a fixed number of measured ones.

pub mod chase_tlb;
pub mod churn_mix;
pub mod stream_node;

use std::collections::BTreeMap;
use std::time::Instant;

use optimus::hypervisor::HvStats;
use optimus::Optimus;
use optimus_sim::metrics::{self, Metric, SeriesValue};
use optimus_sim::{journal, trace};

use crate::digest::Digest;

/// Node worker threads of stream_node and churn_mix (the host has 2 cores).
pub const NODE_THREADS: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["chase_tlb", "stream_node", "churn_mix"];

/// Host seconds of one untraced measured phase of the workload on the
/// shared 2-vCPU Xeon VM the benchmark was sized on.
fn nominal_episode_s(workload: &str) -> f64 {
    match workload {
        "chase_tlb" => 0.65,
        "stream_node" => 0.75,
        _ => 1.05,
    }
}

/// Measured episodes of a run of `seconds`: a fixed count, so that the
/// same seed always simulates the same work and counts the same
/// operations, however fast or busy the host is. On the host it was sized
/// on, the measured phases add up to about `seconds`.
pub fn episodes(workload: &str, seconds: f64) -> u32 {
    (seconds / nominal_episode_s(workload)).ceil().max(2.0) as u32
}

/// The workload's fixed settings plus its node worker threads, as JSON.
pub fn settings(workload: &str) -> String {
    let (fixed, threads) = match workload {
        "chase_tlb" => (chase_tlb::SETTINGS, 1),
        "stream_node" => (stream_node::SETTINGS, NODE_THREADS),
        _ => (churn_mix::SETTINGS, NODE_THREADS),
    };
    format!("{{\"threads\":{threads},\"workload\":{fixed}}}")
}

/// Everything one episode measured and checked.
#[derive(Debug)]
pub struct Episode {
    /// Host seconds from the start of the episode until its measured
    /// phase opened.
    pub setup_s: f64,
    /// Host seconds of the measured phase, benchmark-side checks excluded.
    pub timed_s: f64,
    /// Simulated device-cycles advanced in the measured phase, summed
    /// over devices.
    pub device_cycles: u64,
    /// Digest of the simulated outputs at the end of the measured phase.
    pub digest: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures of the churn_mix drain step (a subset of `failed`).
    pub drain_failed: u64,
    /// Per-layer counters of the measured phase.
    pub counters: BTreeMap<&'static str, f64>,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Operations of the fixed plan not yet attempted.
    plan_left: u64,
    in_drain: bool,
    start: Instant,
}

impl Episode {
    pub fn new() -> Self {
        Self {
            setup_s: 0.0,
            timed_s: 0.0,
            device_cycles: 0,
            digest: None,
            attempted: 0,
            failed: 0,
            drain_failed: 0,
            counters: BTreeMap::new(),
            failures: Vec::new(),
            plan_left: 0,
            in_drain: false,
            start: Instant::now(),
        }
    }

    /// Marks the end of set-up: the measured phase opens now.
    pub fn setup_done(&mut self) {
        self.setup_s = self.start.elapsed().as_secs_f64();
    }

    /// Runs `f` as part of the measured phase's host time. Once the drain
    /// has begun nothing is timed: the drain's cycles are not in
    /// `device_cycles`, and its host time must not depend on the defects
    /// it exposes.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.in_drain {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.timed_s += t.elapsed().as_secs_f64();
        r
    }

    /// Announces `n` more operations of the episode's fixed plan; if the
    /// episode panics, the ones not yet attempted count as failed.
    pub fn plan(&mut self, n: u64) {
        self.plan_left += n;
    }

    /// Records one operation of the fixed plan.
    pub fn planned_op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.plan_left = self.plan_left.saturating_sub(1);
        self.op(ok, what);
    }

    /// Records one operation whose occurrence depends on the simulation
    /// (a job resubmission, a frame handoff).
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(ok, self.in_drain, what);
    }

    /// Records a check of the measured phase's outputs (a golden or
    /// cross-episode digest), which counts against the measured phase even
    /// when it runs after the drain.
    pub fn measured_op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(ok, false, what);
    }

    fn record(&mut self, ok: bool, drain: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if drain {
                self.drain_failed += 1;
            }
            let phase = if drain { "drain" } else { "measured" };
            self.failures.push(format!("{phase}: {}", what()));
        }
    }

    /// Enters the drain step: later failures are attributed to it.
    pub fn enter_drain(&mut self) {
        self.in_drain = true;
    }

    /// Accounts a panic caught at the episode boundary: the panicking
    /// operation and every operation of the plan not yet attempted fail.
    pub fn abort(&mut self, why: &str) {
        let lost = self.plan_left.max(1);
        self.plan_left = 0;
        self.attempted += lost;
        self.failed += lost;
        if self.in_drain {
            self.drain_failed += lost;
        }
        let phase = if self.in_drain { "drain" } else { "measured" };
        self.failures
            .push(format!("{phase}: panic ({lost} operations lost): {why}"));
    }

    /// Failures outside the drain step.
    pub fn timed_failed(&self) -> u64 {
        self.failed - self.drain_failed
    }

    /// Whether the measured phase and its outputs passed every check; the
    /// drain step's failures are reported through `failed` alone.
    pub fn correct(&self) -> bool {
        self.timed_failed() == 0
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.counters.insert(name, v);
    }

    /// Simulated throughput of the measured phase, Mcycles per host second.
    pub fn sim_mcps(&self) -> f64 {
        self.device_cycles as f64 / self.timed_s / 1e6
    }
}

/// Pins the program's thread-local planes by value and clears them, so an
/// episode never depends on the environment or on a previous episode.
pub fn reset_planes() {
    metrics::set_enabled(true);
    journal::set_enabled(true);
    trace::set_enabled(false);
    optimus_sim::spec::set_enabled(false);
    metrics::reset();
    journal::reset();
    trace::reset();
    optimus_sim::spec::reset();
}

/// A device's public counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub now: u64,
    pub stats: HvStats,
    /// IOTLB (hits, speculative hits, misses, conflict evictions).
    pub tlb: (u64, u64, u64, u64),
    pub io_faults: u64,
}

pub fn probe(hv: &Optimus) -> Probe {
    let host = hv.device().host();
    Probe {
        now: hv.now(),
        stats: hv.stats(),
        tlb: host.iommu().tlb().stats(),
        io_faults: host.iommu().faults(),
    }
}

/// Feeds the simulated outputs of one device into `d`: its clock, every
/// `HvStats` counter and the IOTLB counters.
pub fn digest_probe(d: &mut Digest, p: &Probe) {
    let s = &p.stats;
    d.words(&[
        p.now,
        s.traps,
        s.hypercalls,
        s.pinned_pages,
        s.context_switches,
        s.preemptions,
        s.forced_resets,
        s.dropped_packets,
        s.discarded_dma,
        s.discarded_mmio,
        s.alerts_starvation,
        s.alerts_iotlb_thrash,
        s.alerts_preempt_overrun,
        s.alerts_save_refused,
        p.tlb.0,
        p.tlb.1,
        p.tlb.2,
        p.tlb.3,
        p.io_faults,
    ]);
}

/// Sum of every sample and the sample count of histogram `m`, over all
/// devices and labels.
fn hist_totals(m: Metric) -> (u64, u64) {
    metrics::snapshot()
        .into_iter()
        .filter(|s| s.def.id == m)
        .fold((0, 0), |(sum, n), s| match s.value {
            SeriesValue::Hist(h) => (sum + h.sum, n + h.count),
            _ => (sum, n),
        })
}

fn hist_mean(m: Metric) -> f64 {
    let (sum, n) = hist_totals(m);
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Records the measured phase's per-layer counters: `open`/`close` are
/// per-device probes at its ends, and the metrics plane was reset when it
/// opened. `node_cycles` is the span of simulated time it covered.
pub fn record_layers(
    ep: &mut Episode,
    open: &[Probe],
    close: &[Probe],
    node_cycles: u64,
    materialized: usize,
) {
    let sum = |f: &dyn Fn(&Probe, &Probe) -> u64| -> u64 {
        open.iter().zip(close).map(|(a, b)| f(a, b)).sum()
    };
    let traps = sum(&|a, b| b.stats.traps - a.stats.traps);
    let pinned: u64 = close.iter().map(|p| p.stats.pinned_pages).sum();
    let switches = sum(&|a, b| b.stats.context_switches - a.stats.context_switches);
    let preemptions = sum(&|a, b| b.stats.preemptions - a.stats.preemptions);
    let resets = sum(&|a, b| b.stats.forced_resets - a.stats.forced_resets);
    let discarded = sum(&|a, b| b.stats.discarded_dma - a.stats.discarded_dma);
    let alerts = sum(&|a, b| {
        let n = |s: &HvStats| {
            s.alerts_starvation
                + s.alerts_iotlb_thrash
                + s.alerts_preempt_overrun
                + s.alerts_save_refused
        };
        n(&b.stats) - n(&a.stats)
    });
    let hits = sum(&|a, b| (b.tlb.0 + b.tlb.1) - (a.tlb.0 + a.tlb.1));
    let misses = sum(&|a, b| b.tlb.2 - a.tlb.2);
    let conflicts = sum(&|a, b| b.tlb.3 - a.tlb.3);
    ep.set("hv.traps", traps as f64);
    ep.set("hv.pinned_pages", pinned as f64);
    ep.set("hv.context_switches", switches as f64);
    ep.set("hv.preemptions", preemptions as f64);
    ep.set("hv.forced_resets", resets as f64);
    ep.set(
        "hv.trap_cycles_mean",
        hist_mean(metrics::HV_MMIO_TRAP_CYCLES),
    );
    ep.set(
        "hv.preempt_cycles_mean",
        hist_mean(metrics::HV_PREEMPT_CYCLES),
    );
    ep.set(
        "hv.install_cycles_mean",
        hist_mean(metrics::HV_INSTALL_CYCLES),
    );
    ep.set("watchdog.alerts", alerts as f64);
    ep.set("mem.iotlb_hits", hits as f64);
    ep.set("mem.iotlb_misses", misses as f64);
    ep.set("mem.iotlb_conflicts", conflicts as f64);
    let lookups = hits + misses;
    ep.set(
        "mem.iotlb_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    ep.set(
        "mem.page_walk_cycles_mean",
        hist_mean(metrics::MEM_PAGE_WALK_CYCLES),
    );
    ep.set("mem.materialized_frames", materialized as f64);
    ep.set(
        "mem.io_page_faults",
        sum(&|a, b| b.io_faults - a.io_faults) as f64,
    );
    let dma_bytes = metrics::counter_total(metrics::CCI_DMA_BYTES);
    ep.set("cci.dma_bytes", dma_bytes as f64);
    ep.set(
        "cci.channel_packets",
        metrics::counter_total(metrics::CCI_CHANNEL_PACKETS) as f64,
    );
    ep.set(
        "cci.channel_switches",
        metrics::counter_total(metrics::CCI_CHANNEL_SWITCHES) as f64,
    );
    ep.set(
        "cci.dma_rt_cycles_mean",
        hist_mean(metrics::CCI_DMA_RT_CYCLES),
    );
    ep.set(
        "cci.sim_gbps",
        optimus_sim::time::gbps(dma_bytes, node_cycles.max(1)),
    );
    let grants = metrics::counter_total(metrics::FABRIC_MUX_GRANTS);
    let stalls = metrics::counter_total(metrics::FABRIC_MUX_STALLS);
    ep.set("fabric.mux_grants", grants as f64);
    ep.set("fabric.mux_stalls", stalls as f64);
    let arb = grants + stalls;
    ep.set(
        "fabric.mux_stall_ratio",
        if arb == 0 {
            0.0
        } else {
            stalls as f64 / arb as f64
        },
    );
    ep.set(
        "fabric.auditor_rejects",
        metrics::counter_total(metrics::FABRIC_AUDITOR_REJECTS) as f64,
    );
    ep.set("fabric.discarded_dma", discarded as f64);
    ep.set(
        "node.chunks",
        metrics::counter_total(metrics::NODE_CHUNKS) as f64,
    );
    ep.set(
        "node.migrations",
        metrics::counter_total(metrics::NODE_MIGRATIONS) as f64,
    );
    ep.set("sim.cycles", ep.device_cycles as f64);
}

/// Jain's fairness index of the packets each of the first `ports` ports
/// of every device forwarded through the mux-tree root in the measured
/// phase, averaged over `devices` devices.
pub fn port_jain(devices: u32, ports: u32) -> f64 {
    let per_device = (0..devices).map(|d| {
        let x: Vec<f64> = (0..ports)
            .map(|p| metrics::counter_value(metrics::FABRIC_PORT_FORWARDED, d, p) as f64)
            .collect();
        let (sum, sq) = (x.iter().sum::<f64>(), x.iter().map(|v| v * v).sum::<f64>());
        if sq == 0.0 {
            0.0
        } else {
            sum * sum / (x.len() as f64 * sq)
        }
    });
    per_device.sum::<f64>() / devices.max(1) as f64
}

/// The number of checks [`check_benign`] makes.
pub const BENIGN_CHECKS: u64 = 5;

/// Checks that a benign span of simulation raised none of the isolation
/// counters and that the journal conserves jobs, one planned operation per
/// check. `rejects_open` is the auditor-reject counter when it opened.
pub fn check_benign(ep: &mut Episode, open: &[Probe], close: &[Probe], rejects_open: u64) {
    let delta = |f: &dyn Fn(&Probe) -> u64| -> u64 {
        open.iter().zip(close).map(|(a, b)| f(b) - f(a)).sum()
    };
    let discarded = delta(&|p| p.stats.discarded_dma);
    ep.planned_op(discarded == 0, || format!("discarded_dma = {discarded}"));
    let dropped = delta(&|p| p.stats.dropped_packets);
    ep.planned_op(dropped == 0, || format!("dropped_packets = {dropped}"));
    let faults = delta(&|p| p.io_faults);
    ep.planned_op(faults == 0, || format!("io_page_faults = {faults}"));
    let rejects = metrics::counter_total(metrics::FABRIC_AUDITOR_REJECTS) - rejects_open;
    ep.planned_op(rejects == 0, || format!("auditor_rejects = {rejects}"));
    let broken = conservation_breaks();
    ep.planned_op(broken.is_empty(), || {
        format!("journal conservation broken for {broken:?}")
    });
}

/// Records the journal-derived counters: jobs completed, whether every
/// tenant conserves its jobs, and the worst tenant's nearest-rank p95
/// end-to-end latency (simulated cycles) with the pooled sample count.
pub fn record_journal(ep: &mut Episode) {
    let tenants = journal::tenant_summaries();
    ep.set(
        "journal.jobs_completed",
        tenants.iter().map(|t| t.completed).sum::<u64>() as f64,
    );
    ep.set(
        "journal.conservation_ok",
        conservation_breaks().is_empty() as u8 as f64,
    );
    ep.set(
        "slo.e2e_cycles_p95",
        tenants.iter().map(|t| t.e2e.p95).max().unwrap_or(0) as f64,
    );
    ep.set(
        "slo.e2e_n",
        tenants.iter().map(|t| t.e2e.count).sum::<u64>() as f64,
    );
}

/// Tenants whose journal summary breaks
/// `submitted = completed + evicted + in_flight`.
pub fn conservation_breaks() -> Vec<String> {
    journal::tenant_summaries()
        .into_iter()
        .filter(|t| t.submitted != t.completed + t.evicted + t.in_flight)
        .map(|t| t.tenant)
        .collect()
}
