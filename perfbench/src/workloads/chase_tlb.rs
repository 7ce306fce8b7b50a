//! chase_tlb: one `Optimus` with 8 LinkedList slots, 4 of them chasing
//! pointers through 1 GB each on 2 MB pages over UPI only — 4 GB in all,
//! 4x the IOTLB reach. Single thread.
//!
//! The run is latency-bound and most lookups miss, so host time goes to
//! IOTLB miss/conflict handling and page walks, event-horizon fast-forward
//! over idle cycles, and lazy line fill of host memory. Mux and link
//! bandwidth, preemption and node threading are nearly absent.

use optimus::hypervisor::{Optimus, OptimusConfig, TrapCost};
use optimus::scheduler::SchedPolicy;
use optimus_accel::linked_list::LlKernel;
use optimus_accel::registry::AccelKind;
use optimus_cci::channel::SelectorPolicy;
use optimus_fabric::mmio::accel_reg;
use optimus_mem::addr::PageSize;
use optimus_sim::metrics;
use optimus_sim::rng::derive_seed;
use optimus_sim::time::{ms_to_cycles, Cycle};
use optimus_workloads::linked_list::linked_list_line_filler;

use super::{
    check_benign, digest_probe, port_jain, probe, record_journal, record_layers, Episode,
    BENIGN_CHECKS,
};
use crate::digest::Digest;
use crate::spans::span;

const SLOTS: usize = 8;
const CHASERS: usize = 4;
const WORKING_SET: u64 = 1 << 30;
/// Warm-up: long enough for the four chasers to fill the IOTLB.
const WARMUP: Cycle = 2_000_000;
const STEP: Cycle = 400_000;
const STEPS: u64 = 60;

pub const SETTINGS: &str = "{\"devices\":1,\"slots\":8,\"chasers\":4,\"accel\":\"LinkedList\",\"working_set_mb\":1024,\"page\":\"2M\",\"channel\":\"UPI\",\"time_slice_cycles\":4000000}";

pub fn episode(seed: u64, ep: &mut Episode) {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Ll; SLOTS]);
    cfg.channel_policy = SelectorPolicy::UpiOnly;
    cfg.seed = derive_seed(seed, 0);
    cfg.time_slice = ms_to_cycles(10.0);
    cfg.sched_policy = SchedPolicy::RoundRobin;
    cfg.trap = TrapCost::Virtualized;
    let mut hv = span("hv.new", || Optimus::new(cfg));
    for s in 0..CHASERS {
        let vm = hv.create_vm(&format!("chaser{s}"));
        let va = hv.create_vaccel(vm, s);
        let nodes = WORKING_SET / 64;
        let list_seed = derive_seed(seed, 1 + s as u64);
        let mut g = hv.guest(va);
        let region = span("hv.alloc", || {
            g.alloc_dma_lazy_lines_sized(WORKING_SET, PageSize::Huge, |gva, hpa| {
                linked_list_line_filler(gva, hpa, nodes, list_seed)
            })
        });
        span("hv.mmio", || {
            g.mmio_write(accel_reg::APP_BASE + LlKernel::REG_START, region.raw())
        });
        span("hv.mmio", || {
            g.mmio_write(accel_reg::APP_BASE + LlKernel::REG_STEPS, 0)
        });
        span("hv.mmio", || {
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START)
        });
    }
    span("node.warmup", || hv.run(WARMUP));
    ep.plan(STEPS + BENIGN_CHECKS + CHASERS as u64);
    ep.setup_done();

    metrics::reset();
    let open = [probe(&hv)];
    let bytes_open: Vec<u64> = (0..CHASERS).map(|s| port_bytes(&hv, s)).collect();
    for i in 0..STEPS {
        ep.timed(|| span("node.step", || hv.run(STEP)));
        let now = hv.now();
        ep.planned_op(now >= open[0].now + (i + 1) * STEP, || {
            format!("step {i} stalled at {now}")
        });
    }
    let close = [probe(&hv)];
    ep.device_cycles = close[0].now - open[0].now;

    let mut d = Digest::default();
    digest_probe(&mut d, &close[0]);
    let mut progress = 0;
    for (s, &b0) in bytes_open.iter().enumerate() {
        let moved = port_bytes(&hv, s) - b0;
        d.word(moved);
        progress += moved;
        ep.planned_op(moved > 0, || format!("chaser {s} made no progress"));
    }
    ep.digest = Some(d.finish());
    check_benign(ep, &open, &close, 0);
    record_layers(
        ep,
        &open,
        &close,
        ep.device_cycles,
        hv.device().host().memory().materialized_frames(),
    );
    ep.set("accel.progress_bytes", progress as f64);
    ep.set("fabric.jain", port_jain(1, CHASERS as u32));
    record_journal(ep);
}

/// DMA bytes a slot's port has moved (both directions).
fn port_bytes(hv: &Optimus, slot: usize) -> u64 {
    let (r, w) = hv.device().port(slot).byte_counts();
    r + w
}
