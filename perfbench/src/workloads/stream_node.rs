//! stream_node: an `OptimusNode` of 2 devices x 8 MemBench slots with one
//! tenant per slot (16 tenants), each streaming over its own 64 MB working
//! set (512 MB per device, inside the IOTLB reach). Modes cycle read /
//! write / mixed. The node runs free with 2 worker threads.
//!
//! Every cycle moves packets through the mux tree, the auditors and the
//! CCI channels; there are no idle cycles to skip, the IOTLB only hits,
//! devices step in parallel and nothing is preempted.

use optimus::hypervisor::Backing;
use optimus::node::{NodeConfig, OptimusNode, Placement};
use optimus::scheduler::SchedPolicy;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_sim::metrics;
use optimus_sim::rng::derive_seed;
use optimus_sim::time::{ms_to_cycles, Cycle};

use super::{
    check_benign, digest_probe, port_jain, probe, record_journal, record_layers, Episode, Probe,
    BENIGN_CHECKS,
};
use crate::digest::Digest;
use crate::spans::span;

const DEVICES: usize = 2;
const SLOTS: usize = 8;
const WORKING_SET: u64 = 64 << 20;
const WARMUP: Cycle = 200_000;
const STEP: Cycle = 25_000;
const STEPS: u64 = 40;

pub const SETTINGS: &str = "{\"devices\":2,\"slots\":8,\"tenants\":16,\"accel\":\"MemBench\",\"working_set_mb\":64,\"time_slice_cycles\":4000000,\"lockstep\":false}";

pub fn episode(seed: u64, threads: usize, ep: &mut Episode) {
    let mut cfg = NodeConfig::new(vec![AccelKind::Mb; SLOTS], DEVICES);
    cfg.seed = seed;
    cfg.placement = Placement::RoundRobin;
    cfg.time_slice = ms_to_cycles(10.0);
    cfg.sched_policy = SchedPolicy::RoundRobin;
    cfg.threads = Some(threads);
    cfg.lockstep = Some(false);
    let mut node = span("node.new", || OptimusNode::new(cfg)).expect("node boots");
    for t in 0..DEVICES * SLOTS {
        let h = node.create_tenant_on(DeviceId((t / SLOTS) as u32), &format!("stream{t}"));
        let mut g = node.guest(h);
        let region = span("hv.alloc", || {
            g.alloc_dma_with(WORKING_SET, Backing::Scratch)
        });
        for (reg, val) in [
            (MbKernel::REG_REGION, region.raw()),
            (MbKernel::REG_BYTES, WORKING_SET),
            (MbKernel::REG_MODE, t as u64 % 3),
            (MbKernel::REG_OPS, 0),
            (MbKernel::REG_SEED, derive_seed(seed, 1 + t as u64)),
        ] {
            span("hv.mmio", || g.mmio_write(accel_reg::APP_BASE + reg, val));
        }
        span("hv.mmio", || {
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START)
        });
    }
    span("node.warmup", || node.run(WARMUP));
    ep.plan(STEPS + BENIGN_CHECKS + (DEVICES * SLOTS) as u64);
    ep.setup_done();

    metrics::reset();
    let probes = |node: &OptimusNode| -> Vec<Probe> {
        (0..DEVICES)
            .map(|d| probe(node.device(DeviceId(d as u32))))
            .collect()
    };
    let port_bytes = |node: &OptimusNode| -> Vec<u64> {
        (0..DEVICES * SLOTS)
            .map(|t| {
                let (r, w) = node
                    .device(DeviceId((t / SLOTS) as u32))
                    .device()
                    .port(t % SLOTS)
                    .byte_counts();
                r + w
            })
            .collect()
    };
    let open = probes(&node);
    let bytes_open = port_bytes(&node);
    let start = node.now();
    for i in 0..STEPS {
        ep.timed(|| span("node.step", || node.run(STEP)));
        let now = node.now();
        ep.planned_op(now >= start + (i + 1) * STEP, || {
            format!("step {i} stalled at {now}")
        });
    }
    let close = probes(&node);
    ep.device_cycles = open.iter().zip(&close).map(|(a, b)| b.now - a.now).sum();

    let mut d = Digest::default();
    for p in &close {
        digest_probe(&mut d, p);
    }
    let mut progress = 0;
    for (t, (b1, b0)) in port_bytes(&node).into_iter().zip(bytes_open).enumerate() {
        let moved = b1 - b0;
        d.word(moved);
        progress += moved;
        ep.planned_op(moved > 0, || format!("tenant stream{t} made no progress"));
    }
    ep.digest = Some(d.finish());
    check_benign(ep, &open, &close, 0);
    let frames = (0..DEVICES)
        .map(|d| {
            node.device(DeviceId(d as u32))
                .device()
                .host()
                .memory()
                .materialized_frames()
        })
        .sum();
    record_layers(ep, &open, &close, node.now() - start, frames);
    ep.set("accel.progress_bytes", progress as f64);
    ep.set("fabric.jain", port_jain(DEVICES as u32, SLOTS as u32));
    record_journal(ep);
}
