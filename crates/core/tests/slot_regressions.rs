//! Regressions in the slot lifecycle: migrating a tenant that is only
//! queued on a slot must not disturb the slot's running occupant, and a
//! vaccel preempted before it ever started must not be resumed from state
//! that was never saved.

use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode};
use optimus::vaccel::VaccelRun;
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_sim::metrics;

const LINES: u64 = 2048;

/// Programs an MD5 job over `LINES` seeded lines and posts `CMD_START`.
fn start_md5(node: &mut OptimusNode, h: NodeVaccel, seed: u8) {
    let mut g = node.guest(h);
    let state = g.alloc_dma(1 << 21);
    g.set_state_buffer(state);
    let region = g.alloc_dma(1 << 21);
    let data: Vec<u8> = (0..LINES * 64)
        .map(|b| (b as u8).wrapping_mul(31) ^ seed)
        .collect();
    g.write_mem(region, &data);
    g.mmio_write(accel_reg::APP_BASE + hash_reg::SRC, region.raw());
    g.mmio_write(
        accel_reg::APP_BASE + hash_reg::DST,
        region.raw() + LINES * 64,
    );
    g.mmio_write(accel_reg::APP_BASE + hash_reg::LINES, LINES);
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

/// Two MD5 tenants share device 0's only slot; the first runs, the second
/// waits in the queue behind it. With `migrate_queued`, the waiting tenant
/// moves to device 1 while the first is mid-job. Returns the running
/// tenant's digest, its completion cycle and device 0's counters.
fn run_slot_mates(migrate_queued: bool) -> (u64, u64, [u64; 3]) {
    metrics::set_enabled(true);
    metrics::reset();
    let mut cfg = NodeConfig::new(vec![AccelKind::Md5], 2);
    cfg.threads = Some(1);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let running = node.create_tenant_on(DeviceId(0), "running");
    let queued = node.create_tenant_on(DeviceId(0), "queued");
    start_md5(&mut node, running, 1);
    start_md5(&mut node, queued, 2);
    node.run(2_000);
    assert!(
        !node.vaccel_completed(running),
        "the running job must still be in flight"
    );
    if migrate_queued {
        node.migrate(queued, DeviceId(1))
            .expect("queued tenant migrates");
    }
    assert!(
        node.run_until_done(running, 50_000_000),
        "running job never completed"
    );
    let digest = node
        .guest(running)
        .mmio_read(accel_reg::APP_BASE + hash_reg::DIGEST0);
    let stats = node.device(DeviceId(0)).stats();
    let rejects = metrics::counter_total(metrics::FABRIC_AUDITOR_REJECTS);
    metrics::reset();
    (
        digest,
        node.now(),
        [stats.discarded_dma, stats.dropped_packets, rejects],
    )
}

/// Migrating a queued tenant used to scrub its slot regardless of who
/// occupied it, resetting the running slot-mate's accelerator mid-job.
#[test]
fn migrating_a_queued_tenant_leaves_its_running_slot_mate_alone() {
    let (digest, done_at, faults) = run_slot_mates(true);
    let (plain_digest, plain_done_at, plain_faults) = run_slot_mates(false);
    assert_eq!(
        faults,
        [0, 0, 0],
        "discarded DMA / dropped packets / auditor rejects"
    );
    assert_eq!(plain_faults, [0, 0, 0]);
    assert_eq!(digest, plain_digest, "the running job's digest changed");
    assert_eq!(done_at, plain_done_at, "the running job's completion moved");
}

fn mb_program(hv: &mut Optimus, va: optimus::vaccel::VaccelId, ops: u64, seed: u64) {
    let mut g = hv.guest(va);
    let state = g.alloc_dma(1 << 21);
    g.set_state_buffer(state);
    let region = g.alloc_dma(1 << 21);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, ops);
    g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, seed);
}

/// A tenant with its registers written but no `CMD_START`, sharing a slot
/// with a running tenant, is scheduled and preempted with nothing to save.
/// Its next install used to resume that never-saved state and panic while
/// decoding it. It must stay `Fresh` instead, and run its job normally once
/// the guest starts it.
#[test]
fn preempting_a_never_started_vaccel_keeps_it_fresh() {
    let mut cfg = OptimusConfig::new(vec![AccelKind::Mb]);
    cfg.time_slice = 5_000;
    let mut hv = Optimus::new(cfg);
    let busy_vm = hv.create_vm("busy");
    let busy = hv.create_vaccel(busy_vm, 0);
    let idle_vm = hv.create_vm("programmed");
    let idle = hv.create_vaccel(idle_vm, 0);
    mb_program(&mut hv, busy, 1 << 40, 7);
    hv.guest(busy)
        .mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    mb_program(&mut hv, idle, 200, 9);
    // Several slices: the programmed tenant is installed, preempted, and
    // installed again.
    hv.run(60_000);
    assert!(matches!(
        hv.vaccel_run(idle),
        Some(VaccelRun::Fresh | VaccelRun::Scheduled)
    ));
    hv.guest(idle)
        .mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
    assert!(
        hv.run_until_done(idle, 5_000_000),
        "the started job never completed"
    );
    let done = hv
        .guest(idle)
        .mmio_read(accel_reg::APP_BASE + MbKernel::REG_COMPLETED);
    assert_eq!(done, 200);
}
