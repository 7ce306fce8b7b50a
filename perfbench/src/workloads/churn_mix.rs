//! churn_mix: an `OptimusNode` of 2 devices x [GAU, SHA-512, AES,
//! MemBench], three tenants per slot, 100k-cycle slices, 2 worker threads.
//!
//! A GAU -> SHA-512 pipeline on device 0 hands frames over a shared span
//! (`mem_share` by the producer, zero-copy `retrieve_shared` by the
//! consumer); every frame's digest is checked against a host replay. The
//! measured phase interleaves seeded control-plane calls — live update
//! (alternating devices), migration of the tenant installed on a slot,
//! share relinquish/reclaim/re-share, and a monitoring scrape — with
//! closed-loop job resubmission. Each episode ends with a device drain:
//! every tenant left on device 0, queued ones included, is migrated to
//! device 1 in tenant order, then a verification span runs. The drain is
//! not timed.
//!
//! Host time goes to the scheduler and preemption, snapshots, migration,
//! share hypercalls, real accelerator compute and journal emission. The
//! pipeline stays on one device, so the node runs free: a live
//! cross-device share drops it onto the lock-step path, which at this
//! commit stalls in one-cycle chunks (see NOTES.md).

use optimus::hypervisor::Backing;
use optimus::node::{NodeConfig, NodeVaccel, OptimusNode, Placement};
use optimus::scheduler::SchedPolicy;
use optimus_accel::aes::AesKernel;
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::image::{ConvKernel, ROW_PIXELS};
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_algo::image::{gaussian_blur, Image};
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_mem::addr::{Gva, PAGE_2M};
use optimus_sim::rng::{derive_seed, SplitMix64};
use optimus_sim::time::Cycle;
use optimus_sim::{journal, metrics};

use std::collections::BTreeMap;

use super::{
    check_benign, digest_probe, port_jain, probe, record_journal, record_layers, Episode, Probe,
    BENIGN_CHECKS,
};
use crate::digest::Digest;
use crate::spans::span;

const DEVICES: usize = 2;
const KINDS: [AccelKind; 4] = [
    AccelKind::Gau,
    AccelKind::Sha,
    AccelKind::Aes,
    AccelKind::Mb,
];
const PER_SLOT: usize = 3;
const SLICE: Cycle = 100_000;
/// Lines (64 B) per GAU / SHA-512 / AES job, and ops per MemBench job.
const JOB_LINES: u64 = 1024;
const MB_OPS: u64 = 4096;
const MB_BYTES: u64 = 8 << 20;
/// Lines per pipeline frame.
const FRAME_LINES: u64 = 512;
const WARMUP: Cycle = 400_000;
const STEP: Cycle = 100_000;
const STEPS: u64 = 40;
/// A control-plane event follows every `EVENT_EVERY`-th step.
const EVENT_EVERY: u64 = 4;
/// Steps allowed after the measured steps for the frame in flight to land.
const MAX_SETTLE: u64 = 40;
const VERIFY_STEPS: u64 = 10;
/// Taking down the pipeline share and the churned share: relinquish and
/// reclaim each.
const TEARDOWN_OPS: u64 = 4;

pub const SETTINGS: &str = "{\"devices\":2,\"slots\":[\"GAU\",\"SHA-512\",\"AES\",\"MemBench\"],\"tenants_per_slot\":3,\"time_slice_cycles\":100000,\"lockstep\":false,\"pipeline\":\"GAU(dev0)->SHA-512(dev0)\"}";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    LiveUpdate,
    Migrate,
    Share,
    Scrape,
}

/// The seeded order of the episode's control-plane events: a fixed mix,
/// shuffled, so every seed exercises every call the same number of times.
fn events(seed: u64) -> Vec<Event> {
    use Event::*;
    let mut ev = vec![
        LiveUpdate, LiveUpdate, Migrate, Migrate, Migrate, Share, Share, Scrape, Scrape, Scrape,
    ];
    let mut rng = SplitMix64::new(derive_seed(seed, 0xe7));
    for i in (1..ev.len()).rev() {
        ev.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    ev
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Plain,
    Producer,
    Consumer,
    ShareOwner,
    SharePeer,
}

struct Tenant {
    h: NodeVaccel,
    slot: usize,
    name: String,
    role: Role,
    completed: u64,
}

/// Deterministic frame contents for pipeline round `k`.
fn frame(seed: u64, k: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(derive_seed(seed, 0xf000 + k));
    let mut out = Vec::with_capacity((FRAME_LINES * 64) as usize);
    while out.len() < (FRAME_LINES * 64) as usize {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Host replay of the pipeline: the GAU kernel's 3x3 Gaussian over
/// 64-pixel rows with clamp-to-edge, then SHA-512 of the filtered frame.
fn replay(input: &[u8]) -> [u8; 64] {
    let row = |r: u64| -> &[u8] {
        let r = r.min(FRAME_LINES - 1) as usize;
        &input[r * 64..(r + 1) * 64]
    };
    let mut out = Vec::with_capacity(input.len());
    for r in 0..FRAME_LINES {
        let mut data = Vec::with_capacity(3 * ROW_PIXELS);
        data.extend_from_slice(row(r.saturating_sub(1)));
        data.extend_from_slice(row(r));
        data.extend_from_slice(row(r + 1));
        let blurred = gaussian_blur(&Image::new(ROW_PIXELS, 3, 1, data));
        out.extend_from_slice(&blurred.data()[ROW_PIXELS..2 * ROW_PIXELS]);
    }
    optimus_algo::sha2::sha512(&out)
}

fn mmio(node: &mut OptimusNode, h: NodeVaccel, reg: u64, val: u64) {
    span("hv.mmio", || node.guest(h).mmio_write(reg, val));
}

/// Allocates a tenant's buffers and programs (but does not start) its job.
fn program(node: &mut OptimusNode, h: NodeVaccel, kind: AccelKind, seed: u64, t: u64) {
    const APP: u64 = accel_reg::APP_BASE;
    let bytes = JOB_LINES * 64;
    let fill = |n: u64| -> Vec<u8> {
        let mut rng = SplitMix64::new(derive_seed(seed, 0x100 + t));
        (0..n / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect()
    };
    let alloc = |node: &mut OptimusNode, n: u64| span("hv.alloc", || node.guest(h).alloc_dma(n));
    let state = alloc(node, PAGE_2M);
    span("hv.mmio", || node.guest(h).set_state_buffer(state));
    match kind {
        AccelKind::Gau | AccelKind::Aes => {
            let src = alloc(node, bytes);
            let dst = alloc(node, bytes);
            node.guest(h).write_mem(src, &fill(bytes));
            let (rs, rd, rl) = if kind == AccelKind::Gau {
                (
                    ConvKernel::REG_SRC,
                    ConvKernel::REG_DST,
                    ConvKernel::REG_LINES,
                )
            } else {
                (AesKernel::REG_SRC, AesKernel::REG_DST, AesKernel::REG_LINES)
            };
            mmio(node, h, APP + rs, src.raw());
            mmio(node, h, APP + rd, dst.raw());
            mmio(node, h, APP + rl, JOB_LINES);
            if kind == AccelKind::Aes {
                mmio(
                    node,
                    h,
                    APP + AesKernel::REG_KEY0,
                    derive_seed(seed, 0x200 + t),
                );
                mmio(
                    node,
                    h,
                    APP + AesKernel::REG_KEY1,
                    derive_seed(seed, 0x300 + t),
                );
            }
        }
        AccelKind::Sha => {
            let src = alloc(node, bytes);
            let dst = alloc(node, 4096);
            node.guest(h).write_mem(src, &fill(bytes));
            mmio(node, h, APP + hash_reg::SRC, src.raw());
            mmio(node, h, APP + hash_reg::DST, dst.raw());
            mmio(node, h, APP + hash_reg::LINES, JOB_LINES);
        }
        _ => {
            let region = span("hv.alloc", || {
                node.guest(h).alloc_dma_with(MB_BYTES, Backing::Scratch)
            });
            mmio(node, h, APP + MbKernel::REG_REGION, region.raw());
            mmio(node, h, APP + MbKernel::REG_BYTES, MB_BYTES);
            mmio(node, h, APP + MbKernel::REG_MODE, t % 3);
            mmio(node, h, APP + MbKernel::REG_OPS, MB_OPS);
            mmio(
                node,
                h,
                APP + MbKernel::REG_SEED,
                derive_seed(seed, 0x400 + t),
            );
        }
    }
}

/// Where the pipeline is in its frame cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pipe {
    Filtering(u64),
    Hashing(u64),
    /// Stopped after the last frame landed (the shares are coming down).
    Idle,
}

struct Pipeline {
    producer: usize,
    consumer: usize,
    input: Gva,
    retrieved: Gva,
    digest_dst: Gva,
    handle: u64,
    state: Pipe,
    /// Digests of every verified frame, in order.
    frames: Vec<[u8; 64]>,
}

struct World {
    seed: u64,
    node: OptimusNode,
    tenants: Vec<Tenant>,
    pipe: Pipeline,
    share_handle: u64,
    share_span: Gva,
    share_owner: usize,
    share_peer: usize,
}

impl World {
    fn h(&self, i: usize) -> NodeVaccel {
        self.tenants[i].h
    }

    /// Starts pipeline frame `k` on the producer.
    fn start_frame(&mut self, k: u64) {
        let p = self.h(self.pipe.producer);
        let input = self.pipe.input;
        let data = frame(self.seed, k);
        self.node.guest(p).write_mem(input, &data);
        mmio(&mut self.node, p, accel_reg::CTRL_CMD, accel_reg::CMD_START);
        self.pipe.state = Pipe::Filtering(k);
    }

    /// One step of the simulation followed by the tenants' reactions:
    /// plain tenants resubmit finished jobs, the pipeline hands frames on.
    /// `allow_new_frame = false` lets the frame in flight land without
    /// starting another.
    fn step(&mut self, ep: &mut Episode, name: &'static str, allow_new_frame: bool) {
        let start = self.node.now();
        ep.timed(|| span(name, || self.node.run(STEP)));
        let now = self.node.now();
        ep.planned_op(now >= start + STEP, || format!("{name} stalled at {now}"));
        for i in 0..self.tenants.len() {
            if !matches!(self.tenants[i].role, Role::Producer | Role::Consumer) {
                let h = self.h(i);
                if ep.timed(|| span("hv.poll", || self.node.vaccel_completed(h))) {
                    self.tenants[i].completed += 1;
                    ep.timed(|| mmio(&mut self.node, h, accel_reg::CTRL_CMD, accel_reg::CMD_START));
                    ep.op(true, String::new);
                }
            }
        }
        let (p, c) = (self.h(self.pipe.producer), self.h(self.pipe.consumer));
        match self.pipe.state {
            Pipe::Filtering(k) => {
                if ep.timed(|| span("hv.poll", || self.node.vaccel_completed(p))) {
                    self.tenants[self.pipe.producer].completed += 1;
                    let (src, dst) = (self.pipe.retrieved.raw(), self.pipe.digest_dst.raw());
                    ep.timed(|| {
                        mmio(&mut self.node, c, accel_reg::APP_BASE + hash_reg::SRC, src);
                        mmio(&mut self.node, c, accel_reg::APP_BASE + hash_reg::DST, dst);
                        mmio(
                            &mut self.node,
                            c,
                            accel_reg::APP_BASE + hash_reg::LINES,
                            FRAME_LINES,
                        );
                        mmio(&mut self.node, c, accel_reg::CTRL_CMD, accel_reg::CMD_START);
                    });
                    self.pipe.state = Pipe::Hashing(k);
                }
            }
            Pipe::Hashing(k) => {
                if ep.timed(|| span("hv.poll", || self.node.vaccel_completed(c))) {
                    self.tenants[self.pipe.consumer].completed += 1;
                    let got = ep.timed(|| self.read_digest());
                    // The host replay is the benchmark's own check: untimed.
                    let want = replay(&frame(self.seed, k));
                    ep.op(got == want, || {
                        format!("pipeline frame {k} digest differs from the host replay")
                    });
                    self.pipe.frames.push(got);
                    if allow_new_frame {
                        ep.timed(|| self.start_frame(k + 1));
                    } else {
                        self.pipe.state = Pipe::Idle;
                    }
                }
            }
            Pipe::Idle => {}
        }
    }

    /// Reads the consumer's SHA-512 digest registers.
    fn read_digest(&mut self) -> [u8; 64] {
        let c = self.h(self.pipe.consumer);
        let mut got = [0u8; 64];
        for i in 0..8u64 {
            let r = span("hv.mmio", || {
                self.node
                    .guest(c)
                    .mmio_read(accel_reg::APP_BASE + hash_reg::DIGEST0 + 8 * i)
            });
            got[i as usize * 8..i as usize * 8 + 8].copy_from_slice(&r.to_le_bytes());
        }
        got
    }

    fn pipe_idle(&self) -> bool {
        self.pipe.state == Pipe::Idle
    }

    /// Migrates the tenant installed on a seeded slot of device `from` to
    /// the other device. Tenants holding shares stay put. The journal tells
    /// which tenant is installed: its latest job's last phase is an install,
    /// a restore or execution (`VaccelRun` does not say, since a job
    /// restarted in place stays `Fresh`). Working that out is the
    /// benchmark's own bookkeeping, so it is not timed.
    fn migrate_installed(&mut self, ep: &mut Episode, from: u32, pick: u64) {
        use journal::Phase;
        let mut last: BTreeMap<String, (u64, Phase)> = BTreeMap::new();
        for r in journal::export() {
            if let Some(&(p, _)) = r.phases.last() {
                let e = last.entry(r.tenant).or_insert((r.job, p));
                if r.job >= e.0 {
                    *e = (r.job, p);
                }
            }
        }
        let to = DeviceId(1 - from);
        for k in 0..KINDS.len() {
            let slot = (pick as usize + k) % KINDS.len();
            let Some(i) = (0..self.tenants.len()).find(|&i| {
                let t = &self.tenants[i];
                t.h.device == DeviceId(from)
                    && t.slot == slot
                    && t.role == Role::Plain
                    && matches!(
                        last.get(&t.name),
                        Some((_, Phase::Installed | Phase::Restored | Phase::Executing))
                    )
            }) else {
                continue;
            };
            let h = self.h(i);
            let r = ep.timed(|| span("node.migrate", || self.node.migrate(h, to)));
            match r {
                Ok(nh) => self.tenants[i].h = nh,
                Err(_) => *ep.counters.entry("node.migrate_failed").or_default() += 1.0,
            }
            let name = self.tenants[i].name.clone();
            ep.planned_op(r.is_ok(), || format!("migrate {name}: {r:?}"));
            return;
        }
        ep.planned_op(true, String::new);
    }

    /// Relinquish, reclaim and re-share the same-device span between the
    /// share owner and its peer, then retrieve it again.
    fn share_churn(&mut self, ep: &mut Episode, reshare: bool) {
        let (o, p) = (self.h(self.share_owner), self.h(self.share_peer));
        let handle = self.share_handle;
        let r = ep.timed(|| span("node.share", || self.node.relinquish_shared(handle, p)));
        ep.planned_op(r.is_ok(), || format!("relinquish {handle:#x}: {r:?}"));
        let r = ep.timed(|| span("node.share", || self.node.reclaim_shared(handle, o)));
        ep.planned_op(r.is_ok(), || format!("reclaim {handle:#x}: {r:?}"));
        if !reshare {
            return;
        }
        let (span_gva, peer) = (self.share_span, self.tenants[self.share_peer].name.clone());
        let r = ep.timed(|| {
            span("node.share", || {
                self.node
                    .guest(o)
                    .mem_share(span_gva, PAGE_2M, &peer, false)
            })
        });
        ep.planned_op(r.is_ok(), || format!("re-share: {r:?}"));
        if let Ok(h) = r {
            self.share_handle = h;
            let r = ep.timed(|| span("node.share", || self.node.retrieve_shared(h, p)));
            ep.planned_op(r.is_ok(), || format!("retrieve {h:#x}: {r:?}"));
        }
    }

    fn probes(&self) -> Vec<Probe> {
        (0..DEVICES)
            .map(|d| probe(self.node.device(DeviceId(d as u32))))
            .collect()
    }
}

/// Operations each event kind plans.
fn event_ops(e: Event) -> u64 {
    match e {
        Event::Share => 4,
        _ => 1,
    }
}

pub fn episode(seed: u64, threads: usize, ep: &mut Episode) {
    let mut cfg = NodeConfig::new(KINDS.to_vec(), DEVICES);
    cfg.seed = seed;
    cfg.placement = Placement::RoundRobin;
    cfg.time_slice = SLICE;
    cfg.sched_policy = SchedPolicy::RoundRobin;
    cfg.threads = Some(threads);
    cfg.lockstep = Some(false);
    let mut node = span("node.new", || OptimusNode::new(cfg)).expect("node boots");
    // create_tenant_on fills the least-populated slot first, so tenant t
    // of a device lands on slot t % 4.
    let mut tenants = Vec::new();
    for d in 0..DEVICES {
        for t in 0..KINDS.len() * PER_SLOT {
            let name = format!("d{d}s{}t{}", t % KINDS.len(), t / KINDS.len());
            let h = node.create_tenant_on(DeviceId(d as u32), &name);
            tenants.push(Tenant {
                h,
                slot: t % KINDS.len(),
                name,
                role: Role::Plain,
                completed: 0,
            });
        }
    }
    // Roles: the pipeline's producer is device 0's first GAU tenant, its
    // consumer device 0's first SHA-512 tenant; the churned share links
    // device 0's second AES tenant (owner) with its second MemBench tenant.
    let (producer, consumer) = (0, 1);
    let (share_owner, share_peer) = (KINDS.len() + 2, KINDS.len() + 3);
    tenants[producer].role = Role::Producer;
    tenants[consumer].role = Role::Consumer;
    tenants[share_owner].role = Role::ShareOwner;
    tenants[share_peer].role = Role::SharePeer;
    for (i, t) in tenants.iter().enumerate() {
        if t.role != Role::Producer && t.role != Role::Consumer {
            program(&mut node, t.h, KINDS[t.slot], seed, i as u64);
        }
    }
    let (ph, ch) = (tenants[producer].h, tenants[consumer].h);
    let (input, out_span) = {
        let state = span("hv.alloc", || node.guest(ph).alloc_dma(PAGE_2M));
        span("hv.mmio", || node.guest(ph).set_state_buffer(state));
        (
            span("hv.alloc", || node.guest(ph).alloc_dma(PAGE_2M)),
            span("hv.alloc", || node.guest(ph).alloc_dma(PAGE_2M)),
        )
    };
    for (reg, val) in [
        (ConvKernel::REG_SRC, input.raw()),
        (ConvKernel::REG_DST, out_span.raw()),
        (ConvKernel::REG_LINES, FRAME_LINES),
    ] {
        mmio(&mut node, ph, accel_reg::APP_BASE + reg, val);
    }
    let digest_dst = {
        let state = span("hv.alloc", || node.guest(ch).alloc_dma(PAGE_2M));
        span("hv.mmio", || node.guest(ch).set_state_buffer(state));
        span("hv.alloc", || node.guest(ch).alloc_dma(4096))
    };
    let consumer_name = tenants[consumer].name.clone();
    let handle = span("node.share", || {
        node.guest(ph)
            .mem_share(out_span, PAGE_2M, &consumer_name, false)
    })
    .expect("share the producer's output span");
    let retrieved = span("node.share", || node.retrieve_shared(handle, ch))
        .expect("retrieve the producer's span");
    let (oh, peer_h) = (tenants[share_owner].h, tenants[share_peer].h);
    let share_span = span("hv.alloc", || node.guest(oh).alloc_dma(PAGE_2M));
    let peer_name = tenants[share_peer].name.clone();
    let share_handle = span("node.share", || {
        node.guest(oh)
            .mem_share(share_span, PAGE_2M, &peer_name, false)
    })
    .expect("share a span with the peer");
    span("node.share", || node.retrieve_shared(share_handle, peer_h))
        .expect("retrieve on the same device");

    let mut w = World {
        seed,
        node,
        tenants,
        pipe: Pipeline {
            producer,
            consumer,
            input,
            retrieved,
            digest_dst,
            handle,
            state: Pipe::Filtering(0),
            frames: Vec::new(),
        },
        share_handle,
        share_span,
        share_owner,
        share_peer,
    };
    for i in 0..w.tenants.len() {
        if !matches!(w.tenants[i].role, Role::Producer | Role::Consumer) {
            let h = w.h(i);
            mmio(&mut w.node, h, accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
    }
    // Every tenant starts a job at set-up: the producer on frame 0, the
    // consumer on a priming hash of the still-empty shared span. (A vaccel that
    // is programmed but never started panics at its first restore once it
    // shares a slot with running tenants — see NOTES.md.)
    w.start_frame(0);
    for (reg, val) in [
        (hash_reg::SRC, retrieved.raw()),
        (hash_reg::DST, digest_dst.raw()),
        (hash_reg::LINES, FRAME_LINES),
    ] {
        mmio(&mut w.node, ch, accel_reg::APP_BASE + reg, val);
    }
    mmio(&mut w.node, ch, accel_reg::CTRL_CMD, accel_reg::CMD_START);
    let primed = span("node.warmup", || w.node.run_until_done(ch, 50 * SLICE));
    let got = w.read_digest();
    let want = optimus_algo::sha2::sha512(&vec![0u8; (FRAME_LINES * 64) as usize]);
    assert!(
        primed && got == want,
        "the consumer's priming hash of the empty shared span completes and is correct"
    );
    w.tenants[consumer].completed += 1;
    span("node.warmup", || w.node.run(WARMUP));
    let plan = events(seed);
    let event_ops: u64 = plan.iter().map(|&e| event_ops(e)).sum();
    // The trailing 1 is the check that some pipeline frame completed.
    ep.plan(STEPS + event_ops + TEARDOWN_OPS + BENIGN_CHECKS + 1);
    ep.setup_done();

    // Measured phase.
    metrics::reset();
    let open = w.probes();
    let start = w.node.now();
    let (mut updates, mut migrations) = (0u32, 0u32);
    let mut pick = SplitMix64::new(derive_seed(seed, 0x5107));
    for s in 0..STEPS {
        w.step(ep, "node.step", true);
        if s % EVENT_EVERY != EVENT_EVERY - 1 {
            continue;
        }
        match plan[(s / EVENT_EVERY) as usize] {
            Event::LiveUpdate => {
                let d = DeviceId(updates % 2);
                updates += 1;
                ep.timed(|| span("snapshot.live_update", || w.node.live_update(d)));
                ep.planned_op(true, String::new);
            }
            Event::Migrate => {
                let from = migrations % 2;
                migrations += 1;
                w.migrate_installed(ep, from, pick.next_u64());
            }
            Event::Share => w.share_churn(ep, true),
            Event::Scrape => {
                let (text, broken) = ep.timed(|| {
                    span("obs.scrape", || {
                        (metrics::prometheus_text(), super::conservation_breaks())
                    })
                });
                ep.planned_op(!text.is_empty() && broken.is_empty(), || {
                    format!(
                        "scrape: {} bytes, conservation broken for {broken:?}",
                        text.len()
                    )
                });
            }
        }
    }
    // Let the frame in flight land, then take the shares down.
    let mut settle = 0;
    while !w.pipe_idle() && settle < MAX_SETTLE {
        ep.plan(1);
        w.step(ep, "node.step", false);
        settle += 1;
    }
    let (pipe_handle, c, p) = (w.pipe.handle, w.h(w.pipe.consumer), w.h(w.pipe.producer));
    let r = ep.timed(|| span("node.share", || w.node.relinquish_shared(pipe_handle, c)));
    ep.planned_op(r.is_ok() && w.pipe_idle(), || {
        format!("pipeline relinquish: {r:?}, idle {}", w.pipe_idle())
    });
    let r = ep.timed(|| span("node.share", || w.node.reclaim_shared(pipe_handle, p)));
    ep.planned_op(r.is_ok(), || format!("pipeline reclaim: {r:?}"));
    w.share_churn(ep, false);
    let close = w.probes();
    ep.device_cycles = open.iter().zip(&close).map(|(a, b)| b.now - a.now).sum();

    let mut d = Digest::default();
    for p in &close {
        digest_probe(&mut d, p);
    }
    for t in &w.tenants {
        d.word(t.completed);
    }
    for f in &w.pipe.frames {
        for chunk in f.chunks(8) {
            d.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
    }
    ep.digest = Some(d.finish());
    let frames = w.pipe.frames.len();
    ep.planned_op(frames > 0, || "no pipeline frame completed".into());
    check_benign(ep, &open, &close, 0);
    let materialized = (0..DEVICES)
        .map(|d| {
            w.node
                .device(DeviceId(d as u32))
                .device()
                .host()
                .memory()
                .materialized_frames()
        })
        .sum();
    record_layers(ep, &open, &close, w.node.now() - start, materialized);
    ep.set("accel.frames_verified", frames as f64);
    let progress: u64 = (0..DEVICES)
        .flat_map(|d| {
            let hv = w.node.device(DeviceId(d as u32));
            (0..KINDS.len()).map(move |s| {
                let (r, wr) = hv.device().port(s).byte_counts();
                r + wr
            })
        })
        .sum();
    ep.set("accel.progress_bytes", progress as f64);
    ep.counters.entry("node.migrate_failed").or_default();
    ep.set("fabric.jain", port_jain(DEVICES as u32, KINDS.len() as u32));
    record_journal(ep);

    drain(&mut w, ep);
}

/// The device drain, a live evacuation: every tenant left on device 0 is
/// migrated to device 1 one at a time, queued ones included, with a step
/// of simulation after each move so the tenants still on device 0 keep
/// running; then a verification span runs and the benign invariants are
/// checked over the whole drain.
fn drain(w: &mut World, ep: &mut Episode) {
    ep.enter_drain();
    let order: Vec<usize> = (0..w.tenants.len())
        .filter(|&i| w.tenants[i].h.device == DeviceId(0))
        .collect();
    ep.plan(2 * order.len() as u64 + VERIFY_STEPS + BENIGN_CHECKS);
    let open = w.probes();
    let rejects = metrics::counter_total(metrics::FABRIC_AUDITOR_REJECTS);
    for i in order {
        let h = w.h(i);
        let r = span("node.drain_migrate", || w.node.migrate(h, DeviceId(1)));
        if let Ok(nh) = r {
            w.tenants[i].h = nh;
        }
        let name = w.tenants[i].name.clone();
        ep.planned_op(r.is_ok(), || format!("migrate {name}: {r:?}"));
        w.step(ep, "node.drain_step", false);
    }
    for _ in 0..VERIFY_STEPS {
        w.step(ep, "node.drain_step", false);
    }
    let close = w.probes();
    check_benign(ep, &open, &close, rejects);
}
