//! Property-based tests of the multi-FPGA node layer: parallel stepping
//! must be bit-identical to serial, and tenant placement must be
//! deterministic and balanced. Replay failures with
//! `OPTIMUS_PROP_SEED=<printed seed>`.

use optimus::node::{NodeConfig, NodeVaccel, OptimusNode, Placement};
use optimus_accel::hash::reg as hash_reg;
use optimus_accel::linked_list::LlKernel;
use optimus_accel::membench::MbKernel;
use optimus_accel::registry::AccelKind;
use optimus_fabric::mmio::accel_reg;
use optimus_fabric::platform::DeviceId;
use optimus_sim::{journal, metrics, obs, spec, trace};
use optimus_testkit::gens;
use optimus_testkit::runner::check;
use optimus_testkit::{prop_assert, prop_assert_eq};

const SLOTS_PER_DEVICE: usize = 2;
const RUN_CYCLES: u64 = 250_000;

fn accel_kind(kind_sel: u8) -> AccelKind {
    match kind_sel % 3 {
        0 => AccelKind::Ll,
        1 => AccelKind::Mb,
        _ => AccelKind::Md5,
    }
}

/// Starts the per-kind job from `prop.rs`'s hypervisor fingerprint on one
/// tenant, with tenant-index-derived work so devices don't run in
/// lock-step-identical patterns.
fn start_job(node: &mut OptimusNode, h: NodeVaccel, kind: AccelKind, work: u64, seed: u64, t: usize) {
    let work = work / (t as u64 % 3 + 1);
    let mut g = node.guest(h);
    let state = g.alloc_dma(1 << 21);
    g.set_state_buffer(state);
    match kind {
        AccelKind::Ll => {
            let nodes = 64u64;
            let region = g.alloc_dma(nodes * 64);
            let mut blob = vec![0u8; (nodes * 64) as usize];
            for n in 0..nodes {
                let next = region.raw() + ((n * 7 + 1) % nodes) * 64;
                blob[(n * 64) as usize..(n * 64 + 8) as usize]
                    .copy_from_slice(&next.to_le_bytes());
            }
            g.write_mem(region, &blob);
            g.mmio_write(accel_reg::APP_BASE + LlKernel::REG_START, region.raw());
            g.mmio_write(accel_reg::APP_BASE + LlKernel::REG_STEPS, 20 + work % 60);
        }
        AccelKind::Mb => {
            let region = g.alloc_dma(1 << 21);
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, 100 + work % 300);
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, seed ^ t as u64);
        }
        _ => {
            let lines = 16 + work % 48;
            let region = g.alloc_dma(1 << 21);
            let data: Vec<u8> = (0..lines * 64)
                .map(|b| (b as u8).wrapping_mul(31).wrapping_add(seed as u8))
                .collect();
            g.write_mem(region, &data);
            g.mmio_write(accel_reg::APP_BASE + hash_reg::SRC, region.raw());
            g.mmio_write(accel_reg::APP_BASE + hash_reg::DST, region.raw() + lines * 64);
            g.mmio_write(accel_reg::APP_BASE + hash_reg::LINES, lines);
        }
    }
    g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
}

/// Builds a node with `threads` workers, places `tenants` random jobs
/// across `devices` FPGAs, runs a fixed span, and returns an exhaustive
/// fingerprint: placement assignments, every device's clock, statistics,
/// host/port counters, and each tenant's guest-visible progress register.
fn node_fingerprint(
    threads: usize,
    devices: usize,
    tenants: usize,
    placement: Placement,
    kind_sel: u8,
    work: u64,
    seed: u64,
) -> Vec<u64> {
    let kind = accel_kind(kind_sel);
    let mut cfg = NodeConfig::new(vec![kind; SLOTS_PER_DEVICE], devices);
    cfg.placement = placement;
    cfg.seed = seed;
    cfg.time_slice = 6_000;
    cfg.threads = Some(threads);
    let mut node = OptimusNode::new(cfg).expect("node boots");
    let handles: Vec<NodeVaccel> =
        (0..tenants).map(|t| node.create_tenant(&format!("t{t}"))).collect();
    let mut fp = Vec::new();
    for (t, &h) in handles.iter().enumerate() {
        fp.push(h.device.0 as u64);
        fp.push(h.va.0 as u64);
        start_job(&mut node, h, kind, work, seed, t);
    }
    node.run(RUN_CYCLES);
    fp.push(node.now());
    for d in 0..devices {
        let hv = node.device(DeviceId(d as u32));
        let stats = hv.stats();
        fp.extend([
            hv.device().now(),
            stats.traps,
            stats.hypercalls,
            stats.pinned_pages,
            stats.context_switches,
            stats.preemptions,
            stats.forced_resets,
            stats.dropped_packets,
            stats.discarded_dma,
            stats.discarded_mmio,
            hv.device().host().faulted_dmas(),
            hv.device().host().total_dma_bytes(),
        ]);
        for s in 0..SLOTS_PER_DEVICE {
            let (read, written) = hv.device().port(s).byte_counts();
            fp.extend([hv.device().port(s).stale_discarded(), read, written]);
        }
    }
    // Guest-visible progress registers (the measured-figure inputs).
    let progress_reg = match kind {
        AccelKind::Ll => LlKernel::REG_DONE_STEPS,
        AccelKind::Mb => MbKernel::REG_COMPLETED,
        _ => hash_reg::DIGEST0,
    };
    for &h in &handles {
        fp.push(node.vaccel_completed(h) as u64);
        fp.push(node.guest(h).mmio_read(accel_reg::APP_BASE + progress_reg));
    }
    fp.push(node.now());
    fp
}

/// What one node run exports through the observation planes: Chrome-trace
/// JSON, Prometheus text, the journal records and the spec violations.
type Exports = (String, String, Vec<journal::JobRecord>, Vec<spec::Violation>);

/// [`node_fingerprint`] with every observation plane switched to
/// `planes` at runtime on the calling thread, returning the fingerprint
/// and the planes' exports.
#[allow(clippy::too_many_arguments)]
fn observed_fingerprint(
    planes: bool,
    threads: usize,
    devices: usize,
    tenants: usize,
    placement: Placement,
    kind_sel: u8,
    work: u64,
    seed: u64,
) -> (Vec<u64>, Exports) {
    trace::set_enabled(planes);
    metrics::set_enabled(planes);
    journal::set_enabled(planes);
    spec::set_enabled(planes);
    let reset = || {
        trace::reset();
        metrics::reset();
        journal::reset();
        spec::reset();
    };
    reset();
    let fp = node_fingerprint(threads, devices, tenants, placement, kind_sel, work, seed);
    let exports = (
        trace::chrome_trace_json(),
        metrics::prometheus_text(),
        journal::export(),
        spec::violations(),
    );
    reset();
    obs::set_gates(obs::env().gates);
    (fp, exports)
}

/// Differential equivalence of the node's parallel schedule: stepping
/// independent devices on worker threads between synchronization horizons
/// yields bit-identical clocks, statistics, port counters, and
/// guest-visible results to the serial schedule, for random placements
/// and workloads on each of LinkedList, MemBench, and MD5. Threads are
/// pinned (4 vs 1) so the property holds even on single-core hosts. With
/// all four observation planes on, threads 1, 2 and 4 must also export
/// byte-identical traces, Prometheus text, journals and spec violations.
/// Either way the planes are switched at runtime, against the environment
/// defaults (trace and spec off, metrics and journal on), before the node
/// spawns its workers: a worker that took its gates from the environment
/// instead of the main thread would add or drop its devices' records.
#[test]
fn parallel_node_matches_serial_node() {
    let gen = gens::zip4(
        gens::zip3(gens::usize_in(1..5), gens::usize_in(1..7), gens::choose(vec![false, true])),
        gens::u8_in(0..3),
        gens::u64_in(0..1000),
        gens::u64_any(),
    );
    check(
        "parallel_node_matches_serial_node",
        &gen,
        |&((devices, tenants, planes), kind_sel, work, seed)| {
            let placement = if seed & 1 == 0 {
                Placement::RoundRobin
            } else {
                Placement::LeastLoaded
            };
            let threads: &[usize] = if planes { &[1, 2, 4] } else { &[1, 4] };
            let run = |t| {
                observed_fingerprint(planes, t, devices, tenants, placement, kind_sel, work, seed)
            };
            let (ser, ser_exports) = run(1);
            prop_assert_eq!(ser_exports.2.is_empty(), !planes, "journal gate not honoured");
            for &t in &threads[1..] {
                let (par, par_exports) = run(t);
                prop_assert_eq!(&par, &ser, "fingerprints diverge at {} threads", t);
                prop_assert!(par_exports == ser_exports, "plane exports diverge at {} threads", t);
            }
            Ok(())
        },
    );
}

/// Placement is a pure function of the configuration and tenant sequence:
/// rebuilding the same node assigns every tenant to the same device, the
/// round-robin policy visits devices in index order, and both policies
/// keep the per-device tenant count within one of fair.
#[test]
fn placement_is_deterministic_and_balanced() {
    let gen = gens::zip3(
        gens::usize_in(1..5),
        gens::usize_in(1..12),
        gens::u8_in(0..2),
    );
    check(
        "placement_is_deterministic_and_balanced",
        &gen,
        |&(devices, tenants, policy_sel)| {
            let placement = if policy_sel == 0 {
                Placement::RoundRobin
            } else {
                Placement::LeastLoaded
            };
            let place_all = || {
                let mut cfg = NodeConfig::new(vec![AccelKind::Mb; SLOTS_PER_DEVICE], devices);
                cfg.placement = placement;
                cfg.threads = Some(1);
                let mut node = OptimusNode::new(cfg).expect("node boots");
                (0..tenants)
                    .map(|t| node.create_tenant(&format!("t{t}")))
                    .collect::<Vec<NodeVaccel>>()
            };
            let first = place_all();
            let second = place_all();
            prop_assert_eq!(&first, &second, "placement is not deterministic");
            let mut per_device = vec![0usize; devices];
            for (t, h) in first.iter().enumerate() {
                if placement == Placement::RoundRobin {
                    prop_assert_eq!(h.device, DeviceId((t % devices) as u32));
                }
                per_device[h.device.0 as usize] += 1;
            }
            let max = per_device.iter().max().unwrap();
            let min = per_device.iter().min().unwrap();
            prop_assert!(max - min <= 1, "unbalanced placement: {per_device:?}");
            Ok(())
        },
    );
}

/// The flight-recorder merge is byte-identical too: a traced parallel run
/// exports exactly the same Chrome trace JSON as the serial schedule
/// (worker chunks are replayed in device-index order), and the trace is
/// non-empty so the property is not vacuous.
#[test]
fn parallel_trace_merge_is_byte_identical() {
    use optimus_sim::trace;
    let run = |threads: usize| {
        trace::set_enabled(true);
        trace::reset();
        let _ = node_fingerprint(threads, 3, 4, Placement::RoundRobin, 1, 500, 42);
        let events = trace::event_count();
        let json = trace::chrome_trace_json();
        trace::set_enabled(false);
        trace::reset();
        (events, json)
    };
    let (serial_events, serial_json) = run(1);
    let (parallel_events, parallel_json) = run(4);
    assert!(serial_events > 0, "traced run recorded no events");
    assert_eq!(serial_events, parallel_events, "event counts diverge");
    assert_eq!(
        serial_json, parallel_json,
        "parallel trace merge is not byte-identical to serial"
    );
}

/// The metrics-plane merge is exact as well: worker chunks absorbed in
/// device-index order reproduce the serial per-device series byte for
/// byte (full Prometheus exposition compared), the per-device counters
/// sum to the cross-device total, and node-layer aggregation covers
/// every stepped device — for 1 through 4 devices.
#[test]
fn parallel_metrics_merge_matches_serial_aggregation() {
    use optimus_sim::metrics;
    for devices in 1..=4usize {
        let tenants = devices * SLOTS_PER_DEVICE;
        let run = |threads: usize| {
            metrics::set_enabled(true);
            metrics::reset();
            let _ = node_fingerprint(threads, devices, tenants, Placement::RoundRobin, 1, 500, 42);
            let text = metrics::prometheus_text();
            let per_device: Vec<u64> = (0..devices as u32)
                .map(|d| metrics::counter_value(metrics::NODE_CHUNKS, d, 0))
                .collect();
            let chunk_total = metrics::counter_total(metrics::NODE_CHUNKS);
            let trap_total = metrics::counter_total(metrics::HV_MMIO_TRAPS);
            metrics::reset();
            (text, per_device, chunk_total, trap_total)
        };
        let (ser_text, ser_chunks, ser_total, ser_traps) = run(1);
        let (par_text, par_chunks, par_total, par_traps) = run(4);
        assert_eq!(
            ser_text, par_text,
            "{devices}-device metrics exposition diverges between threads 1 and 4"
        );
        assert_eq!(ser_chunks, par_chunks, "per-device chunk counters diverge");
        assert_eq!(ser_total, par_total, "chunk totals diverge");
        assert_eq!(ser_traps, par_traps, "trap totals diverge");
        assert!(ser_traps > 0, "metered node run recorded no traps");
        // Node aggregation covered every device, and the per-device
        // series sum to the registry total (no double counting).
        assert!(
            ser_chunks.iter().all(|&c| c > 0),
            "some device recorded no chunks: {ser_chunks:?}"
        );
        assert_eq!(ser_chunks.iter().sum::<u64>(), ser_total);
    }
}

/// Regression (isolation PR's CI gate): a migration-driven preempt steps
/// the source device from *outside* the run loop — the state-size MMIO
/// read drives the fabric until the response returns — and that work must
/// be metered under the source device regardless of which device scope
/// the calling thread last claimed. The serial node loop leaves the
/// ambient scope on the last-stepped device, the parallel path leaves the
/// main thread's scope wherever setup put it; before `preempt_slot`
/// claimed its own scope up front, the same migration metered its drain
/// onto different devices depending on the thread schedule.
#[test]
fn migration_metrics_attribution_is_thread_schedule_invariant() {
    use optimus_sim::metrics;
    let run = |threads: usize| {
        metrics::set_enabled(true);
        metrics::reset();
        let mut cfg = NodeConfig::new(vec![AccelKind::Mb; 4], 2);
        cfg.seed = 9;
        cfg.time_slice = 5_000;
        cfg.threads = Some(threads);
        let mut node = OptimusNode::new(cfg).expect("node boots");
        let tenants: Vec<NodeVaccel> = (0..4)
            .map(|t| node.create_tenant_on(DeviceId(0), &format!("t{t}")))
            .collect();
        for (t, &h) in tenants.iter().enumerate() {
            // Endless bandwidth jobs: the migrated tenant must still be
            // *running* when detached so the preempt takes the drain+save
            // path (whose state-size read steps the device), not the
            // completed-job fast path.
            let mut g = node.guest(h);
            let state = g.alloc_dma(1 << 21);
            g.set_state_buffer(state);
            let region = g.alloc_dma(1 << 21);
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_REGION, region.raw());
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_BYTES, 1 << 16);
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_OPS, u64::MAX);
            g.mmio_write(accel_reg::APP_BASE + MbKernel::REG_SEED, 42 + t as u64);
            g.mmio_write(accel_reg::CTRL_CMD, accel_reg::CMD_START);
        }
        node.run(40_000);
        node.migrate(tenants[0], DeviceId(1)).expect("migration succeeds");
        node.run(40_000);
        let text = metrics::prometheus_text();
        metrics::reset();
        text
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "migration drain work metered differently between threads 1 and 4"
    );
}
