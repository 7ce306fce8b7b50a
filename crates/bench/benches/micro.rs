//! Micro-benchmarks of the hot paths: auditor translation, IOTLB lookup,
//! page-table walks, mux-tree arbitration, the per-line AES compute, and
//! whole-device stepping (single steps and batched runs).
//!
//! Runs on the in-tree `optimus-testkit` bench runner (criterion-like
//! `bench_function` API, warm-up exclusion, `BENCH_micro.json` report).

use optimus_accel::membench::MbKernel;
use optimus_accel::registry::{build_accelerator, AccelKind};
use optimus_algo::aes::Aes128;
use optimus_cci::channel::SelectorPolicy;
use optimus_cci::packet::{AccelId, Tag, UpPacket};
use optimus_fabric::accelerator::Accelerator;
use optimus_fabric::auditor::{Auditor, OutboundReq};
use optimus_fabric::device::FpgaDevice;
use optimus_fabric::mmio::{accel_mmio_base, accel_reg};
use optimus_fabric::mux_tree::{MuxTree, TreeConfig};
use optimus_fabric::testing::StreamCopier;
use optimus_mem::addr::{Gva, Hpa, Iova, PageSize};
use optimus_mem::iommu::Iommu;
use optimus_mem::page_table::{PageFlags, PageTable};
use optimus_testkit::bench::Bench;
use std::hint::black_box;

fn bench_auditor(c: &mut Bench) {
    let mut auditor = Auditor::new(AccelId(3), 0x13000, 0x1000);
    auditor.set_offset(64 << 30);
    c.bench_function("auditor_translate", |b| {
        b.iter(|| {
            auditor.translate(OutboundReq {
                gva: Gva::new(black_box(0x1234_5678)),
                write: None,
                tag: Tag(1),
            })
        })
    });
}

fn bench_iommu(c: &mut Bench) {
    let mut iommu = Iommu::new();
    for i in 0..512u64 {
        iommu
            .map(
                Iova::new(i << 21),
                Hpa::new(i << 21),
                PageSize::Huge,
                PageFlags::rw(),
            )
            .unwrap();
    }
    let mut i = 0u64;
    c.bench_function("iotlb_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 512;
            iommu.translate(Iova::new(black_box(i << 21)), false).unwrap()
        })
    });
}

fn bench_page_table_walk(c: &mut Bench) {
    let mut pt = PageTable::new();
    for i in 0..4096u64 {
        pt.map(i << 21, i << 21, PageSize::Huge, PageFlags::rw()).unwrap();
    }
    let mut i = 0u64;
    c.bench_function("page_table_translate", |b| {
        b.iter(|| {
            i = (i + 1) % 4096;
            pt.translate(black_box(i << 21)).unwrap()
        })
    });
}

fn bench_mux_tree(c: &mut Bench) {
    c.bench_function("mux_tree_step_saturated", |b| {
        let mut tree = MuxTree::new(TreeConfig::default_eight());
        let mut now = 0u64;
        let mut tag = 0u32;
        b.iter(|| {
            for a in 0..8 {
                if tree.can_accept(a) {
                    tree.inject(
                        a,
                        UpPacket::DmaRead {
                            iova: Iova::new(0),
                            src: AccelId(a as u8),
                            tag: Tag(tag),
                        },
                        now,
                    );
                    tag = tag.wrapping_add(1);
                }
            }
            tree.step(now);
            let popped = tree.pop_root(now);
            now += 1;
            popped
        })
    });
}

fn bench_aes_line(c: &mut Bench) {
    let aes = Aes128::new(b"0123456789abcdef");
    c.bench_function("aes_encrypt_line", |b| {
        let mut line = [0x5Au8; 64];
        b.iter(|| {
            aes.encrypt_ecb(&mut line);
            line[0]
        })
    });
}

fn copier_device() -> FpgaDevice {
    let accels: Vec<Box<dyn Accelerator>> = (0..2)
        .map(|_| Box::new(StreamCopier::new()) as Box<dyn Accelerator>)
        .collect();
    let mut dev = FpgaDevice::new_monitored(accels, 2, SelectorPolicy::Auto);
    for i in 0..128u64 {
        dev.host_mut()
            .iommu_mut()
            .map(
                Iova::new(i * PageSize::Huge.bytes()),
                Hpa::new(i * PageSize::Huge.bytes()),
                PageSize::Huge,
                PageFlags::rw(),
            )
            .unwrap();
    }
    dev
}

/// Raw `FpgaDevice::step` cost — the quantity fast-forward exists to avoid
/// paying on idle cycles, measured both idle and under a live copy.
fn bench_device_step(c: &mut Bench) {
    c.bench_function("fpga_device_step_idle", |b| {
        let mut dev = copier_device();
        b.iter(|| {
            dev.step();
            dev.now()
        })
    });
    c.bench_function("fpga_device_step_loaded", |b| {
        let mut dev = copier_device();
        let base = accel_mmio_base(0);
        dev.mmio_write(base + StreamCopier::REG_SRC, 0x100_000);
        dev.mmio_write(base + StreamCopier::REG_DST, 0x4_000_000);
        // Large enough that the copy outlives any sample batch.
        dev.mmio_write(base + StreamCopier::REG_LINES, u64::MAX >> 8);
        dev.mmio_write(base + accel_reg::CTRL_CMD, accel_reg::CMD_START);
        dev.run(1_000); // reach steady state
        b.iter(|| {
            dev.step();
            dev.now()
        })
    });
}

/// Batched `FpgaDevice::run` on a saturated fabric: eight MemBench slots
/// issuing mixed random reads and writes through the auditors, the mux
/// tree and the host side every cycle. Unlike the single-step cases this
/// goes through the burst loop `run` uses, which takes one observation tap
/// per burst.
fn bench_device_run_saturated(c: &mut Bench) {
    c.bench_function("fpga_device_run_saturated", |b| {
        let accels: Vec<Box<dyn Accelerator>> = (0..8)
            .map(|i| build_accelerator(AccelKind::Mb, i))
            .collect();
        let mut dev = FpgaDevice::new_monitored(accels, 2, SelectorPolicy::Auto);
        let region = 4 * PageSize::Huge.bytes();
        for i in 0..32u64 {
            dev.host_mut()
                .iommu_mut()
                .map(
                    Iova::new(i * PageSize::Huge.bytes()),
                    Hpa::new(i * PageSize::Huge.bytes()),
                    PageSize::Huge,
                    PageFlags::rw(),
                )
                .unwrap();
        }
        for slot in 0..8u64 {
            let app = accel_mmio_base(slot as usize) + accel_reg::APP_BASE;
            dev.mmio_write(app + MbKernel::REG_REGION, slot * region);
            dev.mmio_write(app + MbKernel::REG_BYTES, region);
            dev.mmio_write(app + MbKernel::REG_MODE, 2); // mixed reads and writes
            dev.mmio_write(app + MbKernel::REG_OPS, 0); // run until stopped
            dev.mmio_write(app + MbKernel::REG_SEED, 0x5eed + slot);
            dev.mmio_write(
                accel_mmio_base(slot as usize) + accel_reg::CTRL_CMD,
                accel_reg::CMD_START,
            );
        }
        dev.run(20_000); // fill the IOTLB and the queues
        b.iter(|| {
            dev.run(64);
            dev.now()
        })
    });
}

fn main() {
    let mut c = Bench::new("micro");
    bench_auditor(&mut c);
    bench_iommu(&mut c);
    bench_page_table_walk(&mut c);
    bench_mux_tree(&mut c);
    bench_aes_line(&mut c);
    bench_device_step(&mut c);
    bench_device_run_saturated(&mut c);
    c.finish().expect("write bench report");
}
