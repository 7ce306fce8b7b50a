//! Global simulated-cycle accounting.
//!
//! Every cycle kernel in the workspace (the fabric device, the host-centric
//! platform) reports the fabric cycles it simulates to a process-wide
//! counter. Bench reports read the counter alongside wall-clock time to
//! compute a `sim_rate` (simulated fabric cycles per wall-second), making
//! the simulator's own performance trajectory machine-readable across PRs.
//!
//! The kernels' fast-forward and batching defaults (`OPTIMUS_NO_FASTFWD`,
//! `OPTIMUS_BATCH_STEP`) are read once per process by [`crate::obs::env`].
//! Both are bit-exact either way; the knobs exist for differential testing
//! and for profiling the stepping machinery itself.

use crate::time::Cycle;
use std::sync::atomic::{AtomicU64, Ordering};

static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Credits `cycles` fabric cycles to the process-wide simulation counter.
///
/// Kernels call this once per `run`/`advance` batch, not per cycle, so the
/// counter costs nothing on the per-step hot path.
pub fn add_cycles(cycles: Cycle) {
    SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
}

/// Total fabric cycles simulated by this process so far.
pub fn cycles() -> Cycle {
    SIM_CYCLES.load(Ordering::Relaxed)
}

/// Default burst length for batched stepping (cycles executed per
/// dispatch when a machine is busy at the horizon; see
/// `PlatformClock::advance_toward_batched`).
pub const DEFAULT_BATCH_STEP: Cycle = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let before = cycles();
        add_cycles(123);
        add_cycles(877);
        assert!(cycles() >= before + 1000);
    }
}
