//! Clock domains and time conversion.
//!
//! The global simulation clock is the FPGA *fabric* clock: the Arria 10 on
//! Intel Skylake HARP runs its shell, hardware monitor, and interconnect
//! interface at 400 MHz (2.5 ns per cycle). Benchmarks synthesized at lower
//! frequencies (Table 1 of the paper: 100 or 200 MHz) are stepped through
//! [`ClockDivider`]s.

/// A point in simulated time, measured in fabric clock cycles.
pub type Cycle = u64;

/// Fabric clock frequency in Hz (400 MHz on Skylake HARP).
pub const FABRIC_HZ: u64 = 400_000_000;

/// Nanoseconds per fabric cycle (2.5 ns).
pub const NS_PER_CYCLE: f64 = 1e9 / FABRIC_HZ as f64;

/// DMA payload size: one CPU cache line.
pub const CACHE_LINE: usize = 64;

/// Converts a duration in nanoseconds to fabric cycles, rounding to nearest.
///
/// # Examples
///
/// ```
/// use optimus_sim::time::ns_to_cycles;
/// assert_eq!(ns_to_cycles(2.5), 1);
/// assert_eq!(ns_to_cycles(100.0), 40);
/// ```
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns / NS_PER_CYCLE).round() as Cycle
}

/// Converts fabric cycles to nanoseconds.
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 * NS_PER_CYCLE
}

/// Converts microseconds to fabric cycles.
pub fn us_to_cycles(us: f64) -> Cycle {
    ns_to_cycles(us * 1e3)
}

/// Converts milliseconds to fabric cycles.
pub fn ms_to_cycles(ms: f64) -> Cycle {
    ns_to_cycles(ms * 1e6)
}

/// Converts fabric cycles to seconds.
pub fn cycles_to_secs(cycles: Cycle) -> f64 {
    cycles as f64 / FABRIC_HZ as f64
}

/// Derives a throughput in GB/s from bytes moved over a cycle window.
///
/// Returns 0 for an empty window.
pub fn gbps(bytes: u64, cycles: Cycle) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    bytes as f64 / cycles_to_secs(cycles) / 1e9
}

/// Steps a slower clock domain off the 400 MHz fabric clock.
///
/// A benchmark synthesized at 200 MHz ticks once every 2 fabric cycles; at
/// 100 MHz, once every 4. The divider answers "does this fabric cycle carry
/// a rising edge of my clock?".
///
/// # Examples
///
/// ```
/// use optimus_sim::time::ClockDivider;
///
/// let mut d = ClockDivider::from_mhz(200);
/// let edges: Vec<bool> = (0..4).map(|c| d.tick(c)).collect();
/// assert_eq!(edges, [true, false, true, false]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDivider {
    divisor: u64,
    /// `divisor - 1` when the divisor is a power of two (every divisor in
    /// the accelerator registry is), else [`Self::NOT_POW2`]: an edge test
    /// is then one AND instead of a runtime divide.
    mask: u64,
}

impl ClockDivider {
    /// Creates a divider for a clock running at `fabric_hz / divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "clock divisor must be positive");
        let mask = if divisor.is_power_of_two() {
            divisor - 1
        } else {
            Self::NOT_POW2
        };
        Self { divisor, mask }
    }

    /// [`mask`](Self::mask) of a divisor that is not a power of two (no
    /// power of two below 2^64 has this as its `divisor - 1`).
    const NOT_POW2: u64 = u64::MAX;

    /// Creates a divider for a frequency given in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero or does not evenly divide the 400 MHz fabric
    /// clock (HARP's PLLs only expose integer dividers to benchmarks).
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be positive");
        let fabric_mhz = FABRIC_HZ / 1_000_000;
        assert_eq!(
            fabric_mhz % mhz,
            0,
            "{mhz} MHz does not divide the {fabric_mhz} MHz fabric clock"
        );
        Self::new(fabric_mhz / mhz)
    }

    /// Returns `true` when fabric cycle `now` carries a rising edge.
    #[inline]
    pub fn tick(&mut self, now: Cycle) -> bool {
        if self.mask != Self::NOT_POW2 {
            now & self.mask == 0
        } else {
            now.is_multiple_of(self.divisor)
        }
    }

    /// First fabric cycle at or after `at` that carries a rising edge.
    ///
    /// The divider is stateless modulo arithmetic, so skipping fabric cycles
    /// between edges cannot perturb it — this is what makes clock dividers
    /// safe under event-horizon fast-forwarding.
    ///
    /// # Examples
    ///
    /// ```
    /// use optimus_sim::time::ClockDivider;
    ///
    /// let d = ClockDivider::from_mhz(100); // edge every 4 fabric cycles
    /// assert_eq!(d.next_edge(0), 0);
    /// assert_eq!(d.next_edge(1), 4);
    /// assert_eq!(d.next_edge(4), 4);
    /// assert_eq!(d.next_edge(5), 8);
    /// ```
    pub fn next_edge(&self, at: Cycle) -> Cycle {
        at.div_ceil(self.divisor) * self.divisor
    }

    /// The divisor relative to the fabric clock.
    pub fn divisor(&self) -> u64 {
        self.divisor
    }

    /// The derived clock frequency in Hz.
    pub fn hz(&self) -> u64 {
        FABRIC_HZ / self.divisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        for cycles in [0u64, 1, 13, 40, 4_000_000] {
            assert_eq!(ns_to_cycles(cycles_to_ns(cycles)), cycles);
        }
    }

    #[test]
    fn milliseconds_convert() {
        // 10 ms time slice = 4M fabric cycles.
        assert_eq!(ms_to_cycles(10.0), 4_000_000);
    }

    #[test]
    fn gbps_full_rate() {
        // One 64-byte line per cycle at 400 MHz = 25.6 GB/s.
        let t = gbps(64 * 400_000_000, FABRIC_HZ);
        assert!((t - 25.6).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn gbps_empty_window_is_zero() {
        assert_eq!(gbps(100, 0), 0.0);
    }

    #[test]
    fn divider_100mhz_every_fourth() {
        let mut d = ClockDivider::from_mhz(100);
        let edges: Vec<Cycle> = (0..12).filter(|&c| d.tick(c)).collect();
        assert_eq!(edges, [0, 4, 8]);
        assert_eq!(d.hz(), 100_000_000);
    }

    #[test]
    fn divider_400mhz_every_cycle() {
        let mut d = ClockDivider::from_mhz(400);
        assert!((0..8).all(|c| d.tick(c)));
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn divider_rejects_non_integer_ratio() {
        ClockDivider::from_mhz(300);
    }

    #[test]
    fn tick_matches_modulo_for_every_small_divisor() {
        for d in 1..=8u64 {
            let mut div = ClockDivider::new(d);
            for now in 0..1000u64 {
                assert_eq!(div.tick(now), now % d == 0, "divisor {d} at cycle {now}");
            }
        }
    }

    #[test]
    fn next_edge_agrees_with_tick() {
        for mhz in [400u64, 200, 100, 50] {
            let mut d = ClockDivider::from_mhz(mhz);
            for at in 0..32u64 {
                let edge = d.next_edge(at);
                assert!(edge >= at);
                assert!(d.tick(edge), "{mhz} MHz: {edge} is not an edge");
                // No edge strictly between `at` and the reported one.
                assert!((at..edge).all(|c| !d.tick(c)), "{mhz} MHz at {at}");
            }
        }
    }
}
