//! Turns a run's episodes and spans into the metrics it reports, the
//! human-readable tables before the result line, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::{self, Span};
use crate::stats::{median, nearest_rank, trimmed_mean};
use crate::workloads::Episode;
use crate::{Args, EpisodeKind};

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("sim_mcps", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by a traced run. "(sim)" values are in
/// simulated cycles; `_ms`/`_us` values are host time from the spans.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("node.run_ms", "ms"),
    ("node.step_ms_p50", "ms"),
    ("node.step_ms_p95", "ms"),
    ("node.step_n", "count"),
    ("node.chunks", "count"),
    ("node.migrate_ms_p50", "ms"),
    ("node.migrate_n", "count"),
    ("node.migrations", "count"),
    ("node.migrate_failed", "count"),
    ("node.share_us_p50", "us"),
    ("node.share_ops", "count"),
    ("hv.mmio_us_p50", "us"),
    ("hv.mmio_n", "count"),
    ("hv.traps", "count"),
    ("hv.alloc_ms", "ms"),
    ("hv.pinned_pages", "count"),
    ("hv.context_switches", "count"),
    ("hv.preemptions", "count"),
    ("hv.forced_resets", "count"),
    ("hv.trap_cycles_mean", "cycles"),
    ("hv.preempt_cycles_mean", "cycles"),
    ("hv.install_cycles_mean", "cycles"),
    ("snapshot.live_update_ms_p50", "ms"),
    ("snapshot.live_updates", "count"),
    ("watchdog.alerts", "count"),
    ("mem.iotlb_hits", "count"),
    ("mem.iotlb_misses", "count"),
    ("mem.iotlb_conflicts", "count"),
    ("mem.iotlb_hit_ratio", "ratio"),
    ("mem.page_walk_cycles_mean", "cycles"),
    ("mem.materialized_frames", "count"),
    ("mem.io_page_faults", "count"),
    ("cci.dma_bytes", "bytes"),
    ("cci.channel_packets", "count"),
    ("cci.channel_switches", "count"),
    ("cci.dma_rt_cycles_mean", "cycles"),
    ("cci.sim_gbps", "GB/s"),
    ("fabric.mux_grants", "count"),
    ("fabric.mux_stalls", "count"),
    ("fabric.mux_stall_ratio", "ratio"),
    ("fabric.auditor_rejects", "count"),
    ("fabric.discarded_dma", "count"),
    ("fabric.jain", "ratio"),
    ("accel.progress_bytes", "bytes"),
    ("accel.frames_verified", "count"),
    ("obs.scrape_ms_p50", "ms"),
    ("obs.scrape_n", "count"),
    ("journal.jobs_completed", "count"),
    ("journal.conservation_ok", "count"),
    ("slo.e2e_cycles_p95", "cycles"),
    ("slo.e2e_n", "count"),
    ("sim.cycles", "cycles"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.fail_ratio", "ratio"),
    ("bench.drain_failed", "count"),
    ("bench.episodes", "count"),
];

/// Share of the episodes dropped at each end before `sim_mcps` and
/// `setup_s` average over them.
const TRIM: f64 = 0.1;

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// nproc, CPU model and rustc version, so a number is never read
/// without the machine that produced it.
fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{}}}",
        json_str(&cpu),
        json_str(&rustc)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Durations of every span called `name`, in milliseconds.
fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Per-episode total of the durations of spans called `name`, ms.
fn per_episode_total_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_ep: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_ep.entry(s.episode).or_default() += s.dur_ns() as f64 / 1e6;
    }
    by_ep.into_values().collect()
}

pub fn summarize(
    args: &Args,
    episodes: &[(Episode, EpisodeKind)],
    spans: &[Span],
    peak_rss_mb: f64,
    wall_s: f64,
) -> Result<String, String> {
    let attempted: u64 = episodes.iter().map(|(e, _)| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|(e, _)| e.failed).sum();
    let drain_failed: u64 = episodes.iter().map(|(e, _)| e.drain_failed).sum();
    let correct = episodes.iter().all(|(e, _)| e.correct());
    let of_kind = |kind: EpisodeKind| -> Vec<&Episode> {
        episodes
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(e, _)| e)
            .collect()
    };
    // Trimmed mean of the per-episode rates. On a shared host the speed
    // sits at two levels for stretches of seconds, and a run's share of
    // each varies: a mean moves with that share, while a median jumps
    // between the levels when it nears a half. Trimming a tenth at each
    // end keeps single disturbed episodes out.
    let rate = |kind: EpisodeKind| -> f64 {
        let rates: Vec<f64> = of_kind(kind).iter().map(|e| e.sim_mcps()).collect();
        trimmed_mean(&rates, TRIM)
    };
    let untraced = of_kind(EpisodeKind::Timed);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut notes: BTreeMap<&str, usize> = BTreeMap::new();
    if !args.trace {
        let setups: Vec<f64> = untraced.iter().map(|e| e.setup_s).collect();
        metrics.push(("sim_mcps", rate(EpisodeKind::Timed), END_TO_END[0].1));
        metrics.push(("setup_s", trimmed_mean(&setups, TRIM), END_TO_END[1].1));
        metrics.push(("peak_rss_mb", peak_rss_mb, END_TO_END[2].1));
        notes.insert("sim_mcps", untraced.len());
        notes.insert("setup_s", untraced.len());
    } else {
        let first = &episodes[0].0;
        let mut v: BTreeMap<&str, f64> = first.counters.iter().map(|(k, v)| (*k, *v)).collect();
        let mut pct =
            |name: &'static str, span: &str, q: f64, scale: f64, count_as: Option<&'static str>| {
                let p = nearest_rank(&durations_ms(spans, span), q);
                v.insert(name, p.value * scale);
                notes.insert(name, p.count);
                if let Some(c) = count_as {
                    v.insert(c, p.count as f64);
                }
            };
        pct(
            "node.step_ms_p50",
            "node.step",
            0.5,
            1.0,
            Some("node.step_n"),
        );
        pct("node.step_ms_p95", "node.step", 0.95, 1.0, None);
        pct(
            "node.migrate_ms_p50",
            "node.migrate",
            0.5,
            1.0,
            Some("node.migrate_n"),
        );
        pct(
            "node.share_us_p50",
            "node.share",
            0.5,
            1e3,
            Some("node.share_ops"),
        );
        pct("hv.mmio_us_p50", "hv.mmio", 0.5, 1e3, Some("hv.mmio_n"));
        pct(
            "snapshot.live_update_ms_p50",
            "snapshot.live_update",
            0.5,
            1.0,
            Some("snapshot.live_updates"),
        );
        pct(
            "obs.scrape_ms_p50",
            "obs.scrape",
            0.5,
            1.0,
            Some("obs.scrape_n"),
        );
        let run_ms = per_episode_total_ms(spans, "node.step");
        v.insert("node.run_ms", median(&run_ms));
        notes.insert("node.run_ms", run_ms.len());
        let alloc_ms = per_episode_total_ms(spans, "hv.alloc");
        v.insert("hv.alloc_ms", median(&alloc_ms));
        notes.insert("hv.alloc_ms", alloc_ms.len());
        let (traced_rate, plain_rate) = (rate(EpisodeKind::Traced), rate(EpisodeKind::Timed));
        v.insert(
            "bench.trace_overhead_pct",
            (plain_rate / traced_rate - 1.0) * 100.0,
        );
        v.insert("bench.fail_ratio", failed as f64 / attempted.max(1) as f64);
        v.insert("bench.drain_failed", drain_failed as f64);
        v.insert("bench.episodes", episodes.len() as f64);
        for (name, unit) in PER_LAYER {
            metrics.push((name, v.get(name).copied().unwrap_or(0.0), unit));
        }
    }

    // Human-readable report: settings, host, metrics with sample counts,
    // failures and, in a traced run, self time per layer.
    let stamp = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"settings\":{},\"host\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        crate::workloads::settings(args.workload),
        host_stamp(),
    );
    println!("perfbench stamp: {stamp}");
    println!(
        "perfbench {}: {} episodes, seed {}, {:.1} s wall, {attempted} operations, {failed} failed ({drain_failed} in the drain), digest {}",
        args.workload,
        episodes.len(),
        args.seed,
        wall_s,
        episodes[0].0.digest.map_or("none".into(), |d| format!("{d:#018x}")),
    );
    let rates: Vec<String> = episodes
        .iter()
        .map(|(e, _)| format!("{:.3}", e.sim_mcps()))
        .collect();
    println!("  per-episode sim_mcps: [{}]", rates.join(", "));
    let setups: Vec<String> = episodes
        .iter()
        .map(|(e, _)| format!("{:.4}", e.setup_s))
        .collect();
    println!("  per-episode setup_s: [{}]", setups.join(", "));
    println!(
        "  {:<30} {:>16.4} {:<10} ({failed} failed / {attempted} attempted)",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
    for (name, value, unit) in &metrics {
        match notes.get(name) {
            Some(n) => println!("  {name:<30} {value:>16.4} {unit:<10} (n={n})"),
            None => println!("  {name:<30} {value:>16.4} {unit}"),
        }
    }
    let mut shown = std::collections::BTreeSet::new();
    for (e, _) in episodes {
        for f in &e.failures {
            if shown.insert(f.clone()) {
                println!("  failure: {f}");
            }
        }
    }
    if args.trace {
        print_self_times(spans, of_kind(EpisodeKind::Traced).len());
        let dir = "target/perfbench";
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
        std::fs::write(&path, spans::chrome_json(spans, &stamp))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("  chrome trace: {path}");
    }

    let mut line = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Self time per layer, per traced episode, from the spans.
fn print_self_times(spans: &[Span], traced_episodes: usize) {
    let selfs = spans::self_times(spans);
    let mut by_layer: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        let e = by_layer.entry(s.layer()).or_default();
        e.0 += *t as f64 / 1e6;
        e.1 += 1;
    }
    let n = traced_episodes.max(1) as f64;
    println!("  self time per layer (ms per traced episode, {traced_episodes} traced episodes):");
    for (layer, (ms, count)) in by_layer {
        println!("    {layer:<10} {:>12.3} ms  {:>8} spans", ms / n, count);
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric names and units a run prints are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..start + json[start..].find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = s[..s.find('"').expect("name closes")].to_string();
                    let u = &s[s.find("\"unit\": \"").expect("unit present") + 9..];
                    (name, u[..u.find('"').expect("unit closes")].to_string())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }
}
