//! Host-time benchmark of the OPTIMUS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chase_tlb|stream_node|churn_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs a warm-up episode of one workload and then a fixed number of
//! measured ones, as many as fill `--seconds` of measured host time on the
//! host the benchmark was sized on, so that a seed always does the same
//! work. It prints, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, taken from the benchmark's own spans around
//! every call into a layer plus the layers' public counters. See
//! `NOTES.md` for the workloads, the metrics and what each should move.

mod digest;
mod golden;
mod report;
mod spans;
mod stats;
mod workloads;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use workloads::Episode;

/// Environment knobs that change what the simulator does or records. The
/// benchmark sets every setting it relies on by value and refuses to run
/// when any of these would override one.
const BEHAVIOUR_ENV: [&str; 9] = [
    "OPTIMUS_TRACE",
    "OPTIMUS_TRACE_CAP",
    "OPTIMUS_SPEC",
    "OPTIMUS_NO_FASTFWD",
    "OPTIMUS_NODE_THREADS",
    "OPTIMUS_METRICS",
    "OPTIMUS_LOCKSTEP",
    "OPTIMUS_JOURNAL",
    "OPTIMUS_BATCH_STEP",
];

/// Panic messages caught since the current episode began.
static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// What an episode of a run is for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpisodeKind {
    /// The first episode: checked, but left out of every timing.
    Warmup,
    /// Untraced and timed: gives the end-to-end metrics.
    Timed,
    /// Records spans: gives the per-layer metrics.
    Traced,
}

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *workloads::NAMES
                        .iter()
                        .find(|n| **n == val)
                        .ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => seconds = Some(num(&val)?.max(1) as f64),
            "--trace" => trace = Some(num(&val)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one episode, catching a panic at its boundary: the thread-local
/// planes are reset before the next episode either way. `threads`
/// overrides the node worker threads (the self-tests compare 1 and 2).
pub fn run_episode(workload: &str, seed: u64, threads: Option<usize>) -> Episode {
    workloads::reset_planes();
    PANICS.lock().expect("panic log lock").clear();
    let mut ep = Episode::new();
    let result = panic::catch_unwind(AssertUnwindSafe(|| match workload {
        "chase_tlb" => workloads::chase_tlb::episode(seed, &mut ep),
        "stream_node" => workloads::stream_node::episode(
            seed,
            threads.unwrap_or(workloads::NODE_THREADS),
            &mut ep,
        ),
        "churn_mix" => {
            workloads::churn_mix::episode(seed, threads.unwrap_or(workloads::NODE_THREADS), &mut ep)
        }
        _ => unreachable!("workload names are validated at parse time"),
    }));
    if result.is_err() {
        spans::close_open();
        let first = PANICS.lock().expect("panic log lock").first().cloned();
        ep.abort(first.as_deref().unwrap_or("unknown panic"));
    }
    if let Some(g) = golden::expected(workload, seed) {
        let got = ep.digest;
        ep.measured_op(got == Some(g), || {
            format!("digest {got:x?} differs from golden {g:#x}")
        });
    }
    ep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = BEHAVIOUR_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with behaviour-changing variables set: {set:?}");
        return ExitCode::from(2);
    }
    panic::set_hook(Box::new(|info| {
        let msg = match (
            info.payload().downcast_ref::<&str>(),
            info.payload().downcast_ref::<String>(),
        ) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "non-string panic".to_string(),
        };
        let at = info
            .location()
            .map(|l| format!(" at {}:{}", l.file(), l.line()))
            .unwrap_or_default();
        eprintln!("perfbench: caught panic: {msg}{at}");
        if let Ok(mut p) = PANICS.lock() {
            p.push(format!("{msg}{at}"));
        }
    }));

    if args.trace {
        spans::enable();
    }
    let t0 = Instant::now();
    let measured = workloads::episodes(args.workload, args.seconds);
    let mut episodes: Vec<(Episode, EpisodeKind)> = Vec::new();
    // Peak memory of one set-up, measured phase and drain. Later episodes
    // repeat the same work, but freed memory the allocator keeps would
    // make the process peak grow with the episode count.
    let mut peak_rss_mb = 0.0;
    for k in 0..=measured {
        // Episode 0 warms the caches, the allocator and the worker threads:
        // it is checked like the others but not timed. A traced run then
        // alternates traced and untraced episodes, so the spans' own
        // overhead is measured on the same run.
        let kind = match k {
            0 => EpisodeKind::Warmup,
            k if args.trace && k % 2 == 1 => EpisodeKind::Traced,
            _ => EpisodeKind::Timed,
        };
        spans::set_episode(k, kind == EpisodeKind::Traced);
        let mut ep = run_episode(args.workload, args.seed, None);
        if let Some((first, _)) = episodes.first() {
            // Every episode replays the same inputs.
            let (a, b) = (first.digest, ep.digest);
            ep.measured_op(a == b, || {
                format!("episode {k} digest {b:x?} differs from episode 0's {a:x?}")
            });
        }
        episodes.push((ep, kind));
        if k == 0 {
            peak_rss_mb = match report::peak_rss_mb() {
                Ok(mb) => mb,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(1);
                }
            };
        }
        // On a host several times slower than the one the episode count
        // was sized on, end early rather than overrun a caller's time limit.
        if k >= 2 && t0.elapsed().as_secs_f64() >= 4.0 * args.seconds + 60.0 {
            eprintln!(
                "perfbench: stopping after {k} of {measured} measured episodes (wall-clock cap)"
            );
            break;
        }
    }
    let spans = if args.trace {
        spans::disable()
    } else {
        Vec::new()
    };
    let out = report::summarize(
        &args,
        &episodes,
        &spans,
        peak_rss_mb,
        t0.elapsed().as_secs_f64(),
    );
    match out {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod selftest {
    use super::run_episode;

    fn digest(workload: &str, seed: u64, threads: Option<usize>) -> u64 {
        let ep = run_episode(workload, seed, threads);
        assert_eq!(ep.timed_failed(), 0, "{workload}: {:?}", ep.failures);
        ep.digest.expect("the measured phase completed")
    }

    #[test]
    fn same_seed_gives_identical_digests() {
        for w in crate::workloads::NAMES {
            assert_eq!(digest(w, 7, None), digest(w, 7, None), "{w}");
        }
        assert_ne!(digest("chase_tlb", 7, None), digest("chase_tlb", 8, None));
    }

    #[test]
    fn node_workloads_simulate_the_same_at_one_and_two_threads() {
        for w in ["stream_node", "churn_mix"] {
            assert_eq!(digest(w, 3, Some(1)), digest(w, 3, Some(2)), "{w}");
        }
    }

    /// A perturbed golden fails one operation of the measured phase, even
    /// on churn_mix, whose golden check runs after the drain.
    #[test]
    fn a_perturbed_golden_digest_is_a_failed_operation() {
        let seed = crate::golden::DEFAULT_SEEDS.start;
        for w in ["stream_node", "churn_mix"] {
            let good = run_episode(w, seed, None);
            assert!(good.correct(), "{w}: {:?}", good.failures);
            crate::golden::perturb_for_test(true);
            let bad = run_episode(w, seed, None);
            crate::golden::perturb_for_test(false);
            assert_eq!(bad.timed_failed(), 1, "{w}: {:?}", bad.failures);
            assert!(!bad.correct(), "{w}");
            assert_eq!(bad.failed, good.failed + 1, "{w}");
            assert_eq!(bad.attempted, good.attempted, "{w}");
            assert!(
                bad.failures
                    .iter()
                    .any(|f| f.starts_with("measured:") && f.contains("golden")),
                "{w}: {:?}",
                bad.failures
            );
        }
    }
}
