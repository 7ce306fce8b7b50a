"""Bench-report fingerprints shared by the stages of scripts/ci.sh.

A fingerprint is a report's canonical JSON with the volatile keys removed,
so two runs that simulated the same thing compare byte-identical whatever
the host's speed. Each stage names its own volatile keys: BASE_VOLATILE
(wall-clock measurements and trace-only output) plus any plane section the
stage toggles.

Use from a ci.sh heredoc (which runs from the repository root):

    sys.path.insert(0, "scripts")
    from fingerprint import BASE_VOLATILE, fingerprint
    fingerprint("dir/BENCH_x.json", BASE_VOLATILE + ("metrics",))
"""
import json

BASE_VOLATILE = ("wall_secs", "sim_rate", "wall_points", "trace_counters",
                 "trace_events", "trace_dropped")


def fingerprint(report, volatile):
    """Canonical bytes of `report` (a loaded dict or a JSON path) without
    the keys in `volatile`."""
    if isinstance(report, str):
        with open(report) as f:
            report = json.load(f)
    return json.dumps(
        {k: v for k, v in report.items() if k not in volatile},
        sort_keys=True,
    ).encode()
