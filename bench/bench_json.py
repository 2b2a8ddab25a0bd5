"""Readers shared by the result summaries in bench/run_bench.sh.

google-benchmark reports real_time in each benchmark's own time_unit
(ns unless the benchmark sets ->Unit(...)); every summary converts
through real_ns so the "ns" it writes are nanoseconds.
"""

import json

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_ns(b):
    """The real time of one benchmark entry in nanoseconds."""
    return b["real_time"] * _NS_PER_UNIT[b.get("time_unit", "ns")]


def entries(path):
    """The per-run entries of a google-benchmark JSON file: no aggregates,
    no errored or skipped runs."""
    return [b for b in json.load(open(path))["benchmarks"]
            if b.get("run_type") != "aggregate"
            and not b.get("error_occurred") and not b.get("skipped")]
