"""plrs benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify_deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # all three workloads, one after another

Each workload runs in its own fresh worker process with one caller.  Set-up
(importing plrs, building specs, catalogs and term tables, generating the
inputs) is timed in several fresh processes and reported as a median.
Request times are reported in seconds and, for the gated metrics, in
reference units: divided by a fixed pure-Python loop timed around them,
which cancels most of the host's speed drift.
With ``--trace 1`` the untraced run is followed by one traced pass whose
per-layer numbers (calls, self and total time per wrapped function, plus
counts) replace the end-to-end metrics on the last line; the tracing
overhead is the traced pass time minus the untraced median pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else,
including the metadata, inputs and payload digests, goes to a result file
under ``.perfbench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_results"
WORKLOADS = ("verify_deep", "enum_oracle", "query_mix")
ITEM_METRIC = {
    "verify_deep": "verified_indices_per_s",
    "enum_oracle": "outcomes_per_s",
    "query_mix": "requests_per_s",
}
SETUP_PROBES = 7  # fresh set-up processes per run, besides the worker's own set-up
WORKER_TIMEOUT_S = 150
TAIL_LEVELS = (500, 750, 900, 950, 990, 999)  # per mille
TAIL_BEYOND = 10  # the tail is the highest level with at least this many samples above it

sys.path.insert(0, str(HERE))


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(workload: str, seed: int, seconds: float, mode: str, tiny: bool, tag: str) -> dict:
    out = RESULTS / f"{workload}-seed{seed}-{tag}.worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items() if k != "PLRS_ENUM_CAP"}
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    data = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return data


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Levels come from a fixed ladder so that a faster program (more samples
    in the same run time) is not pushed to a higher percentile.  Below 20
    samples not even the median has TAIL_BEYOND samples above it; the
    median is reported then, and labelled so.
    """
    xs = sorted(samples)
    n = len(xs)
    level = TAIL_LEVELS[0]
    for lv in TAIL_LEVELS:
        if n * (1000 - lv) >= TAIL_BEYOND * 1000:
            level = lv
    label = f"p{level / 10:g}"
    if n * (1000 - level) < TAIL_BEYOND * 1000:
        label += f", fewer than {2 * TAIL_BEYOND} samples"
    return xs[math.ceil(level * n / 1000) - 1], label


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (checkout has no .git)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "plrs").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(res: dict, setup: list[float]) -> dict:
    """All end-to-end figures: (value, unit, sample count, note) by name.

    ``*_ref`` figures divide each request by the reference loop timed next
    to it, which cancels most of the host's speed drift.
    """
    med = statistics.median
    n_pass, n_req = len(res["pass_s"]), len(res["latencies_s"])
    lat_ms = [x * 1000 for x in res["latencies_s"]]
    tail_ms, level = tail(lat_ms)
    tail_ref, _ = tail(res["latencies_ref"])
    items = res["items_per_pass"]
    return {
        "setup_s": (med(setup), "s", len(setup), "median of fresh set-ups"),
        "wall_s": (med(res["pass_s"]), "s", n_pass, "median pass"),
        "wall_ref": (med(res["pass_ref"]), "ref", n_pass, "median pass, reference units"),
        "items_per_s": (med([i / t for i, t in zip(items, res["pass_s"])]), "1/s", n_pass,
                        "items_per_s"),
        "items_per_ref": (med([i / t for i, t in zip(items, res["pass_ref"])]), "1/ref", n_pass,
                          "the same per reference unit"),
        "requests_per_s": (med([res["requests_per_pass"] / t for t in res["pass_s"]]), "1/s",
                           n_pass, "closed-loop calls"),
        "request_p50_ms": (med(lat_ms), "ms", n_req, "median request"),
        "request_p50_ref": (med(res["latencies_ref"]), "ref", n_req, "the same, reference units"),
        "request_tail_ms": (tail_ms, "ms", n_req, level),
        "request_tail_ref": (tail_ref, "ref", n_req, f"{level}, reference units"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1, "untraced worker"),
        "fail_ratio": (res["failed"] / res["attempted"], "ratio", res["attempted"],
                       f"{res['failed']} of {res['attempted']} checks failed"),
        "reference_ms": (med(res["reference_s"]) * 1000, "ms", len(res["reference_s"]),
                         "one reference loop (the unit 'ref')"),
    }


def per_layer(traced: dict, untraced_wall: float) -> dict:
    from tracer import traced_names

    funcs = traced["functions"]
    out = {}
    for name in traced_names():
        rec = funcs.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
        out[f"{name}.total_s"] = (rec["total_s"], "s")
    probe = traced["dp_probe"]
    stats_calls = traced["stats_calls"]
    requests = len(traced["latencies_s"])
    ctor = funcs.get("ensemble.SummandTable.__init__", {"calls": 0})["calls"]
    out["ensemble.SummandTable.extend.peak_mb"] = (probe["peak_mb"], "MB")
    out["ensemble.SummandTable.stats.hit_ratio"] = (
        1 - traced["stats_misses"] / stats_calls if stats_calls else 0.0, "ratio")
    out["ensemble.SummandTable.constructions_per_request"] = (ctor / requests, "count")
    out["ensemble.dp.max_coeff_bits"] = (probe["max_coeff_bits"], "bits")
    out["ensemble.moments.max_numerator_bits"] = (probe["max_numerator_bits"], "bits")
    out["ensemble.moments.max_denominator_bits"] = (probe["max_denominator_bits"], "bits")
    out["trace.overhead_s"] = (traced["pass_s"][0] - untraced_wall, "s")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, bench: dict) -> dict:
    worker(name, seed, seconds, "setup", tiny, "warmup")  # fills bytecode caches; not timed
    setup = [worker(name, seed, seconds, "setup", tiny, f"setup{i}")["setup_s"]
             for i in range(SETUP_PROBES)]
    res = worker(name, seed, seconds, "run", tiny, "run")
    setup.append(res["setup_s"])
    e2e = end_to_end(res, setup)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "meta": {
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "commit": commit(), "plrs_source_sha256": source_digest(),
        },
        "inputs": res["inputs"],
        "payload_sha256": res["payload_sha256"], "payload_bytes": res["payload_bytes"],
        "known_defects": res["known_defects"],
        "failures": res["failures"],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n, "note": note}
                       for k, (v, u, n, note) in e2e.items()},
        "raw": {k: res[k] for k in ("pass_s", "pass_ref", "items_per_pass", "requests_per_pass",
                                    "latencies_s", "latencies_ref", "reference_s", "phase_s")},
    }
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        traced = worker(name, seed, seconds, "trace", tiny, "trace")
        layers = per_layer(traced, e2e["wall_s"][0])
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["trace"] = {
            "pass_s": traced["pass_s"][0], "spans_file": traced["spans_file"],
            "span_lines": traced["span_lines"], "dp_probe": traced["dp_probe"],
            "overhead_s": layers["trace.overhead_s"][0],
            "overhead_ratio": layers["trace.overhead_s"][0] / e2e["wall_s"][0],
            "overhead_ref_ratio": traced["pass_ref"][0] / e2e["wall_ref"][0] - 1,
        }
        record["failures"] += traced["failures"]
        attempted += traced["attempted"]
        failed += traced["failed"]
    record["attempted"], record["failed"] = attempted, failed
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"== {name} seed={seed}: {len(res['pass_s'])} passes, {len(res['latencies_s'])} "
          f"requests, {attempted} checks, {failed} failed  ({path.relative_to(ROOT)})")
    own = ITEM_METRIC[name]
    for key, (v, unit, n, note) in e2e.items():
        label = own if key == "items_per_s" else key
        if key == "requests_per_s" and own == "requests_per_s":
            continue
        print(f"   {label:<24} {v:>14.6g} {unit:<6} n={n:<6} {note}")
    for other in ("verified_indices_per_s", "outcomes_per_s"):
        if other != own:
            print(f"   {other:<24} {'n/a':>14}        (measured on another workload)")
    for d in res["known_defects"]:
        state = "behaves as expected" if d["ok"] else "STILL FAILS: " + "; ".join(d["detail"])
        print(f"   known defect, outside the timed stream: {d['request']}: {state}")
    for line in record["failures"][:10]:
        print(f"   FAILED {line}")
    if trace:
        t = record["trace"]
        print(f"   traced pass {t['pass_s']:.3f} s, overhead {t['overhead_s']:+.3f} s "
              f"({100 * t['overhead_ratio']:+.1f}%; {100 * t['overhead_ref_ratio']:+.1f}% "
              f"in reference units), spans in {t['spans_file']}")
        for layer_name, entry in record["per_layer"].items():
            if entry["unit"] != "s" or entry["value"] >= 1e-3:
                print(f"   {layer_name:<56} {entry['value']:>12.6g} {entry['unit']}")

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    source = record["per_layer"] if trace else record["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail(f"{bench_file} is missing")
    if not (SRC / "plrs" / "__init__.py").is_file():
        return fail(f"no plrs sources under {SRC}; run from the root of a plrs checkout")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    RESULTS.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), args.tiny, bench)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            return fail(f"workload {name} did not finish: {exc}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
