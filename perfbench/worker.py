"""Run one workload in this (fresh, single-caller) process and write a JSON result.

Modes:
  setup  import plrs and build the workload's inputs, report only setup_s
  run    untraced timed phase: whole passes until --seconds would be exceeded
  trace  exactly one traced pass, then the memory and bit-length probes

Called by ``run.py``; not meant to be run by hand, though it can be:

    python3 perfbench/worker.py --workload enum_oracle --seed 1 --seconds 5 \
        --mode run --out /tmp/result.json
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


REF_EVERY_S = 0.5  # sample the reference at least this often during the timed phase
REF_WINDOW_S = 5.0  # a request is divided by the median reference within this distance
REF_ROUNDS = 12


def reference() -> int:
    """Fixed pure-Python work (small and big integers, Fractions, strings).

    It never touches plrs, so its time tracks only how fast the host runs
    Python at that moment.  Timed requests are also reported divided by it.
    """
    out = 0
    for _ in range(REF_ROUNDS):
        s = 0
        for i in range(20000):
            s += i * i % 7
        x = 3**1500
        for i in range(150):
            x = (x * 7919 + i) % (1 << 5000)
        f = Fraction(0)
        for i in range(1, 200):
            f += Fraction(i, i + 1)
        text = ",".join(str(i) for i in range(3000))
        out += s + x.bit_length() + f.numerator.bit_length() + len(text)
    return out


class RefClock:
    """Samples the reference between requests, at least every REF_EVERY_S.

    Single samples jitter; the median of the samples within REF_WINDOW_S of
    a moment follows the host's slower drift.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, duration)

    def tick(self) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def maybe(self) -> None:
        if time.perf_counter() - self.samples[-1][0] > REF_EVERY_S:
            self.tick()

    def at(self, t: float) -> float:
        near = [d for s, d in self.samples if abs(s - t) <= REF_WINDOW_S]
        if len(near) < 3:
            near = [d for _, d in sorted(self.samples, key=lambda sd: abs(sd[0] - t))[:3]]
        return statistics.median(near)


def run_passes(wl, seconds: float, max_passes: int | None, ledger, tracer=None) -> dict:
    """Closed loop over the workload's passes; returns timings per pass/request.

    Each request is also divided by the reference time around it
    (``*_ref`` values, in reference units).
    """
    passes, latencies, items, bounds, mids = [], [], [], [], []
    ref = RefClock()
    ref.tick()
    start = time.perf_counter()
    index = 0
    while True:
        reqs = wl.pass_requests(index)
        first = len(latencies)
        for rid, req in enumerate(reqs):
            ref.maybe()
            if tracer is not None:
                tracer.request = f"{index}.{rid}"
                with tracer.span("bench.request"):
                    t0 = time.perf_counter()
                    outcome = req.run()
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                outcome = req.run()
                dt = time.perf_counter() - t0
            latencies.append(dt)
            mids.append(t0 + dt / 2)
            req.check(outcome, ledger)
        ledger.digesting = False
        bounds.append((first, len(latencies)))
        passes.append(sum(latencies[first:]))
        items.append(sum(r.items for r in reqs))
        index += 1
        if max_passes is not None and index >= max_passes:
            break
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    ref.tick()
    latencies_ref = [dt / ref.at(t) for dt, t in zip(latencies, mids)]
    return {
        "pass_s": passes,
        "pass_ref": [sum(latencies_ref[a:b]) for a, b in bounds],
        "items_per_pass": items,
        "requests_per_pass": len(reqs),
        "latencies_s": latencies,
        "latencies_ref": latencies_ref,
        "reference_s": [d for _, d in ref.samples],
        "phase_s": time.perf_counter() - start,
    }


def dp_probe(wl) -> dict:
    """Peak memory of a fresh DP extension and bit lengths at each DP index used."""
    import plrs

    peak = 0
    coeff_bits = num_bits = den_bits = 0
    for text, n in wl.dp_points():
        table = plrs.SummandTable(plrs.RecurrenceSpec.from_text(text))
        tracemalloc.start()
        try:
            table.extend(n - 1)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        coeff_bits = max(coeff_bits, max(c.bit_length() for c in table.polynomial(n).coeffs))
        s = table.stats(n)
        for x in (s.mean, s.variance, s.central3, s.central4):
            num_bits = max(num_bits, abs(x.numerator).bit_length())
            den_bits = max(den_bits, x.denominator.bit_length())
    return {
        "peak_mb": peak / 2**20,
        "max_coeff_bits": coeff_bits,
        "max_numerator_bits": num_bits,
        "max_denominator_bits": den_bits,
        "points": wl.dp_points(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "plrs" / "__init__.py").is_file():
        print(f"worker: no plrs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # the benchmark's own module; imports no plrs at load time

    out_path = Path(args.out)
    scratch = out_path.with_suffix(".tmp")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, scratch)

    t0 = time.perf_counter()
    import plrs
    import plrs.cli  # noqa: F401  (the CLI workloads call it)

    wl.setup()
    setup_s = time.perf_counter() - t0
    if not Path(plrs.__file__).resolve().is_relative_to(SRC):
        print(f"worker: imported plrs from {plrs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "tiny": args.tiny, "setup_s": setup_s}
    if args.mode != "setup":
        result["inputs"] = wl.inputs()
        result["known_defects"] = wl.known_defects()
        ledger = workloads.Ledger()
        if args.mode == "run":
            timing = run_passes(wl, args.seconds, None, ledger)
        else:
            from tracer import Tracer

            tracer = Tracer()
            with tracer:
                timing = run_passes(wl, args.seconds, 1, ledger, tracer)
            result["functions"] = tracer.per_function()
            stats_calls = result["functions"].get("ensemble.SummandTable.stats", {}).get("calls", 0)
            misses = tracer.nested_calls("ensemble.stats_from_polynomial", "ensemble.SummandTable.stats")
            result["stats_calls"] = stats_calls
            result["stats_misses"] = misses
            spans_path = out_path.with_name(out_path.stem + "-spans.jsonl")
            result["spans_file"] = spans_path.name
            result["span_lines"] = tracer.write(str(spans_path))
            result["dp_probe"] = dp_probe(wl)
        result.update(timing)
        result.update({
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failures": ledger.failures,
            "payload_sha256": ledger.digest.hexdigest(),
            "payload_bytes": ledger.digest_bytes,
        })
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out_path.write_text(json.dumps(result), encoding="utf-8")
    if scratch.exists():
        for f in scratch.iterdir():
            f.unlink()
        scratch.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
