"""Self-test of the benchmark at tiny input sizes (under a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that valid requests report no failed check (fail_ratio 0), that a request
raising out of ``plrs.cli.main`` is counted as failed instead of crashing
the run, that one seed always gives the same inputs and payload bytes, and
that the benchmark refuses to run without the plrs sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_results"
REPORTED_METRICS = (
    "setup_s", "wall_s", "verified_indices_per_s", "outcomes_per_s", "requests_per_s",
    "request_p50_ms", "request_tail_ms", "peak_rss_mb", "fail_ratio",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, wanted: list[dict], prefix: str = "") -> None:
    got = {k[len(prefix):]: v for k, v in result["metrics"].items() if k.startswith(prefix)}
    names = {m["name"] for m in wanted}
    assert set(got) == names, sorted(set(got) ^ names)
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)


def test_all_workloads_untraced(spec: dict) -> None:
    proc = bench("--seed", "3")
    result = last_json(proc)
    for w in spec["workloads"]:
        check_metrics(result, spec["end_to_end"], prefix=w["name"] + ".")
    for name in REPORTED_METRICS:
        assert any(line.split()[:1] == [name] for line in proc.stdout.splitlines()), name
    for line in proc.stdout.splitlines():
        words = line.split()
        if words and words[0] in REPORTED_METRICS and words[1] != "n/a":
            assert words[3].startswith("n="), line  # value, unit, sample count
    assert "fail_ratio                            0 ratio" in proc.stdout


def test_traced(spec: dict) -> None:
    for w in spec["workloads"]:
        proc = bench("--workload", w["name"], "--seed", "4", "--trace", "1")
        check_metrics(last_json(proc), spec["per_layer"])
        assert "overhead" in proc.stdout


def test_same_seed_same_bytes() -> None:
    digests = []
    for _ in range(2):
        last_json(bench("--workload", "query_mix", "--seed", "5"))
        record = json.loads((RESULTS / "query_mix-seed5-trace0.json").read_text())
        digests.append((record["inputs"], record["payload_sha256"]))
    assert digests[0] == digests[1]


def test_crash_counts_as_failure() -> None:
    sys.path.insert(0, str(HERE))
    import workloads

    def main(argv):
        raise TypeError("boom")

    saved = sys.modules.get("plrs.cli")
    sys.modules["plrs.cli"] = types.SimpleNamespace(main=main)
    try:
        ledger = workloads.Ledger()
        req = workloads.CliRequest("crash", ["seq", "5"])
        req.check(req.run(), ledger)
    finally:
        if saved is None:
            del sys.modules["plrs.cli"]
        else:
            sys.modules["plrs.cli"] = saved
    assert (ledger.attempted, ledger.failed) == (1, 1), ledger.failures
    assert "TypeError" in ledger.failures[0]


def test_refuses_without_sources() -> None:
    bare = RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = bench("--workload", "query_mix", "--seed", "1", cwd=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    tests = (
        ("all workloads untraced", lambda: test_all_workloads_untraced(spec)),
        ("traced runs", lambda: test_traced(spec)),
        ("same seed, same bytes", test_same_seed_same_bytes),
        ("crash counts as failure", test_crash_counts_as_failure),
        ("refuses without sources", test_refuses_without_sources),
    )
    for name, test in tests:
        test()
        print(f"ok  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
