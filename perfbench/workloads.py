"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller: the next request is sent
when the previous one has returned.  Inputs are a pure function of the
workload seed (and the pass index), and every output is checked against
values the benchmark computes itself (its own term table, its own value
sums) or against an independent engine of the package.

Library functions are looked up through the ``plrs`` package at call time,
never bound at import, so the tracer's patches take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import islice, zip_longest
from pathlib import Path

FIXTURES = ("1,1", "2,2,0,2", "1,2", "3,0,1")


def parse_coeffs(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def own_terms(coeffs: tuple[int, ...], n: int) -> list[int]:
    """``H_1..H_n`` from the recurrence, written here independently of plrs."""
    L = len(coeffs)
    H = [1]
    while len(H) < n:
        k = len(H)
        if k < L:
            H.append(sum(coeffs[i] * H[k - 1 - i] for i in range(k)) + 1)
        else:
            H.append(sum(coeffs[i] * H[k - 1 - i] for i in range(L)))
    return H


class Fixture:
    """One recurrence with an own term table long enough for any check."""

    def __init__(self, text: str, n_terms: int):
        import plrs

        self.text = text
        self.coeffs = parse_coeffs(text)
        self.L = len(self.coeffs)
        self.S = sum(self.coeffs)
        self.spec = plrs.validate_spec(self.coeffs)
        plrs.block_catalog(self.spec)  # built and cached during set-up
        self.table = plrs.SequenceTable(self.spec, n_terms)
        self.H = own_terms(self.coeffs, n_terms)

    def term(self, i: int) -> int:
        while len(self.H) < i:
            self.H = own_terms(self.coeffs, 2 * len(self.H))
        return self.H[i - 1]

    def omega(self, n: int) -> int:
        return self.term(n + 1) - self.term(n)

    def value_of(self, coeffs) -> int:
        m = len(coeffs)
        return sum(a * self.term(m - i) for i, a in enumerate(coeffs) if a)

    def greedy(self, m: int) -> list[int]:
        """Greedy digits of ``m`` over the own table (the legal form)."""
        n = 1
        while self.term(n + 1) <= m:
            n += 1
        out = []
        for j in range(n, 0, -1):
            a, m = divmod(m, self.term(j))
            out.append(a)
        return out

    def small_ns(self, cap: int, above: int = 0) -> list[int]:
        """Indices past ``above`` whose outcome space has at most ``cap`` outcomes."""
        return [n for n in range(above + 1, 64) if self.omega(n) <= cap]


class Ledger:
    """Counts checked operations and digests the payload bytes of pass 0."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_bytes = 0
        self.digesting = True

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {problem}")

    def record_many(self, label: str, attempted: int, problems: list[str], failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        room = 20 - len(self.failures)
        self.failures.extend(f"{label}: {p}" for p in problems[: max(room, 0)])

    def payload(self, data: bytes) -> None:
        if self.digesting:
            self.digest.update(data)
            self.digest_bytes += len(data)


class CliOutcome:
    __slots__ = ("code", "out", "err", "exc")

    def __init__(self, code, out: str, err: str, exc: str | None = None):
        self.code, self.out, self.err, self.exc = code, out, err, exc


class CliRequest:
    """One in-process call of ``plrs.cli.main`` with its expected result."""

    def __init__(self, label: str, argv: list[str], expect: int = 0, check=None, items: int = 1):
        self.label = label
        self.argv = argv
        self.expect = expect
        self.checker = check
        self.items = items

    def run(self) -> CliOutcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["plrs.cli"].main(self.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a fatal one
            return CliOutcome(None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}")
        return CliOutcome(code, out.getvalue(), err.getvalue())

    def check(self, outcome: CliOutcome, ledger: Ledger) -> None:
        ledger.payload(outcome.out.encode())
        if outcome.exc is not None:
            problem = f"raised {outcome.exc} (expected exit {self.expect})"
        elif outcome.code != self.expect:
            problem = f"exit {outcome.code}, expected {self.expect}: {outcome.err.strip()[:200]}"
        elif self.checker is None:
            problem = None
        else:
            try:
                problem = self.checker(outcome.out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unparseable payload ({type(exc).__name__}: {exc})"
        ledger.record(self.label, problem)


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# -- verify_deep --------------------------------------------------------------

class VerifyDeep:
    """Full ``verify`` runs: the DP tails and the theorem's Fraction sweeps."""

    name = "verify_deep"
    BASE = {"1,1": 1400, "2,2,0,2": 800, "1,2": 1300, "3,0,1": 900}
    JITTER = 12

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        rng = random.Random(f"{self.name}:{seed}")
        if tiny:
            self.n_max = {c: 60 + rng.randrange(4) for c in FIXTURES}
        else:
            self.n_max = {c: self.BASE[c] + rng.randrange(self.JITTER) for c in FIXTURES}

    def setup(self) -> None:
        self.fixtures = {c: Fixture(c, self.n_max[c] + 2) for c in FIXTURES}

    def inputs(self) -> dict:
        return {"n_max": self.n_max}

    def pass_requests(self, index: int) -> list[CliRequest]:
        reqs = []
        for c in FIXTURES:
            n_max = self.n_max[c]
            L = self.fixtures[c].L
            reqs.append(CliRequest(
                f"verify {c} n_max={n_max}",
                ["--coeffs", c, "--format", "json", "verify", "--n-max", str(n_max)],
                check=lambda out, c=c, n_max=n_max, L=L: self._check(out, c, n_max, L),
                items=n_max - L,
            ))
        return reqs

    @staticmethod
    def _check(out: str, c: str, n_max: int, L: int) -> str | None:
        data = json.loads(out)
        return (
            _expect(data["all_pass"] is True, "all_pass is not true")
            or _expect(data["spec"] == c and data["n_max"] == n_max, "wrong spec or n_max")
            or _expect(len(data["per_n"]) == n_max - L, "per_n row count")
            or _expect(all(row["pass"] for row in data["per_n"]), "a per_n row failed")
        )

    def dp_points(self) -> list[tuple[str, int]]:
        return [(c, self.n_max[c]) for c in FIXTURES]

    def known_defects(self) -> list[dict]:
        return []


# -- enum_oracle --------------------------------------------------------------

class LibRequest:
    """A library-level request.

    ``run`` returns (checks made, checks failed, first problems, digest text).
    """

    def __init__(self, label: str, fn, items: int):
        self.label = label
        self.fn = fn
        self.items = items

    def run(self):
        return self.fn()

    def check(self, outcome, ledger: Ledger) -> None:
        checked, failed, problems, digest_text = outcome
        ledger.payload(digest_text.encode())
        ledger.record_many(self.label, checked, problems, failed)


class SpaceCheck:
    """Streams one outcome space through the cross-checks, a chunk per request.

    The grammar walk and the integer walk advance in step; every outcome must
    be the same string from both, legal, and worth its integer.  The last
    chunk compares the tallies with the DP histogram and the closed form.
    """

    PARSE_EVERY = 16  # parse_blocks re-derives the block size of every 16th outcome

    def __init__(self, fx: Fixture, n: int):
        self.fx, self.n = fx, n
        self.pairs = None
        self.count = 0
        self.summands = [0] * (n * max(fx.coeffs) + 1)
        self.z_tally = [0] * fx.S

    def step(self, size: int, last: bool):
        import plrs

        fx, n = self.fx, self.n
        spec, table = fx.spec, fx.table
        if self.pairs is None:
            self.pairs = zip_longest(
                plrs.enumerate_omega(spec, n),
                plrs.enumerate_by_integer_walk(table, n, cap=None),
            )
        lo = fx.term(n)
        problems = []
        bad = 0
        for d, w in islice(self.pairs, size):
            m = lo + self.count
            self.count += 1
            if d is None or w is None:
                bad += 1
                problems.append(f"streams differ in length at m={m}")
                continue
            coeffs = d.coefficients
            z = plrs.second_to_last_block_size(spec, coeffs)
            if (
                coeffs != w.coefficients
                or not plrs.is_legal(spec, w.coefficients)
                or plrs.value(table, d) != m
                or (
                    m % self.PARSE_EVERY == 0
                    and plrs.parse_blocks(spec, d).blocks[-2].size != z
                )
            ):
                bad += 1
                if len(problems) < 5:
                    problems.append(f"outcome m={m} disagrees: {coeffs} vs {w.coefficients}")
            self.summands[sum(coeffs)] += 1
            self.z_tally[z] += 1
        if not last:
            return size, bad, problems, ""
        self.count += sum(1 for _ in self.pairs)
        omega = fx.omega(n)
        summands = self.summands
        while summands and not summands[-1]:
            summands.pop()
        poly = plrs.SummandTable(spec).polynomial(n)
        zd = plrs.z_distribution(spec, n, table=table, cross_check=False)
        totals = (
            (self.count == omega, f"{self.count} outcomes, expected {omega}"),
            (list(poly.coeffs) == summands,
             "summand-count tally differs from SummandTable.polynomial"),
            ([p * omega for p in zd.probs] == [Fraction(t) for t in self.z_tally],
             "second-to-last block tally differs from z_distribution"),
        )
        for ok, message in totals:
            if not ok:
                bad += 1
                problems.append(message)
        digest = f"{fx.text} {n} {self.count} {summands} {self.z_tally}\n"
        return size + len(totals), bad, problems, digest


class EnumOracle:
    """Whole outcome spaces, cross-checked three independent ways."""

    name = "enum_oracle"
    SPACE_CAP = 300_000  # largest n whose space has at most this many outcomes
    # Outcomes per request.  Per-outcome cost differs between fixtures, so
    # these sizes give requests of about equal cost and keep the request-time
    # percentiles away from a jump between fixtures.
    CHUNK = {"1,1": 15_000, "2,2,0,2": 26_000, "1,2": 20_000, "3,0,1": 26_000}
    WINDOW = 20_000  # extra integer-walk window per fixture, about one chunk of work
    WINDOW_LIFT = 8  # the window sits this many indices above the full space

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.seed = seed
        self.cap = 8_000 if tiny else self.SPACE_CAP
        self.chunk = {c: k // 10 if tiny else k for c, k in self.CHUNK.items()}
        self.window = 200 if tiny else self.WINDOW

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        self.order = list(FIXTURES)
        rng.shuffle(self.order)
        self.fixtures = {}
        self.n = {}
        self.window_start = {}
        for c in FIXTURES:
            probe = own_terms(parse_coeffs(c), 80)
            n = max(
                k for k in range(1, 78)
                if probe[k] - probe[k - 1] <= self.cap
            )
            nw = n + self.WINDOW_LIFT
            fx = Fixture(c, nw + 2)
            self.fixtures[c] = fx
            self.n[c] = n
            fx.n_window = nw
            self.window_start[c] = fx.term(nw) + rng.randrange(fx.omega(nw) - self.window)

    def inputs(self) -> dict:
        return {
            "order": self.order,
            "n": self.n,
            "outcomes": {c: self.fixtures[c].omega(self.n[c]) for c in FIXTURES},
            "chunk": self.chunk,
            "window": self.window,
            "window_start": {c: str(v) for c, v in self.window_start.items()},
        }

    def pass_requests(self, index: int) -> list[LibRequest]:
        reqs = []
        for c in self.order:
            fx, n = self.fixtures[c], self.n[c]
            space = SpaceCheck(fx, n)
            omega = fx.omega(n)
            k = max(1, round(omega / self.chunk[c]))
            for i in range(k):
                size = omega * (i + 1) // k - omega * i // k
                reqs.append(LibRequest(
                    f"space {c} n={n} chunk {i + 1}/{k}",
                    lambda size=size, last=i == k - 1, space=space: space.step(size, last),
                    size,
                ))
            reqs.append(LibRequest(
                f"window {c}", lambda fx=fx: self._window(fx), self.window
            ))
        return reqs

    def _window(self, fx: Fixture):
        import plrs

        spec, table = fx.spec, fx.table
        start = self.window_start[fx.text]
        length = fx.n_window
        problems = []
        bad = 0
        for m in range(start, start + self.window):
            d = plrs.decompose(table, m)
            if (
                d.m != length
                or not plrs.is_legal(spec, d.coefficients)
                or plrs.value(table, d) != m
                or fx.value_of(d.coefficients) != m
            ):
                bad += 1
                if len(problems) < 5:
                    problems.append(f"window m={m}: {d.coefficients}")
        return self.window, bad, problems, f"{fx.text} window {start} {length}\n"

    def dp_points(self) -> list[tuple[str, int]]:
        return [(c, self.n[c]) for c in FIXTURES]

    def known_defects(self) -> list[dict]:
        return []


# -- query_mix ----------------------------------------------------------------

# Requests per fixture and pass.  The mix is fixed; the seed only jitters
# sizes, picks values, formats and order.
PLAN = (
    ("decompose", 6), ("validate", 3), ("validate_illegal", 1), ("sample", 3),
    ("poly", 3), ("stats", 2), ("zdist", 2), ("identities", 1),
    ("enumerate", 2), ("verify", 1), ("seq", 2), ("blocks", 1), ("malformed", 2),
)
FORMATS = ("table", "csv", "json")
CONFIG_CLASSES = ("decompose", "poly", "stats", "zdist", "seq", "blocks")
ZDIST_CAP = 8_000  # zdist enumerates the space once to cross-check it
IDENTITIES_CAP = 3_000  # identities enumerates it 2S times
ENUMERATE_CAP = 1_000  # enumerate prints every outcome


class QueryMix:
    """A seeded stream of short CLI requests of every kind."""

    name = "query_mix"

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch

    def setup(self) -> None:
        self.scale = 0.1 if self.tiny else 1.0
        self.fixtures = {c: Fixture(c, 64) for c in FIXTURES}
        self.small = {}
        for c, fx in self.fixtures.items():
            # one index per fixture and class keeps the work of a pass steady
            self.small[c] = {
                "zdist": fx.small_ns(ZDIST_CAP, 2 * fx.L)[:1],
                "identities": fx.small_ns(IDENTITIES_CAP, 2 * fx.L)[:1],
                "enumerate": fx.small_ns(ENUMERATE_CAP)[-1:],
            }
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.configs = 0
        self.dp_max = {c: 0 for c in FIXTURES}

    def inputs(self) -> dict:
        plan = {cls: k for cls, k in PLAN}
        return {
            "requests_per_pass": self.requests_per_pass(),
            "plan_per_fixture": plan,
            "small_n": self.small,
            "scale": self.scale,
        }

    def requests_per_pass(self) -> int:
        return sum(
            sum(len(self._class_counts(c, cls, k)) for cls, k in PLAN) for c in FIXTURES
        )

    def _class_counts(self, c: str, cls: str, k: int) -> range:
        if cls in ("identities", "zdist") and not self.small[c][cls]:
            return range(0)
        return range(k)

    def _n(self, base: int, spread: int, rng: random.Random) -> int:
        return max(2, int(base * self.scale)) + rng.randrange(max(2, int(spread * self.scale)))

    def _config(self, data: dict) -> str:
        path = self.scratch / f"config-{self.configs}.json"
        self.configs += 1
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def pass_requests(self, index: int) -> list[CliRequest]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        reqs = []
        fmt_turn = {}
        for c in FIXTURES:
            fx = self.fixtures[c]
            for cls, k in PLAN:
                for i in self._class_counts(c, cls, k):
                    turn = fmt_turn.setdefault(cls, rng.randrange(3))
                    fmt_turn[cls] = turn + 1
                    fmt = FORMATS[turn % 3]
                    use_config = cls in CONFIG_CLASSES and rng.randrange(4) == 0
                    reqs.append(self._request(fx, cls, i, fmt, use_config, rng))
        rng.shuffle(reqs)
        return reqs

    def _cli(self, fx, fmt, use_config, sub, positional=(), cfg=None):
        """argv for a subcommand, through flags or through a --config file."""
        if use_config:
            data = {"coefficients": fx.text, "subcommand": sub, "format": fmt}
            data.update(cfg or {})
            return ["--config", self._config(data)]
        return ["--coeffs", fx.text, "--format", fmt, sub, *positional]

    def _request(self, fx: Fixture, cls: str, i: int, fmt: str, use_config: bool, rng):
        c = fx.text
        label = f"{cls} {c} {fmt}"
        if cls == "decompose":
            digits = max(3, int((200 + 50 * i) * self.scale))
            m = rng.randrange(10 ** (digits - 1), 10**digits)
            argv = self._cli(fx, fmt, use_config, "decompose", [str(m)], cfg={"n": m})
            return CliRequest(label, argv, check=lambda out: self._check_decompose(fx, fmt, out, m))
        if cls in ("validate", "validate_illegal"):
            digits = max(3, int(250 * self.scale))
            digs = fx.greedy(rng.randrange(10 ** (digits - 1), 10**digits))
            legal = cls == "validate"
            if not legal:
                digs[rng.randrange(len(digs))] = max(fx.coeffs) + 1
            argv = ["--coeffs", c, "--format", fmt, "validate", " ".join(map(str, digs))]
            return CliRequest(
                label, argv, expect=0 if legal else 1,
                check=lambda out: self._check_validate(fmt, out, legal),
            )
        if cls == "sample":
            n = self._n(100 + 100 * i, 10, rng)
            count = 10 + 10 * i
            seed = rng.randrange(1 << 30)
            argv = ["--coeffs", c, "--format", fmt, "sample", str(n),
                    "--samples", str(count), "--seed", str(seed)]
            return CliRequest(label, argv, check=lambda out: self._check_sample(fx, fmt, out, n, count))
        if cls in ("poly", "stats"):
            base = 200 + 200 * i if cls == "poly" else 300 + 200 * i
            n = self._n(base, 16, rng)
            self.dp_max[c] = max(self.dp_max[c], n)
            argv = self._cli(fx, fmt, use_config, cls, [str(n)], cfg={"n": n})
            check = self._check_poly if cls == "poly" else self._check_stats
            return CliRequest(label, argv, check=lambda out: check(fx, fmt, out, n))
        if cls in ("zdist", "identities", "enumerate"):
            n = self.small[c][cls][0]
            argv = self._cli(fx, fmt, use_config, cls, [str(n)], cfg={"n": n})
            check = {"zdist": self._check_zdist, "identities": self._check_identities,
                     "enumerate": self._check_enumerate}[cls]
            return CliRequest(label, argv, check=lambda out: check(fx, fmt, out, n))
        if cls == "verify":
            n_max = self._n(50, 30, rng) if not self.tiny else 30 + rng.randrange(4)
            argv = ["--coeffs", c, "--format", fmt, "verify", "--n-max", str(n_max)]
            return CliRequest(label, argv, check=lambda out: self._check_verify(fx, fmt, out, n_max))
        if cls == "seq":
            n = self._n(50 + 50 * i, 20, rng)
            argv = self._cli(fx, fmt, use_config, "seq", [str(n)], cfg={"n": n})
            return CliRequest(label, argv, check=lambda out: self._check_seq(fx, fmt, out, n))
        if cls == "blocks":
            argv = self._cli(fx, fmt, use_config, "blocks")
            return CliRequest(label, argv, check=lambda out: self._check_blocks(fx, fmt, out))
        return self._malformed(fx, fmt, rng)

    def _malformed(self, fx: Fixture, fmt: str, rng) -> CliRequest:
        c = fx.text
        cases = [
            lambda: (["--coeffs", c, "frobnicate"], 2),
            lambda: (["--coeffs", "0," + c, "--format", fmt, "seq", "5"], 2),
            lambda: (["--coeffs", c, "--format", fmt, "decompose", "0"], 2),
            lambda: (["--coeffs", c, "--format", fmt, "seq"], 2),
            lambda: (["--format", fmt, "seq", "5"], 2),
            lambda: (["--coeffs", c, "--format", fmt, "zdist", str(2 * fx.L)], 2),
            lambda: (["--coeffs", c, "--format", fmt, "verify", "--n-max", "5"], 2),
            lambda: (["--coeffs", c, "--format", fmt, "--cap", "3", "enumerate", "6"], 2),
            lambda: (["--coeffs", c, "stats", "x"], 2),
            lambda: (["--config", self._config(
                {"coefficients": c, "subcommand": "seq", "n": 5, "format": "xml"})], 2),
            lambda: (["--config", self._config([c])], 2),
            lambda: (["--coeffs", c, "--format", fmt, "validate", "0 1"], 1),
        ]
        argv, code = cases[rng.randrange(len(cases))]()
        return CliRequest(f"malformed {c} {' '.join(argv)[:60]}", argv, expect=code)

    # -- checks; each returns None or a message ---------------------------

    @staticmethod
    def _rows(out: str) -> list[list[str]]:
        return [line.split(",") for line in out.strip().splitlines()[1:]]

    def _check_decompose(self, fx, fmt, out, m):
        if fmt == "json":
            coeffs = json.loads(out)["coefficients"]
        elif fmt == "csv":
            coeffs = [int(a) for a in self._rows(out)[0][2].split()]
        else:
            line = next(x for x in out.splitlines() if x.startswith("coefficients: "))
            coeffs = [int(a) for a in line.split(": ", 1)[1].split()]
        return _expect(fx.value_of(coeffs) == m, "value does not round-trip")

    @staticmethod
    def _check_validate(fmt, out, legal):
        if fmt == "json":
            verdict = json.loads(out)["legal"]
        elif fmt == "csv":
            verdict = out.splitlines()[1].split(",")[0] == "true"
        else:
            verdict = out.strip() == "legal"
        return _expect(verdict == legal, f"verdict {verdict}, expected {legal}")

    def _check_sample(self, fx, fmt, out, n, count):
        if fmt == "json":
            draws = [(int(d["value"]), d["coefficients"]) for d in json.loads(out)["draws"]]
        else:
            draws = [(int(r[1]), r[3]) for r in self._rows(out)]
        lo, hi = fx.term(n), fx.term(n + 1)
        return (
            _expect(len(draws) == count, f"{len(draws)} draws, expected {count}")
            or _expect(all(lo <= v < hi for v, _ in draws), "draw outside [H_n, H_n+1)")
            or _expect(
                all(fx.value_of([int(a) for a in t.split()]) == v for v, t in draws),
                "draw value does not round-trip",
            )
        )

    def _check_poly(self, fx, fmt, out, n):
        if fmt == "json":
            total = sum(int(x) for x in json.loads(out)["coeffs"])
        elif fmt == "csv":
            total = sum(int(r[1]) for r in self._rows(out))
        else:
            total = int(out.strip().rsplit("cardinality: ", 1)[1])
        return _expect(total == fx.omega(n), "histogram total is not H_n+1 - H_n")

    def _check_stats(self, fx, fmt, out, n):
        if fmt == "json":
            card = int(json.loads(out)["cardinality"])
        elif fmt == "csv":
            card = int(self._rows(out)[0][1])
        else:
            card = int(out.split("cardinality = ", 1)[1].split()[0])
        return _expect(card == fx.omega(n), "cardinality is not H_n+1 - H_n")

    def _check_zdist(self, fx, fmt, out, n):
        if fmt == "json":
            data = json.loads(out)
            ok = (int(data["cardinality"]) == fx.omega(n) and data["empirical_checked"]
                  and sum(Fraction(p) for p in data["probs"]) == 1)
        elif fmt == "csv":
            ok = sum(Fraction(r[2]) for r in self._rows(out)) == 1
        else:
            ok = f"(cardinality {fx.omega(n)})" in out and "agrees exactly" in out
        return _expect(ok, "z distribution payload is wrong")

    @staticmethod
    def _check_identities(fx, fmt, out, n):
        if fmt == "json":
            ok = json.loads(out)["all_equal"] is True
        elif fmt == "csv":
            ok = all(line.endswith(",true") for line in out.strip().splitlines()[1:])
        else:
            ok = "all identities hold exactly" in out
        return _expect(ok, "an identity does not hold")

    def _check_enumerate(self, fx, fmt, out, n):
        if fmt == "json":
            values = [int(o["value"]) for o in json.loads(out)["outcomes"]]
        else:
            values = [int(r[1]) for r in self._rows(out) if len(r) == 4]
        return _expect(values == list(range(fx.term(n), fx.term(n + 1))),
                       "outcomes do not tile [H_n, H_n+1)")

    def _check_verify(self, fx, fmt, out, n_max):
        if fmt == "json":
            ok = json.loads(out)["all_pass"] is True
        elif fmt == "csv":
            rows = self._rows(out)
            ok = len(rows) == n_max - fx.L and all(r[-1] == "true" for r in rows)
        else:
            ok = out.rstrip().endswith("all variance bounds hold")
        return _expect(ok, "variance bound not verified")

    def _check_seq(self, fx, fmt, out, n):
        if fmt == "json":
            terms = [int(t) for t in json.loads(out)["terms"]]
        elif fmt == "csv":
            terms = [int(r[1]) for r in self._rows(out)]
        else:
            terms = [int(line.split(" = ")[1]) for line in out.strip().splitlines()]
        return _expect(terms == [fx.term(i) for i in range(1, n + 1)], "terms differ")

    @staticmethod
    def _check_blocks(fx, fmt, out):
        if fmt == "json":
            data = json.loads(out)
            ok = data["size"] == fx.S and data["length"] == fx.L and len(data["type2"]) == fx.S
        elif fmt == "csv":
            ok = len(out.strip().splitlines()) == 1 + (fx.L - 1) + fx.S
        else:
            ok = out.startswith(f"recurrence {fx.text} (size S={fx.S}, length L={fx.L})")
        return _expect(ok, "block catalog payload is wrong")

    def dp_points(self) -> list[tuple[str, int]]:
        return [(c, n) for c, n in self.dp_max.items() if n]

    def known_defects(self) -> list[dict]:
        """Requests the exit-code contract covers but the program breaks today.

        Run once per run, outside the timed stream, and reported on their own.
        """
        out = []
        for c in FIXTURES[:1]:
            path = self._config({"coefficients": c, "subcommand": "seq", "n": "5"})
            req = CliRequest(f"config n as a string ({c})", ["--config", path], expect=2)
            ledger = Ledger()
            req.check(req.run(), ledger)
            out.append({"request": req.label, "expected_exit": 2,
                        "ok": ledger.failed == 0, "detail": ledger.failures})
        return out


WORKLOADS = {w.name: w for w in (VerifyDeep, EnumOracle, QueryMix)}
