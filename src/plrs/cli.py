"""Command-line front end.

Every library capability is exposed as a subcommand with reproducible
output: ``table`` (human, default), ``csv`` and ``json``.  Exact rationals
appear as ``p/q`` strings and arbitrary-precision integers as decimal
strings, never as floats, so csv/json output is byte-identical across
runs for identical arguments (including the sampling seed).  Each
subcommand handler computes its result and returns it as one
:class:`Payload` (a json object, csv rows, and table lines where they
differ from the csv).  One emitter writes it in the chosen format, piece by
piece: compact json as one string, indented json as the encoder's chunks,
csv and table one line at a time.

One table, ``_SUBCOMMANDS``, declares every subcommand once: its handler,
help line, whether it needs a positive index n, and its own arguments.
The parser is built from it once, at import, and ``main`` dispatches
through it.  Every flag's dest is a :class:`RunConfig` field, and the
config file's keys are those field names, so one loop merges a flag, its
config key and the field default, in that order of precedence.

Exit codes: 0 success (all checks pass), 1 verification failure (a bound
or identity failed, or a string was judged illegal), 2 usage/config error.

The enumeration cap falls back from ``--cap`` and its config key to the
``PLRS_ENUM_CAP`` environment variable, then to ``DEFAULT_ENUM_CAP``.  Every
source of the cap that is set must give an integer >= 1, or the run stops
with a one-line usage error.  The precision, from ``--precision-bits`` or
its config key, must lie in [1, ``MAX_PRECISION_BITS``].
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .decomposition import (
    decompose,
    is_legal,
    parse_blocks,
    value,
)
from .ensemble import (
    DEFAULT_ENUM_CAP,
    SummandTable,
    conditional_mean_check,
    conditional_tally,
    enumerate_omega,
    sample_uniform,
    z_distribution,
)
from .errors import BoundViolated, CapExceeded, EmptyConditionalEvent, PlrsError
from .rationals import decimal_str, format_fraction
from .recurrence import RecurrenceSpec, _shared_table, block_catalog
from .theorem import (
    DEFAULT_PRECISION_BITS,
    first_moment_identity,
    gaussian_diagnostics,
    second_moment_identity,
    verify_variance_bound,
)

__all__ = ["main", "RunConfig", "MAX_PRECISION_BITS"]

# The largest --precision-bits accepted: far beyond any useful mantissa, and
# small enough that rounding to it never allocates more than a few kB.
MAX_PRECISION_BITS = 65536


@dataclass
class RunConfig:
    """Merged view of command line, optional JSON config, and defaults."""

    coefficients: str | None = None
    subcommand: str | None = None
    n: int | None = None
    n_max: int = 400
    n_list: str = "50,100,200,400"
    text: str | None = None
    format: str = "table"
    seed: int | None = None
    samples: int = 10
    cap: int | None = None
    precision_bits: int = DEFAULT_PRECISION_BITS
    output: str | None = None


# Config keys whose values must be JSON integers: the int fields of RunConfig.
# Every other key takes a string ("coefficients" also takes a list).
_INT_KEYS = frozenset(
    name for name, f in RunConfig.__dataclass_fields__.items() if f.type.startswith("int")
)


def _check_config_types(data: dict) -> None:
    for key, val in data.items():
        if key not in RunConfig.__dataclass_fields__:
            raise ValueError(
                f"config key {key!r} is unknown (known keys: "
                f"{', '.join(RunConfig.__dataclass_fields__)})"
            )
        if val is None:
            continue
        if key in _INT_KEYS:
            ok, want = isinstance(val, int) and not isinstance(val, bool), "an integer"
        elif key == "coefficients":
            ok, want = isinstance(val, (str, list)), "a string or a list"
        else:
            ok, want = isinstance(val, str), "a string"
        if ok and key == "cap":
            ok, want = val >= 1, "an integer >= 1"
        if not ok:
            raise ValueError(
                f"config key {key!r} must be {want}, got {json.dumps(val)}"
            )


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Each field from its flag, else its config key, else its default; the
    cap defaults to ``PLRS_ENUM_CAP`` before ``DEFAULT_ENUM_CAP``."""
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("config file nests too deeply to read") from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        _check_config_types(data)

    merged = {}
    for name in RunConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is None:
            value = data.get(name)
        if value is not None:
            merged[name] = value
    cfg = RunConfig(**merged)

    if isinstance(cfg.coefficients, list):
        cfg.coefficients = ",".join(str(c) for c in cfg.coefficients)
    if cfg.format not in ("table", "csv", "json"):
        raise ValueError(f"unknown format {cfg.format!r} (choose table, csv, or json)")
    if not 1 <= cfg.precision_bits <= MAX_PRECISION_BITS:
        raise ValueError(
            f"--precision-bits (config key precision_bits) must be an integer in "
            f"[1, {MAX_PRECISION_BITS}], got {cfg.precision_bits}"
        )

    if args.cap is not None and args.cap < 1:
        raise ValueError(f"--cap must be an integer >= 1, got {args.cap}")
    env_cap = os.environ.get("PLRS_ENUM_CAP")
    cap_default = DEFAULT_ENUM_CAP
    if env_cap:
        try:
            cap_default = int(env_cap)
        except ValueError:
            cap_default = 0  # reported below, like any other value < 1
        if cap_default < 1:
            raise ValueError(
                f"environment variable PLRS_ENUM_CAP must be an integer >= 1, "
                f"got {env_cap!r}"
            )
    if cfg.cap is None:
        cfg.cap = cap_default
    return cfg


@dataclass(frozen=True)
class Payload:
    """One result in every output format; only the chosen one is built.

    ``data`` gives the json object, ``header`` and ``rows`` the csv (one
    tuple of cells per line), ``text`` the table's lines unless the table
    is the csv followed by the ``footer`` lines.
    """

    data: Callable[[], dict]
    header: str
    rows: Callable[[], Iterable[tuple]]
    text: Callable[[], Iterable[str]] | None = None
    footer: tuple[str, ...] = ()
    indent: int | None = None


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _records(header: str, rows: Iterable[tuple]) -> list[dict]:
    """The json records of csv rows: each row's cells keyed by the header."""
    keys = header.split(",")
    return [dict(zip(keys, cells)) for cells in rows]


def _joined(lines: Iterable[str]) -> Iterator[str]:
    """The lines with a newline between each two, one line at a time."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"


def _chunks(fmt: str, payload: Payload) -> Iterable[str]:
    """The payload in ``fmt`` as the pieces to write, in order.

    Compact json is one string from the C encoder, which beats streaming;
    indented json is the chunks ``json.dump`` writes.  Csv is the header,
    one line per row and a final newline; a table is its own lines, or
    else the csv lines, the footer lines and a final newline.
    """
    if fmt == "json":
        data = payload.data()
        if payload.indent is None:
            return (json.dumps(data),)
        return json.JSONEncoder(indent=payload.indent).iterencode(data)
    if fmt == "table" and payload.text is not None:
        return _joined(payload.text())
    footer = payload.footer if fmt == "table" else ()
    rows = (",".join(map(_cell, row)) for row in payload.rows())
    return _joined(chain((payload.header,), rows, footer, ("",)))


def _emit(cfg: RunConfig, payload: Payload) -> None:
    """Write the payload to ``--output`` or to stdout, where a final newline
    is added if missing.  Every value is computed before the file is
    opened; only formatting runs while it is written, one piece at a time."""
    chunks = _chunks(cfg.format, payload)
    out = open(cfg.output, "w", encoding="utf-8") if cfg.output else nullcontext(sys.stdout)
    with out as fh:
        chunk = ""
        for chunk in chunks:
            fh.write(chunk)
        if not cfg.output and not chunk.endswith("\n"):
            fh.write("\n")


def _require(condition, message: str):
    if not condition:
        raise ValueError(message)


def _ints(parts: Iterable[str], what: str) -> list[int]:
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"cannot parse {what}") from None


def _spec(cfg: RunConfig) -> RecurrenceSpec:
    _require(cfg.coefficients, "missing --coeffs (or 'coefficients' in --config)")
    return RecurrenceSpec.from_text(cfg.coefficients)


def _gaussian_record(row) -> dict:
    """A Gaussian row as ``gauss`` and ``verify`` write it: floats as their
    ``repr``, exact values as ``p/q`` strings."""
    return {
        "n": row.n,
        "skewness": repr(row.skewness),
        "excess_kurtosis": repr(row.excess_kurtosis),
        "skewness_squared": format_fraction(row.skewness_squared),
        "excess_kurtosis_exact": format_fraction(row.excess_kurtosis_exact),
    }


def _outcomes(head: dict, key: str, rows: list, footer: tuple[str, ...] = ()) -> Payload:
    """Payload of a list of (value, decomposition) pairs, as ``enumerate``
    and ``sample`` print it: ``head`` plus the list under ``key`` in json."""
    return Payload(
        data=lambda: {
            **head,
            key: [
                {"value": str(v), "summands": d.summand_count, "coefficients": str(d)}
                for v, d in rows
            ],
        },
        header="index,value,summands,coefficients",
        rows=lambda: ((i, v, d.summand_count, str(d)) for i, (v, d) in enumerate(rows)),
        footer=footer,
    )


# -- subcommand handlers: each returns its exit code and its payload ---------


def _cmd_seq(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    terms = _shared_table(spec).terms(cfg.n)
    return 0, Payload(
        data=lambda: {"coefficients": str(spec), "terms": [str(t) for t in terms]},
        header="n,H",
        rows=lambda: enumerate(terms, start=1),
        text=lambda: (f"H_{i} = {t}" for i, t in enumerate(terms, start=1)),
    )


def _cmd_blocks(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    cat = block_catalog(spec)

    def data():
        return {
            "coefficients": str(spec),
            "size": spec.size,
            "length": spec.length,
            "type1": [
                {"length": b.length, "size": b.size, "coefficients": b.coefficients}
                for b in cat.type1_blocks
            ],
            "type2": [
                {"size": b.size, "length": b.length, "coefficients": b.coefficients}
                for b in cat.type2_by_size
            ],
            "lengths": cat.length_table,
        }

    def rows():
        for kind, blocks in (("type1", cat.type1_blocks), ("type2", cat.type2_by_size)):
            for b in blocks:
                yield kind, b.size, b.length, " ".join(map(str, b.coefficients))

    def text():
        return [
            f"recurrence {spec} (size S={spec.size}, length L={spec.length})",
            "type-1 blocks: " + (" ".join(map(str, cat.type1_blocks)) or "(none)"),
            "type-2 blocks: " + " ".join(map(str, cat.type2_by_size)),
            "size -> length: "
            + "  ".join(f"{t}:{l}" for t, l in enumerate(cat.length_table)),
        ]

    return 0, Payload(data, "kind,size,length,coefficients", rows, text)


def _cmd_decompose(cfg: RunConfig) -> tuple[int, Payload]:
    _require(cfg.n is not None, "decompose needs a positive integer")
    spec = _spec(cfg)
    table = _shared_table(spec)
    d = decompose(table, cfg.n)
    blocks = parse_blocks(spec, d)
    m = d.m
    # index m - i once per unit of the digit a_{i+1}, largest index first
    indices = list(chain.from_iterable(map(repeat, range(m, 0, -1), d.coefficients)))

    def text():
        summed = " + ".join(
            (f"{a}*H_{m - i}" if a > 1 else f"H_{m - i}")
            for i, a in enumerate(d.coefficients)
            if a
        )
        return [
            f"{cfg.n} = {summed}",
            f"indices: {','.join(map(str, indices))}",
            f"coefficients: {d}",
            f"blocks: {blocks}",
            f"summands: {d.summand_count}",
        ]

    return 0, Payload(
        data=lambda: {
            "value": str(cfg.n),
            "coefficients": d.coefficients,
            "blocks": str(blocks),
            "indices": indices,
            "summands": d.summand_count,
        },
        header="value,summands,coefficients,blocks",
        rows=lambda: [(cfg.n, d.summand_count, str(d), blocks)],
        text=text,
    )


def _cmd_validate(cfg: RunConfig) -> tuple[int, Payload]:
    _require(cfg.text is not None, "validate needs a coefficient string")
    spec = _spec(cfg)
    coeffs = _ints(cfg.text.split(), f"coefficient string {cfg.text!r}")
    verdict = is_legal(spec, coeffs)
    return (0 if verdict else 1), Payload(
        data=lambda: {
            "coefficients": coeffs,
            "legal": verdict.ok,
            "reason": verdict.reason or None,
            "position": verdict.position,
        },
        header="legal,reason,position",
        rows=lambda: [(verdict.ok, verdict.reason, verdict.position)],
        text=lambda: [
            "legal" if verdict
            else f"illegal: {verdict.reason}" + (
                "" if verdict.position is None else f" (position {verdict.position})"
            )
        ],
    )


def _cmd_enumerate(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    table = _shared_table(spec)
    count = table.term(cfg.n + 1) - table.term(cfg.n)
    if count > cfg.cap:
        raise CapExceeded(count, cfg.cap)
    # The walk yields the outcomes in increasing value: the k-th is worth H_n + k.
    rows = list(enumerate(enumerate_omega(spec, cfg.n), start=table.term(cfg.n)))
    head = {"n": cfg.n, "cardinality": str(count)}
    return 0, _outcomes(head, "outcomes", rows, (f"cardinality: {count}",))


def _cmd_poly(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    poly = SummandTable(spec).polynomial(cfg.n)

    def text():
        terms = [(f"{c}x^{k}" if c > 1 else f"x^{k}") for k, c in enumerate(poly.coeffs) if c]
        return [
            f"n = {cfg.n}",
            "counts by summands: " + " + ".join(terms),
            f"cardinality: {poly.total}",
        ]

    return 0, Payload(
        data=lambda: {"n": poly.n, "coeffs": [str(c) for c in poly.coeffs]},
        header="k,count",
        rows=lambda: enumerate(poly.coeffs),
        text=text,
    )


def _cmd_stats(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    s = SummandTable(spec).stats(cfg.n)
    fields = {
        "cardinality": str(s.cardinality),
        "mean": format_fraction(s.mean),
        "variance": format_fraction(s.variance),
        "central3": format_fraction(s.central3),
        "central4": format_fraction(s.central4),
    }

    def text():
        lines = [f"n = {cfg.n}"]
        lines.extend(f"{k} = {v}" for k, v in fields.items())
        lines.append(f"mean ~ {decimal_str(s.mean, 6)}  variance ~ {decimal_str(s.variance, 6)}")
        return lines

    return 0, Payload(
        data=lambda: {"n": cfg.n, **fields},
        header="n," + ",".join(fields),
        rows=lambda: [(cfg.n, *fields.values())],
        text=text,
    )


def _cmd_zdist(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    zd = z_distribution(spec, cfg.n, cap=cfg.cap)
    checked = zd.empirical_counts is not None

    def text():
        lines = [f"n = {cfg.n} (cardinality {zd.cardinality})", "t  length  prob"]
        lines.extend(
            f"{t:<2} {zd.lengths[t]:<7} {format_fraction(p)} ~ {decimal_str(p, 6)}"
            for t, p in enumerate(zd.probs)
        )
        lines.append(
            "empirical tally: agrees exactly"
            if checked
            else "empirical tally: skipped (space above cap)"
        )
        return lines

    return 0, Payload(
        data=lambda: {
            "n": zd.n,
            "probs": [format_fraction(p) for p in zd.probs],
            "lengths": zd.lengths,
            "cardinality": str(zd.cardinality),
            "empirical_checked": checked,
        },
        header="t,length,prob",
        rows=lambda: ((t, zd.lengths[t], format_fraction(p)) for t, p in enumerate(zd.probs)),
        text=text,
    )


def _cmd_identities(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    engine = SummandTable(spec)
    rows = []
    l1, r1 = first_moment_identity(engine, cfg.n)
    rows.append(("mean", None, l1, r1))
    l2, r2 = second_moment_identity(engine, cfg.n)
    rows.append(("second_moment", None, l2, r2))
    skipped = engine.stats(cfg.n).cardinality > cfg.cap
    if not skipped:
        tally = conditional_tally(spec, cfg.n, cap=cfg.cap)
        for t in range(spec.size):
            for name, moment in (("conditional_mean", 1), ("conditional_second", 2)):
                lhs, rhs = conditional_mean_check(
                    engine, cfg.n, t, moment=moment, tally=tally
                )
                rows.append((name, t, lhs, rhs))
    ok = all(l == r for _, _, l, r in rows)
    header = "identity,t,lhs,rhs,equal"
    cells = [(name, t, format_fraction(l), format_fraction(r), l == r) for name, t, l, r in rows]
    return (0 if ok else 1), Payload(
        data=lambda: {
            "n": cfg.n,
            "enumeration_checked": not skipped,
            "all_equal": ok,
            "checks": _records(header, cells),
        },
        header=header,
        rows=lambda: cells,
        footer=(("conditional checks skipped (space above cap)",) if skipped else ())
        + ("all identities hold exactly" if ok else "IDENTITY FAILURE",),
    )


def _cmd_verify(cfg: RunConfig) -> tuple[int, Payload]:
    engine = SummandTable(_spec(cfg))
    code = 0
    try:
        report = verify_variance_bound(engine, cfg.n_max, precision_bits=cfg.precision_bits)
    except BoundViolated as exc:
        report, code = exc.report, 1
        print(f"variance bound FAILED at n = {exc.n}", file=sys.stderr)
    spec, growth, choice = report.growth.spec, report.growth, report.choice
    c = choice.value
    header = "n,mean,variance,c_times_n,margin,pass"

    def cells():
        for row in report.per_n:
            exact = map(format_fraction, (row.mean, row.variance, row.bound, row.margin))
            yield (row.n, *exact, row.passed)

    def data():
        return {
            "spec": str(spec),
            "n_max": cfg.n_max,
            "size": spec.size,
            "length": spec.length,
            "precision_bits": growth.precision_bits,
            "a_est": format_fraction(growth.a_est),
            "a_est_decimal": decimal_str(growth.a_est, 12),
            "b_est": format_fraction(growth.b_est),
            "b_est_decimal": decimal_str(growth.b_est, 12),
            "convergence_gap": format_fraction(growth.convergence_gap),
            "convergence_gap_decimal": decimal_str(growth.convergence_gap, 40),
            "threshold_N": report.threshold_N,
            "y_bound": format_fraction(report.y_bound),
            "var_y": {
                str(n): format_fraction(Fraction(num, den))
                for n, (num, den) in sorted(report.y_pairs.items())
            },
            "c": format_fraction(c),
            "c_decimal": decimal_str(c, 12),
            "c_source": choice.source,
            "c_candidates": [
                {"source": s, "value": format_fraction(v)} for s, v in choice.candidates
            ],
            "slope_C_est": format_fraction(report.slope_C_est),
            "slope_C_est_decimal": decimal_str(report.slope_C_est, 12),
            "all_pass": report.all_pass,
            "per_n": _records(header, cells()),
            "gaussian": [_gaussian_record(row) for row in report.gaussian],
        }

    def text():
        columns = f"{'n':>6} {'mean':>14} {'variance':>14} {'c*n':>14} {'margin':>14}  pass"
        yield from [
            f"recurrence {spec} (S={spec.size}, L={spec.length}), n_max={cfg.n_max}",
            f"a_est = {decimal_str(growth.a_est, 10)}  b_est = {decimal_str(growth.b_est, 10)}"
            f"  convergence_gap = {decimal_str(growth.convergence_gap, 20)}",
            f"threshold N = {report.threshold_N}  "
            f"c = {format_fraction(c)} ~ {decimal_str(c, 10)}  (from {choice.source})",
            f"variance slope estimate = {decimal_str(report.slope_C_est, 10)}",
            "",
            columns,
            "-" * len(columns),
        ]
        for row in report.per_n:
            yield (
                f"{row.n:>6} {decimal_str(row.mean, 6):>14} "
                f"{decimal_str(row.variance, 6):>14} "
                f"{decimal_str(row.bound, 6):>14} "
                f"{decimal_str(row.margin, 6):>14}  "
                f"{'yes' if row.passed else 'NO'}"
            )
        yield (
            "all variance bounds hold" if report.all_pass
            else f"FAILED at n = {report.violations[0]}"
        )
        yield ""  # the table ends with a newline

    return code, Payload(data, header, cells, text, indent=2)


def _cmd_gauss(cfg: RunConfig) -> tuple[int, Payload]:
    spec = _spec(cfg)
    parts = (part for part in cfg.n_list.split(",") if part.strip())
    ns = _ints(parts, f"--n-list {cfg.n_list!r}")
    _require(ns, "gauss needs a non-empty --n-list")
    rows = gaussian_diagnostics(SummandTable(spec), ns)

    def table():
        lines = [f"{'n':>6} {'skewness':>14} {'excess_kurtosis':>16}"]
        lines.extend(
            f"{r.n:>6} {r.skewness:>14.6f} {r.excess_kurtosis:>16.6f}" for r in rows
        )
        return lines

    return 0, Payload(
        data=lambda: {
            "coefficients": str(spec),
            "rows": [_gaussian_record(r) for r in rows],
        },
        header="n,skewness,excess_kurtosis",
        rows=lambda: ((r.n, repr(r.skewness), repr(r.excess_kurtosis)) for r in rows),
        text=table,
    )


def _cmd_sample(cfg: RunConfig) -> tuple[int, Payload]:
    _require(cfg.seed is not None, "sample needs an explicit --seed")
    _require(cfg.samples >= 1, "--samples must be >= 1")
    spec = _spec(cfg)
    table = _shared_table(spec)
    rows = [(value(table, d), d) for d in sample_uniform(table, cfg.n, cfg.samples, cfg.seed)]
    head = {"n": cfg.n, "seed": cfg.seed, "samples": cfg.samples}
    return 0, _outcomes(head, "draws", rows)


class _Subcommand(NamedTuple):
    """One subcommand: its handler, its help line, whether it needs a
    positive index n, and its own arguments as ``(name, add_argument
    keywords)`` pairs.  Every argument's dest is a :class:`RunConfig` field."""

    handler: Callable[[RunConfig], tuple[int, Payload]]
    help: str
    needs_index: bool = False
    args: tuple[tuple[str, dict], ...] = ()


_INDEX = ("n", {"type": int, "nargs": "?"})
_INT = {"type": int}

_SUBCOMMANDS = {
    "seq": _Subcommand(_cmd_seq, "print the terms H_1..H_n", True, (_INDEX,)),
    "blocks": _Subcommand(_cmd_blocks, "print the block catalog and the size-to-length table"),
    "decompose": _Subcommand(
        _cmd_decompose, "decompose a positive integer", False,
        (("n", {"metavar": "m", "type": int, "nargs": "?"}),),
    ),
    "validate": _Subcommand(
        _cmd_validate, "check a coefficient string, e.g. '1 0 1'", False,
        (("text", {"nargs": "?"}),),
    ),
    "enumerate": _Subcommand(_cmd_enumerate, "list the outcome space at index n", True, (_INDEX,)),
    "poly": _Subcommand(_cmd_poly, "exact summand-count histogram at index n", True, (_INDEX,)),
    "stats": _Subcommand(
        _cmd_stats, "exact moments of the summand count at index n", True, (_INDEX,)
    ),
    "zdist": _Subcommand(
        _cmd_zdist, "distribution of the second-to-last block size", True, (_INDEX,)
    ),
    "identities": _Subcommand(
        _cmd_identities, "check the removal identities at index n", True, (_INDEX,)
    ),
    "verify": _Subcommand(
        _cmd_verify, "verify the linear variance lower bound", False, (("--n-max", _INT),)
    ),
    "gauss": _Subcommand(
        _cmd_gauss, "skewness/kurtosis trend diagnostics", False,
        (("--n-list", {"help": "comma-separated indices"}),),
    ),
    "sample": _Subcommand(
        _cmd_sample, "sample decompositions uniformly at index n", True,
        (_INDEX, ("--samples", _INT), ("--seed", _INT)),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrs",
        description="Positive linear recurrence sequences, legal decompositions, "
        "and exact summand-count statistics.",
    )
    parser.add_argument(
        "--coeffs", dest="coefficients", metavar="COEFFS",
        help="recurrence coefficients, comma separated (e.g. '2,2,0,2')",
    )
    parser.add_argument("--config", help="JSON RunConfig file; flags override it")
    parser.add_argument(
        "--format", choices=("table", "csv", "json"),
        help="output format (default: table)",
    )
    parser.add_argument("--output", help="write the payload to this file")
    parser.add_argument(
        "--cap", type=int,
        help="enumeration cap (default: $PLRS_ENUM_CAP or %d)" % DEFAULT_ENUM_CAP,
    )
    parser.add_argument(
        "--precision-bits", type=int,
        help="mantissa bits for the growth-constant estimates "
        f"(default {DEFAULT_PRECISION_BITS}, at most {MAX_PRECISION_BITS})",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, options in command.args:
            p.add_argument(arg, **options)
    return parser


# Built once: main is called many times in one process by tests and benchmarks.
_PARSER = _build_parser()


def _fail(kind: str, exc: Exception, code: int, hint: str = "") -> int:
    """Print ``exc`` on one stderr line, cut to its first 1,000 characters
    (a message can echo a rejected input megabytes long); return ``code``."""
    message = str(exc)
    if len(message) > 1000:
        message = f"{message[:1000]}... ({len(message)} characters)"
    print(f"plrs: {kind}: {message}{hint}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    # Exact values pass CPython's default 4,300-digit limit on int<->str
    # conversion (3.11+) long before the arithmetic gets slow.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _merge_config(args)
        if not cfg.subcommand:
            _PARSER.print_usage(sys.stderr)
            print("plrs: error: no subcommand given", file=sys.stderr)
            return 2
        command = _SUBCOMMANDS.get(cfg.subcommand)
        _require(command is not None, f"unknown subcommand {cfg.subcommand!r}")
        if command.needs_index:
            _require(
                cfg.n is not None and cfg.n >= 1,
                f"{cfg.subcommand} needs a positive index n",
            )
        code, payload = command.handler(cfg)
        _emit(cfg, payload)
        return code
    except EmptyConditionalEvent as exc:
        # a ValueError, so it must be caught before the usage errors
        return _fail("verification failure", exc, 1)
    except CapExceeded as exc:
        return _fail("error", exc, 2, " (raise --cap or PLRS_ENUM_CAP)")
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        # covers the validation family of PlrsError plus plain bad input,
        # and sizes too large to compute with
        return _fail("error", exc, 2)
    except PlrsError as exc:
        # anything left is an exactness check tripping inside the library
        return _fail("verification failure", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
