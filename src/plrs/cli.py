"""Command-line front end.

Every library capability is exposed as a subcommand with reproducible
output: ``table`` (human, default), ``csv`` and ``json``.  Exact rationals
appear as ``p/q`` strings and arbitrary-precision integers as decimal
strings, never as floats, so csv/json output is byte-identical across
runs for identical arguments (including the sampling seed).

Exit codes: 0 success (all checks pass), 1 verification failure (a bound
or identity failed, or a string was judged illegal), 2 usage/config error.

The enumeration cap defaults to the ``PLRS_ENUM_CAP`` environment variable
when set; the ``--cap`` flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

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
    enumerate_omega,
    sample_uniform,
    z_distribution,
)
from .errors import (
    BoundViolated,
    CapExceeded,
    EmptyConditionalEvent,
    NonPositiveC,
    NoThresholdInRange,
    PlrsError,
)
from .rationals import decimal_str, format_fraction
from .recurrence import RecurrenceSpec, SequenceTable, block_catalog
from .theorem import (
    DEFAULT_PRECISION_BITS,
    first_moment_identity,
    gaussian_diagnostics,
    second_moment_identity,
    verify_variance_bound,
)

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Merged view of command line, optional JSON config, and defaults."""

    coefficients: str | None = None
    subcommand: str | None = None
    n: int | None = None
    n_max: int | None = None
    n_list: str | None = None
    text: str | None = None
    format: str = "table"
    seed: int | None = None
    samples: int | None = None
    cap: int | None = None
    precision_bits: int = DEFAULT_PRECISION_BITS
    threads: int | None = None
    output: str | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plrs",
        description="Positive linear recurrence sequences, legal decompositions, "
        "and exact summand-count statistics.",
    )
    parser.add_argument(
        "--coeffs",
        help="recurrence coefficients, comma separated (e.g. '2,2,0,2')",
    )
    parser.add_argument("--config", help="JSON RunConfig file; flags override it")
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default=None,
        help="output format (default: table)",
    )
    parser.add_argument("--output", help="write the payload to this file")
    parser.add_argument(
        "--cap", type=int, default=None,
        help="enumeration cap (default: $PLRS_ENUM_CAP or %d)" % DEFAULT_ENUM_CAP,
    )
    parser.add_argument(
        "--precision-bits", type=int, default=None,
        help="mantissa bits for the growth-constant estimates (default 128)",
    )
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker threads for independent sweeps (default: available parallelism)",
    )

    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("seq", help="print the terms H_1..H_n")
    p.add_argument("n", type=int, nargs="?")

    sub.add_parser("blocks", help="print the block catalog and the size-to-length table")

    p = sub.add_parser("decompose", help="decompose a positive integer")
    p.add_argument("n", metavar="m", type=int, nargs="?")

    p = sub.add_parser("validate", help="check a coefficient string, e.g. '1 0 1'")
    p.add_argument("text", nargs="?")

    p = sub.add_parser("enumerate", help="list the outcome space at index n")
    p.add_argument("n", type=int, nargs="?")

    p = sub.add_parser("poly", help="exact summand-count histogram at index n")
    p.add_argument("n", type=int, nargs="?")

    p = sub.add_parser("stats", help="exact moments of the summand count at index n")
    p.add_argument("n", type=int, nargs="?")

    p = sub.add_parser("zdist", help="distribution of the second-to-last block size")
    p.add_argument("n", type=int, nargs="?")

    p = sub.add_parser("identities", help="check the removal identities at index n")
    p.add_argument("n", type=int, nargs="?")

    p = sub.add_parser("verify", help="verify the linear variance lower bound")
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("gauss", help="skewness/kurtosis trend diagnostics")
    p.add_argument("--n-list", default=None, help="comma-separated indices")

    p = sub.add_parser("sample", help="sample decompositions uniformly at index n")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


# Config keys whose values must be JSON integers; every other RunConfig key
# takes a string ("coefficients" also takes a list).
_INT_KEYS = frozenset({"n", "n_max", "seed", "samples", "cap", "precision_bits", "threads"})


def _check_config_types(data: dict) -> None:
    for key, val in data.items():
        if val is None or key not in RunConfig.__dataclass_fields__:
            continue
        if key in _INT_KEYS:
            ok, want = isinstance(val, int) and not isinstance(val, bool), "an integer"
        elif key == "coefficients":
            ok, want = isinstance(val, (str, list)), "a string or a list"
        else:
            ok, want = isinstance(val, str), "a string"
        if not ok:
            raise ValueError(
                f"config key {key!r} must be {want}, got {json.dumps(val)}"
            )


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        _check_config_types(data)

    def pick(cli_value, key, default=None):
        if cli_value is not None:
            return cli_value
        if key in data and data[key] is not None:
            return data[key]
        return default

    coeffs = pick(args.coeffs, "coefficients")
    if isinstance(coeffs, (list, tuple)):
        coeffs = ",".join(str(c) for c in coeffs)

    fmt = pick(args.format, "format", "table")
    if fmt not in ("table", "csv", "json"):
        raise ValueError(f"unknown format {fmt!r} (choose table, csv, or json)")

    env_cap = os.environ.get("PLRS_ENUM_CAP")
    cap_default = int(env_cap) if env_cap else DEFAULT_ENUM_CAP

    return RunConfig(
        coefficients=coeffs,
        subcommand=pick(args.subcommand, "subcommand"),
        n=pick(getattr(args, "n", None), "n"),
        n_max=pick(getattr(args, "n_max", None), "n_max"),
        n_list=pick(getattr(args, "n_list", None), "n_list"),
        text=pick(getattr(args, "text", None), "text"),
        format=fmt,
        seed=pick(getattr(args, "seed", None), "seed"),
        samples=pick(getattr(args, "samples", None), "samples"),
        cap=pick(args.cap, "cap", cap_default),
        precision_bits=pick(args.precision_bits, "precision_bits", DEFAULT_PRECISION_BITS),
        threads=pick(args.threads, "threads", os.cpu_count()),
        output=pick(args.output, "output"),
    )


def _emit(cfg: RunConfig, payload: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _require(condition, message: str):
    if not condition:
        raise ValueError(message)


def _spec(cfg: RunConfig) -> RecurrenceSpec:
    _require(cfg.coefficients, "missing --coeffs (or 'coefficients' in --config)")
    return RecurrenceSpec.from_text(cfg.coefficients)


# -- subcommand handlers -----------------------------------------------------


def _cmd_seq(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "seq needs a positive index n")
    spec = _spec(cfg)
    terms = SequenceTable(spec, cfg.n).terms(cfg.n)
    if cfg.format == "json":
        body = ", ".join(f'"{t}"' for t in terms)
        _emit(cfg, f'{{"coefficients": "{spec}", "terms": [{body}]}}')
    elif cfg.format == "csv":
        lines = ["n,H"] + [f"{i},{t}" for i, t in enumerate(terms, start=1)]
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        _emit(cfg, "\n".join(f"H_{i} = {t}" for i, t in enumerate(terms, start=1)))
    return 0


def _cmd_blocks(cfg: RunConfig) -> int:
    spec = _spec(cfg)
    cat = block_catalog(spec)
    if cfg.format == "json":
        t1 = ", ".join(
            f'{{"length": {b.length}, "size": {b.size}, "coefficients": {list(b.coefficients)}}}'
            for b in cat.type1_blocks
        )
        t2 = ", ".join(
            f'{{"size": {b.size}, "length": {b.length}, "coefficients": {list(b.coefficients)}}}'
            for b in cat.type2_by_size
        )
        lens = ", ".join(str(x) for x in cat.length_table)
        _emit(
            cfg,
            f'{{"coefficients": "{spec}", "size": {spec.size}, "length": {spec.length}, '
            f'"type1": [{t1}], "type2": [{t2}], "lengths": [{lens}]}}',
        )
    elif cfg.format == "csv":
        lines = ["kind,size,length,coefficients"]
        lines.extend(
            f"type1,{b.size},{b.length},{' '.join(map(str, b.coefficients))}"
            for b in cat.type1_blocks
        )
        lines.extend(
            f"type2,{b.size},{b.length},{' '.join(map(str, b.coefficients))}"
            for b in cat.type2_by_size
        )
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        lines = [
            f"recurrence {spec} (size S={spec.size}, length L={spec.length})",
            "type-1 blocks: " + (" ".join(str(b) for b in cat.type1_blocks) or "(none)"),
            "type-2 blocks: " + " ".join(str(b) for b in cat.type2_by_size),
            "size -> length: "
            + "  ".join(f"{t}:{l}" for t, l in enumerate(cat.length_table)),
        ]
        _emit(cfg, "\n".join(lines))
    return 0


def _cmd_decompose(cfg: RunConfig) -> int:
    _require(cfg.n is not None, "decompose needs a positive integer")
    spec = _spec(cfg)
    table = SequenceTable(spec)
    d = decompose(table, cfg.n)
    blocks = parse_blocks(spec, d)
    indices = []
    for i, a in enumerate(d.coefficients):
        indices.extend([d.m - i] * a)
    summed = " + ".join(
        (f"{a}*H_{d.m - i}" if a > 1 else f"H_{d.m - i}")
        for i, a in enumerate(d.coefficients)
        if a
    )
    if cfg.format == "json":
        coeffs = ", ".join(str(a) for a in d.coefficients)
        idx = ", ".join(str(j) for j in indices)
        _emit(
            cfg,
            f'{{"value": "{cfg.n}", "coefficients": [{coeffs}], '
            f'"blocks": "{blocks}", "indices": [{idx}], "summands": {d.summand_count}}}',
        )
    elif cfg.format == "csv":
        _emit(
            cfg,
            "value,summands,coefficients,blocks\n"
            f"{cfg.n},{d.summand_count},{d.to_text()},{blocks}\n",
        )
    else:
        _emit(
            cfg,
            "\n".join(
                [
                    f"{cfg.n} = {summed}",
                    f"indices: {','.join(map(str, indices))}",
                    f"coefficients: {d.to_text()}",
                    f"blocks: {blocks}",
                    f"summands: {d.summand_count}",
                ]
            ),
        )
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    _require(cfg.text is not None, "validate needs a coefficient string")
    spec = _spec(cfg)
    coeffs = [int(part) for part in cfg.text.split()]
    verdict = is_legal(spec, coeffs)
    if cfg.format == "json":
        reason = f'"{verdict.reason}"' if verdict.reason else "null"
        pos = verdict.position if verdict.position is not None else "null"
        _emit(
            cfg,
            f'{{"coefficients": {coeffs}, "legal": {str(verdict.ok).lower()}, '
            f'"reason": {reason}, "position": {pos}}}',
        )
    elif cfg.format == "csv":
        _emit(
            cfg,
            "legal,reason,position\n"
            f"{str(verdict.ok).lower()},{verdict.reason or ''},"
            f"{'' if verdict.position is None else verdict.position}\n",
        )
    else:
        if verdict:
            _emit(cfg, "legal")
        else:
            _emit(cfg, f"illegal: {verdict.reason} (position {verdict.position})")
    return 0 if verdict else 1


def _cmd_enumerate(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "enumerate needs a positive index n")
    spec = _spec(cfg)
    table = SequenceTable(spec)
    count = table.term(cfg.n + 1) - table.term(cfg.n)
    if count > cfg.cap:
        raise CapExceeded(count, cfg.cap)
    rows = []
    for i, d in enumerate(enumerate_omega(spec, cfg.n)):
        rows.append((i, value(table, d), d))
    if cfg.format == "json":
        body = ", ".join(
            f'{{"value": "{v}", "summands": {d.summand_count}, "coefficients": "{d.to_text()}"}}'
            for _, v, d in rows
        )
        _emit(cfg, f'{{"n": {cfg.n}, "cardinality": "{count}", "outcomes": [{body}]}}')
    else:
        lines = ["index,value,summands,coefficients"]
        lines.extend(f"{i},{v},{d.summand_count},{d.to_text()}" for i, v, d in rows)
        payload = "\n".join(lines) + "\n"
        if cfg.format == "table":
            payload += f"cardinality: {count}\n"
        _emit(cfg, payload)
    return 0


def _cmd_poly(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "poly needs a positive index n")
    spec = _spec(cfg)
    poly = SummandTable(spec).polynomial(cfg.n)
    if cfg.format == "json":
        _emit(cfg, poly.to_json())
    elif cfg.format == "csv":
        _emit(cfg, poly.to_csv())
    else:
        terms = [
            (f"{c}x^{k}" if c > 1 else f"x^{k}")
            for k, c in enumerate(poly.coeffs)
            if c
        ]
        _emit(
            cfg,
            f"n = {cfg.n}\ncounts by summands: "
            + " + ".join(terms)
            + f"\ncardinality: {poly.total}",
        )
    return 0


def _cmd_stats(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "stats needs a positive index n")
    spec = _spec(cfg)
    s = SummandTable(spec).stats(cfg.n)
    fields = [
        ("cardinality", str(s.cardinality)),
        ("mean", format_fraction(s.mean)),
        ("variance", format_fraction(s.variance)),
        ("central3", format_fraction(s.central3)),
        ("central4", format_fraction(s.central4)),
    ]
    if cfg.format == "json":
        body = ", ".join(f'"{k}": "{v}"' for k, v in fields)
        _emit(cfg, f'{{"n": {cfg.n}, {body}}}')
    elif cfg.format == "csv":
        _emit(
            cfg,
            "n," + ",".join(k for k, _ in fields) + "\n"
            + f"{cfg.n}," + ",".join(v for _, v in fields) + "\n",
        )
    else:
        lines = [f"n = {cfg.n}"]
        lines.extend(f"{k} = {v}" for k, v in fields)
        lines.append(f"mean ~ {decimal_str(s.mean, 6)}  variance ~ {decimal_str(s.variance, 6)}")
        _emit(cfg, "\n".join(lines))
    return 0


def _cmd_zdist(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "zdist needs a positive index n")
    spec = _spec(cfg)
    zd = z_distribution(spec, cfg.n, cap=cfg.cap)
    checked = zd.empirical_counts is not None
    if cfg.format == "json":
        payload = zd.to_json()[:-1] + f', "empirical_checked": {str(checked).lower()}}}'
        _emit(cfg, payload)
    elif cfg.format == "csv":
        _emit(cfg, zd.to_csv())
    else:
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
        _emit(cfg, "\n".join(lines))
    return 0


def _cmd_identities(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "identities needs a positive index n")
    spec = _spec(cfg)
    engine = SummandTable(spec)
    table = SequenceTable(spec)
    rows = []
    l1, r1 = first_moment_identity(spec, cfg.n, engine=engine, table=table)
    rows.append(("mean", "", l1, r1))
    l2, r2 = second_moment_identity(spec, cfg.n, engine=engine, table=table)
    rows.append(("second_moment", "", l2, r2))
    omega = table.term(cfg.n + 1) - table.term(cfg.n)
    skipped = omega > cfg.cap
    if not skipped:
        for t in range(spec.size):
            lc, rc = conditional_mean_check(spec, cfg.n, t, cap=cfg.cap, engine=engine)
            rows.append(("conditional_mean", t, lc, rc))
            lq, rq = conditional_mean_check(
                spec, cfg.n, t, moment=2, cap=cfg.cap, engine=engine
            )
            rows.append(("conditional_second", t, lq, rq))
    ok = all(l == r for _, _, l, r in rows)
    if cfg.format == "json":
        body = ", ".join(
            f'{{"identity": "{name}", "t": {t if t != "" else "null"}, '
            f'"lhs": "{format_fraction(l)}", "rhs": "{format_fraction(r)}", '
            f'"equal": {str(l == r).lower()}}}'
            for name, t, l, r in rows
        )
        _emit(
            cfg,
            f'{{"n": {cfg.n}, "enumeration_checked": {str(not skipped).lower()}, '
            f'"all_equal": {str(ok).lower()}, "checks": [{body}]}}',
        )
    else:
        lines = ["identity,t,lhs,rhs,equal"]
        lines.extend(
            f"{name},{t},{format_fraction(l)},{format_fraction(r)},{str(l == r).lower()}"
            for name, t, l, r in rows
        )
        payload = "\n".join(lines) + "\n"
        if cfg.format == "table":
            payload += (
                "conditional checks skipped (space above cap)\n" if skipped else ""
            ) + ("all identities hold exactly\n" if ok else "IDENTITY FAILURE\n")
        _emit(cfg, payload)
    return 0 if ok else 1


def _cmd_verify(cfg: RunConfig) -> int:
    spec = _spec(cfg)
    n_max = cfg.n_max if cfg.n_max is not None else 400
    try:
        report = verify_variance_bound(
            spec, n_max, precision_bits=cfg.precision_bits, threads=cfg.threads
        )
    except BoundViolated as exc:
        report = exc.report
        _write_verify_payload(cfg, report)
        print(f"variance bound FAILED at n = {exc.n}", file=sys.stderr)
        return 1
    _write_verify_payload(cfg, report)
    return 0


def _write_verify_payload(cfg: RunConfig, report) -> None:
    if cfg.format == "json":
        _emit(cfg, json.dumps(report.to_json_dict(), indent=2))
    elif cfg.format == "csv":
        _emit(cfg, report.summary_csv())
    else:
        head = [
            f"recurrence {report.spec} (S={report.size}, L={report.length}), n_max={report.n_max}",
            f"a_est = {decimal_str(report.a_est, 10)}  b_est = {decimal_str(report.b_est, 10)}"
            f"  convergence_gap = {decimal_str(report.convergence_gap, 20)}",
            f"threshold N = {report.threshold_N}  "
            f"c = {format_fraction(report.c)} ~ {decimal_str(report.c, 10)}  (from {report.c_source})",
            f"variance slope estimate = {decimal_str(report.slope_C_est, 10)}",
            "",
            report.summary_text(),
        ]
        tail = (
            "all variance bounds hold"
            if report.all_pass
            else f"FAILED at n = {report.violations[0]}"
        )
        _emit(cfg, "\n".join(head) + tail + "\n")


def _cmd_gauss(cfg: RunConfig) -> int:
    spec = _spec(cfg)
    text = cfg.n_list or "50,100,200,400"
    ns = [int(part) for part in text.split(",") if part.strip()]
    _require(ns, "gauss needs a non-empty --n-list")
    rows = gaussian_diagnostics(spec, ns, threads=cfg.threads)
    if cfg.format == "json":
        body = ", ".join(
            f'{{"n": {r.n}, "skewness": "{r.skewness!r}", '
            f'"excess_kurtosis": "{r.excess_kurtosis!r}", '
            f'"skewness_squared": "{format_fraction(r.skewness_squared)}", '
            f'"excess_kurtosis_exact": "{format_fraction(r.excess_kurtosis_exact)}"}}'
            for r in rows
        )
        _emit(cfg, f'{{"coefficients": "{spec}", "rows": [{body}]}}')
    elif cfg.format == "csv":
        lines = ["n,skewness,excess_kurtosis"]
        lines.extend(f"{r.n},{r.skewness!r},{r.excess_kurtosis!r}" for r in rows)
        _emit(cfg, "\n".join(lines) + "\n")
    else:
        lines = [f"{'n':>6} {'skewness':>14} {'excess_kurtosis':>16}"]
        lines.extend(
            f"{r.n:>6} {r.skewness:>14.6f} {r.excess_kurtosis:>16.6f}" for r in rows
        )
        _emit(cfg, "\n".join(lines))
    return 0


def _cmd_sample(cfg: RunConfig) -> int:
    _require(cfg.n is not None and cfg.n >= 1, "sample needs a positive index n")
    _require(cfg.seed is not None, "sample needs an explicit --seed")
    count = cfg.samples if cfg.samples is not None else 10
    _require(count >= 1, "--samples must be >= 1")
    spec = _spec(cfg)
    table = SequenceTable(spec)
    rows = []
    for i, d in enumerate(sample_uniform(table, cfg.n, count, cfg.seed)):
        rows.append((i, value(table, d), d))
    if cfg.format == "json":
        body = ", ".join(
            f'{{"value": "{v}", "summands": {d.summand_count}, "coefficients": "{d.to_text()}"}}'
            for _, v, d in rows
        )
        _emit(
            cfg,
            f'{{"n": {cfg.n}, "seed": {cfg.seed}, "samples": {count}, "draws": [{body}]}}',
        )
    else:
        lines = ["index,value,summands,coefficients"]
        lines.extend(f"{i},{v},{d.summand_count},{d.to_text()}" for i, v, d in rows)
        _emit(cfg, "\n".join(lines) + "\n")
    return 0


_HANDLERS = {
    "seq": _cmd_seq,
    "blocks": _cmd_blocks,
    "decompose": _cmd_decompose,
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "poly": _cmd_poly,
    "stats": _cmd_stats,
    "zdist": _cmd_zdist,
    "identities": _cmd_identities,
    "verify": _cmd_verify,
    "gauss": _cmd_gauss,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    # Exact values pass CPython's default 4,300-digit limit on int<->str
    # conversion (3.11+) long before the arithmetic gets slow.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _merge_config(args)
        if not cfg.subcommand:
            parser.print_usage(sys.stderr)
            print("plrs: error: no subcommand given", file=sys.stderr)
            return 2
        handler = _HANDLERS.get(cfg.subcommand)
        if handler is None:
            print(f"plrs: error: unknown subcommand {cfg.subcommand!r}", file=sys.stderr)
            return 2
        return handler(cfg)
    except (BoundViolated, NoThresholdInRange, NonPositiveC, EmptyConditionalEvent) as exc:
        print(f"plrs: verification failure: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"plrs: error: {exc} (raise --cap or PLRS_ENUM_CAP)", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # covers the validation family of PlrsError plus plain bad input
        print(f"plrs: error: {exc}", file=sys.stderr)
        return 2
    except PlrsError as exc:
        # anything left is an exactness check tripping inside the library
        print(f"plrs: verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
