"""Command-line surface: play traces, generating functions, scans,
verification reports, and reference-table reproduction.

Formats are text (default), json, and csv where a table shape exists.
Output is byte-stable for fixed inputs: JSON is emitted compactly with a
fixed key order, CSV with a fixed column order, and scan rows always appear
in enumeration order regardless of the parallelism degree.

Exit codes: 0 success, 1 usage or parse error (including refused oversized
scans), an ``-o`` path that cannot be written, or a stdout closed early
(as by ``| head``, which ends quietly), 2 verification failure, 3 loop
detected by the play command.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import operator
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from . import analysis, engine, perms, strategies
from .analysis import DEFAULT_MAX_COST, GFCoefficients, OrbitColumns, ScanResult
from .strategies import Strategy
from .verify import SEQUENCE_NAMES, THEOREMS, ScanCache, check_sequence, json_value
from .verify import verify as run_verify

# Sample tops whose generating functions the length-5 block of the
# reference table lists (the length-4 block covers all six cyclic tops).
TABLE2_N5_TOPS = ((2, 3, 4, 5, 1), (4, 3, 1, 5, 2), (3, 5, 2, 1, 4), (5, 1, 2, 3, 4))
# Top that the reference table prints twice in its length-4 block.
TABLE2_DUPLICATE_TOP = (2, 4, 1, 3)
TABLE1_COMPONENTS = ((2, 3, 4, 1), (2, 1, 4, 3))

OUTDIR_ENV = "PERMWORDLE_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors, per the CLI contract."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dumps(obj) -> str:
    """Compact JSON of ``obj``'s values in their one encoding (``json_value``)."""
    return json.dumps(json_value(obj), separators=(",", ":"))


def _write_stdout(*parts: str) -> None:
    """Write every one of ``parts`` to stdout in full, in order, and flush
    it, so that a closed pipe fails here and not at exit.

    An unbuffered stdout (``python -u``, ``PYTHONUNBUFFERED``) passes each
    write straight to the raw file and drops whatever a short write leaves,
    as when a signal interrupts a large write to a pipe, so each part goes
    on from where the last write stopped.  No byte is held back for a later
    flush, so a failed write leaves nothing behind.
    """
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.writelines(parts)
        sys.stdout.flush()
        return
    sys.stdout.flush()
    for part in parts:
        data = memoryview(part.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[raw.write(data) :]


def _write_output(text: str, args) -> None:
    """``text`` to stdout or ``args.output``, ending in one newline, which
    is written after it rather than appended to a copy of it."""
    parts = (text,) if text.endswith("\n") else (text, "\n")
    dest = getattr(args, "output", None)
    if dest is None or dest == "-":
        _write_stdout(*parts)
        return
    path = Path(dest)
    if not path.is_absolute():
        outdir = os.environ.get(OUTDIR_ENV)
        if outdir:
            path = Path(outdir) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.writelines(parts)
    except OSError as exc:  # a directory, or under a file: a bad -o value
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_strategy_arg(args, n: int | None = None) -> Strategy:
    explicit_n = getattr(args, "n", None)
    if explicit_n is not None:
        n = explicit_n
    return strategies.parse_strategy(args.strategy, n)


def poly_string(gf: GFCoefficients) -> str:
    """Reference-table style polynomial, highest power first:
    "x^4 + 11x^3 + 11x^2 + x"."""
    terms = []
    for r in range(gf.max_guesses, 0, -1):
        a = gf.coefficient(r)
        if a == 0:
            continue
        coeff = "" if a == 1 else str(a)
        power = "x" if r == 1 else f"x^{r}"
        terms.append(f"{coeff}{power}")
    return " + ".join(terms) if terms else "0"


def _coeffs_json(gf: GFCoefficients) -> dict:
    return {str(r): gf.coefficient(r) for r in range(1, gf.max_guesses + 1)}


def _average_text(avg) -> str:
    return str(avg) if isinstance(avg, Fraction) else "inf"


# ---------------------------------------------------------------------------
# play


def _hits_text(hits: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(hits)) + "}" if hits else "-"


def cmd_play(args) -> int:
    secret = perms.parse_perm(args.secret)
    strategy = _parse_strategy_arg(args, n=len(secret))
    trace = engine.play(secret, strategy)
    if args.format == "json":
        out = _dumps(
            {
                "secret": trace.secret,
                "strategy": strategy.text,
                "guesses": trace.guesses,
                "correct_sets": trace.correct_sets,
                "status": trace.status,
                "rounds": trace.rounds,
            }
        )
    else:
        lines = [f"secret {perms.format_perm(secret)}  strategy {strategy.text}"]
        for r, (guess, hits) in enumerate(zip(trace.guesses, trace.correct_sets), 1):
            lines.append(
                f"guess {r}: {perms.format_perm(guess)}  correct {_hits_text(hits)}"
            )
        if trace.solved:
            lines.append(f"solved in {trace.rounds} guesses")
        else:
            lines.append("looped: the repeated state above can never be solved")
        out = "\n".join(lines)
    _write_output(out, args)
    return 0 if trace.solved else 3


# ---------------------------------------------------------------------------
# gf / avg


def cmd_gf(args) -> int:
    strategy = _parse_strategy_arg(args)
    gf = analysis.generating_function(strategy, method=args.method)
    if args.format == "json":
        out = _dumps(
            {"n": gf.n, "coeffs": _coeffs_json(gf), "loops": gf.loop_count}
        )
    elif args.format == "csv":
        header = ["strategy_id", "n"]
        header += [f"a_{r}" for r in range(1, gf.max_guesses + 1)]
        header.append("loops")
        row = [strategy.text, gf.n, *gf.as_tuple(), gf.loop_count]
        out = _csv_text(header, [row])
    else:
        lines = [
            f"strategy {strategy.text}  (n={gf.n})",
            f"f(x) = {poly_string(gf)}",
        ]
        for r in range(1, gf.max_guesses + 1):
            lines.append(f"solved in {r}: {gf.coefficient(r)}")
        lines.append(f"loops: {gf.loop_count}")
        out = "\n".join(lines)
    _write_output(out, args)
    return 0


def cmd_avg(args) -> int:
    strategy = _parse_strategy_arg(args)
    gf = analysis.generating_function(strategy)
    avg = analysis.average_guesses(gf)
    if args.format == "json":
        out = _dumps(
            {
                "n": gf.n,
                "strategy": strategy.text,
                "average": avg,
                "loops": gf.loop_count,
            }
        )
    else:
        if isinstance(avg, Fraction):
            out = f"average guesses for {strategy.text}: {avg} (= {float(avg):.6g})"
        else:
            out = (
                f"average guesses for {strategy.text}: infinite "
                f"({gf.loop_count} secrets never terminate)"
            )
    _write_output(out, args)
    return 0


# ---------------------------------------------------------------------------
# scan


def _coefficient_texts(stats: OrbitColumns, item: str, sep: str) -> Iterator[str]:
    """Per orbit, ``item.format(r, a_r)`` for r = 1 up to the orbit's own
    largest r with a_r > 0, joined by ``sep``: field by field at C speed,
    each orbit's run cut to its length by a slice."""
    width = stats.max_guesses()
    ones = [1] * len(stats)
    # The last r with a_r > 0: max of r where a_r > 0, else 0, and of 1.
    # The second list of ones gives max two arguments when width is 1.
    last = map(max, ones, ones, *(
        map(operator.mul, map(bool, stats.coefficient(r)), itertools.repeat(r))
        for r in range(2, width + 1)
    ))
    items = zip(*(map(item.format, itertools.repeat(r), stats.coefficient(r)) for r in range(1, width + 1)))
    return map(sep.join, map(operator.getitem, items, map(slice, last)))


def _average_texts(stats: OrbitColumns, fraction: str, whole: str, infinite: str) -> list[str]:
    """Per orbit, its average formatted by ``fraction`` (numerator and
    denominator in lowest terms) or, when the denominator is 1, by
    ``whole``; ``infinite`` where the orbit loops.  Each distinct guess
    total is formatted once."""
    formatted = {
        total: whole.format(a.numerator) if a.denominator == 1 else fraction.format(a.numerator, a.denominator)
        for total, a in stats.averages().items()
    }
    texts = list(map(formatted.__getitem__, stats.guess_totals))
    for i in itertools.compress(range(len(texts)), stats.loops()):
        texts[i] = infinite
    return texts


def _scan_csv(result: ScanResult) -> str:
    """One line per member; each orbit's fields are written by one
    ``%``-format over the zipped columns, and joined after each of its
    members' ids."""
    stats = result.stats
    width = stats.max_guesses()
    header = ["strategy_id", "n"]
    header += [f"a_{r}" for r in range(1, width + 1)]
    header += ["loops", "avg_num", "avg_den", "rho1", "rho2", "rho3"]
    # The average is infinite exactly when some secret loops: both its
    # fields are then empty.
    average = _average_texts(stats, "{},{}", "{},1", ",")
    row = f"{result.n}," + "%d," * width + "%d,%s,%d,%d,%d"
    columns = (stats.coefficient(r) for r in range(1, width + 1))
    tails = list(map(row.__mod__, zip(*columns, stats.loops(), average, *stats.rho)))
    # The csv module would quote an id exactly when it holds a comma.
    ids = [f'"{text}"' if "," in text else text for text in result.texts]
    lines = map(",".join, zip(ids, map(tails.__getitem__, result.orbits)))
    return _csv_text(header, []) + "\n".join(lines) + "\n"


def _scan_json(result: ScanResult) -> str:
    """One object per member, as text: each orbit's fields are written once
    from the columns, as ``_dumps`` writes them, less the opening brace,
    and joined after each of its members' dumped id."""
    stats = result.stats
    tails = list(map(
        '"coeffs":{{{}}},"loops":{},"average":{},"rho":{{"1":{},"2":{},"3":{}}}}}'.format,
        _coefficient_texts(stats, '"{}":{}', ","),
        stats.loops(),
        _average_texts(stats, '{{"num":{},"den":{}}}', '{{"num":{},"den":1}}', "null"),
        *stats.rho,
    ))
    ids = map(json.dumps, result.texts)
    rows = map('{{"strategy":{},{}'.format, ids, map(tails.__getitem__, result.orbits))
    summary = {
        name: {"value": extreme.value, "strategies": extreme.strategy_ids}
        for name, extreme in vars(result.summary).items()  # min_average, max_a3, min_a3
    }
    head = _dumps({"n": result.n, "class": result.kind})[:-1]
    return f'{head},"rows":[{",".join(rows)}],"summary":{_dumps(summary)}}}'


def _scan_text(result: ScanResult) -> str:
    """One line per member after a heading, then the summary; each orbit's
    fields are written once from the columns and follow each member's id."""
    stats = result.stats
    # As tuples are written: one coefficient alone is (1,).
    coeffs = [
        f"({text})" if ", " in text else f"({text},)"
        for text in _coefficient_texts(stats, "{1}", ", ")
    ]
    tails = list(map(
        "  coeffs={}  loops={}  avg={}  rho={},{},{}".format,
        coeffs,
        stats.loops(),
        _average_texts(stats, "{}/{}", "{}", "inf"),
        *stats.rho,
    ))
    lines = [f"scan n={result.n} class={result.kind}: {len(result.texts)} strategies"]
    lines += map("  {}{}".format, result.texts, map(tails.__getitem__, result.orbits))
    s = result.summary
    avg_txt = _average_text(s.min_average.value)
    lines.append(f"min average {avg_txt}: {', '.join(s.min_average.strategy_ids)}")
    lines.append(f"max a_3 {s.max_a3.value}: {', '.join(s.max_a3.strategy_ids)}")
    lines.append(f"min a_3 {s.min_a3.value}: {', '.join(s.min_a3.strategy_ids)}")
    return "\n".join(lines)


def cmd_scan(args) -> int:
    result = analysis.scan(args.n, args.kind, jobs=args.jobs, max_cost=args.max_cost)
    if args.format == "json":
        out = _scan_json(result)
    elif args.format == "csv":
        out = _scan_csv(result)
    else:
        out = _scan_text(result)
    _write_output(out, args)
    return 0


# ---------------------------------------------------------------------------
# verify / sequence


def _report_out(report, args) -> int:
    if args.format == "json":
        out = _dumps(report.to_json_dict())
    else:
        out = report.to_text()
    _write_output(out, args)
    return 0 if report.ok else 2


def cmd_verify(args) -> int:
    if (args.min is None) != (args.max is None):
        raise ValueError("--min and --max must be given together")
    n_range = None if args.min is None else (args.min, args.max)
    cache = ScanCache(jobs=args.jobs, max_cost=args.max_cost)
    return _report_out(run_verify(args.id, n_range, cache=cache), args)


def cmd_sequence(args) -> int:
    return _report_out(check_sequence(args.name), args)


# ---------------------------------------------------------------------------
# tables


def build_table1() -> dict:
    """The 9x2 grid of second-guess hit sets: each derangement of length 4
    as the secret, against the two reference components."""
    guesses = [perms.invert(c) for c in TABLE1_COMPONENTS]
    rows = []
    for secret in perms.enumerate_perms(4, "derangements"):
        rows.append(
            {
                "secret": perms.format_perm(secret),
                "hits": [sorted(engine.feedback(g, secret)) for g in guesses],
            }
        )
    return {
        "which": 1,
        "components": [perms.format_perm(c) for c in TABLE1_COMPONENTS],
        "guesses": [perms.format_perm(g) for g in guesses],
        "rows": rows,
    }


def build_table2() -> dict:
    """Generating functions of the reference inductive strategies: every
    cyclic top at length 4 (one of them is printed twice in the reference
    table and is marked), plus the four sampled tops at length 5."""
    rows = []
    for top in (*perms.enumerate_perms(4, "cyclic"), *TABLE2_N5_TOPS):
        gf = analysis.generating_function(strategies.inductive(top))
        rows.append(
            {
                "n": len(top),
                "top": perms.format_perm(top),
                "coeffs": _coeffs_json(gf),
                "poly": poly_string(gf),
                "duplicate_in_reference": top == TABLE2_DUPLICATE_TOP,
            }
        )
    return {"which": 2, "rows": rows}


def cmd_tables(args) -> int:
    table = build_table1() if args.which == 1 else build_table2()
    if args.format == "json":
        out = _dumps(table)
    elif args.format == "csv":
        if args.which == 1:
            header = ["secret"] + [f"hits_{c}" for c in table["components"]]
            rows = [
                [row["secret"]]
                + [" ".join(str(i) for i in hits) if hits else "-" for hits in row["hits"]]
                for row in table["rows"]
            ]
        else:
            header = ["n", "top", "poly", "duplicate_in_reference"]
            rows = [
                [row["n"], row["top"], row["poly"], int(row["duplicate_in_reference"])]
                for row in table["rows"]
            ]
        out = _csv_text(header, rows)
    else:
        lines = []
        if args.which == 1:
            lines.append("second-guess hit sets over all length-4 derangement secrets")
            comp_a, comp_b = table["components"]
            guess_a, guess_b = table["guesses"]
            lines.append(f"components {comp_a} (guess {guess_a}) and {comp_b} (guess {guess_b})")
            for row in table["rows"]:
                cells = [
                    "{" + ",".join(str(i) for i in hits) + "}" if hits else "{}"
                    for hits in row["hits"]
                ]
                lines.append(f"  {row['secret']}:  {cells[0]:<12} {cells[1]}")
        else:
            lines.append("generating functions of reference inductive strategies")
            for row in table["rows"]:
                mark = "  (listed twice in the reference table)" if row["duplicate_in_reference"] else ""
                lines.append(f"  n={row['n']}  top {row['top']:<12} f(x) = {row['poly']}{mark}")
        out = "\n".join(lines)
    _write_output(out, args)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_output(p, formats=("text", "json")) -> None:
    p.add_argument("--format", choices=list(formats), default="text")
    p.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help=f"write to PATH instead of stdout; a relative PATH resolves "
        f"under ${OUTDIR_ENV} when that variable is set",
    )


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _add_work_flags(p) -> None:
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=analysis.available_cpus(),
        help="processes for scans, a positive integer: jobs - 1 workers plus "
        "this one, at most the CPUs it may use (results are identical for any value)",
    )
    p.add_argument(
        "--max-cost",
        type=int,
        default=DEFAULT_MAX_COST,
        help="refuse scans whose estimated subgame evaluations exceed this",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="permwordle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("play", help="play one game and print the trace")
    p.add_argument("--secret", required=True, help="secret permutation, e.g. 4,1,2,3")
    p.add_argument("--strategy", required=True, help="cs, csl, inductive:TOP, or s_1;s_2;...;s_n")
    _add_common_output(p)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("gf", help="generating function of a strategy")
    p.add_argument("--strategy", required=True)
    p.add_argument("--n", type=int, help="strategy length (needed for cs/csl)")
    p.add_argument(
        "--method",
        choices=["decomposition", "playback"],
        default="decomposition",
        help="memoized subgame decomposition or full playback of all n! secrets",
    )
    _add_common_output(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("avg", help="exact average guess count of a strategy")
    p.add_argument("--strategy", required=True)
    p.add_argument("--n", type=int)
    _add_common_output(p)
    p.set_defaults(func=cmd_avg)

    p = sub.add_parser("scan", help="sweep a whole strategy family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--class",
        dest="kind",
        required=True,
        choices=list(strategies.STRATEGY_KINDS),
    )
    _add_work_flags(p)
    _add_common_output(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run one named verification check")
    p.add_argument("--id", required=True, choices=sorted(THEOREMS))
    p.add_argument("--min", type=int, help="first n to check (default per check)")
    p.add_argument("--max", type=int, help="last n to check (default per check)")
    _add_work_flags(p)
    _add_common_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="regenerate a reference sequence and compare")
    p.add_argument("--name", required=True, choices=list(SEQUENCE_NAMES))
    _add_common_output(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("tables", help="reproduce the reference tables")
    p.add_argument("--which", type=int, required=True, choices=[1, 2])
    _add_common_output(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader is gone.  Python flushes stdout at exit, so it is pointed
        # at the null device, as the Python docs advise for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, analysis.ScanCostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
