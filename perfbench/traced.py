"""Traced run: per-layer metrics for one workload, in a fresh interpreter.

    python3 traced.py SRC WORKLOAD SEED SMOKE SPANS-PATH

Spans are recorded from this file only, around calls into the public
functions of each permwordle module; nothing inside the package changes.
The workload's command runs first, in-process through the CLI, then a
few probes measure what the command alone does not show (the jobs=1 and
jobs=2 scans, warm decompositions, per-secret ``solve_rounds``).  Spans
stay in memory and are written to SPANS-PATH at the end.  The last line
of stdout is a JSON object with the metrics and any output problems.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import statistics
import sys
from math import factorial
from pathlib import Path
from time import perf_counter

import checks
from sample import probe_loop
from workloads import WORKLOADS, Workload, smoke

# name, unit, and the end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("perms.derangements_s", "s", "wall_s and peak_rss_mb on gf-decomp; under 1% of the scans"),
    ("perms.derangements", "count", "peak_rss_mb on gf-decomp"),
    ("strategies.enumerate_s", "s", "wall_s on cyclic-scan, where it bounds enumeration gains (0.03-0.07 s)"),
    ("strategies.count", "count", "strategies_per_s on the scans (its base)"),
    ("engine.solve_rounds_us.p50", "us", "secrets_per_s on gf-playback"),
    ("engine.solve_rounds_us.tail", "us", "secrets_per_s on gf-playback"),
    ("engine.solve_rounds_us.tail_pct", "%", "none: the percentile the tail is taken at"),
    ("engine.guesses", "count", "secrets_per_s on gf-playback"),
    ("engine.memo_states", "count", "peak_rss_mb and wall_s on cyclic-scan and gf-decomp"),
    ("analysis.decomp_cold_ms", "ms", "wall_s on gf-decomp and cyclic-scan"),
    ("analysis.decomp_warm_ms.p50", "ms", "strategies_per_s on inductive-scan, then cyclic-scan"),
    ("analysis.decomp_warm_ms.tail", "ms", "strategies_per_s on inductive-scan, then cyclic-scan"),
    ("analysis.decomp_warm_ms.tail_pct", "%", "none: the percentile the tail is taken at"),
    ("analysis.hist_reuse", "ratio", "wall_s on cyclic-scan against inductive-scan"),
    ("analysis.hist_base", "count", "none: the base of analysis.hist_reuse"),
    ("analysis.scan_s", "s", "wall_s on the scans; with it, the CLI's share"),
    ("analysis.parallel_eff", "ratio", "wall_s and cpu_s on cyclic-scan"),
    ("analysis.playback_s", "s", "secrets_per_s on gf-playback"),
    ("cli.format_s", "s", "wall_s on cyclic-scan (about 0.3 s of CSV)"),
    ("cli.output_bytes", "bytes", "wall_s on cyclic-scan"),
    ("perms.self_s", "s", "self time of the perms layer over the traced run"),
    ("strategies.self_s", "s", "self time of the strategies layer over the traced run"),
    ("engine.self_s", "s", "self time of the engine layer over the traced run"),
    ("analysis.self_s", "s", "self time of the analysis layer over the traced run"),
    ("cli.self_s", "s", "self time of the cli layer over the traced run"),
    ("trace.wall_s", "s", "none: the traced command's wall time"),
    ("trace.overhead", "ratio", "none: traced wall_s over untraced wall_s, both speed-scaled"),
)
LAYERS = ("perms", "strategies", "engine", "analysis", "cli")

SOLVE_SAMPLES = 2000  # per-secret solve_rounds calls timed
WARM_CALLS = 10  # gf workloads: few enough that the tail is the maximum
WARM_BUDGET_S = 12.0  # gf-decomp's warm calls take seconds each; stop early
POOL_PROBE = ("cyclic", 5)  # the gf commands have no pool; this family stands in


class Tracer:
    """Spans in memory: name, start, end, parent span, sample id, attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.sample = 0

    def _new(self, name: str, attrs: dict) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "sample": self.sample,
            "start": perf_counter(),
            "end": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = self._new(name, attrs)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str) -> None:
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(module, attr, traced)

    def wrap_derangements(self, perms) -> None:
        """Span around each full ``enumerate_perms(k, "derangements")``.

        The span opens at the first item and closes when the generator is
        exhausted; it never becomes a parent, so interleaved consumers
        cannot corrupt the nesting.  Other kinds pass through untraced.
        """
        orig = perms.enumerate_perms

        def traced(n, kind="all"):
            if kind != "derangements":
                yield from orig(n, kind)
                return
            rec = self._new("perms.enumerate_perms", {"n": n})
            count = 0
            for p in orig(n, kind):
                count += 1
                yield p
            rec["end"] = perf_counter()
            rec["attrs"]["count"] = count

        perms.enumerate_perms = traced

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"] and s["end"] is not None]

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's
        (spans nest, one thread), summed over the layer's spans."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            if layer in out and s["end"] is not None:
                out[layer] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum, at 100, when there are ten or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def secrets_sample(n: int, seed: int) -> list[tuple[int, ...]]:
    """All n! secrets when that is at most SOLVE_SAMPLES, else a seeded sample."""
    if factorial(n) <= SOLVE_SAMPLES:
        return list(itertools.permutations(range(1, n + 1)))
    rng = random.Random(seed)
    out = []
    for _ in range(SOLVE_SAMPLES):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        out.append(tuple(p))
    return out


def run(workload: Workload, seed: int, spans_path: Path) -> dict:
    from permwordle import analysis, cli, engine, perms, strategies

    tracer = Tracer()
    memos: list = []

    class RecordingMemo(analysis.SubgameMemo):
        def __init__(self) -> None:
            super().__init__()
            memos.append(self)

    analysis.SubgameMemo = RecordingMemo
    for attr in ("scan", "generating_function", "gf_playback", "decomposition_stats"):
        tracer.wrap(analysis, attr)
    tracer.wrap_derangements(perms)

    def command(argv: list[str]) -> tuple[bytes, dict, int]:
        args = cli.build_parser().parse_args(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tracer.span("cli.command") as rec:
            rc = args.func(args)
        return buf.getvalue().encode(), rec, rc

    n, text = workload.n, workload.strategy_text(seed)
    metrics: dict[str, float] = {}
    reference = None  # decomposition output a playback output must equal

    tracer.sample = 1
    # Speed readings around the traced command, outside every span, so
    # that the tracing overhead can be compared at equal speed.
    probes = [probe_loop(), probe_loop()]
    out, cmd_span, rc = command(workload.argv(seed))
    probes += [probe_loop(), probe_loop()]
    library = tracer.children(cmd_span)[0]
    metrics["trace.wall_s"] = duration(cmd_span)
    metrics["analysis.scan_s"] = duration(library)
    metrics["cli.format_s"] = duration(cmd_span) - duration(library)
    metrics["cli.output_bytes"] = len(out)
    metrics["engine.guesses"] = checks.guesses_total(workload, out) if rc == 0 else 0

    def scan_span(family_n: int, kind: str, jobs: int) -> dict:
        with tracer.span("probe.scan", jobs=jobs) as rec:
            analysis.scan(family_n, kind, jobs=jobs)
        return tracer.children(rec)[0]

    if workload.is_scan:
        tracer.sample = 2
        t1 = library if workload.jobs == 1 else scan_span(n, workload.kind, 1)
        memo = memos[-1]
        t2 = library if workload.jobs == 2 else scan_span(n, workload.kind, 2)
        decomps = [duration(s) for s in tracer.children(t1)]
        cold, warm = decomps[0], decomps[1:]
        with tracer.span("strategies.enumerate_strategies") as rec:
            family = list(strategies.enumerate_strategies(n, workload.kind))
        metrics["strategies.enumerate_s"] = duration(rec)
        strategy = family[0]
    else:
        strategy = strategies.parse_strategy(text)
        tracer.sample = 2
        if workload.method == "playback":
            reference, _, _ = command(["gf", "--strategy", text, "--format", "json"])
            memo = memos[-1]
        else:
            memo = memos[0]
        cold_span = next(s for s in tracer.spans if s["name"] == "analysis.decomposition_stats")
        cold = duration(cold_span)
        with tracer.span("probe.warm") as rec:
            calls = 0
            while calls < WARM_CALLS and (not calls or perf_counter() - rec["start"] < WARM_BUDGET_S):
                analysis.decomposition_stats(strategy, memo)
                calls += 1
        warm = [duration(s) for s in tracer.children(rec)]
        with tracer.span("strategies.parse_strategy") as rec:
            family = [strategies.parse_strategy(text)]
        metrics["strategies.enumerate_s"] = duration(rec)
        tracer.sample = 3
        t1 = scan_span(POOL_PROBE[1], POOL_PROBE[0], 1)
        t2 = scan_span(POOL_PROBE[1], POOL_PROBE[0], 2)
    problems = checks.check(workload, out, reference)
    if rc != 0:
        problems.append(f"command exited with {rc}")

    metrics["analysis.parallel_eff"] = duration(t1) / (2 * duration(t2))
    metrics["strategies.count"] = len(family)
    metrics["analysis.decomp_cold_ms"] = cold * 1e3
    metrics["analysis.decomp_warm_ms.p50"] = statistics.median(warm) * 1e3
    value, pct = tail(warm)
    metrics["analysis.decomp_warm_ms.tail"] = value * 1e3
    metrics["analysis.decomp_warm_ms.tail_pct"] = pct
    # Entries per distinct component prefix, read through the public table().
    prefixes = {}
    for s in family:
        for k in range(2, n):
            prefixes.setdefault(s.components[:k], (s, k))
    metrics["engine.memo_states"] = sum(len(memo.table(s, k)) for s, k in prefixes.values())
    base = len(family) * (n - 2)
    metrics["analysis.hist_base"] = base
    metrics["analysis.hist_reuse"] = 1 - len(memo.hist_cache) / base

    tracer.sample = 4
    times = []
    for secret in secrets_sample(n, seed):
        with tracer.span("engine.solve_rounds") as rec:
            engine.solve_rounds(secret, strategy)
        times.append(duration(rec) * 1e6)
    metrics["engine.solve_rounds_us.p50"] = statistics.median(times)
    value, pct = tail(times)
    metrics["engine.solve_rounds_us.tail"] = value
    metrics["engine.solve_rounds_us.tail_pct"] = pct

    tracer.sample = 5
    if workload.method == "playback":
        playback = next(s for s in tracer.spans if s["name"] == "analysis.gf_playback")
    else:
        # gf-decomp times the playback of its strategy's length n-1 prefix
        # (ten times cheaper than n), the scans that of their first strategy.
        if not workload.is_scan:
            strategy = strategies.from_components(strategy.components[: n - 1])
        with tracer.span("probe.playback") as rec:
            analysis.gf_playback(strategy)
        playback = tracer.children(rec)[0]
    metrics["analysis.playback_s"] = duration(playback)

    derangements = next(
        s for s in tracer.spans
        if s["name"] == "perms.enumerate_perms" and s["attrs"]["n"] == n
    )
    metrics["perms.derangements_s"] = duration(derangements)
    metrics["perms.derangements"] = derangements["attrs"]["count"]

    for layer, t in tracer.layer_self_times().items():
        metrics[f"{layer}.self_s"] = t
    tracer.dump(spans_path)
    return {"problems": problems, "metrics": metrics, "probe_s": probes}


def main() -> int:
    src, name, seed, is_smoke, spans_path = sys.argv[1:6]
    sys.path.insert(0, str(Path(src).resolve()))
    workload = WORKLOADS[name]
    if is_smoke == "1":
        workload = smoke(workload)
    result = run(workload, int(seed), Path(spans_path))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
