"""One benchmark sample: a fresh interpreter runs one permwordle CLI command.

    python3 sample.py SRC MODE CLI-ARGS...

SRC is the checkout's ``src`` directory.  MODE ``run`` runs the command
as ``permwordle.cli.main`` would; MODE ``setup`` stops once the package is
imported and the arguments are parsed.  The command's output goes to
stdout as usual; the timings go to stderr as the last line, prefixed by
``perfbench-sample``.  Times are ``time.monotonic()``, one clock for the
whole machine, so the parent can take set-up time from the moment it
started this interpreter.

While the command runs, a timer interrupts it every ``PROBE_PERIOD_S`` to
time a short fixed loop (``SpeedProbe``); the record carries those
readings, and the loop's own time is taken out of ``wall_s`` and
``cpu_s``.  The parent scales the times by them (README.md, "Noise").

A fresh interpreter per sample matters: ``analysis._derangements`` is an
unbounded module-level cache, so a second command in the same process
would skip the derangement enumeration (4.3 s for D_10) that every CLI
user pays.
"""

import json
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_PERIOD_S = 0.25
PROBE_KEYS = 2_500  # about 5 ms of work: 1-2% of the command's time


def probe_loop() -> tuple[float, float]:
    """Wall and CPU time of a fixed pure-Python job like the engine's: hash
    small int tuples into a dict and look each one up again."""
    t0, c0 = time.perf_counter(), time.thread_time()
    keys = [tuple((i * 2654435761 >> s) & 15 for s in range(0, 32, 4)) for i in range(PROBE_KEYS)]
    counts = dict.fromkeys(keys, 0)
    for key in reversed(keys):
        counts[key] += 1
    return time.perf_counter() - t0, time.thread_time() - c0


class SpeedProbe:
    """Runs probe_loop() from SIGALRM every PROBE_PERIOD_S of wall time.

    Python runs the handler in the main thread between bytecodes, so it
    samples the speed of the interpreter doing the command's work."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.readings.append(probe_loop())

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    src, mode, argv = Path(sys.argv[1]).resolve(), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(src))
    from permwordle import analysis, cli

    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"permwordle imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    args = cli.build_parser().parse_args(argv)
    t_setup = time.monotonic()
    record = {"t_setup": t_setup}
    probe = SpeedProbe()
    if mode == "run":
        cpu_setup = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        t_start = time.monotonic()
        with probe:
            try:
                rc = args.func(args)
            except (ValueError, analysis.ScanCostError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                rc = 1
            sys.stdout.flush()
        t_end = time.monotonic()
        # Pool workers are joined before the command returns, so the
        # children's usage covers all of them.
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        record.update(
            rc=rc,
            wall_s=t_end - t_start - sum(wall for wall, _ in probe.readings),
            cpu_s=_cpu(own) + _cpu(kids) - cpu_setup - sum(cpu for _, cpu in probe.readings),
            peak_rss_mb=max(own.ru_maxrss, kids.ru_maxrss) / 1024,
        )
    # One reading outside any timing, so that short commands have one too.
    probe.readings.append(probe_loop())
    record["probe_s"] = probe.readings
    print("perfbench-sample " + json.dumps(record), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
