"""permwordle benchmark: CLI workloads timed in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout.  Load model: a closed loop with one
client; each sample starts after the previous one has finished, and a
sample is one CLI command in a new interpreter (see sample.py for why).
With ``--trace 0`` the run takes samples for ``--seconds`` seconds and
reports the end-to-end metrics as medians over them; with ``--trace 1`` it
takes one untraced sample and one traced run (traced.py) and reports the
per-layer metrics.  Every output is checked (checks.py); the last line of
stdout is the result as one JSON object, and the exit code is non-zero
when any check failed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import traced
from workloads import WORKLOADS, Workload, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# name, unit; higher is better only for the rates.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("strategies_per_s", "1/s"),
    ("secrets_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Times are scaled to the interpreter speed at which sample.probe_loop()
# takes this long, about the faster of the two speeds seen on the 2-vCPU
# machine the benchmark was defined on (README.md, "Noise").
PROBE_NOMINAL_S = 0.004
SETUP_SPAWNS = 9  # set-up-only interpreters per run, besides one per sample
RUN_LIMIT_S = 170  # every child is killed once a run has taken this long


class SampleError(RuntimeError):
    pass


def machine(seed: int) -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "arch": platform.machine(),
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def run_child(cmd: list[str], deadline: float) -> tuple[int, bytes, bytes]:
    """Run cmd in its own process group; kill the whole group (pool workers
    too) if it outlives the deadline."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"{' '.join(cmd[:4])} ... timed out") from None
    return proc.returncode, out, err


def speed_scale(probes: list[tuple[float, float]]) -> float:
    """Probe loops per CPU second, averaged over the readings, relative to
    PROBE_NOMINAL_S: the speed of the core itself, whether or not other
    processes of the command compete for it."""
    return PROBE_NOMINAL_S * statistics.fmean(1 / cpu for _, cpu in probes)


def sample(argv: list[str], mode: str, deadline: float) -> tuple[dict, bytes]:
    """One fresh interpreter running sample.py; returns its record and stdout."""
    t0 = time.monotonic()
    rc, out, err = run_child([sys.executable, str(HERE / "sample.py"), str(SRC), mode, *argv], deadline)
    lines = [l for l in err.decode(errors="replace").splitlines() if l.startswith("perfbench-sample ")]
    if rc != 0 or not lines:
        raise SampleError(f"sample exited with {rc}: {err.decode(errors='replace')[-500:]}")
    record = json.loads(lines[-1].split(" ", 1)[1])
    record["setup_s"] = record["t_setup"] - t0
    record["scale"] = speed_scale(record["probe_s"])
    return record, out


def reference_output(workload: Workload, seed: int, deadline: float) -> bytes | None:
    """Decomposition output for a playback workload's strategy, made
    outside the timed samples."""
    if workload.method != "playback":
        return None
    argv = ["gf", "--strategy", workload.strategy_text(seed), "--format", "json"]
    record, out = sample(argv, "run", deadline)
    if record["rc"] != 0:
        raise SampleError(f"reference decomposition exited with {record['rc']}")
    return out


def check_sample(workload, record, out, reference, corrupt) -> list[str]:
    if corrupt:
        out = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
    problems = [] if record["rc"] == 0 else [f"command exited with {record['rc']}"]
    return problems + checks.check(workload, out, reference)


def measure(workload: Workload, seed: int, seconds: float, corrupt: bool = False) -> dict:
    """Untraced run: set-up-only spawns, then samples for `seconds`.  Each
    metric is a median over the run, times scaled by the sample's speed
    probe (README.md, "Noise")."""
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = workload.argv(seed)
    sample(argv, "setup", deadline)  # untimed: compiles the bytecode cache
    reference = reference_output(workload, seed, deadline)
    t_begin = time.monotonic()
    setups = []
    for _ in range(SETUP_SPAWNS):
        record, _ = sample(argv, "setup", deadline)
        setups.append(record["setup_s"] * record["scale"])
    records, attempted, failed, longest = [], 0, 0, 0.0
    while not records or time.monotonic() - t_begin + longest <= seconds:
        t0 = time.monotonic()
        attempted += 1
        try:
            record, out = sample(argv, "run", deadline)
        except SampleError as exc:
            print(f"sample {attempted}: FAILED: {exc}")
            failed += 1
            break
        problems = check_sample(workload, record, out, reference, corrupt)
        failed += bool(problems)
        records.append(record)
        longest = max(longest, time.monotonic() - t0)
        status = "ok" if not problems else "FAILED: " + "; ".join(problems[:5])
        print(
            f"sample {attempted}: setup_s={record['setup_s']:.4f} wall_s={record['wall_s']:.4f}"
            f" cpu_s={record['cpu_s']:.4f} peak_rss_mb={record['peak_rss_mb']:.1f}"
            f" (unscaled) scale={record['scale']:.3f} probes={len(record['probe_s'])} {status}"
        )
    metrics = {}
    if records:
        walls = [r["wall_s"] * r["scale"] for r in records]
        value, pct = traced.tail(walls)
        print(f"wall_s over {len(walls)} samples: median {statistics.median(walls):.4f} s, p{pct:.3g} {value:.4f} s")
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] * r["scale"] for r in records]),
            "wall_s": statistics.median(walls),
            "strategies_per_s": statistics.median([workload.strategies / w for w in walls]),
            "secrets_per_s": statistics.median([workload.secrets / w for w in walls]),
            "cpu_s": statistics.median([r["cpu_s"] * r["scale"] for r in records]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in records]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(workload: Workload, seed: int, is_smoke: bool) -> dict:
    """One untraced sample, then the traced run, for the tracing overhead."""
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = workload.argv(seed)
    sample(argv, "setup", deadline)
    reference = reference_output(workload, seed, deadline)
    record, out = sample(argv, "run", deadline)
    failed = bool(check_sample(workload, record, out, reference, False))
    spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    rc, stdout, err = run_child(
        [sys.executable, str(HERE / "traced.py"), str(SRC), workload.name, str(seed),
         "1" if is_smoke else "0", str(spans)],
        deadline,
    )
    if rc != 0:
        raise SampleError(f"traced run exited with {rc}: {err.decode(errors='replace')[-800:]}")
    result = json.loads(stdout.decode().splitlines()[-1])
    for problem in result["problems"]:
        print(f"traced run: FAILED: {problem}")
    failed += bool(result["problems"])
    values = result["metrics"]
    values["trace.overhead"] = (values["trace.wall_s"] * speed_scale(result["probe_s"])) / (
        record["wall_s"] * record["scale"]
    )
    print(f"spans written to {spans}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in traced.LAYER_METRICS}
    return {"correct": failed == 0, "attempted": 2, "failed": failed, "metrics": metrics}


def report(result: dict, moves: dict[str, str] | None = None) -> None:
    for name, m in result["metrics"].items():
        suffix = f"  -> {moves[name]}" if moves else ""
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']:<6s}{suffix}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'failed_frac':34s} {frac:>16.6g} {'ratio':<6s}  ({result['failed']}/{result['attempted']} samples)")


def run_one(workload: Workload, seed: int, seconds: float, trace: bool, is_smoke: bool = False) -> dict:
    print(f"workload {workload.name}: permwordle {' '.join(workload.argv(seed))}")
    print("machine " + json.dumps(machine(seed)))
    if trace:
        result = measure_traced(workload, seed, is_smoke)
        report(result, {name: moves for name, _, moves in traced.LAYER_METRICS})
    else:
        result = measure(workload, seed, seconds)
        report(result)
    return result


def smoke_test() -> int:
    """Tiny inputs: every metric is emitted with its unit, and a corrupted
    output is counted as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in map(smoke, WORKLOADS.values()):
        for trace in (0, 1):
            result = run_one(workload, 1, 0, bool(trace), is_smoke=True)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                errors.append(f"{workload.name} trace={trace}: metrics {units} != {expected[trace]}")
            if result["failed"]:
                errors.append(f"{workload.name} trace={trace}: {result['failed']} failed samples")
        corrupted = measure(workload, 1, 0, corrupt=True)
        if not corrupted["failed"] / corrupted["attempted"] > 0:
            errors.append(f"{workload.name}: a corrupted output was not counted as failed")
    for e in errors:
        print("smoke: " + e)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own self-test")
    args = parser.parse_args()
    if not (SRC / "permwordle" / "cli.py").is_file():
        print(f"no permwordle source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke_test()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_one(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"machine": machine(args.seed), "args": vars(args), "result": result}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
