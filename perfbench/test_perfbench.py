"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import traced  # noqa: E402
from workloads import WORKLOADS, seeded_cyclic_strategy  # noqa: E402


def test_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in traced.LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seeded_strategy_is_deterministic_and_cyclic():
    from permwordle import strategies

    assert seeded_cyclic_strategy(5, 9) == seeded_cyclic_strategy(5, 9)
    assert seeded_cyclic_strategy(5, 9) != seeded_cyclic_strategy(6, 9)
    strategy = strategies.parse_strategy(seeded_cyclic_strategy(5, 9))
    assert strategy.n == 9 and strategy.kind == "cyclic"


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert traced.tail(values) == (89, 90.0)
    assert traced.tail(values[:10]) == (9, 100.0)
