"""The four benchmark workloads and the seeded inputs they receive.

Each workload is one permwordle CLI command.  Every command passes
``--jobs`` explicitly where the CLI accepts it, because the CLI default is
the machine's core count and leaving it out would silently make a scan
parallel.  The scans sweep whole families, so the seed does not change
their input; the two ``gf-*`` workloads receive a cyclic strategy drawn
from the seed, and the command sees only the strategy text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import factorial, prod


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "scan" or "gf"
    n: int
    kind: str = "cyclic"  # strategy family of a scan, or of the seeded gf strategy
    jobs: int | None = None  # scans only; gf has no --jobs flag
    method: str = "decomposition"  # gf only

    @property
    def is_scan(self) -> bool:
        return self.command == "scan"

    @property
    def strategies(self) -> int:
        """Strategies whose generating function one command computes."""
        if not self.is_scan:
            return 1
        if self.kind == "inductive":
            return factorial(self.n - 1)
        return prod(factorial(i - 1) for i in range(3, self.n + 1))

    @property
    def secrets(self) -> int:
        """Secrets covered by one command: n! per strategy."""
        return self.strategies * factorial(self.n)

    def strategy_text(self, seed: int) -> str | None:
        return None if self.is_scan else seeded_cyclic_strategy(seed, self.n)

    def argv(self, seed: int) -> list[str]:
        """CLI arguments, without the program name."""
        if self.is_scan:
            return [
                "scan", "--n", str(self.n), "--class", self.kind,
                "--jobs", str(self.jobs), "--format", "csv",
            ]
        argv = ["gf", "--strategy", self.strategy_text(seed), "--format", "json"]
        if self.method != "decomposition":
            argv[3:3] = ["--method", self.method]
        return argv


# Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("inductive-scan", "scan", 7, "inductive", jobs=1),
        Workload("cyclic-scan", "scan", 6, "cyclic", jobs=2),
        Workload("gf-decomp", "gf", 9),
        Workload("gf-playback", "gf", 8, method="playback"),
    )
}

# Tiny sizes for the benchmark's own tests: same commands, seconds not minutes.
SMOKE_N = {"inductive-scan": 5, "cyclic-scan": 5, "gf-decomp": 6, "gf-playback": 6}


def smoke(workload: Workload) -> Workload:
    return replace(workload, n=SMOKE_N[workload.name])


def _random_cycle(rng: random.Random, k: int) -> tuple[int, ...]:
    """A uniformly random k-cycle in one-line notation."""
    order = [1] + rng.sample(range(2, k + 1), k - 1)
    image = [0] * k
    for i, v in enumerate(order):
        image[v - 1] = order[(i + 1) % k]
    return tuple(image)


def seeded_cyclic_strategy(seed: int, n: int) -> str:
    """Text of a cyclic strategy of length n drawn from the seed:
    s_1 = 1 and s_2 = 2,1 are forced, each s_k for k >= 3 is a random k-cycle."""
    rng = random.Random(seed)
    comps = [(1,), (2, 1)] + [_random_cycle(rng, k) for k in range(3, n + 1)]
    return ";".join(",".join(map(str, c)) for c in comps[:n])
