"""``paper_artifacts``: regenerate all seven paper experiments, in a loop.

Each pass runs every experiment of the registry at paper size with
tracing off, in a seed-permuted order, and checks each rendered report
against the digest of this commit's output (``digests.json``). The
digests do not depend on the seed: the order must not change a report.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path
from typing import Any, Dict

from common import OpLog, checked
from workloads.fabric_probe import FabricProbe

DIGESTS = Path(__file__).resolve().parents[1] / "digests.json"
ORDERS = 32


def generate(seed: int) -> Dict[str, Any]:
    """The pass orders (a list of experiment-name permutations)."""
    from repro.experiments.registry import PAPER_ORDER

    rng = random.Random(seed)
    orders = []
    for _ in range(ORDERS):
        order = list(PAPER_ORDER)
        rng.shuffle(order)
        orders.append(order)
    return {"orders": orders,
            "digests": json.loads(DIGESTS.read_text())}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = "paper_artifacts"

    def __init__(self, inputs: Dict[str, Any], workdir: Path,
                 traced: bool = False) -> None:
        from repro.experiments.registry import run_experiment

        self.inputs = inputs
        self.run_experiment = run_experiment
        self.passes = 0

    def run_pass(self, log: OpLog, probe: FabricProbe) -> None:
        order = self.inputs["orders"][self.passes % ORDERS]
        expected = self.inputs["digests"]
        self.passes += 1
        elapsed = 0.0
        parts = []
        for index, name in enumerate(order):
            if index:
                # A pass takes seconds: time the reference loop again
                # between experiments, outside the pass time.
                log.calibrate()
            start = time.perf_counter()
            checked(log, name, lambda name=name: self.run_experiment(name),
                    lambda report, name=name: digest(report) == expected[name],
                    timed=False)
            seconds = time.perf_counter() - start
            elapsed += seconds
            parts.append(log.stretch(seconds))
        log.add_pass(elapsed, work=probe.end_pass(), parts=parts)
        # The pass is the op a user waits for; its parts are too unlike
        # one another to share one latency distribution.
        log.add_latency(elapsed, parts=parts)

    def close(self) -> None:
        pass


def write_digests() -> Dict[str, str]:
    """This commit's report digests (run once; stored in digests.json)."""
    from repro.experiments.registry import PAPER_ORDER, run_experiment

    return {name: digest(run_experiment(name)) for name in PAPER_ORDER}

