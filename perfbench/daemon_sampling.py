"""CPU sampling inside the daemon and its worker processes.

Run as a script, this starts ``repro serve`` with a :class:`Sampler` in the
daemon and in every worker process the daemon forks::

    python3 perfbench/daemon_sampling.py SAMPLE_DIR serve --port 0

Sampling is gated by the file ``SAMPLE_DIR/on``. While it exists, each
process charges its threads' CPU time to layers and keeps
``SAMPLE_DIR/layers-<pid>.json`` up to date; when it goes away, each
process writes its final figures with ``"on": false``.
:class:`DaemonSampling` is the benchmark's side of that exchange.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import LAYERS, SRC, Sampler  # noqa: E402

INTERVAL = 0.005
#: while sampling, each process rewrites its figures this often (s).
WRITE_EVERY = 0.2


def _write(path: Path, sampler: Sampler, on: bool) -> None:
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps({"on": on, "seconds": sampler.seconds}))
    os.replace(partial, path)


def start_sampling(directory: Path) -> None:
    """Sample this process whenever ``directory/on`` exists."""
    # Made in the calling thread, which a forked child's sampler must
    # know as the child's main thread.
    sampler = Sampler(INTERVAL)
    flag = directory / "on"
    out = directory / f"layers-{os.getpid()}.json"

    def loop() -> None:
        on = False
        written = 0.0
        while True:
            time.sleep(INTERVAL)
            now_on = flag.exists()
            if now_on:
                sampler.tick(charge=on)
            if on and (not now_on
                       or time.monotonic() - written >= WRITE_EVERY):
                _write(out, sampler, now_on)
                written = time.monotonic()
            on = now_on

    threading.Thread(target=loop, daemon=True,
                     name="perfbench-sampler").start()


class DaemonSampling:
    """Turns sampling in the daemon's processes on and off; sums the result."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def start(self) -> None:
        (self.directory / "on").touch()

    def stop(self, timeout: float = 5.0) -> Dict[str, float]:
        """Stop sampling; CPU seconds per layer over every process."""
        (self.directory / "on").unlink()
        deadline = time.monotonic() + timeout
        while True:
            reports = [json.loads(path.read_text())
                       for path in self.directory.glob("layers-*.json")]
            if (all(not report["on"] for report in reports)
                    or time.monotonic() > deadline):
                break
            time.sleep(0.05)
        return {layer: sum(report["seconds"][layer] for report in reports)
                for layer in LAYERS}


def main(argv) -> int:
    directory = Path(argv[0])
    start_sampling(directory)
    os.register_at_fork(after_in_child=lambda: start_sampling(directory))
    sys.path.insert(0, str(SRC))
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
