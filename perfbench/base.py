"""The workload protocol shared by every perfbench workload."""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from common import WINDOWS, Latencies, RssPeak, median
from oracle import Mismatches
from tracer import Tracer


@dataclass
class Context:
    """What a workload gets from the command line."""

    root: str
    seed: int
    small: bool
    work_dir: str


@dataclass
class Phase:
    """The outcome of one measured phase."""

    verdicts: int
    elapsed: float
    latencies: Latencies
    attempted: int
    failed: int = 0
    #: Per-layer values read from the program's own counters.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific end-to-end figures (``tcp_verdicts_per_s``, ``swap_s``).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Rows per call, when the phase is one continuous closed loop: the
    #: throughput is then the median over ``WINDOWS`` equal-time windows.
    rows_per_call: Optional[int] = None

    @property
    def verdicts_per_s(self) -> float:
        if self.rows_per_call is not None:
            rates = self.latencies.window_rates(WINDOWS, self.rows_per_call)
            if rates:
                return median(rates)
        return self.verdicts / self.elapsed if self.elapsed > 0 else 0.0


class Workload:
    """One named workload.

    ``prepare`` builds the seeded inputs and the oracle (untimed);
    ``setup_once`` performs and times one complete set-up, tearing down
    what it built unless the measured phase reuses it; ``measure`` runs
    the measured phase for ``seconds`` and checks every answer against
    the oracle; ``kernel_line`` times the oracle and ``monitor.check``
    on the workload's exact rows.
    """

    name = ""
    #: Timed set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 7

    def __init__(self, ctx: Context, checks: Mismatches):
        self.ctx = ctx
        self.checks = checks
        self.rng = np.random.default_rng(ctx.seed)
        self.rss = RssPeak()
        self.info: Dict[str, object] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def setup_once(self, tracer: Optional[Tracer]) -> float:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def kernel_line(self) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.ctx.work_dir, ignore_errors=True)
