"""The three benchmark workloads: one `hrru` CLI invocation shape each.

Sizes follow two rules. Replication counts are multiples of the
engine's default chunk of 4096 reps that give every worker at least two
chunks, so no config needs `plan.chunk_size`. Horizons are short enough
that one invocation takes a few seconds, so a run can take the median
of several invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

CHUNK = 4096

REFERENCE_URN = {
    "a": 10, "b": 10,
    "draw": {"policy": "iid-uniform", "high": 4},
    "reinforce": {"policy": "uniform-range", "low": 1, "high": 3},
}

SHARED_FACTOR_URNS = [
    {"label": "A", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1},
    {"label": "B", "a": 10, "b": 10, "draw_base": 2, "reinforce_base": 1},
]
SHARED_FACTOR_FACTORS = {"reinforce": {"values": [0, 1, 2], "probs": [1 / 3, 1 / 3, 1 / 3]}}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # the CLI subcommand
    workers: int             # requested --workers, clamped to nproc at run time
    n: int                   # evaluation horizon (the step count for simulate)
    reps: int = 1
    n_proxy: int | None = None
    system: bool = False
    table: str | None = None  # table the invocation writes, if any

    @property
    def urns(self) -> int:
        return len(SHARED_FACTOR_URNS) if self.system else 1

    @property
    def steps(self) -> int:
        """Simulated urn-steps: reps x proxy horizon x urns, or n for simulate."""
        if self.kind == "simulate":
            return self.n
        return self.reps * self.n_proxy * self.urns

    def config(self, seed: int) -> dict:
        plan = {"n": self.n, "seed": seed}
        if self.kind != "simulate":
            plan.update(reps=self.reps, n_proxy=self.n_proxy)
        cfg = {"kind": self.kind, "plan": plan}
        if self.system:
            cfg.update(urns=SHARED_FACTOR_URNS, factors=SHARED_FACTOR_FACTORS,
                       level=0.05, target="A", reference=["B"])
        else:
            cfg["urn"] = REFERENCE_URN
        return cfg

    def config_text(self, seed: int) -> str:
        return json.dumps(self.config(seed), indent=2) + "\n"

    def facts(self, workers: int) -> dict:
        return {"kind": self.kind, "reps": self.reps, "n": self.n,
                "n_proxy": self.n_proxy, "urns": self.urns, "workers": workers,
                "steps": self.steps}

    def tiny(self) -> "Workload":
        """A seconds-long shape of the same workload, for the self-test."""
        if self.kind == "simulate":
            return replace(self, n=2000)
        return replace(self, reps=2 * self.workers * 64, n=20, n_proxy=200)


WORKLOADS = {
    w.name: w
    for w in (
        # Single-core engine at stride 4 with both policy rows; rng-heavy.
        Workload("clt-reference", "clt", workers=1, reps=2 * CHUNK, n=200,
                 n_proxy=2000, table="samples.tsv"),
        # System branch (per-urn Python loop, searchsorted factor) through the
        # process pool; writes no table.
        Workload("mtest-shared-factor", "mtest", workers=2, reps=4 * CHUNK, n=200,
                 n_proxy=2000, system=True),
        # Scalar urn_core path plus one large table; bypasses engine and pool.
        Workload("simulate-trajectory", "simulate", workers=1, n=50_000,
                 table="trajectory.tsv"),
    )
}
