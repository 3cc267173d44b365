"""The benchmark's workloads: fixed grid shapes run through the sparsemimo CLI.

Each workload is the flag set a user would pass to ``sparsemimo``; the
benchmark's ``--seed`` becomes the master ``--seed``, so the same seed gives
the same channels, training and noise. Why each one exists, and which layer
metrics should move its end-to-end numbers, is written in BENCHMARK.json.
"""
from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    runs: int
    workers: int
    nt: int = 2
    nr: int = 2
    length: int = 16
    k: tuple[int, ...] = (1, 4)
    snr_db: tuple[float, ...] = (5.0, 10.0, 15.0)
    mu: tuple[float, ...] = (0.5, 1.0)
    algorithms: tuple[str, ...] = ("nlms", "lp_nlms", "l0_nlms")
    iterations: int = 2000
    generator: str = "gaussian"
    fading_period: int | None = None

    def flags(self) -> list[str]:
        """Every grid flag, spelled out even where it equals the CLI default."""
        flags = [
            "--nt", str(self.nt), "--nr", str(self.nr), "--length", str(self.length),
            "--k", ",".join(map(str, self.k)),
            "--snr-db", ",".join(map(repr, self.snr_db)),
            "--mu", ",".join(map(repr, self.mu)),
            "--algorithms", ",".join(self.algorithms),
            "--runs", str(self.runs), "--iterations", str(self.iterations),
            "--generator", self.generator,
        ]
        if self.fading_period is not None:
            flags += ["--fading-period", str(self.fading_period)]
        return flags

    def argv(self, seed: int, out, workers: int | None = None) -> list[str]:
        return self.flags() + [
            "--seed", str(seed), "--out", str(out),
            "--workers", str(self.workers if workers is None else workers),
        ]

    def cells(self) -> list[tuple]:
        """Cell keys as the CSV spells them: (algorithm, snr_db, mu, k, nt, nr)."""
        return [(a, s, m, k, self.nt, self.nr)
                for a in self.algorithms for s in self.snr_db for m in self.mu for k in self.k]

    def nominal_updates(self) -> int:
        """Row updates the grid asks for: cells x runs x (iterations - 1) x nr."""
        return len(self.cells()) * self.runs * (self.iterations - 1) * self.nr


WORKLOADS = {
    w.name: w
    for w in (
        # The README reference grid (ExperimentConfig defaults), one run per
        # cell so a pass fits the run length several times over.
        Workload("reference_grid", runs=1, workers=1),
        Workload(
            "fading_bpsk", runs=2, workers=1, nt=4, nr=4, k=(4,), snr_db=(10.0,),
            mu=(0.5,), algorithms=("nlms",), generator="bpsk", fading_period=20,
        ),
        # Not in BENCHMARK.json: two workers on a 2-vCPU host time the
        # scheduler more than the program (README). Run it by hand.
        Workload(
            "short_runs_pool", runs=16, workers=2, snr_db=(10.0,), mu=(1.0,),
            algorithms=("lms", "nlms", "l0_nlms"), iterations=500,
        ),
    )
}

DEFAULT_SEED = 1
