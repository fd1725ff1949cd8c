"""The five CLI invocations the benchmark times.

Each workload is one ``python -m fvaudit ...`` child.  The seed reaches the
program as ``--set seed=<seed>``; it drives the sampling audits (E-flux
sampling, nondegeneracy directions) and nothing else, so every seed gives
the same mesh, the same steps and the same verdicts.  ``mesh-info`` takes
no config, so ``mesh_2d`` is the same input for every seed.  Why each
workload exists is written in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    args: tuple[str, ...]
    takes_config: bool = True   # False for mesh-info: no --set/--out

    def argv(self, seed: int, out_dir: str) -> list[str]:
        """Arguments after ``python -m fvaudit``."""
        argv = [self.subcommand, *self.args]
        if self.takes_config:
            argv += ["--set", f"seed={seed}", "--out", out_dir]
        return argv

    def overrides(self, seed: int) -> list[str]:
        """The ``key=value`` config pairs the CLI parses for this workload."""
        if not self.takes_config:
            return []
        pairs = [a for a in self.args if "=" in a and not a.startswith("-")]
        return pairs + [f"seed={seed}"]


def _sets(*pairs: str) -> tuple[str, ...]:
    return tuple(a for p in pairs for a in ("--set", p))


WORKLOADS = {w.name: w for w in (
    Workload("study_1d", "converge",
             _sets("problem=smooth_sine", "levels=5")),
    Workload("tri_2d", "entropy-audit",
             _sets("problem=rotated_shock_2d", "base_n=48", "levels=1")),
    Workload("kinetic_1d", "kinetic-audit",
             _sets("problem=expansion_shock", "base_n=50", "t_final=0.4",
                   "levels=4")),
    Workload("bl_1d", "run",
             _sets("problem=buckley_leverett_step", "base_n=100",
                   "audits=max_principle,tv")),
    Workload("mesh_2d", "mesh-info", ("square:128", "--periodic"),
             takes_config=False),
)}
