"""Per-layer metrics from the spans one traced run wrote.

A group's inclusive time sums the spans of its functions that have no
ancestor in the same group, so nested calls are not counted twice; its self
time sums each span's duration minus the time its direct children cover.
Every time metric is reported both ways: ``<name>_s`` inclusive and
``<name>_self_s`` self.
"""

from __future__ import annotations

MESH_BUILD = ("mesh.uniform_interval_mesh", "mesh.triangulated_rectangle",
              "mesh.build_mesh", "mesh.load_mesh", "mesh.refine",
              "mesh.sliver_triangle_mesh")
ORACLES = ("physics.interval_extremum", "physics.max_wave_speed",
           "physics.split_fluxes")

# metric stem -> traced functions whose time it sums
TIME_GROUPS = {
    "mesh.build": MESH_BUILD,
    "mesh.regularity": ("mesh.regularity",),
    "physics.extremum": ("physics.interval_extremum",),
    "physics.speed": ("physics.max_wave_speed",),
    "physics.split": ("physics.split_fluxes",),
    "scheme.step": ("scheme.step",),
    "scheme.cfl": ("scheme.max_stable_dt",),
    "scheme.twin": ("scheme.twin_run",),
    "entropy.audit": ("entropy.run_entropy_audit",),
    "entropy.residual": ("entropy.entropy_residuals",),
    "entropy.eflux": ("entropy.check_e_flux",),
    "kinetic.residual": ("kinetic.kinetic_residual",),
    "kinetic.defect": ("kinetic.defect_measure",),
    "kinetic.nondegeneracy": ("kinetic.nondegeneracy",),
    "harness.audit": ("harness.run_audits",),
    "harness.l1": ("harness.l1_error",),
    "harness.report": ("harness.write_study_report",),
}

# metrics that are not plain times, with their units
COUNTS = {"mesh.cells": "count", "mesh.us_per_cell": "us",
          "physics.oracle_calls": "count", "physics.oracle_states": "count",
          "physics.ns_per_state": "ns",
          "scheme.steps": "count", "scheme.cell_steps": "count",
          "scheme.us_per_cell_step": "us",
          "entropy.face_k_pairs": "count", "entropy.ns_per_face_k": "ns",
          "entropy.hull_frac": "fraction",
          "kinetic.residual_bytes": "B", "kinetic.rss_growth_mb": "MB",
          "cli.unaccounted_s": "s"}


def metric_names() -> list[str]:
    """Every per-layer metric one traced run yields, in report order."""
    names = []
    for stem in TIME_GROUPS:
        names += [f"{stem}_s", f"{stem}_self_s"]
    return names + list(COUNTS)


def unit(name: str) -> str:
    return COUNTS.get(name, "s")


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(dump: dict, traced_wall_s: float, setup_s: float) -> dict:
    names = dump["names"]
    spans = dump["spans"]
    counters = dump["counters"]
    span_name = [names[s[0]] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(span_name):
        by_name.setdefault(name, []).append(i)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    def outermost(i: int, group: frozenset) -> bool:
        p = spans[i][3]
        while p >= 0:
            if span_name[p] in group:
                return False
            p = spans[p][3]
        return True

    def sums(group) -> tuple[float, float, float, int]:
        """(inclusive s, self s, outermost work, calls) of a function set."""
        group = frozenset(group)
        members = [i for name in group for i in by_name.get(name, ())]
        outer = [i for i in members if outermost(i, group)]
        return (sum(dur[i] for i in outer),
                sum(dur[i] - child[i] for i in members),
                sum(spans[i][4] for i in outer), len(members))

    out = {}
    for stem, group in TIME_GROUPS.items():
        incl, self_t, _, _ = sums(group)
        out[f"{stem}_s"] = incl
        out[f"{stem}_self_s"] = self_t

    build_s, _, cells, _ = sums(MESH_BUILD)
    out["mesh.cells"] = cells
    out["mesh.us_per_cell"] = _ratio(build_s, cells, 1e6)

    _, oracle_self, states, calls = sums(ORACLES)
    out["physics.oracle_calls"] = calls
    out["physics.oracle_states"] = states
    out["physics.ns_per_state"] = _ratio(oracle_self, states, 1e9)

    step_s, _, cell_steps, steps = sums(("scheme.step",))
    out["scheme.steps"] = steps
    out["scheme.cell_steps"] = cell_steps
    out["scheme.us_per_cell_step"] = _ratio(step_s, cell_steps, 1e6)

    residual_s, _, pairs, _ = sums(("entropy.entropy_residuals",))
    out["entropy.face_k_pairs"] = pairs
    out["entropy.ns_per_face_k"] = _ratio(residual_s, pairs, 1e9)
    out["entropy.hull_frac"] = _ratio(
        counters.get("entropy.hull_pairs", 0),
        counters.get("entropy.hull_counted_pairs", 0), 1.0)

    out["kinetic.residual_bytes"] = counters.get("kinetic.residual_bytes", 0)
    out["kinetic.rss_growth_mb"] = counters.get("kinetic.rss_growth_kb", 0) / 1024

    top = sum(d for s, d in zip(spans, dur) if s[3] < 0)
    out["cli.unaccounted_s"] = traced_wall_s - setup_s - top
    return out
