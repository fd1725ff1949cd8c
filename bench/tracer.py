"""Run one fvaudit CLI invocation with spans around its layers.

Usage::

    python bench/tracer.py SPANS.json -- <fvaudit arguments>

The program is not edited.  Before ``fvaudit.cli.main`` runs, every public
function of the traced layer modules is wrapped at every place its name is
bound in any loaded ``fvaudit`` module (``fvaudit.harness.run`` and
``fvaudit.scheme.run`` are separate bindings of one function, and so are
``fvaudit.entropy.numerical_flux`` and ``fvaudit.scheme.numerical_flux``).
The problem registry's mesh lambdas look their builders up in the
``fvaudit.harness`` globals at call time, so rebinding those globals traces
them too.  The flux oracles are methods, so they are patched on
``FluxModel`` itself.

Spans stay in memory as ``[name, start, end, parent, work]`` and are written
to SPANS.json when the run ends, with the layer counters and the exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

import numpy as np

LAYERS = ("mesh", "physics", "scheme", "entropy", "kinetic", "harness")


# Spans are stored in preallocated chunks of this many slots.  A chunk's
# 32 MB pointer array is at glibc's largest mmap threshold, so it is always
# mmapped.  A list grown one append at a time sits on the malloc heap, keeps
# glibc from trimming it and removes most of the page faults the untraced
# program takes (1.0M down to 12k on study_1d).  Even with chunks the traced
# child's faults depend on heap layout (1.0M or 1.4M there), which is why
# the process metrics come from untraced children only.
CHUNK = 1 << 22


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.chunks: list[list] = [[None] * CHUNK]
        self.count = 0
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def span(self, i: int) -> list:
        return self.chunks[i // CHUNK][i % CHUNK]

    def spans(self) -> list[list]:
        return [self.span(i) for i in range(self.count)]

    def add(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def in_layer(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.names[self.span(i)[0]].startswith(prefix)
                   for i in self.stack)

    def wrap(self, name: str, fn, work=None, around=None):
        """Return ``fn`` wrapped in a span.

        ``work(args, kwargs, result)`` gives the span's work count and
        ``around`` is a context factory for layer counters; both run
        outside the span's clock readings.
        """
        name_id = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook = around(self) if around is not None else None
            if hook is not None:
                hook.__enter__()
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, 0]
            i = self.count
            if i and not i % CHUNK:
                self.chunks.append([None] * CHUNK)
            self.chunks[-1][i % CHUNK] = rec
            self.count = i + 1
            stack.append(i)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if hook is not None:
                    hook.__exit__(None, None, None)
            if work is not None:
                rec[4] = work(args, kwargs, out)
            return out

        return traced

    def dump(self, path: str, exit_code: int):
        with open(path, "w") as fh:
            json.dump({"exit_code": exit_code, "names": self.names,
                       "spans": self.spans(), "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# work counts, computed from public data only

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _mesh_cells(args, kwargs, out):
    return int(out.n_cells)


def _pair_states(args, kwargs, out):
    # (self, a, b, n, ...): one state pair per broadcast element of a and b
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _split_states(args, kwargs, out):
    # (self, u, n)
    return int(np.asarray(args[1]).size)


def _step_cells(args, kwargs, out):
    return int(_arg(args, kwargs, 0, "field").mesh.n_cells)


def _entropy_pairs(tracer):
    """Work count of ``entropy_residuals``: (face, k) pairs, plus the pairs
    whose k lies strictly inside the face's two-state hull."""
    def work(args, kwargs, out):
        before = _arg(args, kwargs, 0, "before")
        config = _arg(args, kwargs, 4, "config")
        k = np.sort(np.atleast_1d(np.asarray(_arg(args, kwargs, 5, "k"),
                                             dtype=float)))
        mesh = before.mesh
        pairs = int(mesh.n_faces) * k.size
        if config.reconstruction == "constant":
            # face states of a constant reconstruction: the two cell means,
            # with outflow ghosts copying the inside value
            u = before.values
            left, right = mesh.face_left, mesh.face_right
            a = u[left]
            b = np.where(right >= 0, u[np.maximum(right, 0)], a)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            inside = (np.searchsorted(k, hi, "left")
                      - np.searchsorted(k, lo, "right"))
            tracer.add("entropy.hull_pairs", int(np.maximum(inside, 0).sum()))
            tracer.add("entropy.hull_counted_pairs", pairs)
        return pairs
    return work


def _residual_bytes(tracer):
    """steps x cells x n_v x 8: the float64 residual ``kinetic_residual``
    materializes; the largest one sets the audit's memory peak."""
    def work(args, kwargs, out):
        traj = _arg(args, kwargs, 0, "traj")
        n_bytes = (len(traj) - 1) * traj.mesh.n_cells * out.grid.n * 8
        prev = tracer.counters.get("kinetic.residual_bytes", 0)
        tracer.counters["kinetic.residual_bytes"] = max(prev, n_bytes)
        return n_bytes
    return work


class _RssGrowth:
    """Adds the growth of the peak RSS over the outermost kinetic span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.outer = not tracer.in_layer("kinetic.")

    def __enter__(self):
        if self.outer:
            self.before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def __exit__(self, *exc):
        if self.outer:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.tracer.add("kinetic.rss_growth_kb", after - self.before)


# ---------------------------------------------------------------------------
# installation

def install(tracer: Tracer):
    """Wrap the traced layers' public functions and the flux oracles."""
    import fvaudit.cli  # noqa: F401  (loads every module the CLI binds)
    from fvaudit.physics import FluxModel

    modules = {name: sys.modules[f"fvaudit.{name}"] for name in LAYERS}
    special = {
        "entropy.entropy_residuals": dict(work=_entropy_pairs(tracer)),
        "kinetic.kinetic_residual": dict(work=_residual_bytes(tracer)),
        "scheme.step": dict(work=_step_cells),
    }
    wrappers = {}
    for layer, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            opts = dict(special.get(name, {}))
            if layer == "mesh" and attr != "regularity":
                opts["work"] = _mesh_cells
            if layer == "kinetic":
                opts["around"] = _RssGrowth
            wrappers[id(fn)] = tracer.wrap(name, fn, **opts)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fvaudit"
                               or mod_name.startswith("fvaudit.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapped = wrappers.get(id(value))
            if wrapped is not None:
                setattr(mod, attr, wrapped)

    for attr, work in (("interval_extremum", _pair_states),
                       ("max_wave_speed", _pair_states),
                       ("split_fluxes", _split_states)):
        setattr(FluxModel, attr, tracer.wrap(
            f"physics.{attr}", getattr(FluxModel, attr), work=work))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <fvaudit arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from fvaudit.cli import main as cli_main
    code = 1
    try:
        code = cli_main(cli_args)
    finally:
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
