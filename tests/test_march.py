"""The stacked march against the per-field march it replaced.

``parent_march`` is the march as it was before a step of k fields became
one stacked update: every field reached and face record, every error
type and message, must be the same bit for bit, for one field and for two,
and for each group of a march of several groups.
"""

import numpy as np
import pytest

import parent_march
from fvaudit import scheme
from fvaudit.harness import PROBLEMS
from fvaudit.physics import FluxModel
from fvaudit.scheme import CellField, SchemeConfig, _alone, _march

RULES = [("godunov", "local"), ("engquist_osher", "local"),
         ("lax_friedrichs", "local"), ("lax_friedrichs", "global"),
         ("central", "local")]
# (problem, cells or triangles per side, t_final): 1-D periodic, 1-D
# outflow with the nonconvex flux, and a small 2-D triangle mesh
CASES = [("smooth_sine", 24, 0.2), ("buckley_leverett_step", 24, 0.1),
         ("rotated_shock_2d", 4, 0.1)]


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def twin_of(field):
    """``field`` and a copy bumped in the middle of the domain, as the
    contraction audit marches them."""
    mesh = field.mesh
    center = float(mesh.vertices[:, 0].mean())
    bump = scheme.cell_averages(
        mesh, lambda x: 0.1 * np.exp(-((x[:, 0] - center) / 0.1) ** 2))
    return field, CellField(mesh, field.values + bump, field.t)


def setup(problem, n, k, scale=1.0):
    spec = PROBLEMS[problem]
    mesh = spec.mesh_fn(n)
    field = CellField(mesh, scale * spec.initial_fn(mesh), 0.0)
    return spec.flux_fn(), (field,) if k == 1 else twin_of(field)


def step_bits(after, faces):
    """A step's fields and face records as bytes."""
    assert len(after) == len(faces)
    assert all(len(rec) == 4 for rec in faces)
    return ([(bits(f.values), f.t) for f in after],
            [[None if x is None else bits(x) for x in rec] for rec in faces])


def outcome(march):
    """Every yielded step's fields and face records as bytes, then the error
    the march ended with."""
    steps = []
    try:
        for after, faces in march:
            steps.append(step_bits(after, faces))
    except Exception as exc:          # compared below, type and message
        return steps, (type(exc), str(exc))
    return steps, None


def parent_outcome(fields, flux, cfg, t_final):
    # the parent also yields each step's fields before it, and its dt,
    # which the fields' times pin
    return outcome((after, faces) for _, after, _, faces
                   in parent_march._march(fields, flux, cfg, t_final))


def assert_same_outcome(got, want):
    assert len(got[0]) == len(want[0])
    for n, (g, w) in enumerate(zip(got[0], want[0])):
        assert g == w, f"step {n} differs"
    assert got[1] == want[1]


def assert_same_march(fields, flux, cfg, t_final):
    got = outcome(_alone(_march([fields], flux, cfg, t_final)))
    assert_same_outcome(got, parent_outcome(fields, flux, cfg, t_final))
    return got


def assert_same_groups(groups, flux, cfg, t_final):
    """Each group of one march against its fields marched alone by the
    parent: per group its steps and the error that ended it.  A group
    yields None from the step after it ends, and only then."""
    got = [([], None) for _ in groups]
    ended = [False] * len(groups)
    for entries in _march(groups, flux, cfg, t_final):
        assert len(entries) == len(groups) and not all(ended)
        for i, entry in enumerate(entries):
            assert entry is None or not ended[i]
            if entry is None:
                ended[i] = True
            elif isinstance(entry, Exception):
                got[i], ended[i] = (got[i][0], (type(entry), str(entry))), True
            else:
                got[i][0].append(step_bits(*entry))
    for g, group in zip(got, groups):
        assert_same_outcome(g, parent_outcome(group, flux, cfg, t_final))
    return got


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("problem,n,t_final", CASES,
                         ids=[c[0] for c in CASES])
@pytest.mark.parametrize("rule,mode", RULES, ids=[f"{r}-{m}" for r, m in RULES])
def test_stacked_march_matches_the_per_field_march(rule, mode, problem, n,
                                                   t_final, k):
    flux, fields = setup(problem, n, k)
    for reconstruction in ("constant", "limited_linear"):
        for integrator in ("euler", "ssp_rk2"):
            cfg = SchemeConfig(flux_rule=rule, lf_dissipation_mode=mode,
                               reconstruction=reconstruction,
                               time_integrator=integrator)
            steps, error = assert_same_march(fields, flux, cfg, t_final)
            assert len(steps) >= 3 and error is None


@pytest.mark.parametrize("k", [1, 2])
def test_blow_up_is_the_same_numerical_error(k):
    # data near the largest float overflows the flux in the first step
    flux, fields = setup("smooth_sine", 8, k, scale=1e200)
    steps, error = assert_same_march(fields, flux, SchemeConfig(), 0.3)
    assert steps == []
    assert error == (scheme.NumericalError,
                     "non-finite cell values in the step from t=0.0")


@pytest.mark.parametrize("k", [1, 2])
def test_spent_step_budget_is_the_same_numerical_error(k, monkeypatch):
    # the undissipated rule's values grow on the shock, its steps shrink,
    # and the march needs more steps than its first one foretold
    for module in (scheme, parent_march):
        monkeypatch.setattr(module, "_BUDGET_FACTOR", 1)
    flux, fields = setup("riemann_shock", 60, k)
    steps, error = assert_same_march(fields, flux,
                                     SchemeConfig(flux_rule="central"), 0.4)
    assert error[0] is scheme.NumericalError
    assert error[1].startswith(f"step budget of {len(steps)} steps spent")


@pytest.mark.parametrize("k", [1, 2])
def test_march_past_the_step_cap_is_the_same_refusal(k):
    flux, fields = setup("smooth_sine", 8, k)
    steps, error = assert_same_march(fields, flux, SchemeConfig(), 1e300)
    assert steps == [] and error[0] is scheme.StepCapError


def test_twin_step_calls_the_godunov_oracle_once(monkeypatch):
    calls = []
    oracle = FluxModel.interval_extremum

    def counted(self, a, b, n):
        calls.append(np.shape(a))
        return oracle(self, a, b, n)

    monkeypatch.setattr(FluxModel, "interval_extremum", counted)
    flux, fields = setup("smooth_sine", 24, 2)
    next(_march([fields], flux, SchemeConfig(), 0.2))
    # one call over the faces of both fields
    assert [int(np.prod(c)) for c in calls] == [2 * fields[0].mesh.n_faces]


def test_limited_march_fits_its_least_squares_once(monkeypatch):
    # the gradient fit's pseudo-inverse depends on the mesh alone
    calls = []
    pinv = np.linalg.pinv

    def counted(a):
        calls.append(a.shape)
        return pinv(a)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    flux, fields = setup("rotated_shock_2d", 4, 2)
    cfg = SchemeConfig(reconstruction="limited_linear", time_integrator="ssp_rk2")
    assert len(list(_march([fields], flux, cfg, 0.1))) >= 3
    assert calls == [(fields[0].mesh.n_cells, 2, 2)]


# ---------------------------------------------------------------------------
# several groups in one stack: each takes its own steps, as if alone


def groups_of(problem, n, scale=1.0):
    """A field alone, then its contraction twin pair, as a level marches
    them; ``scale`` scales the lone field's data only."""
    flux, (field,) = setup(problem, n, 1)
    alone = CellField(field.mesh, scale * field.values, field.t)
    return flux, [(alone,), twin_of(field)]


@pytest.mark.parametrize("problem,n,t_final", CASES,
                         ids=[c[0] for c in CASES])
@pytest.mark.parametrize("rule,mode", RULES, ids=[f"{r}-{m}" for r, m in RULES])
def test_grouped_march_matches_each_group_marched_alone(rule, mode, problem,
                                                        n, t_final):
    flux, groups = groups_of(problem, n)
    for reconstruction in ("constant", "limited_linear"):
        for integrator in ("euler", "ssp_rk2"):
            cfg = SchemeConfig(flux_rule=rule, lf_dissipation_mode=mode,
                               reconstruction=reconstruction,
                               time_integrator=integrator)
            for order in (groups, groups[::-1]):
                got = assert_same_groups(order, flux, cfg, t_final)
                assert all(len(steps) >= 3 and error is None
                           for steps, error in got)
            # each group takes its own steps: the pair's are shorter, but
            # for Buckley-Leverett the fastest state lies in both ranges
            times = [[fields[0][1] for fields, _ in steps] for steps, _ in got]
            assert (times[0] != times[1]) == (problem != "buckley_leverett_step")


def test_grouped_blow_up_ends_only_its_group():
    # the lone field's data overflows the flux in the first step
    flux, groups = groups_of("smooth_sine", 8, scale=1e200)
    for cfg in (SchemeConfig(), SchemeConfig(time_integrator="ssp_rk2")):
        blown, twin = assert_same_groups(groups, flux, cfg, 0.3)
        assert blown == ([], (scheme.NumericalError,
                              "non-finite cell values in the step from t=0.0"))
        assert len(twin[0]) >= 3 and twin[1] is None


def test_grouped_spent_step_budgets(monkeypatch):
    # central on the shock: each group spends its own budget
    for module in (scheme, parent_march):
        monkeypatch.setattr(module, "_BUDGET_FACTOR", 1)
    flux, groups = groups_of("riemann_shock", 60)
    got = assert_same_groups(groups, flux, SchemeConfig(flux_rule="central"), 0.4)
    for steps, error in got:
        assert error[0] is scheme.NumericalError
        assert error[1].startswith(f"step budget of {len(steps)} steps spent")


def test_grouped_step_cap_refuses_only_its_group():
    # speeds 1e9 times the twin's: the lone field would need over 10**9 steps
    flux, groups = groups_of("smooth_sine", 8, scale=1e9)
    capped, twin = assert_same_groups(groups, flux, SchemeConfig(), 0.3)
    assert capped[0] == [] and capped[1][0] is scheme.StepCapError
    assert len(twin[0]) >= 3 and twin[1] is None
    both = assert_same_groups(groups, flux, SchemeConfig(), 1e300)
    assert all(steps == [] and error[0] is scheme.StepCapError
               for steps, error in both)
