"""Flux models, entropy pairs, and closed-form reference solutions.

The interval-extremum and wave-speed oracles are checked against dense
sampling; entropy-pair compatibility is checked by finite differences.
"""

import numpy as np
import pytest

from fvaudit import make_flux, reference

FLUX_CASES = [
    ("burgers", {}, (-1.5, 1.5)),
    ("linear_advection", {"a": 1.0}, (-1.5, 1.5)),
    ("linear_advection", {"a": (1.0, -0.5)}, (-1.5, 1.5)),
    ("buckley_leverett", {}, (-0.5, 1.5)),
    ("rotated_burgers_2d", {"angle": 0.5}, (-1.5, 1.5)),
]


def unit_normals(rng, n, dim):
    v = rng.standard_normal((n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def test_burgers_point_values():
    flux = make_flux("burgers")
    assert flux.fn(2.0, np.ones(1)) == pytest.approx(2.0)
    assert flux.dfn(2.0, np.ones(1)) == pytest.approx(2.0)
    assert flux.convexity_class == "strictly-convex"


def test_linear_advection_derivative_is_velocity():
    flux = make_flux("linear_advection", a=(1.0, 0.0))
    u = np.array([-3.0, 0.0, 42.0])
    d = flux.df(u)
    assert d.shape == (3, 2)
    assert np.allclose(d, [1.0, 0.0])
    # a vector velocity still leaves the model hashable, and equal by value
    assert hash(flux) == hash(make_flux("linear_advection", a=np.array([1.0, 0.0])))


def test_buckley_leverett_midpoint():
    flux = make_flux("buckley_leverett")
    assert flux.fn(0.5, np.ones(1)) == pytest.approx(0.5)
    assert flux.fn(0.0, np.ones(1)) == pytest.approx(0.0)
    assert flux.fn(1.0, np.ones(1)) == pytest.approx(1.0)


def test_make_flux_rejects_unknown():
    with pytest.raises(ValueError):
        make_flux("not_a_flux")
    with pytest.raises(ValueError):
        make_flux("burgers", a=2.0)


@pytest.mark.parametrize("name,params,rng_range", FLUX_CASES)
def test_derivative_matches_finite_difference(name, params, rng_range):
    flux = make_flux(name, **params)
    rng = np.random.default_rng(11)
    u = rng.uniform(*rng_range, size=200)
    h = 1e-6
    fd = (flux.f(u + h) - flux.f(u - h)) / (2.0 * h)
    scale = np.maximum(1.0, np.abs(fd))
    assert (np.abs(flux.df(u) - fd) / scale).max() < 1e-8
    # the declared critical and inflection points are zeros of phi', phi''
    for z in flux.critical_points:
        assert abs(flux.dphi(np.float64(z))) <= 1e-12
    for z in flux.inflection_points:
        d2 = (flux.dphi(np.float64(z + h)) - flux.dphi(np.float64(z - h))) / (2.0 * h)
        assert abs(d2) <= 1e-6


@pytest.mark.parametrize("name,params,rng_range", FLUX_CASES)
def test_along_matches_summed_product(name, params, rng_range):
    """c = d . n bit for bit as ``(n * d).sum(-1)``, signed zeros included."""
    flux = make_flux(name, **params)
    rng = np.random.default_rng(29)
    n = rng.standard_normal((2, 50, flux.dim))
    n[:, ::5] = 0.0
    n[:, 1::5] = -0.0
    n[1, ::3, 0] = -0.0
    for normals in (n, n[0], n[0, 7]):
        want = (normals * flux.direction).sum(axis=-1)
        got = flux._along(normals, want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert flux._along(n[0], np.zeros((50, 3))).shape == (50, 1)


@pytest.mark.parametrize("name,params,rng_range", FLUX_CASES)
def test_interval_extremum_against_brute_force(name, params, rng_range):
    flux = make_flux(name, **params)
    rng = np.random.default_rng(5)
    n_pairs, n_dense = 100, 30_001
    a = rng.uniform(*rng_range, size=n_pairs)
    b = rng.uniform(*rng_range, size=n_pairs)
    n = unit_normals(rng, n_pairs, flux.dim)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    w = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, n_dense)
    dense = flux.fn(w, n)                           # (n_pairs, n_dense)
    # Osher's form: the min over the hull where a <= b, else the max, so
    # the pair and its swap give both extremes
    low = np.where(a <= b, flux.interval_extremum(a, b, n),
                   flux.interval_extremum(b, a, n))
    high = np.where(a <= b, flux.interval_extremum(b, a, n),
                    flux.interval_extremum(a, b, n))
    assert np.abs(low - dense.min(axis=1)).max() < 1e-8
    assert np.abs(high - dense.max(axis=1)).max() < 1e-8
    # equal ends read the flux there, from either side
    assert np.array_equal(flux.interval_extremum(a, a, n), flux.fn(a, n))


def test_interval_extremum_takes_no_which():
    flux = make_flux("burgers")
    with pytest.raises(TypeError):
        flux.interval_extremum(0.0, 1.0, np.ones(1), "max")


@pytest.mark.parametrize("name,params,rng_range", FLUX_CASES)
def test_max_wave_speed_against_brute_force(name, params, rng_range):
    flux = make_flux(name, **params)
    rng = np.random.default_rng(6)
    n_pairs, n_dense = 60, 30_001
    a = rng.uniform(*rng_range, size=n_pairs)
    b = rng.uniform(*rng_range, size=n_pairs)
    n = unit_normals(rng, n_pairs, flux.dim)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    w = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, n_dense)
    dense = np.abs(flux.dfn(w, n)).max(axis=1)
    got = flux.max_wave_speed(a, b, n)
    # an upper bound, sharp to sampling resolution
    assert (got >= dense - 1e-8).all()
    assert np.abs(got - dense).max() < 1e-6


@pytest.mark.parametrize("name,params,rng_range", FLUX_CASES)
def test_split_fluxes_sum_and_monotonicity(name, params, rng_range):
    flux = make_flux(name, **params)
    u = np.linspace(rng_range[0], rng_range[1], 2001)
    n = unit_normals(np.random.default_rng(7), 1, flux.dim)[0]
    fp, fm = flux.split_fluxes(u, n)
    total = flux.fn(u, n) - flux.fn(0.0, n)
    assert np.abs(fp + fm - total).max() < 1e-12
    assert (np.diff(fp) >= -1e-12).all()
    assert (np.diff(fm) <= 1e-12).all()
    # derivatives recover the signed parts of the wave speed
    mid = 0.5 * (u[1:] + u[:-1])
    du = np.diff(u)
    speeds = flux.dfn(mid, n)
    assert np.abs(np.diff(fp) / du - np.maximum(speeds, 0.0)).max() < 1e-3
    assert np.abs(np.diff(fm) / du - np.minimum(speeds, 0.0)).max() < 1e-3


def test_fn_shape_contracts():
    flux = make_flux("rotated_burgers_2d", angle=0.0)
    n_faces = 7
    n = unit_normals(np.random.default_rng(0), n_faces, 2)
    u = np.linspace(-1.0, 1.0, n_faces)
    assert flux.fn(u, n).shape == (n_faces,)
    # trailing state axes broadcast against shared batch axes of the normals
    uk = np.tile(u[:, None], (1, 5))
    assert flux.fn(uk, n).shape == (n_faces, 5)


# ---------------------------------------------------------------------------
# reference solutions


def test_riemann_shock_rankine_hugoniot():
    flux = make_flux("burgers")
    ref = reference("riemann_shock", flux)
    ul, ur = 1.0, 0.0
    s = 0.5
    # jump condition holds exactly: s [u] = [f]
    assert s * (ul - ur) == pytest.approx(
        float(flux.fn(ul, np.ones(1)) - flux.fn(ur, np.ones(1))), abs=0.0)
    x = np.array([[0.1], [0.3]])
    u = ref(0.4, x)
    assert u[0] == 1.0      # left of the shock at x = 0.2
    assert u[1] == 0.0


def test_riemann_rarefaction_fan():
    ref = reference("riemann_rarefaction", make_flux("burgers"))
    assert ref(1.0, np.array([[0.0]]))[0] == pytest.approx(0.0)
    x = np.linspace(-2.0, 2.0, 41)[:, None]
    u = ref(1.0, x)
    assert u.min() >= -1.0 and u.max() <= 1.0
    assert (np.diff(u) >= 0.0).all()
    inside = np.abs(x[:, 0]) < 1.0
    assert np.allclose(u[inside], x[inside, 0])


def test_advected_profile_translates():
    flux = make_flux("linear_advection", a=1.0)
    ref = reference("advected_profile", flux)
    x = np.array([[0.25], [0.35]])
    u = ref(0.3, x)
    assert u[0] != u[1]     # step has moved to x = 0.3
    assert np.array_equal(ref(0.0, x - 0.3), u)


def test_smooth_sine_solves_characteristics():
    flux = make_flux("burgers")
    ref = reference("smooth_sine_preshock", flux)
    t = 0.5 * ref.t_max
    x = np.linspace(0.0, 1.0, 257)[:, None]
    u = ref(t, x)
    u0 = ref.initial
    residual = u - u0(x - u[:, None] * t)
    assert np.abs(residual).max() < 1e-12


def test_reference_horizon_enforced():
    ref = reference("smooth_sine_preshock", make_flux("burgers"))
    with pytest.raises(ValueError):
        ref(ref.t_max * 1.5, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        ref(-0.1, np.zeros((1, 1)))


def test_reference_validates_flux():
    with pytest.raises(ValueError):
        reference("riemann_shock", make_flux("linear_advection", a=1.0))
    with pytest.raises(TypeError):
        reference("riemann_shock", make_flux("burgers"), bogus=1)
