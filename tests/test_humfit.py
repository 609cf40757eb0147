"""H-umbilical fitter: construction, recovery, rejection, rigidity lemma."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nkverify import humfit
from nkverify.humfit import (
    COMPONENT_KEYS,
    CubicTensor,
    HUmbilicalFit,
    build_h_from_V,
    fit,
    symmetry_defect,
    theorem_harness,
    umbilical_cubic,
    umbilical_lemma_check,
    _least_squares,
    _normalize,
    _pattern_pair,
)
from nkverify.lagrangian import example_by_label


def pattern_tensor(u: np.ndarray, lam: float, mu: float) -> np.ndarray:
    """The H-umbilical normal form lam T1 + mu T2 at the direction of u."""
    T1, T2 = _pattern_pair(_normalize(np.asarray(u, dtype=float)))
    return lam * T1 + mu * T2


def components_dict(t: CubicTensor) -> dict:
    return {k: float(v) for k, v in zip(COMPONENT_KEYS, t.components)}


def grid_oracle_min_residual(full: np.ndarray, n: int = 64) -> float:
    """Brute-force best normal-form residual over an n^2 spherical grid.

    With the orthogonal basis pair at each u the least-squares residual is
    ||c||^2 - lam^2 - 6 mu^2, with mu = (t.u - lam)/2 for the trace vector t.
    """
    th = (np.arange(n) + 0.5) / n * math.pi
    ph = (np.arange(n) + 0.5) / n * 2 * math.pi
    T, P = np.meshgrid(th, ph, indexing="ij")
    us = np.stack(
        [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
    ).reshape(-1, 3)
    lam = np.einsum("abc,na,nb,nc->n", full, us, us, us)
    trace = np.einsum("abb->a", full)
    mu = (us @ trace - lam) / 2.0
    resid_sq = float(np.sum(full * full)) - lam**2 - 6.0 * mu**2
    return float(np.sqrt(np.maximum(resid_sq, 0.0).min()))


def test_component_key_order():
    assert COMPONENT_KEYS == (
        "111", "112", "113", "122", "123", "133", "222", "223", "233", "333",
    )


def test_build_spots():
    zero = build_h_from_V([0.0, 0.0, 0.0])
    assert all(v == 0 for v in zero.components)
    d = components_dict(build_h_from_V([1.0, 0.0, 0.0]))
    assert d["111"] == -2.0 and d["122"] == 1.0 and d["133"] == 1.0
    assert all(v == 0.0 for k, v in d.items() if k not in ("111", "122", "133"))
    # mu = |V|^3 scaling: V = 2 e1 puts 8 in the 122 slot
    assert components_dict(build_h_from_V([2.0, 0.0, 0.0]))["122"] == 8.0


def test_build_traces_exactly_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = dict(zip(COMPONENT_KEYS, build_h_from_V(rng.uniform(-3.0, 3.0, 3)).components))
        # the exact traces sum_a c_aab, b = 1, 2, 3
        assert c["111"] + c["122"] + c["133"] == 0
        assert c["112"] + c["222"] + c["233"] == 0
        assert c["113"] + c["223"] + c["333"] == 0


def test_pattern_tensor_normal_form():
    lam, mu = -0.8, 0.4
    full = pattern_tensor(np.array([1.0, 0.0, 0.0]), lam, mu)
    assert full[0, 0, 0] == pytest.approx(lam)
    assert full[0, 1, 1] == pytest.approx(mu)
    assert full[0, 2, 2] == pytest.approx(mu)
    assert full[1, 1, 1] == 0.0 and full[1, 2, 2] == 0.0
    assert symmetry_defect(full) < 1e-15


def test_fit_zero_tensor():
    f = fit(CubicTensor.from_full(np.zeros((3, 3, 3))))
    assert f is not None
    assert f.lam == 0.0 and f.mu == 0.0 and f.residual == 0.0
    assert np.linalg.norm(f.U1) == pytest.approx(1.0)


def test_fit_recovers_axis_example():
    f = fit(build_h_from_V([1.0, 0.0, 0.0]))
    assert f is not None
    assert f.residual < 1e-10
    assert np.allclose(f.U1, [1.0, 0.0, 0.0], atol=1e-9)
    assert f.lam == pytest.approx(-2.0, abs=1e-10)
    assert f.mu == pytest.approx(1.0, abs=1e-10)
    assert abs(f.minimality_defect) < 1e-10


def test_fit_recovery_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        V = rng.standard_normal(3)
        V = V / np.linalg.norm(V) * rng.uniform(0.1, 10.0)
        f = fit(build_h_from_V(V))
        assert f is not None
        assert f.residual < 1e-10
        assert f.mu >= 0
        assert np.allclose(f.U1, V / np.linalg.norm(V), atol=1e-9)
        assert f.mu == pytest.approx(np.linalg.norm(V) ** 3, rel=1e-9)
        assert f.lam == pytest.approx(-2.0 * f.mu, abs=1e-9 * (1 + f.mu))


def test_fit_scale_equivariance():
    base_t = build_h_from_V([0.3, -1.1, 0.7])
    base = fit(base_t)
    for s in (2.5, -1.5):
        scaled = CubicTensor(tuple(x * Fraction(s) for x in base_t.components))
        f = fit(scaled, tol=1e-6)
        assert f is not None
        assert f.lam / base.lam == pytest.approx(abs(s), rel=1e-9)
        assert f.mu / base.mu == pytest.approx(abs(s), rel=1e-9)
        assert abs(float(f.U1 @ base.U1)) == pytest.approx(1.0, abs=1e-9)


def test_fit_rejects_generic_tensor():
    rng = np.random.default_rng(23)
    c = rng.standard_normal((3, 3, 3))
    t = CubicTensor.from_full(c)  # symmetrized
    assert fit(t) is None
    oracle = grid_oracle_min_residual(np.asarray(t))
    assert oracle > 0.3  # no grid candidate comes close either


def test_fit_residual_beats_grid_oracle():
    full = np.asarray(build_h_from_V([0.9, 0.2, -0.5]))
    f = fit(build_h_from_V([0.9, 0.2, -0.5]))
    assert f.residual <= grid_oracle_min_residual(full) + 1e-12


def _assert_recovers(f, full, u, lam, mu):
    """f fits full with (U1, lam, mu) = s (u, lam, mu) for one sign s."""
    assert f is not None
    assert f.residual < 1e-10
    assert f.residual <= grid_oracle_min_residual(full) + 1e-12
    u = u / np.linalg.norm(u)
    s = float(np.sign(f.U1 @ u))
    scale = 1.0 + abs(lam) + abs(mu)
    assert np.allclose(f.U1, s * u, atol=1e-9)
    assert f.lam == pytest.approx(s * lam, abs=1e-10 * scale)
    assert f.mu == pytest.approx(s * mu, abs=1e-10 * scale)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 1.99])
def test_fit_recovers_window_tensors(lam):
    # 0 <= lambda < 2 mu: U1 is not a local maximum of |c(u,u,u)| there
    u = np.array([0.3, -1.1, 0.7])
    full = pattern_tensor(u, lam, 1.0)
    f = fit(CubicTensor.from_full(full))
    _assert_recovers(f, full, u, lam, 1.0)
    assert f.mu > 0


def test_fit_recovery_random_normal_forms():
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(60):
        u = rng.standard_normal(3)
        mu = rng.uniform(-3.0, 3.0)
        lam = rng.uniform(-6.0, 6.0)
        cases += [(u, lam, mu), (u, -2.0 * mu, mu), (u, 0.0, mu), (u, lam, 0.0)]
    for u, lam, mu in cases:
        full = CubicTensor.from_full(pattern_tensor(u, lam, mu))
        f = fit(full)
        _assert_recovers(f, np.asarray(full), u, lam, mu)
        assert f.mu >= 0


def test_fit_rejects_gaussian_and_rank_one_sums():
    rng = np.random.default_rng(31)
    for _ in range(40):
        assert fit(CubicTensor.from_full(rng.standard_normal((3, 3, 3)))) is None
        full = np.zeros((3, 3, 3))
        for _ in range(3):
            x = rng.standard_normal(3)
            full += rng.uniform(0.5, 1.5) * np.einsum("a,b,c->abc", x, x, x)
        assert fit(CubicTensor.from_full(full)) is None


def test_umbilical_cubic_spot():
    c = umbilical_cubic(2, [1.0, 0.0])
    assert c[1, 1, 0] == 1.0 and c[1, 0, 1] == 0.0  # the asymmetric pair
    assert symmetry_defect(c) == 1.0
    assert symmetry_defect(umbilical_cubic(3, np.zeros(3))) == 0.0


def test_umbilical_lemma_dimensions():
    for n in (2, 3, 4):
        rec = umbilical_lemma_check(n, trials=60, seed=1)
        assert rec.passed, rec.failures
        assert rec.details["min_asymmetry"] >= 1.0 / math.sqrt(n) - 1e-12
    with pytest.raises(ValueError):
        umbilical_lemma_check(1)


@pytest.mark.parametrize("nan_at", ["every call", "second call"])
def test_umbilical_lemma_keeps_nan_asymmetry(monkeypatch, nan_at):
    # min(inf, nan) and min(x, nan) both drop the NaN; the detail must not.
    # The lemma measures its trials in one batch, so the NaN goes into the
    # cubic form of every trial, or of the second only.
    real = humfit.umbilical_cubic
    trials = slice(0, -1) if nan_at == "every call" else 1  # the last row is xi = 0

    def nan_in_batch(n, xi):
        c = real(n, xi)
        c[trials, 0, 0, 0] = math.nan
        return c

    monkeypatch.setattr(humfit, "umbilical_cubic", nan_in_batch)
    rec = umbilical_lemma_check(3, trials=5, seed=1)
    assert not rec.passed
    assert math.isnan(rec.details["min_asymmetry"])
    failed = [f["trial"] for f in rec.failures]
    assert failed == ([0, 1, 2, 3, 4] if nan_at == "every call" else [1])
    assert all(math.isnan(f["asymmetry"]) for f in rec.failures)


def test_theorem_harness_builtins():
    for label in ("diagonal", "factor_left"):
        rec = theorem_harness(example_by_label(label), grid=2)
        assert rec.passed
        assert rec.max_residual < 1e-5
        assert rec.details["fit_successes"] == rec.details["grid_points"] == 8
        assert rec.details["max_abs_lambda"] == 0.0
        assert rec.details["max_abs_mu"] == 0.0


def test_theorem_harness_nan_cubic_form_fails(monkeypatch):
    # a NaN in h fails the harness and is its max_residual, instead of
    # vanishing inside the running maxima
    real = humfit.second_fundamental_form

    def nan_in_second_row(imm, us):
        c, H = real(imm, us)
        c = c.copy()
        c[1] = math.nan
        return c, H

    monkeypatch.setattr(humfit, "second_fundamental_form", nan_in_second_row)
    rec = theorem_harness(example_by_label("diagonal"), grid=2)
    assert not rec.passed
    assert math.isnan(rec.max_residual)
    assert math.isnan(rec.details["max_symmetry_defect"])
    assert len(rec.failures) == 1 and math.isnan(rec.failures[0]["h_norm"])
    assert rec.details["fit_successes"] == 7


def test_theorem_harness_evaluates_the_map_three_times():
    # the precheck, second_fundamental_form's own precheck and its order-2
    # package each evaluate the map once, as a jet, for the whole grid
    imm = example_by_label("diagonal")
    calls = []
    imm.map_fn = lambda u, fn=imm.map_fn: calls.append(u) or fn(u)
    rec = theorem_harness(imm, grid=3)
    assert rec.passed and rec.samples == 27
    assert len(calls) == 3


def test_symmetry_defects_keep_nan():
    full = np.zeros((3, 3, 3))
    full[0, 1, 2] = math.nan
    assert math.isnan(symmetry_defect(full))


def test_symmetry_defect_batches_over_leading_axes():
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((2, 5, 3, 3, 3))
    batch[1, 3, 2, 0, 1] = math.nan
    got = symmetry_defect(batch)
    assert got.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        one = symmetry_defect(batch[idx])
        assert isinstance(one, float)
        if idx == (1, 3):
            assert math.isnan(got[idx]) and math.isnan(one)
        else:
            assert got[idx] == one


def test_theorem_harness_rejects_control():
    with pytest.raises(ValueError):
        theorem_harness(example_by_label("twisted-control"), grid=2)


def test_json_roundtrip():
    t = build_h_from_V([0.25, -0.5, 1.0])
    again = CubicTensor.from_json(t.to_json())
    assert [float(x) for x in again.components] == [float(x) for x in t.components]
    with pytest.raises(ValueError):
        CubicTensor.from_json('{"n": 4, "components": {}}')
    with pytest.raises(ValueError):
        CubicTensor.from_json('{"n": 3, "components": {"111": 1.0}}')


def test_from_full_symmetrizes():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 0.6  # one lopsided entry spread over its orbit
    t = CubicTensor.from_full(c)
    assert components_dict(t)["123"] == pytest.approx(0.1)
    assert symmetry_defect(np.asarray(t)) == 0.0
    assert symmetry_defect(c) == 0.6
