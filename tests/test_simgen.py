"""Scenario generators, monitoring intervals, and the oracle truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from _oracles import bracket_sorted
from icrf import Scenario, generate, intervals_from_monitoring, truth_eval
from icrf.exceptions import InvariantViolation
from icrf.simgen import (
    SCENARIO_P,
    _brackets,
    draw_covariates,
    draw_failure_times,
    mu_bar,
    mu_of,
)


class TestIntervals:
    def test_bracketing_pair(self):
        assert intervals_from_monitoring(2.0, [1.0, 3.0, 4.0]) == (1.0, 3.0)

    def test_beyond_last_monitor(self):
        assert intervals_from_monitoring(5.0, [1.0, 2.0, 3.0]) == (3.0, np.inf)

    def test_current_status_left_side(self):
        assert intervals_from_monitoring(0.5, [1.0]) == (0.0, 1.0)

    def test_boundary_is_right_closed(self):
        # T == U: the interval (previous, U] contains T
        assert intervals_from_monitoring(2.0, [2.0, 4.0]) == (0.0, 2.0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), M=st.sampled_from([1, 3]), n=st.integers(1, 12))
def test_all_subjects_bracket_as_each_one_alone(data, M, n):
    # generate brackets every subject at once; each row is the one-subject
    # bracket and the bracket of its sorted monitors, also where T is a
    # monitor (that monitor is then R: the interval is (L, R])
    times = st.floats(0.0, 10.0)
    monitors = data.draw(hnp.arrays(float, (n, M), elements=times))
    t = data.draw(hnp.arrays(float, n, elements=times))
    at = data.draw(hnp.arrays(bool, n))
    pick = data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, M - 1)))
    t = np.where(at, monitors[np.arange(n), pick], t)
    lefts, rights = _brackets(t, monitors)
    for i in range(n):
        assert (lefts[i], rights[i]) == intervals_from_monitoring(t[i], monitors[i])
        assert (lefts[i], rights[i]) == bracket_sorted(t[i], monitors[i])
    assert np.all(rights[at] == t[at])


class TestTruth:
    def test_scenario1_closed_form_at_origin(self):
        x = np.zeros(25)
        t = np.array([0.0, 1.0, 2.0])
        want = np.exp(-t * np.exp(0.1))
        np.testing.assert_allclose(truth_eval(1, t, x), want, atol=1e-12)

    def test_scenario1_at_conditional_mean(self):
        x = np.zeros(25)
        mu = float(mu_of(1, x[None, :])[0])
        assert np.isclose(truth_eval(1, mu, x), np.exp(-1.0))

    def test_scenario3_gamma_shape_one_is_exponential(self):
        x = np.zeros(25)
        x[10:15] = 1.0 / 3.0  # sum 5/3 -> mu = 0.5 + 0.3*5/3 = 1
        t = np.linspace(0.0, 5.0, 7)
        np.testing.assert_allclose(truth_eval(3, t, x), np.exp(-t / 2.0), atol=1e-12)

    def test_scenario2_ranges(self):
        rng = np.random.default_rng(51)
        X = draw_covariates(2, 2000, rng)
        assert X.min() >= 0.0 and X.max() <= 1.0
        mu = mu_of(2, X)
        assert mu.min() > 0.0 and mu.max() <= 3.0

    def test_monotone_and_one_at_zero(self):
        rng = np.random.default_rng(52)
        t = np.linspace(0.0, 5.0, 400)
        for sc in range(1, 7):
            x = rng.standard_normal(SCENARIO_P[sc])
            if sc == 2:
                x = rng.uniform(size=10)
            vals = np.asarray(truth_eval(sc, t, x))
            assert vals[0] == 1.0
            assert np.all(np.diff(vals) <= 1e-12)

    def test_scenario6_survival_flat_on_gaps(self):
        x = np.zeros(25)
        # T never lies in (1/2, 3/4]: survival constant there
        a = truth_eval(6, 0.5, x)
        b = truth_eval(6, 0.74, x)
        assert np.isclose(a, b)

    def test_scenario6_matches_monte_carlo(self):
        x = np.zeros(25)
        mu = float(mu_of(6, x[None, :])[0])
        rng = np.random.default_rng(53)
        draws = draw_failure_times(6, np.full(1_000_000, mu), rng)
        for t in (0.3, 0.9, 1.4):  # continuity points
            p = float(np.mean(draws > t))
            want = float(truth_eval(6, t, x))
            se = np.sqrt(want * (1 - want) / draws.size)
            assert abs(p - want) < 3 * se + 1e-12


class TestGenerate:
    @pytest.mark.parametrize("sc", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [1, 3])
    def test_latent_time_in_interval(self, sc, m):
        sim = generate(Scenario(id=sc, n=200, M=m, seed=9))
        ds = sim.dataset
        assert ds.p == SCENARIO_P[sc]
        assert np.all(ds.lefts < sim.latent_times)
        assert np.all(sim.latent_times <= ds.rights)

    def test_seeded_reproducibility(self):
        a = generate(Scenario(id=1, n=50, M=1, seed=4))
        b = generate(Scenario(id=1, n=50, M=1, seed=4))
        np.testing.assert_array_equal(a.dataset.lefts, b.dataset.lefts)
        np.testing.assert_array_equal(a.dataset.X, b.dataset.X)
        c = generate(Scenario(id=1, n=50, M=1, seed=5))
        assert not np.array_equal(a.dataset.lefts, c.dataset.lefts)

    def test_mu_bar_is_cached_constant(self):
        assert mu_bar(1) == mu_bar(1)
        assert 1.0 < mu_bar(1) < 2.0  # near E[mu] for scenario 1

    @pytest.mark.parametrize("scenario_id", [1, 6])
    def test_mu_bar_is_the_mean_over_its_pre_draw(self, scenario_id):
        # the stored constant is the mean of mu over 100,000 covariate rows of
        # a fixed stream; the bound leaves room for BLAS summation order only
        rng = np.random.default_rng(np.random.SeedSequence([987_654_321, scenario_id]))
        want = float(mu_of(scenario_id, draw_covariates(scenario_id, 100_000, rng)).mean())
        assert mu_bar(scenario_id) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_invalid_scenario(self):
        with pytest.raises(InvariantViolation):
            Scenario(id=7)

    @pytest.mark.parametrize("kw", [dict(n=-5), dict(n=2.5), dict(seed=-1), dict(seed=1.5)],
                             ids=["n_negative", "n_fraction", "seed_negative", "seed_fraction"])
    def test_negative_or_fractional_size_or_seed(self, kw):
        # these used to end in numpy's "expected non-negative integer"
        # ValueError from SeedSequence, or a TypeError
        with pytest.raises(InvariantViolation, match="non-negative integer"):
            Scenario(id=5, **kw)

    def test_scenario5_mu_is_scipy_expit_bit_for_bit(self):
        # mu_of computes expit with the libm exp that scipy.special.expit
        # uses; numpy's exp differs from it in the last bit on some values
        rng = np.random.default_rng(55)
        s = np.concatenate((rng.uniform(-1000.0, 1000.0, 20_000), rng.normal(0.0, 3.0, 20_000),
                            np.linspace(-750.0, 750.0, 30_001), [np.inf, -np.inf, np.nan]))
        X = np.zeros((s.size, 10))
        X[:, 0] = s
        np.testing.assert_array_equal(mu_of(5, X), 2.0 * special.expit(s))
        X[:, :3] = s[:, None] / 3.0
        np.testing.assert_array_equal(mu_of(5, X), 2.0 * special.expit(X[:, 0] + X[:, 1] + X[:, 2]))

    @pytest.mark.parametrize("sc", [1, 2, 3, 4, 5, 6])
    def test_failure_law_matches_truth_small(self, sc):
        # small-scale distribution check; the full 1e5-draw KS gate lives
        # in the acceptance suite
        rng = np.random.default_rng(54)
        x = rng.standard_normal(SCENARIO_P[sc]) * 0.5
        if sc == 2:
            x = rng.uniform(size=10)
        mu = float(mu_of(sc, x[None, :])[0])
        draws = draw_failure_times(sc, np.full(20_000, mu), rng)
        cdf = lambda t: 1.0 - np.asarray(truth_eval(sc, t, x))
        d = stats.ks_1samp(draws, cdf).statistic
        assert d < 0.03


def _loaded_by_import_icrf(modules, then: str = "") -> list:
    """Which of ``modules``, or of the modules under them, a fresh process
    loads by ``import icrf`` and then running ``then``."""
    import os
    import subprocess
    import sys

    import icrf

    src = os.path.dirname(os.path.dirname(os.path.abspath(icrf.__file__)))
    code = (f"import sys, icrf\n{then}\n"
            f"print(','.join(m for m in sorted(sys.modules) for w in {list(modules)!r}"
            f" if m == w or m.startswith(w + '.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    return [m for m in out.strip().split(",") if m]


def test_import_loads_no_scipy():
    # scipy.stats, scipy.optimize (the NPMLE's nnls) and scipy.special each
    # cost a large share of `import icrf`; every SciPy module is imported
    # where the work first needs it
    assert _loaded_by_import_icrf(["scipy"]) == []


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    import icrf

    data = generate(Scenario(5, n=80, seed=2)).dataset
    path = tmp_path_factory.mktemp("model") / "m.bin"
    icrf.save_model(icrf.fit(data, icrf.ForestParams(n_tree=2, n_fold=1, seed=1)), str(path))
    return path


def _predict_after_load(path, smoothed: bool) -> str:
    return (f"import numpy as np\n"
            f"m = icrf.load_model({str(path)!r})\n"
            f"icrf.predict(m, np.zeros((2, 10)), np.linspace(0, 5, 11), smoothed={smoothed})")


def test_simulate_save_load_and_raw_predict_leave_out_scipy_special(model_file, tmp_path):
    # none of these smooths or evaluates a scenario 3 or 4 truth
    then = "\n".join([
        "for sc in (1, 2, 5, 6):",
        "    icrf.generate(icrf.Scenario(sc, n=50, M=3, seed=1))",
        _predict_after_load(model_file, smoothed=False),
        f"icrf.save_model(m, {str(tmp_path / 'copy.bin')!r})",
    ])
    assert _loaded_by_import_icrf(["scipy.special"], then) == []


def test_smoothed_predict_loads_scipy_special(model_file):
    # the check above is not vacuous: smoothing does load it
    then = _predict_after_load(model_file, smoothed=True)
    assert "scipy.special" in _loaded_by_import_icrf(["scipy.special"], then)
