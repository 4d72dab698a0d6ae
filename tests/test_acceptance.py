"""End-to-end acceptance suite: one test per shipped guarantee.

Each test checks the library against an independently derived reference
-- hand-indexed determinants, certified simplex brackets, closed-form
optima, large Monte-Carlo resamples, or the bundled experiment presets
run at reduced trial counts -- at the tolerance the project commits to.
The solver trajectories are produced once in module-scoped fixtures so
the convergence and surrogate checks inspect the same runs.
"""

import time

import numpy as np
import pytest

from ris_skg import bsum
from ris_skg import channel_model as cm
from ris_skg import harness as hn
from ris_skg import kgr_core as kc
from ris_skg import mirror_prox as mp
from ris_skg import problem_lift as pl

import oracles


# ---------------------------------------------------------------------------
# shared solver trajectories


@pytest.fixture(scope="module")
def tracked_runs():
    """Fifty correlated-eavesdropper instances solved twice: from a random
    feasible start with every surrogate expansion point recorded, and
    through the deployed warm-started pipeline."""
    runs = []
    for i in range(50):
        rng = np.random.default_rng([97, i])
        corr = oracles.random_corr(rng)
        prob = pl.build_lifted(corr)
        v0 = pl.project_discs(oracles.complex_normal(rng, corr.n_ris) * 1.5)
        w0 = pl.project_ball(oracles.complex_normal(rng, corr.n_bs) * 1.5,
                             prob.power_alice)
        cold, points = oracles.bsum_solve_recorded(prob, v0, w0, tol=1e-4,
                                                   max_iters=200)
        _, _, warm = bsum.optimize_design(corr, tol=1e-4, max_iters=200)
        runs.append((prob, cold, points, warm))
    return runs


@pytest.fixture(scope="module")
def preset_scale_runs():
    """Fifty trials of the deployed pipeline at the default scenario scale
    (15 base-station elements, 20 surface elements, 10 eavesdroppers)."""
    cfg = cm.ScenarioConfig()
    runs = []
    for trial in range(50):
        corr = cm.build_correlations(
            cfg, np.random.default_rng([cfg.seed, trial]))
        prob = pl.build_lifted(corr)
        w0, v0 = bsum.statistical_design(corr)
        res, points = oracles.bsum_solve_recorded(
            prob, v0, w0, tol=cfg.bsum_tol, max_iters=cfg.bsum_max_iters)
        runs.append((prob, res, points))
    return runs


# ---------------------------------------------------------------------------
# 1. the two key-rate formulas agree


def test_rate_formula_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        corr = oracles.random_corr(
            rng,
            n_bs=int(rng.integers(1, 9)),
            n_ris=int(rng.integers(1, 13)),
            n_eve=int(rng.integers(1, 5)),
        )
        w = oracles.random_combiner(rng, corr)
        v = oracles.random_reflect(rng, corr)
        gains = kc.effective_gains(corr, w, v)
        closed = oracles.kgr_closed_form(gains, corr.power_bob,
                                         float(np.real(np.vdot(w, w))),
                                         corr.noise_power)
        direct = oracles.naive_kgr_bits(oracles.covariance_blocks(corr, w, v))
        rel = np.abs(closed - direct) / np.maximum(np.abs(direct), 1e-12)
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - start
    print(f"closed vs determinant rate: worst rel {worst:.2e} ({elapsed:.2f}s)")
    assert worst <= 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. analytic covariances against a large probing simulation


def test_covariance_blocks_match_monte_carlo():
    start = time.perf_counter()
    cfg = cm.ScenarioConfig(bs_shape=(3, 1), ris_shape=(2, 2), eve_count=1,
                            eve_radius_m=0.02)
    corr = cm.build_correlations(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    w = rng.standard_normal(corr.n_bs) + 1j * rng.standard_normal(corr.n_bs)
    w *= np.sqrt(corr.power_alice) / np.linalg.norm(w)
    v = np.exp(2j * np.pi * rng.uniform(size=corr.n_ris))
    alice, bob, eve = cm.simulate_probing(
        corr, w, v, np.random.default_rng(2), rounds=1_000_000)
    emp = oracles.empirical_covariance_blocks(
        alice, bob, eve, corr.noise_power, float(np.real(np.vdot(w, w))))
    ref = oracles.covariance_blocks(corr, w, v)
    errs = {}
    for name in ("aa", "bb", "ab", "ee", "be", "ae"):
        e = np.asarray(getattr(emp, name))
        r = np.asarray(getattr(ref, name))
        errs[name] = float(np.max(np.abs(e - r) / np.abs(r)))
    elapsed = time.perf_counter() - start
    print("covariance rel errs: "
          + " ".join(f"{k}={e:.1e}" for k, e in errs.items())
          + f" ({elapsed:.1f}s)")
    assert max(errs.values()) <= 0.01
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3. independent eavesdroppers: solver recovers the closed-form optimum


def test_independent_eavesdropper_recovery():
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng([31, i])
        corr = oracles.recovery_corr(
            rng,
            n_bs=int(rng.integers(2, 6)),
            n_ris=int(rng.integers(2, 8)),
            n_eve=int(rng.integers(1, 4)),
        )
        w0 = oracles.random_combiner(rng, corr)
        v0 = oracles.random_reflect(rng, corr, unit_modulus=True)
        res = bsum.bsum_solve(pl.build_lifted(corr), v0, w0, tol=1e-10,
                              max_iters=400)
        ref = float(np.min(oracles.statistical_design_rate(corr)))
        got = kc.min_kgr_bits(corr, res.w, res.v)
        worst = max(worst, abs(got - ref) / ref)
    elapsed = time.perf_counter() - start
    print(f"recovery worst rel gap {worst:.2e} ({elapsed:.1f}s)")
    assert worst <= 1e-3
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. outer loop: monotone from any start, convergent as deployed


def test_alternating_solver_monotone_and_convergent(tracked_runs,
                                                    preset_scale_runs):
    for _, cold, _, warm in tracked_runs:
        assert np.all(np.diff(cold.trace) >= -1e-8)
        assert warm.converged and warm.iterations <= 200
        assert np.all(np.diff(warm.trace) >= -1e-8)
    preset_iters = [res.iterations for _, res, _ in preset_scale_runs]
    print(f"default-scale iterations: max {max(preset_iters)} over 50 trials")
    for _, res, _ in preset_scale_runs:
        assert res.converged and res.iterations <= 25
        assert np.all(np.diff(res.trace) >= -1e-8)


# ---------------------------------------------------------------------------
# 5. inner saddle solver against a certified bracket


def test_inner_solver_reaches_certified_optimum():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_gap = 0.0
    for _ in range(30):
        sp = oracles.random_saddle(rng, max_funcs=3, max_pairs=3)
        x0 = mp.project_domain(sp, oracles.random_point(rng, sp))
        res = mp.mirror_prox_solve(sp, x0, tol=1e-12, max_iters=50000)
        lo, hi = oracles.certified_max_min(sp, [res.x])
        assert hi - lo <= 1e-5          # the bracket itself is tight
        assert res.value <= hi + 1e-9   # never claims more than the bound
        assert res.value >= hi - 1e-4   # and reaches it
        worst_gap = max(worst_gap, hi - res.value)
    worst_single = 0.0
    for _ in range(50):
        sp = oracles.random_saddle(rng, max_funcs=1)
        exact, _ = oracles.weighted_inner_min(sp, np.ones(1))
        x0 = mp.project_domain(sp, oracles.random_point(rng, sp))
        res = mp.mirror_prox_solve(sp, x0, tol=1e-12, max_iters=20000)
        worst_single = max(worst_single,
                           abs(res.value - (-exact)) / max(abs(exact), 1.0))
    elapsed = time.perf_counter() - start
    print(f"saddle gap {worst_gap:.2e}, single-function gap "
          f"{worst_single:.2e} ({elapsed:.0f}s)")
    assert worst_single <= 1e-6
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 6. the step-size constant really bounds the operator differences


def test_step_constant_bounds_hold_empirically():
    rng = np.random.default_rng(66)
    pairs = 0
    worst = np.full(4, -np.inf)
    while pairs < 10000:
        sp = oracles.random_saddle(rng)
        if sp.n_funcs < 2:
            continue
        lim = mp.lipschitz_bound(sp)
        allow = lim * (1.0 + 1e-6)
        slack = 1e-12 * max(lim, 1.0)
        for _ in range(100):
            x1 = mp.project_domain(sp, oracles.random_point(rng, sp, 2))
            x2 = mp.project_domain(sp, oracles.random_point(rng, sp, 2))
            y1 = rng.dirichlet(np.ones(sp.n_funcs))
            y2 = rng.dirichlet(np.ones(sp.n_funcs))
            gx11, gy11 = mp.operator(sp, x1, y1)
            gx21, gy21 = mp.operator(sp, x2, y1)
            gx12, gy12 = mp.operator(sp, x1, y2)
            dx = float(np.linalg.norm(x1 - x2))
            dy = float(np.sum(np.abs(y1 - y2)))
            margins = (
                np.linalg.norm(gx11 - gx21) - allow * dx - slack,
                np.max(np.abs(gy11 - gy21)) - allow * dx - slack,
                np.linalg.norm(gx11 - gx12) - allow * dy - slack,
                np.max(np.abs(gy11 - gy12)) - allow * dy - slack,
            )
            worst = np.maximum(worst, margins)
            pairs += 1
            if pairs >= 10000:
                break
    print(f"step-constant margins over {pairs} pairs: "
          + " ".join(f"{m:+.1e}" for m in worst))
    assert np.all(worst <= 0.0)


# ---------------------------------------------------------------------------
# 7. surrogates touch the objective and stay below it along real runs


def _reconstruction_scale(sp, x0):
    """Size of the terms the surrogate evaluation adds and cancels; the
    curvature constants dwarf the objective, so tangency can only hold
    relative to this scale in double precision."""
    return (1.0 + sp.quad * pl.real_inner(x0, x0)
            + np.abs(pl.real_inner(sp.lin, x0)) + np.abs(sp.const))


def test_surrogates_touch_and_minorize_along_runs(tracked_runs,
                                                  preset_scale_runs):
    rng = np.random.default_rng(77)
    checked = 0
    trajectories = ([(prob, points) for prob, _, points, _ in tracked_runs]
                    + [(prob, points) for prob, _, points in preset_scale_runs])
    for prob, points in trajectories:
        for block, v, w in points:
            sp = bsum.build_surrogate(prob, v, w, block)
            if block == "v":
                x0, grads = v, pl.grad_v(prob, v, w)
            else:
                x0, grads = w, pl.grad_w(prob, v, w)
            truth = pl.objective_terms(prob, v, w).f
            scale = _reconstruction_scale(sp, x0)
            assert np.all(np.abs(mp.minorant_values(sp, x0) - truth)
                          <= 1e-9 * scale)
            slope = -(2.0 * sp.quad[:, None] * x0[None, :] + sp.lin)
            assert np.all(np.abs(oracles.lift_vector(slope - grads))
                          <= 1e-9 * (1.0 + sp.quad[:, None]))
            for _ in range(10):
                z = oracles.complex_normal(rng, x0.shape[0]) * 1.5
                if block == "v":
                    x = pl.project_discs(z)
                    f = pl.objective_terms(prob, x, w).f
                else:
                    x = pl.project_ball(z, prob.power_alice)
                    f = pl.objective_terms(prob, v, x).f
                gap = f - mp.minorant_values(sp, x)
                assert np.all(gap >= -1e-8 * _reconstruction_scale(sp, x))
            checked += 1
    print(f"surrogate tangency verified at {checked} expansion points")


# ---------------------------------------------------------------------------
# 8. combiner-gain bracket, endpoints, large-array limit


def test_combiner_gain_bracket_and_asymptote():
    power = 0.1
    for rho in [i / 10 for i in range(10)]:
        for n_h in range(2, 9):
            for n_v in range(1, 6):
                lower, upper = oracles.bs_gain_bounds((n_h, n_v), rho, power)
                exact = oracles.eigen_bs_gain((n_h, n_v), rho, power)
                assert lower <= exact * (1.0 + 1e-12)
                assert exact <= upper * (1.0 + 1e-12)
                if rho == 0.0:
                    assert lower == power and upper == power
                    assert exact == pytest.approx(power, rel=1e-12)
    asym = oracles.bs_gain_asymptote(0.3, power)
    exact = oracles.eigen_bs_gain((50, 50), 0.3, power)
    rel = abs(exact - asym) / asym
    print(f"large-array limit rel gap at 50x50: {rel:.4f}")
    assert rel <= 0.02


# ---------------------------------------------------------------------------
# 9. design ordering and the equivalent-power reading of the gain


def _mean_rates(path):
    means = {}
    for row in hn.read_csv_rows(path):
        key = (row["method"], float(row["sweep_value"]))
        means.setdefault(key, []).append(float(row["min_kgr_bits"]))
    return {k: float(np.mean(v)) for k, v in means.items()}


def test_design_ordering_and_power_gain(tmp_path):
    cfg = hn.build_config("desk", trials=50)
    out = hn.run_experiment("kgr_vs_power", cfg, tmp_path / "ordering")
    means = _mean_rates(out["results"])
    powers = sorted({p for _, p in means})
    assert powers == [10.0, 20.0, 30.0]
    curve = {m: [means[(m, p)] for p in powers]
             for m in ("optimized", "iid_ris", "no_ris")}
    for i in range(len(powers)):
        assert curve["optimized"][i] > curve["iid_ris"][i]
        assert curve["iid_ris"][i] > curve["no_ris"][i]
    target = curve["optimized"][1]
    if target >= curve["no_ris"][-1]:
        gain = powers[-1] - powers[1]
        label = ">"
    else:
        gain = float(np.interp(target, curve["no_ris"], powers)) - powers[1]
        label = "~"
    print(f"optimized matches a no-surface link run {label} {gain:.1f} dB hotter")
    assert gain > 0.0


# the paper preset's power sweep widened to 0-50 dBm, so that each
# baseline's curve overlaps the optimized one at eight powers or more
_OFFSET_POWERS = tuple(range(0, 55, 5))


@pytest.mark.parametrize("geometry", [
    "ris_spacing_wavelengths = 0.1",
    "ris_spacing_wavelengths = 0.25",
    "ris_spacing_wavelengths = 0.5",
    "ris_spacing_wavelengths = 0.25\npl_exp_alice_bob = 6",
])
def test_power_saved_over_iid_designs_matches_the_closed_form(tmp_path,
                                                              geometry):
    # the abstract's transmit-power claim: at each power where a baseline's
    # mean rate lies on the optimized curve, the power the optimized design
    # needs for that rate, interpolated on its own curve, is lower by the
    # closed-form offset.  Over the preset's seed and seeds 1-10 the worst
    # |measured - closed form| was 0.197 dB and at most 0.59 of this
    # tolerance: 0.05 dB plus 5% of the offset, since the gap from the
    # baseline's random designs grows with the offset
    text = (f"sweep_power_dbm = {', '.join(map(str, _OFFSET_POWERS))}\n"
            "methods = optimized, random, iid_ris, iid_bs\n" + geometry)
    cfg = hn.build_config("paper", text, trials=300)
    out = hn.run_experiment("kgr_vs_power", cfg, tmp_path / "offset")
    means = _mean_rates(out["results"])
    powers = np.array(_OFFSET_POWERS, dtype=float)
    curve = {m: np.array([means[(m, p)] for p in powers]) for m in cfg.methods}
    assert np.all(np.diff(curve["optimized"]) > 0)
    corr = cm.build_correlations(cfg, np.random.default_rng(0))
    for baseline in oracles.BASELINE_EXPONENTS:
        expected = oracles.power_offset_db(corr, baseline)
        rates, opt = curve[baseline], curve["optimized"]
        on = (rates >= opt[0]) & (rates <= opt[-1])
        saved = powers[on] - np.interp(rates[on], opt, powers)
        print(f"{geometry!r} vs {baseline}: closed form {expected:.3f} dB, "
              f"measured {saved.min():.3f}-{saved.max():.3f} dB")
        assert on.sum() >= 8
        assert np.abs(saved - expected).max() <= 0.05 + 0.05 * expected


# ---------------------------------------------------------------------------
# 10. more elements help, with diminishing combiner returns


def test_rate_scaling_with_array_sizes(tmp_path):
    cfg = hn.build_config("desk", config_text="methods = optimized", trials=50)
    out = hn.run_experiment("kgr_vs_n", cfg, tmp_path / "surface")
    means = _mean_rates(out["results"])
    sizes = sorted(p for _, p in means)
    assert sizes == [10.0, 20.0, 40.0]
    by_n = [means[("optimized", s)] for s in sizes]
    assert by_n[0] < by_n[1] < by_n[2]

    cfg = hn.build_config("desk", config_text="methods = optimized\n"
                          "bs_corr = 0.4", trials=50)
    out = hn.run_experiment("kgr_vs_m", cfg, tmp_path / "combiner")
    means = _mean_rates(out["results"])
    sizes = sorted(p for _, p in means)
    assert sizes == [5.0, 10.0, 20.0]
    by_m = [means[("optimized", s)] for s in sizes]
    print(f"surface scaling {by_n}, combiner scaling {by_m}")
    assert by_m[0] < by_m[1] < by_m[2]
    assert by_m[2] - by_m[1] < by_m[1] - by_m[0]


# ---------------------------------------------------------------------------
# 11. identical runs produce identical bytes


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = hn.build_config("desk", trials=5)
    outs = [hn.run_experiment("kgr_vs_power", cfg, tmp_path / name)
            for name in ("first", "second")]
    for key in ("results", "manifest"):
        with open(outs[0][key], "rb") as fh:
            first = fh.read()
        with open(outs[1][key], "rb") as fh:
            second = fh.read()
        assert first == second


# ---------------------------------------------------------------------------
# 12. key bits: disagreement falls with power, sequences look random


def test_bit_disagreement_and_randomness(tmp_path):
    text = ("methods = optimized\n"
            "sweep_power_dbm = 10, 30\n"
            "probe_rounds = 10000\n")
    cfg = hn.build_config("desk", config_text=text, trials=50)
    out = hn.run_experiment("bdr_vs_power", cfg, tmp_path / "bits")
    rows = hn.read_csv_rows(out["results"])
    assert len(rows) == 100
    bdr = {10.0: [], 30.0: []}
    passed = 0
    for row in rows:
        assert int(row["n_bits"]) >= 10000
        bdr[float(row["sweep_value"])].append(float(row["bdr"]))
        if float(row["p_frequency"]) > 0.01 and float(row["p_runs"]) > 0.01:
            passed += 1
    low, high = np.mean(bdr[10.0]), np.mean(bdr[30.0])
    frac = passed / len(rows)
    print(f"disagreement {low:.4f} at 10 dBm, {high:.4f} at 30 dBm; "
          f"randomness pass rate {frac:.2f}")
    assert high < low
    assert frac >= 0.9
