"""Calibration + validation workflow (paper Section V-C)."""

import numpy as np
import pytest

from repro.kernels.suite import run_suite
from repro.power.activity import activity_from_run
from repro.power.calibration import (CalibrationError, calibrate,
                                    calibrated_model)
from repro.power.hardware import (TRUE_P_CONST_W, TRUE_P_IDLE_SM_W,
                                  SyntheticSilicon)
from repro.power.microbench import build_microbenchmarks
from repro.power.validation import validate
from repro.sim.pipeline import simulate_sm


@pytest.fixture(scope="module")
def calibration():
    return calibrate(SyntheticSilicon(seed=11))


class TestCalibration:
    def test_recovers_constant_power(self, calibration):
        assert calibration.model.p_const_w \
            == pytest.approx(TRUE_P_CONST_W, rel=0.15)

    def test_recovers_idle_sm_power(self, calibration):
        assert calibration.model.p_idle_sm_w \
            == pytest.approx(TRUE_P_IDLE_SM_W, rel=0.2)

    def test_scales_near_unity(self, calibration):
        """Model energies are roughly right, so fitted scales should be
        O(1) — none degenerate to zero, none explode."""
        for c, s in calibration.model.scales.items():
            assert 0.2 < s < 5.0, f"{c} scale degenerate: {s}"

    def test_training_error_small(self, calibration):
        assert calibration.training_mape < 0.06

    def test_uses_all_123_stressors(self, calibration):
        assert calibration.n_benchmarks == 123

    def test_memoised_model(self):
        assert calibrated_model(seed=0) is calibrated_model(seed=0)


#: Eq. (1) fits as a non-negative least-squares solver computes them:
#: (p_const_w, p_idle_sm_w, residual_w, per-component scales).  The
#: non-negativity constraint never binds on the stressor suite, so the
#: unconstrained solve must reproduce them to float round-off.
GOLDEN = {
    0: (43.039661456926176, 0.5954515060769355, 51.15269186683477, {
        "ALU_FPU": 1.068010634576574, "INT_MULDIV": 1.2291594038623577,
        "FP_MULDIV": 1.2348201133722172, "SFU": 1.1011021688999236,
        "REGFILE": 1.2945668127310912, "CACHES_MC": 0.9024224060945039,
        "NOC": 2.111756984099812, "OTHERS": 1.0521374316919077,
        "DRAM": 0.5528325888375331}),
    11: (43.305216027629285, 0.5890240205979174, 49.720025679612675, {
        "ALU_FPU": 1.0713073247603664, "INT_MULDIV": 1.228192366224963,
        "FP_MULDIV": 1.238242327130742, "SFU": 1.1105561044862229,
        "REGFILE": 1.2980818294374787, "CACHES_MC": 0.840134589796915,
        "NOC": 2.1540511072576587, "OTHERS": 1.0467746919439858,
        "DRAM": 0.536385766121026}),
}


class TestSolver:
    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_coefficients(self, seed):
        p_const, p_idle, residual, scales = GOLDEN[seed]
        result = calibrate(SyntheticSilicon(seed=seed))
        model = result.model
        assert model.p_const_w == pytest.approx(p_const, rel=1e-12)
        assert model.p_idle_sm_w == pytest.approx(p_idle, rel=1e-12)
        assert result.residual_w == pytest.approx(residual, rel=1e-12)
        assert {c.name: s for c, s in model.scales.items()} \
            == pytest.approx(scales, rel=1e-12)

    def test_residual_is_fit_norm(self, calibration):
        err = calibration.predictions_w - calibration.measurements_w
        assert calibration.residual_w \
            == pytest.approx(float(np.linalg.norm(err)), rel=1e-12)

    def test_underdetermined_subset_raises(self):
        """Five stressors cannot pin eleven coefficients; the fit must
        refuse rather than return zeroed scales."""
        with pytest.raises(CalibrationError, match="determine only"):
            calibrate(microbenches=build_microbenchmarks()[:5])

    def test_negative_coefficient_raises(self):
        """Silicon that draws less power the busier it is would need a
        negative scale — not a physical power model."""
        class Inverted(SyntheticSilicon):
            def measure_w(self, mb):
                return 400.0 - super().measure_w(mb)

        with pytest.raises(CalibrationError, match="negative"):
            calibrate(Inverted(seed=0))


class TestValidation:
    @pytest.fixture(scope="class")
    def result(self, calibration):
        runs = run_suite(scale=0.15, seed=0)
        acts = {n: activity_from_run(r, simulate_sm(r.insts, r.launch),
                                     name=n)
                for n, r in runs.items()}
        return validate(calibration.model, acts,
                        SyntheticSilicon(seed=11))

    def test_error_in_papers_regime(self, result):
        """Paper: 10.5 % +/- 3.8 %; the kernel suite is a held-out set
        so some error is expected, but it must stay usable."""
        assert 0.01 < result.mape < 0.20

    def test_strong_correlation(self, result):
        """Paper: Pearson r = 0.8."""
        assert result.pearson_r > 0.75

    def test_ci_reported(self, result):
        assert result.mape_ci95 > 0

    def test_summary_format(self, result):
        s = result.summary()
        assert "MAPE" in s and "Pearson" in s and "23 kernels" in s

    def test_validation_is_out_of_sample(self, result):
        """No kernel name may appear among the stressor names."""
        from repro.power.microbench import build_microbenchmarks
        stressors = {m.name for m in build_microbenchmarks()}
        assert not (set(result.kernel_names) & stressors)
