"""Least-squares calibration of the power model (paper Section V-C).

For every micro-benchmark we know the model's raw component powers
``P_i`` and measure the synthetic silicon; Eq. (1) is linear in the
unknowns ``(Scale_1..Scale_9, P_const, P_idleSM)``, so a least-squares
solve recovers them.  A physically meaningful fit has full rank and no
negative coefficient; anything else raises :class:`CalibrationError`
rather than returning a degenerate model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power.components import Component
from repro.power.hardware import SyntheticSilicon
from repro.power.microbench import build_microbenchmarks
from repro.power.model import GPUPowerModel


class CalibrationError(ValueError):
    """The stressor set cannot determine a physical Eq. (1) fit: the
    system is rank-deficient or a fitted coefficient is negative."""


@dataclass
class CalibrationResult:
    model: GPUPowerModel
    residual_w: float           # ||a @ x - y||, the fit's residual norm
    n_benchmarks: int
    measurements_w: np.ndarray
    predictions_w: np.ndarray

    @property
    def training_mape(self) -> float:
        err = np.abs(self.predictions_w - self.measurements_w)
        return float((err / self.measurements_w).mean())


def calibrate(silicon: SyntheticSilicon = None, microbenches=None,
              base_model: GPUPowerModel = None) -> CalibrationResult:
    """Fit the Eq. (1) scale factors on the stressor suite."""
    silicon = silicon or SyntheticSilicon()
    microbenches = microbenches or build_microbenchmarks()
    base = base_model or GPUPowerModel()

    components = list(Component)
    rows = []
    measured = []
    for mb in microbenches:
        raw = [base.raw_component_power_w(mb, c) for c in components]
        rows.append(raw + [1.0, float(mb.n_idle_sms)])
        measured.append(silicon.measure_w(mb))
    a = np.array(rows)
    y = np.array(measured)

    solution, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < a.shape[1]:
        raise CalibrationError(
            f"{len(microbenches)} stressors determine only {rank} of the "
            f"{a.shape[1]} Eq. (1) coefficients")
    if (solution < 0).any():
        raise CalibrationError(
            f"negative fitted coefficient(s): {solution[solution < 0]}")
    scales = {c: float(s) for c, s in zip(components, solution)}
    model = GPUPowerModel(scales=scales,
                          p_const_w=float(solution[-2]),
                          p_idle_sm_w=float(solution[-1]),
                          energies_pj=dict(base.energies_pj))
    predictions = a @ solution
    return CalibrationResult(model=model,
                             residual_w=float(np.linalg.norm(predictions - y)),
                             n_benchmarks=len(microbenches),
                             measurements_w=y, predictions_w=predictions)


_cached_model: dict = {}


def calibrated_model(seed: int = 0) -> GPUPowerModel:
    """Memoised default calibrated model (deterministic per seed)."""
    if seed not in _cached_model:
        _cached_model[seed] = calibrate(SyntheticSilicon(seed=seed)).model
    return _cached_model[seed]
