"""Constant-velocity Kalman smoothing of per-reflector optical points.

Every matrix of the filter (transition, noises, initial covariance and so
every covariance after them) is a 2×2 (position, velocity) matrix M ⊗ I₃,
so each axis is the same 1-D filter with a shared gain (Bar-Shalom, Li &
Kirubarajan 2001), and a track keeps only M.  The tracks are rows of
arrays indexed by reflector id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NUM_REFLECTORS
from .errors import ValidationError


@dataclass(frozen=True)
class KalmanParams:
    # White-acceleration process noise (m/s^2) and isotropic measurement
    # noise (m); both exposed in the pipeline config.
    accel_noise: float = 0.5
    meas_noise: float = 0.005
    init_pos_var: float = 1e-4
    init_vel_var: float = 1.0

    def __post_init__(self):
        for name in ("accel_noise", "meas_noise", "init_pos_var", "init_vel_var"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def _not_spd(p: np.ndarray) -> np.ndarray:
    """Mask of the 2×2 covariances in the stack ``p`` that are not SPD: a
    Cholesky pivot, ``a`` or ``c - (b / sqrt(a))^2``, is not > 0 (NaN is not)."""
    a, b, c = p[:, 0, 0], p[:, 1, 0], p[:, 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        l21 = b * (1.0 / np.sqrt(a))
        return ~((a > 0) & (c - l21 * l21 > 0))


class ReflectorTracker:
    """Owns one Kalman track per reflector across a stream of fused frames.

    Reflector id i owns row i of three arrays: ``tracked[i]`` (whether the
    track exists), ``state[i]`` (its position and velocity rows, (2, 3))
    and ``covariance[i]`` (its 2×2 M, shared by the three axes).  Each
    track is a constant-velocity filter: ``step`` predicts every track one
    ``dt`` ahead and updates the measured ones with their new positions,
    all tracks at once with batched matrix ops.  No track depends on the
    others it is stepped with.
    """

    def __init__(self, dt: float, params: KalmanParams = KalmanParams()):
        # written so that NaN, for which every comparison is False, fails
        if not 0 < dt < math.inf:
            raise ValidationError(f"dt must be finite and positive, got {dt}")
        self.params = params
        self.tracked = np.zeros(NUM_REFLECTORS + 1, dtype=bool)
        self.state = np.zeros((NUM_REFLECTORS + 1, 2, 3))
        self.covariance = np.zeros((NUM_REFLECTORS + 1, 2, 2))
        self._F = np.array([[1.0, dt], [0.0, 1.0]])
        self._Q = params.accel_noise ** 2 * np.array(
            [[dt ** 4 / 4.0, dt ** 3 / 2.0], [dt ** 3 / 2.0, dt ** 2]])

    def step(self, ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The smoothed positions, (n, 3), of the distinct reflectors
        ``ids`` measured at ``positions`` (n, 3) this frame; the other
        tracks coast silently.

        A new track starts at its measurement with zero velocity and
        covariance diag(init_pos_var, init_vel_var).  A track whose
        covariance leaves the SPD regime restarts so, or is dropped if it
        has no measurement this frame; the other tracks are unaffected.
        """
        ids = np.asarray(ids, dtype=np.intp)
        positions = np.asarray(positions, dtype=np.float64)
        measured = np.zeros_like(self.tracked)
        measured[ids] = True
        update = self.tracked[ids]
        # the measured tracks first, then the coasting ones
        batch = np.concatenate([ids[update],
                                np.flatnonzero(self.tracked & ~measured)])
        n_up = int(update.sum())
        x = self._F @ self.state[batch]
        p = self._F @ self.covariance[batch] @ self._F.T + self._Q
        p = 0.5 * (p + np.transpose(p, (0, 2, 1)))
        lost = _not_spd(p)
        # A lost track restarts or is dropped below; an identity covariance
        # keeps its row of the update finite (no zero innovation variance).
        p[lost] = np.eye(2)
        innovation = positions[update] - x[:n_up, 0]
        gain = p[:n_up, :, 0] * (
            1.0 / (p[:n_up, 0, 0] + self.params.meas_noise ** 2))[:, None]
        x[:n_up] += gain[:, :, None] * innovation[:, None, :]
        p[:n_up] = (np.eye(2) - gain[:, :, None] * [1.0, 0.0]) @ p[:n_up]
        p[:n_up] = 0.5 * (p[:n_up] + np.transpose(p[:n_up], (0, 2, 1)))
        lost[:n_up] |= _not_spd(p[:n_up])
        self.state[batch], self.covariance[batch] = x, p
        self.tracked[batch[lost]] = False
        start = ~self.tracked[ids]  # births and restarts
        self.state[ids[start], 0] = positions[start]
        self.state[ids[start], 1] = 0.0
        self.covariance[ids[start]] = np.diag([self.params.init_pos_var,
                                               self.params.init_vel_var])
        self.tracked[ids] = True
        return self.state[ids, 0]
