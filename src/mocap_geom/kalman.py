"""Constant-velocity Kalman smoothing of per-reflector optical points.

Every matrix of the filter (transition, noises, initial covariance and so
every covariance after them) is a 2×2 (position, velocity) matrix M ⊗ I₃,
so each axis is the same 1-D filter with a shared gain (Bar-Shalom, Li &
Kirubarajan 2001), and a track keeps only M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spatial import OpticalFrame, OpticalPoint


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


@dataclass
class TrackState:
    """Position/velocity state with a symmetric positive-definite covariance."""

    position: np.ndarray  # (3,)
    velocity: np.ndarray  # (3,)
    covariance: np.ndarray  # (2, 2) SPD, the same for each axis


def init_state(measurement: np.ndarray, params: KalmanParams) -> TrackState:
    """First measurement seeds the state at the measurement, velocity zero."""
    return TrackState(np.asarray(measurement, dtype=np.float64).copy(), np.zeros(3),
                      np.diag([params.init_pos_var, params.init_vel_var]))


def _not_spd(p: np.ndarray) -> np.ndarray:
    """Mask of the 2×2 covariances in the stack ``p`` that are not SPD: a
    Cholesky pivot, ``a`` or ``c - (b / sqrt(a))^2``, is not > 0 (NaN is not)."""
    a, b, c = p[:, 0, 0], p[:, 1, 0], p[:, 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        l21 = b * (1.0 / np.sqrt(a))
        return ~((a > 0) & (c - l21 * l21 > 0))


class ReflectorTracker:
    """Owns one Kalman track per reflector across an optical-frame stream.

    Each track is a constant-velocity filter: ``step`` predicts every track
    one ``dt`` ahead and updates the measured ones with their new
    positions, all tracks at once with batched matrix ops.  No track
    depends on the others it is stepped with.  Every matrix of the filter
    is M ⊗ I₃ for a 2×2 (position, velocity) M, so the three axes of a
    track share its one 2×2 covariance and gain.
    """

    def __init__(self, dt: float, params: KalmanParams = KalmanParams()):
        # written so that NaN, for which every comparison is False, fails
        if not 0 < dt < math.inf:
            raise ValidationError(f"dt must be finite and positive, got {dt}")
        self.dt = dt
        self.params = params
        self.states: dict[int, TrackState] = {}
        self._F = np.array([[1.0, dt], [0.0, 1.0]])
        self._Q = params.accel_noise ** 2 * np.array(
            [[dt ** 4 / 4.0, dt ** 3 / 2.0], [dt ** 3 / 2.0, dt ** 2]])

    def step(self, frame: OpticalFrame) -> OpticalFrame:
        """Smooth one frame; tracks without a measurement coast silently.

        A new track starts at its measurement.  A track whose covariance
        leaves the SPD regime restarts at its measurement, or is dropped if
        it has none this frame; the other tracks are unaffected.
        """
        out = OpticalFrame(frame=frame.frame)
        points = frame.points
        measured = sorted(points)
        update_ids = [i for i in measured if i in self.states]
        coast_ids = [i for i in sorted(self.states) if i not in points]
        for idx in measured:
            if idx not in self.states:
                self.states[idx] = init_state(points[idx].position, self.params)
                out.add(points[idx])

        batch = update_ids + coast_ids
        if not batch:
            return out
        states = [self.states[i] for i in batch]
        x = self._F @ np.array([(s.position, s.velocity) for s in states])
        p = self._F @ np.array([s.covariance for s in states]) @ self._F.T + self._Q
        p = 0.5 * (p + np.transpose(p, (0, 2, 1)))
        lost = _not_spd(p)
        # A lost track restarts or is dropped below; an identity covariance
        # keeps its row of the update finite (no zero innovation variance).
        p[lost] = np.eye(2)
        n_up = len(update_ids)
        if n_up:
            z = np.array([points[i].position for i in update_ids])
            innovation = z - x[:n_up, 0]
            gain = p[:n_up, :, 0] * (
                1.0 / (p[:n_up, 0, 0] + self.params.meas_noise ** 2))[:, None]
            x[:n_up] += gain[:, :, None] * innovation[:, None, :]
            p[:n_up] = (np.eye(2) - gain[:, :, None] * [1.0, 0.0]) @ p[:n_up]
            p[:n_up] = 0.5 * (p[:n_up] + np.transpose(p[:n_up], (0, 2, 1)))
            lost[:n_up] |= _not_spd(p[:n_up])
        # Rows of this step's fresh arrays; nothing updates them in place.
        for j, idx in enumerate(batch):
            if not lost[j]:
                self.states[idx] = TrackState(x[j, 0], x[j, 1], p[j])
            elif j < n_up:
                self.states[idx] = init_state(points[idx].position, self.params)
            else:
                del self.states[idx]
        for j, idx in enumerate(update_ids):
            point = points[idx]
            if lost[j]:
                out.add(point)
            else:
                out.add(OpticalPoint(point.reflector, x[j, 0].copy(),
                                     point.confidence, point.frame,
                                     degraded=point.degraded))
        return out
