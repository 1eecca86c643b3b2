"""Constant-velocity Kalman smoothing of per-reflector optical points."""

from __future__ import annotations

import functools
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
    covariance: np.ndarray  # (6, 6) SPD


def init_state(measurement: np.ndarray, params: KalmanParams) -> TrackState:
    """First measurement seeds the state at the measurement, velocity zero."""
    cov = np.diag([params.init_pos_var] * 3 + [params.init_vel_var] * 3)
    return TrackState(np.asarray(measurement, dtype=np.float64).copy(),
                      np.zeros(3), cov)


# Transition/noise matrices depend only on (dt, params); cache them.
@functools.lru_cache(maxsize=16)
def _matrices(dt: float, params: KalmanParams):
    F = np.eye(6)
    F[:3, 3:] = dt * np.eye(3)
    q = params.accel_noise ** 2
    Q = np.zeros((6, 6))
    Q[:3, :3] = q * (dt ** 4 / 4.0) * np.eye(3)
    Q[:3, 3:] = q * (dt ** 3 / 2.0) * np.eye(3)
    Q[3:, :3] = q * (dt ** 3 / 2.0) * np.eye(3)
    Q[3:, 3:] = q * (dt ** 2) * np.eye(3)
    H = np.zeros((3, 6))
    H[:, :3] = np.eye(3)
    R = params.meas_noise ** 2 * np.eye(3)
    return F, Q, H, R


def _not_spd(p: np.ndarray) -> np.ndarray:
    """Mask of the covariances in the stack ``p`` that are not SPD.

    One stacked ``cholesky`` checks them all; only when it fails is each
    covariance tested on its own.
    """
    try:
        np.linalg.cholesky(p)
        return np.zeros(len(p), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    lost = np.zeros(len(p), dtype=bool)
    for j, cov in enumerate(p):
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            lost[j] = True
    return lost


class ReflectorTracker:
    """Owns one Kalman track per reflector across an optical-frame stream.

    Each track is a constant-velocity filter: ``step`` predicts every track
    one ``dt`` ahead and updates the measured ones with their new
    positions, all tracks at once with batched matrix ops.  No track
    depends on the others it is stepped with.
    """

    def __init__(self, dt: float, params: KalmanParams = KalmanParams()):
        if dt <= 0:
            raise ValidationError("dt must be positive")
        self.dt = dt
        self.params = params
        self.states: dict[int, TrackState] = {}

    def step(self, frame: OpticalFrame) -> OpticalFrame:
        """Smooth one frame; tracks without a measurement coast silently.

        A new track starts at its measurement.  A track whose covariance
        leaves the SPD regime restarts at its measurement, or is dropped if
        it has none this frame; the other tracks are unaffected.
        """
        out = OpticalFrame(frame=frame.frame)
        F, Q, H, R = _matrices(self.dt, self.params)
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
        x = np.empty((len(batch), 6))
        x[:, :3] = [s.position for s in states]
        x[:, 3:] = [s.velocity for s in states]
        p = np.array([s.covariance for s in states])
        x = x @ F.T
        p = F @ p @ F.T + Q
        p = 0.5 * (p + np.transpose(p, (0, 2, 1)))
        lost = _not_spd(p)
        # A lost track restarts or is dropped below; an identity covariance
        # keeps its row of the update finite (no singular innovation).
        p[lost] = np.eye(6)
        n_up = len(update_ids)
        if n_up:
            z = np.array([points[i].position for i in update_ids])
            innovation = z - x[:n_up, :3]
            s = p[:n_up, :3, :3] + R
            k = p[:n_up, :, :3] @ np.linalg.inv(s)
            x[:n_up] += (k @ innovation[:, :, None])[:, :, 0]
            p[:n_up] = (np.eye(6) - k @ H) @ p[:n_up]
            p[:n_up] = 0.5 * (p[:n_up] + np.transpose(p[:n_up], (0, 2, 1)))
            lost[:n_up] |= _not_spd(p[:n_up])
        # Rows of this step's fresh arrays; nothing updates them in place.
        for j, idx in enumerate(batch):
            if not lost[j]:
                self.states[idx] = TrackState(x[j, :3], x[j, 3:], p[j])
            elif j < n_up:
                self.states[idx] = init_state(points[idx].position, self.params)
            else:
                del self.states[idx]
        for j, idx in enumerate(update_ids):
            point = points[idx]
            if lost[j]:
                out.add(point)
            else:
                out.add(OpticalPoint(point.reflector, x[j, :3].copy(),
                                     point.confidence, point.frame,
                                     degraded=point.degraded))
        return out
