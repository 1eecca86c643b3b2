"""Tests for the constant-velocity Kalman smoothing of optical points."""

import numpy as np
import pytest

from mocap_geom.core import ReflectorId
from mocap_geom.errors import ValidationError
from mocap_geom.kalman import KalmanParams, ReflectorTracker
from mocap_geom.spatial import OpticalFrame, OpticalPoint

DT = 1.0 / 30.0


def _point(pos, frame=0, conf=0.9, idx=1):
    return OpticalPoint(ReflectorId(idx), np.asarray(pos, dtype=float), conf, frame)


def _step(tracker, frame):
    """``tracker.step`` on the points of ``frame``, in reflector order; the
    smoothed frame, each point rebuilt as fuse_estimates builds it."""
    ids = sorted(frame.points)
    smoothed = tracker.step(
        ids, np.array([frame.points[i].position for i in ids]).reshape(-1, 3))
    out = OpticalFrame(frame=frame.frame)
    for idx, position in zip(ids, smoothed):
        p = frame.points[idx]
        out.add(OpticalPoint(p.reflector, position, p.confidence, p.frame,
                             degraded=p.degraded))
    return out


def _tracks(tracker):
    """The tracked reflector ids of ``tracker``, ascending."""
    return np.flatnonzero(tracker.tracked).tolist()


def _init_covariance(params):
    return np.diag([params.init_pos_var, params.init_vel_var])


def _reference_matrices(dt, params):
    """The 6×6 constant-velocity F, Q, H and R, built here so that the
    reference shares no matrix with the tracker it checks."""
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


def _reference_kalman_step(state, measurement, dt, params=KalmanParams()):
    """One predict/update cycle of a single track, step by step, as the
    full 6×6 filter over the state ``(x, P)``: x the (6,) position and
    velocity, P its 6×6 covariance.

    With no prior state the measurement initializes the track; with no
    measurement the state coasts and no smoothed point is produced.  A
    covariance that leaves the SPD regime raises LinAlgError.
    """
    if state is None:
        P = np.diag([params.init_pos_var] * 3 + [params.init_vel_var] * 3)
        return (np.concatenate([measurement.position, np.zeros(3)]), P), measurement
    F, Q, H, R = _reference_matrices(dt, params)
    x = F @ state[0]
    P = F @ state[1] @ F.T + Q
    P = 0.5 * (P + P.T)
    np.linalg.cholesky(P)
    if measurement is None:
        return (x, P), None
    K = P[:, :3] @ np.linalg.inv(P[:3, :3] + R)
    x = x + K @ (measurement.position - x[:3])
    P = (np.eye(6) - K @ H) @ P
    P = 0.5 * (P + P.T)
    np.linalg.cholesky(P)
    return (x, P), OpticalPoint(
        measurement.reflector, x[:3].copy(), measurement.confidence,
        measurement.frame, degraded=measurement.degraded)


class TestKalmanStep:
    """One reflector's track, stepped by a ReflectorTracker frame by frame."""

    def test_first_measurement_initializes_at_measurement(self):
        tracker = ReflectorTracker(DT)
        frame = OpticalFrame(frame=0)
        frame.add(_point([1.0, 2.0, 3.0]))
        out = _step(tracker, frame)
        np.testing.assert_allclose(tracker.state[1, 0], [1, 2, 3])
        np.testing.assert_allclose(tracker.state[1, 1], [0, 0, 0])
        np.testing.assert_allclose(out.points[1].position, [1, 2, 3])

    def test_covariance_stays_spd(self):
        rng = np.random.default_rng(2)
        tracker = ReflectorTracker(DT)
        for f in range(200):
            frame = OpticalFrame(frame=f)
            frame.add(_point(rng.normal(scale=0.01, size=3) + [0, 0, 1], frame=f))
            _step(tracker, frame)
            np.linalg.cholesky(tracker.covariance[1])  # raises if not SPD

    def test_noise_variance_is_reduced(self):
        # Stationary point with sigma = 1 cm noise: smoothed output variance
        # must come out below the measurement variance (Monte Carlo oracle).
        rng = np.random.default_rng(7)
        truth = np.array([0.5, -0.2, 1.1])
        meas_all = []
        smooth_all = []
        for trial in range(20):
            tracker = ReflectorTracker(DT)
            for f in range(100):
                m = truth + rng.normal(scale=0.01, size=3)
                frame = OpticalFrame(frame=f)
                frame.add(_point(m, frame=f))
                smoothed = _step(tracker, frame).points[1]
                if f >= 30:  # past the transient
                    meas_all.append(m - truth)
                    smooth_all.append(smoothed.position - truth)
        var_meas = np.var(np.array(meas_all))
        var_smooth = np.var(np.array(smooth_all))
        assert var_smooth < var_meas

    def test_tracks_exact_constant_velocity_within_1mm_after_transient(self):
        tracker = ReflectorTracker(DT)
        vel = np.array([0.3, -0.1, 0.05])
        for f in range(60):
            pos = np.array([0.0, 0.0, 1.0]) + vel * f * DT
            frame = OpticalFrame(frame=f)
            frame.add(_point(pos, frame=f))
            smoothed = _step(tracker, frame).points[1]
            if f >= 20:
                assert np.linalg.norm(smoothed.position - pos) <= 1e-3

    def test_predict_only_coasts(self):
        tracker = ReflectorTracker(DT)
        for f, pos in enumerate(([0, 0, 1.0], [0.01, 0, 1.0])):
            frame = OpticalFrame(frame=f)
            frame.add(_point(pos, frame=f))
            _step(tracker, frame)
        position, velocity = tracker.state[1].copy()
        out = _step(tracker, OpticalFrame(frame=2))
        assert out.points == {}
        np.testing.assert_allclose(tracker.state[1, 0], position + DT * velocity,
                                   atol=1e-12)

    def test_init_state_params(self):
        params = KalmanParams(init_pos_var=2e-4, init_vel_var=3.0)
        tracker = ReflectorTracker(DT, params)
        tracker.step([1], [[1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(tracker.covariance[1], np.diag([2e-4, 3.0]))
        np.linalg.cholesky(tracker.covariance[1])


class TestReflectorTracker:
    def test_dt_must_be_finite_and_positive(self):
        for dt in (0.0, -DT, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="dt"):
                ReflectorTracker(dt)

    def test_per_reflector_tracks_are_independent(self):
        tracker = ReflectorTracker(DT)
        frame = OpticalFrame(frame=0)
        frame.add(_point([0, 0, 1], idx=1))
        frame.add(_point([1, 1, 1], idx=2))
        out = _step(tracker, frame)
        assert set(out.points) == {1, 2}

    def test_missing_reflector_omitted_from_output(self):
        tracker = ReflectorTracker(DT)
        f0 = OpticalFrame(frame=0)
        f0.add(_point([0, 0, 1], idx=1))
        _step(tracker, f0)
        f1 = OpticalFrame(frame=1)  # reflector 1 dropped out
        out = _step(tracker, f1)
        assert out.points == {}
        assert tracker.tracked[1]  # track coasts

    def test_smoothing_reduces_jitter_in_stream(self):
        rng = np.random.default_rng(9)
        tracker = ReflectorTracker(DT)
        raw_dev = []
        smooth_dev = []
        for f in range(120):
            truth = np.array([0.0, 0.0, 1.0])
            noisy = truth + rng.normal(scale=0.01, size=3)
            frame = OpticalFrame(frame=f)
            frame.add(_point(noisy, frame=f))
            out = _step(tracker, frame)
            if f >= 30:
                raw_dev.append(np.linalg.norm(noisy - truth))
                smooth_dev.append(np.linalg.norm(out.points[1].position - truth))
        assert np.mean(smooth_dev) < np.mean(raw_dev)


def _random_stream(rng, frames=60, reflectors=12):
    """Frames in which reflectors appear, drop out, coast and come back."""
    present = rng.random(reflectors) < 0.5
    pos = rng.normal(scale=0.5, size=(reflectors, 3)) + [0, 0, 1]
    vel = rng.normal(scale=0.5, size=(reflectors, 3))
    stream = []
    for f in range(frames):
        present ^= rng.random(reflectors) < 0.15
        pos = pos + vel * DT
        frame = OpticalFrame(frame=f)
        for i in np.flatnonzero(present):
            frame.add(OpticalPoint(ReflectorId(int(i) + 1),
                                   pos[i] + rng.normal(scale=0.005, size=3),
                                   float(rng.random()), f,
                                   degraded=bool(rng.random() < 0.1)))
        stream.append(frame)
    return stream


def _reference_step(states, frame, params):
    """Tracker step built from _reference_kalman_step, one track at a time."""
    out = {}
    for idx in sorted(set(states) | set(frame.points)):
        states[idx], smoothed = _reference_kalman_step(
            states.get(idx), frame.get(idx), DT, params)
        if smoothed is not None:
            out[idx] = smoothed
    return out


class TestTrackerMatchesKalmanStep:
    def test_per_track_on_random_streams(self):
        rng = np.random.default_rng(31)
        births = coasts = 0
        gap = 0.0
        for trial in range(20):
            params = KalmanParams(accel_noise=float(rng.uniform(0.05, 5.0)),
                                  meas_noise=float(rng.uniform(1e-3, 0.05)),
                                  init_pos_var=float(rng.uniform(1e-6, 1e-2)),
                                  init_vel_var=float(rng.uniform(0.01, 10.0)))
            tracker = ReflectorTracker(DT, params)
            states = {}
            for frame in _random_stream(rng):
                births += len(set(frame.points) - set(states))
                coasts += len(set(states) - set(frame.points))
                got = _step(tracker, frame)
                want = _reference_step(states, frame, params)
                assert sorted(got.points) == sorted(want) == sorted(frame.points)
                for idx, point in want.items():
                    mine = got.points[idx]
                    gap = max(gap, np.abs(mine.position - point.position).max())
                    assert (mine.reflector, mine.confidence, mine.frame,
                            mine.degraded) == (point.reflector, point.confidence,
                                               point.frame, point.degraded)
                assert _tracks(tracker) == sorted(states)
                for idx, (x, P) in states.items():
                    # the premise of the tracker's 2×2 covariance: the 6×6
                    # filter keeps P = M ⊗ I₃, M its (position, velocity) block
                    assert np.array_equal(P, np.kron(P[::3, ::3], np.eye(3)))
                    gap = max(gap, np.abs(tracker.state[idx].ravel() - x).max(),
                              np.abs(np.kron(tracker.covariance[idx], np.eye(3))
                                     - P).max())
        assert gap <= 1e-12
        assert births > 150 and coasts > 1000


class TestNonSpdReset:
    """A covariance forced out of the SPD regime resets that track alone."""

    STREAM = _random_stream(np.random.default_rng(5), frames=30, reflectors=10)

    # a negative first pivot, and a positive diagonal with a negative
    # second pivot (det < 0) that stays indefinite through the prediction
    FAULTS = (-np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def _run(self, last, fault=None, covariance=None):
        tracker = ReflectorTracker(DT)
        for frame in self.STREAM[:last]:
            _step(tracker, frame)
        if fault is not None:
            tracker.covariance[fault] = covariance
        return tracker, _step(tracker, self.STREAM[last])

    def _pick(self, measured):
        """A frame and a track started before it, measured in it or not."""
        for f in range(10, len(self.STREAM)):
            started = set().union(*(s.points for s in self.STREAM[:f]))
            for idx in sorted(started):
                if (idx in self.STREAM[f].points) == measured:
                    return f, idx
        raise AssertionError("the stream has no such track")

    def _assert_others_equal(self, f, idx, tracker, out):
        clean_tracker, clean = self._run(f)
        assert out.points.keys() == clean.points.keys()
        for other, point in clean.points.items():
            if other != idx:
                np.testing.assert_array_equal(out.points[other].position,
                                              point.position)
        assert set(_tracks(tracker)) | {idx} == set(_tracks(clean_tracker))
        for other in _tracks(clean_tracker):
            if other != idx:
                np.testing.assert_array_equal(tracker.state[other],
                                              clean_tracker.state[other])
                np.testing.assert_array_equal(tracker.covariance[other],
                                              clean_tracker.covariance[other])

    def test_measured_track_restarts_at_its_measurement(self):
        f, idx = self._pick(measured=True)
        for covariance in self.FAULTS:
            tracker, out = self._run(f, fault=idx, covariance=covariance)
            point = self.STREAM[f].points[idx]
            np.testing.assert_array_equal(out.points[idx].position,
                                          point.position)
            np.testing.assert_array_equal(tracker.state[idx],
                                          [point.position, np.zeros(3)])
            np.testing.assert_array_equal(tracker.covariance[idx],
                                          _init_covariance(KalmanParams()))
            self._assert_others_equal(f, idx, tracker, out)

    def test_coasting_track_is_dropped(self):
        f, idx = self._pick(measured=False)
        for covariance in self.FAULTS:
            tracker, out = self._run(f, fault=idx, covariance=covariance)
            assert not tracker.tracked[idx]
            self._assert_others_equal(f, idx, tracker, out)

    def test_dropped_track_restarts_when_measured_again(self):
        # A track dropped while it coasts keeps nothing of its row: measured
        # again, it starts afresh, and the other tracks never notice.
        f, idx = self._pick(measured=False)
        g = next((g for g in range(f + 1, len(self.STREAM))
                  if idx in self.STREAM[g].points), None)
        assert g is not None, "the stream never measures the track again"
        for covariance in self.FAULTS:
            tracker, clean = ReflectorTracker(DT), ReflectorTracker(DT)
            for k, frame in enumerate(self.STREAM[:g + 1]):
                if k == f:
                    tracker.covariance[idx] = covariance
                out, want = _step(tracker, frame), _step(clean, frame)
                if k == f:
                    assert not tracker.tracked[idx]
            point = self.STREAM[g].points[idx]
            np.testing.assert_array_equal(out.points[idx].position,
                                          point.position)
            np.testing.assert_array_equal(tracker.state[idx, 1], np.zeros(3))
            np.testing.assert_array_equal(tracker.covariance[idx],
                                          _init_covariance(KalmanParams()))
            assert out.points.keys() == want.points.keys()
            for other in want.points:
                if other != idx:
                    np.testing.assert_array_equal(out.points[other].position,
                                                  want.points[other].position)
            assert _tracks(tracker) == _tracks(clean)
            for other in _tracks(clean):
                if other != idx:
                    np.testing.assert_array_equal(tracker.state[other],
                                                  clean.state[other])
                    np.testing.assert_array_equal(tracker.covariance[other],
                                                  clean.covariance[other])

    def test_exact_measurements_keep_every_covariance_spd(self):
        # With meas_noise = 0 an update collapses the position variance, so
        # most updates leave the SPD regime and restart their track.
        params = KalmanParams(meas_noise=0.0)
        tracker = ReflectorTracker(DT, params)
        restarts = births = updates = 0
        for frame in self.STREAM:
            births += len(set(frame.points) - set(_tracks(tracker)))
            updates += len(set(frame.points) & set(_tracks(tracker)))
            _step(tracker, frame)
            # a started track holds the initial covariance, bit for bit
            restarts += sum(np.array_equal(tracker.covariance[i],
                                           _init_covariance(params))
                            for i in frame.points)
            for idx in _tracks(tracker):
                np.linalg.cholesky(tracker.covariance[idx])  # raises if not SPD
        assert restarts - births > 0.5 * updates

    def test_singular_prediction_restarts_without_an_update(self):
        # No process or measurement noise: a zero covariance predicts to a
        # zero innovation covariance, which must not reach the update.
        params = KalmanParams(accel_noise=0.0, meas_noise=0.0)
        tracker = ReflectorTracker(DT, params)
        for f, pos in enumerate(([0.0, 0.0, 1.0], [0.01, 0.0, 1.0])):
            frame = OpticalFrame(frame=f)
            frame.add(_point(pos, frame=f))
            if f == 1:
                tracker.covariance[1] = np.zeros((2, 2))
            out = _step(tracker, frame)
        np.testing.assert_array_equal(out.points[1].position,
                                      frame.points[1].position)
        np.testing.assert_array_equal(tracker.covariance[1],
                                      _init_covariance(params))
