"""Tests for the batched DDA marching engine.

The invariants: exact agreement with the scalar reference, exact path
lengths, correct accumulation physics (attenuation algebra), ROI
parking, reflections, and termination guarantees.
"""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Box, CellType
from repro.core import (
    LevelFields,
    RayBatch,
    RayStatus,
    isotropic_directions,
    march,
    march_single_ray,
    patch_roi,
    trace_rays_scalar,
)
from repro.radiation import RadiativeProperties
from repro.util.errors import ReproError


def make_fields(n=8, kappa=1.0, st4=1.0, wall_t4=0.0, wall_emis=1.0, dx=None, kappa_field=None):
    box = Box.cube(n)
    abskg = kappa_field if kappa_field is not None else np.full(box.extent, kappa)
    props = RadiativeProperties.from_fields(
        box,
        abskg=abskg,
        sigma_t4=np.full(box.extent, st4),
        wall_emissivity=wall_emis,
    )
    if wall_t4 != 0.0:
        # set wall ring emissive power directly (sigma*T^4 units)
        ring = props.sigma_t4
        mask = props.cell_type != CellType.FLOW
        ring[mask] = wall_t4
    h = dx if dx is not None else 1.0 / n
    return LevelFields(
        abskg=props.abskg,
        sigma_t4=props.sigma_t4,
        cell_type=props.cell_type,
        interior=box,
        dx=(h,) * 3,
        anchor=(0.0, 0.0, 0.0),
    )


def center_origin(fields, n):
    return np.tile(np.asarray(fields.cell_center(np.array([n // 2] * 3))), (1, 1))


class TestAnalyticSingleRay:
    def test_axis_ray_homogeneous_medium(self):
        """A +x axis ray from the domain centre: sumI has a closed form.

        Through a homogeneous medium (kappa, Ib = st4/pi) to a cold
        black wall at distance L: sumI = Ib * (1 - exp(-kappa L)).
        """
        n, kappa = 8, 2.0
        fields = make_fields(n, kappa=kappa)
        origin = fields.cell_center(np.array([n // 2, n // 2, n // 2]))
        L = 1.0 - origin[0]
        batch = RayBatch.fresh(origin[None, :], np.array([[1.0, 0.0, 0.0]]))
        march(fields=fields, batch=batch, threshold=1e-12)
        expected = (1.0 / np.pi) * (1.0 - np.exp(-kappa * L))
        assert np.isclose(batch.sum_i[0], expected, rtol=1e-12)
        assert batch.status[0] == RayStatus.WALL_HIT

    def test_diagonal_ray_path_length(self):
        """Total optical depth equals kappa times the chord length."""
        n, kappa = 8, 3.0
        fields = make_fields(n, kappa=kappa)
        origin = np.array([[0.3, 0.4, 0.2]])
        d = np.array([[1.0, 1.0, 1.0]]) / np.sqrt(3)
        batch = RayBatch.fresh(origin, d)
        march(fields=fields, batch=batch, threshold=1e-14)
        # chord: exits when any coordinate reaches 1; x first? all equal rate,
        # limiting coordinate is max start -> y reaches 1 after 0.6*sqrt(3)
        t_exit = (1.0 - 0.4) * np.sqrt(3)
        # after wall entry the march stops; tau accumulated over the chord
        assert np.isclose(batch.tau[0], kappa * t_exit, rtol=1e-10)

    def test_hot_wall_contribution(self):
        """Cold medium (no emission), hot black wall: sumI = Ib_wall * exp(-tau)."""
        n, kappa = 6, 1.5
        fields = make_fields(n, kappa=kappa, st4=0.0, wall_t4=2.0)
        origin = fields.cell_center(np.array([3, 3, 3]))
        batch = RayBatch.fresh(origin[None, :], np.array([[0.0, 0.0, -1.0]]))
        march(fields=fields, batch=batch, threshold=1e-14)
        L = origin[2]  # distance to z=0 wall
        expected = (2.0 / np.pi) * np.exp(-kappa * L)
        assert np.isclose(batch.sum_i[0], expected, rtol=1e-12)

    def test_threshold_extinction(self):
        """A huge optical depth kills the ray before it reaches a wall."""
        fields = make_fields(8, kappa=500.0)
        origin = fields.cell_center(np.array([4, 4, 4]))
        batch = RayBatch.fresh(origin[None, :], np.array([[1.0, 0.0, 0.0]]))
        march(fields=fields, batch=batch, threshold=1e-3)
        assert batch.status[0] == RayStatus.EXTINCT
        # it absorbed essentially all the emission along the way
        assert np.isclose(batch.sum_i[0], 1.0 / np.pi, rtol=1e-2)

    def test_zero_direction_component(self):
        fields = make_fields(8)
        origin = fields.cell_center(np.array([4, 4, 4]))
        batch = RayBatch.fresh(origin[None, :], np.array([[0.0, 1.0, 0.0]]))
        march(fields=fields, batch=batch)
        assert batch.status[0] == RayStatus.WALL_HIT


class TestDifferential:
    """Vectorized batch kernel == scalar reference, ray for ray."""

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0])
    def test_homogeneous(self, kappa):
        fields = make_fields(8, kappa=kappa)
        rng = np.random.default_rng(11)
        cells = rng.integers(0, 8, size=(64, 3))
        origins = np.asarray(fields.cell_center(cells))
        dirs = isotropic_directions(rng, 64)
        scalar = trace_rays_scalar(fields, origins, dirs)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        np.testing.assert_allclose(batch.sum_i, scalar, rtol=0, atol=1e-15)

    def test_heterogeneous_medium(self):
        rng = np.random.default_rng(13)
        kf = rng.random((8, 8, 8)) * 5
        fields = make_fields(8, kappa_field=kf)
        origins = np.asarray(fields.cell_center(rng.integers(0, 8, size=(128, 3))))
        dirs = isotropic_directions(rng, 128)
        scalar = trace_rays_scalar(fields, origins, dirs)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        np.testing.assert_allclose(batch.sum_i, scalar, rtol=0, atol=1e-15)

    def test_with_reflections(self):
        fields = make_fields(6, kappa=2.0, wall_emis=0.5)
        rng = np.random.default_rng(17)
        origins = np.asarray(fields.cell_center(rng.integers(0, 6, size=(64, 3))))
        dirs = isotropic_directions(rng, 64)
        scalar = trace_rays_scalar(fields, origins, dirs, reflections=True)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, reflections=True)
        np.testing.assert_allclose(batch.sum_i, scalar, rtol=0, atol=1e-14)

    def test_roi_parking_matches_scalar(self):
        fields = make_fields(8, kappa=1.0)
        roi = Box((2, 2, 2), (6, 6, 6))
        rng = np.random.default_rng(19)
        cells = rng.integers(3, 5, size=(32, 3))
        origins = np.asarray(fields.cell_center(cells))
        dirs = isotropic_directions(rng, 32)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, roi=roi)
        for r in range(32):
            s, tau, status, exit_pos = march_single_ray(
                fields, origins[r], dirs[r], roi=roi
            )
            assert batch.status[r] == status
            assert np.isclose(batch.sum_i[r], s, atol=1e-15)
            if status == RayStatus.LEFT_ROI:
                assert np.allclose(batch.exit_pos[r], exit_pos, atol=1e-12)


class TestROI:
    def test_all_rays_park_with_tiny_roi(self):
        fields = make_fields(8, kappa=0.5)
        roi = Box((3, 3, 3), (5, 5, 5))
        origins = np.asarray(fields.cell_center(np.full((16, 3), 4)))
        dirs = isotropic_directions(np.random.default_rng(0), 16)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, roi=roi)
        assert (batch.status == RayStatus.LEFT_ROI).all()
        # exit positions sit on the ROI boundary shell
        lo = np.array([3, 3, 3]) * fields.dx[0]
        hi = np.array([5, 5, 5]) * fields.dx[0]
        eps = 1e-9
        on_shell = (
            (np.abs(batch.exit_pos - lo) < eps) | (np.abs(batch.exit_pos - hi) < eps)
        ).any(axis=1)
        assert on_shell.all()

    def test_handoff_continuation_equals_uninterrupted(self):
        """Park at an ROI then resume on the SAME level == never parking."""
        fields = make_fields(8, kappa=1.3)
        roi = Box((2, 2, 2), (6, 6, 6))
        rng = np.random.default_rng(23)
        origins = np.asarray(fields.cell_center(rng.integers(3, 5, size=(64, 3))))
        dirs = isotropic_directions(rng, 64)

        uninterrupted = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields, batch=uninterrupted)

        two_phase = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields, batch=two_phase, roi=roi)
        march(fields=fields, batch=two_phase, from_handoff=True)

        np.testing.assert_allclose(two_phase.sum_i, uninterrupted.sum_i, atol=1e-9)
        assert not (two_phase.status == RayStatus.LEFT_ROI).any()

    def test_roi_outside_ring_rejected(self):
        fields = make_fields(4)
        with pytest.raises(ReproError):
            march(
                fields=fields,
                batch=RayBatch.fresh(np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 0, 0]])),
                roi=Box((-5, -5, -5), (10, 10, 10)),
            )


class TestReflections:
    def test_perfect_mirror_extinction(self):
        """emissivity ~ 0 walls: rays bounce until the threshold kills them,
        and in a hot medium they absorb the full local emission."""
        fields = make_fields(6, kappa=0.5, wall_emis=1e-12)
        origins = np.asarray(fields.cell_center(np.full((8, 3), 3)))
        dirs = isotropic_directions(np.random.default_rng(1), 8)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch, reflections=True, threshold=1e-3)
        assert (batch.status == RayStatus.EXTINCT).all()
        # infinite reflections in a hot medium: sumI -> Ib = 1/pi
        assert np.allclose(batch.sum_i, 1 / np.pi, rtol=5e-3)

    def test_reflective_walls_increase_sum(self):
        fields_black = make_fields(6, kappa=0.5, wall_emis=1.0)
        fields_refl = make_fields(6, kappa=0.5, wall_emis=0.3)
        origins = np.asarray(fields_black.cell_center(np.full((32, 3), 3)))
        dirs = isotropic_directions(np.random.default_rng(2), 32)
        b1 = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields_black, batch=b1)
        b2 = RayBatch.fresh(origins.copy(), dirs.copy())
        march(fields=fields_refl, batch=b2, reflections=True)
        assert b2.sum_i.mean() > b1.sum_i.mean()


class TestBatchMechanics:
    def test_fresh_validates_shapes(self):
        with pytest.raises(ReproError):
            RayBatch.fresh(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ReproError):
            RayBatch.fresh(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_empty_batch(self):
        fields = make_fields(4)
        batch = RayBatch.fresh(np.zeros((0, 3)), np.zeros((0, 3)))
        march(fields=fields, batch=batch)
        assert batch.n == 0

    def test_max_steps_guard(self):
        fields = make_fields(8, kappa=0.0)  # no absorption: never extinct
        # with kappa=0 rays still terminate at walls, so force failure
        # with an absurd cap
        origins = np.asarray(fields.cell_center(np.array([[4, 4, 4]])))
        dirs = np.array([[1.0, 0.0, 0.0]])
        batch = RayBatch.fresh(origins, dirs)
        with pytest.raises(ReproError):
            march(fields=fields, batch=batch, max_steps=1)

    def test_statuses_partition(self):
        fields = make_fields(8, kappa=1.0)
        rng = np.random.default_rng(3)
        origins = np.asarray(fields.cell_center(rng.integers(0, 8, size=(256, 3))))
        dirs = isotropic_directions(rng, 256)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        assert not (batch.status == RayStatus.ALIVE).any()
        assert set(np.unique(batch.status)) <= {
            int(RayStatus.WALL_HIT),
            int(RayStatus.EXTINCT),
        }

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_property_sum_i_bounded(self, seed):
        """For st4 = 1 everywhere (walls cold), sumI in [0, 1/pi]."""
        fields = make_fields(6, kappa=2.0)
        rng = np.random.default_rng(seed)
        origins = np.asarray(fields.cell_center(rng.integers(0, 6, size=(16, 3))))
        dirs = isotropic_directions(rng, 16)
        batch = RayBatch.fresh(origins, dirs)
        march(fields=fields, batch=batch)
        assert (batch.sum_i >= 0).all()
        assert (batch.sum_i <= 1 / np.pi + 1e-12).all()


# ----------------------------------------------------------------------
# bit pins outside the gold path
# ----------------------------------------------------------------------
def pin_fields(n, seed, wall_emis=1.0, intrusion=None):
    """Heterogeneous unit-cube level: random kappa and emission, hot
    walls, and an optional intrusion box (interior cell indices)."""
    rng = np.random.default_rng(seed)
    box = Box.cube(n)
    cell_type = None
    if intrusion is not None:
        cell_type = np.full(box.extent, CellType.FLOW, dtype=np.int8)
        cell_type[intrusion.slices(origin=box.lo)] = CellType.INTRUSION
    props = RadiativeProperties.from_fields(
        box,
        abskg=0.2 + 3.0 * rng.random(box.extent),
        sigma_t4=rng.random(box.extent),
        wall_temperature=40.0,
        wall_emissivity=wall_emis,
        cell_type=cell_type,
    )
    return LevelFields(
        abskg=props.abskg,
        sigma_t4=props.sigma_t4,
        cell_type=props.cell_type,
        interior=box,
        dx=(1.0 / n,) * 3,
        anchor=(0.0, 0.0, 0.0),
    )


def pin_rays(fields, box, n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    cells = lo + rng.integers(0, hi - lo, size=(n, 3))
    origins = fields.anchor + (cells + rng.random((n, 3))) * np.asarray(fields.dx)
    return origins, isotropic_directions(rng, n)


def batch_digest(*batches):
    h = hashlib.sha256()
    for b in batches:
        for arr in (b.sum_i, b.tau, b.status, b.exit_pos):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def pin_roi_handoff():
    fine = pin_fields(16, 101, intrusion=Box((9, 9, 9), (11, 12, 11)))
    coarse = pin_fields(8, 102, intrusion=Box((4, 4, 4), (6, 6, 6)))
    patch = Box((0, 4, 4), (6, 10, 10))
    roi = patch_roi(fine.interior, patch, halo=2)
    batch = RayBatch.fresh(*pin_rays(fine, patch, 600, 103))
    march(fields=fine, batch=batch, roi=roi)
    parked = copy.deepcopy(batch)
    march(fields=coarse, batch=batch, from_handoff=True)
    return batch_digest(parked, batch)


def pin_reflections():
    fields = pin_fields(10, 201, wall_emis=0.4, intrusion=Box((2, 3, 4), (4, 7, 6)))
    batch = RayBatch.fresh(*pin_rays(fields, fields.interior, 600, 202))
    march(fields=fields, batch=batch, reflections=True, threshold=1e-5)
    return batch_digest(batch)


def pin_roi_reflections():
    fields = pin_fields(12, 301, wall_emis=0.4)
    roi = Box((-1, -1, 2), (9, 13, 13))
    batch = RayBatch.fresh(*pin_rays(fields, Box((0, 0, 3), (8, 12, 12)), 600, 302))
    march(fields=fields, batch=batch, roi=roi, reflections=True, threshold=1e-5)
    return batch_digest(batch)


def pin_tau0():
    fields = pin_fields(10, 401)
    batch = RayBatch.fresh(*pin_rays(fields, fields.interior, 600, 402))
    rng = np.random.default_rng(403)
    batch.tau[:] = 8.0 * rng.random(batch.n)
    batch.sum_i[:] = rng.random(batch.n)
    march(fields=fields, batch=batch)
    return batch_digest(batch)


def pin_wall_launch():
    fields = pin_fields(8, 501, intrusion=Box((3, 3, 3), (5, 5, 5)))
    # ring cells on every face, the intrusion, and the open medium
    origins, dirs = pin_rays(fields, fields.ring_box, 600, 502)
    batch = RayBatch.fresh(origins, dirs)
    batch.tau[:] = 0.5
    march(fields=fields, batch=batch)
    return batch_digest(batch)


def pin_zero_components():
    # an intrusion makes the axis picked at a face-crossing tie visible
    fields = pin_fields(8, 601, intrusion=Box((2, 3, 3), (5, 5, 6)))
    rng = np.random.default_rng(602)
    n = 600
    cells = rng.integers(0, 8, size=(n, 3))
    origins = np.asarray(fields.cell_center(cells))  # centres: tmax ties
    dirs = isotropic_directions(rng, n)
    zero = rng.integers(0, 3, size=(n, 2))
    dirs[np.arange(n), zero[:, 0]] = 0.0
    dirs[: n // 3, :][np.arange(n // 3), zero[: n // 3, 1]] = 0.0
    dirs[n // 2:, :] = np.sign(dirs[n // 2:, :])  # axis and 45-degree rays
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    batch = RayBatch.fresh(origins, dirs)
    march(fields=fields, batch=batch)
    return batch_digest(batch)


#: SHA-256 of (sum_i, tau, status, exit_pos) bytes, recorded with the
#: per-step-rescan kernel that preceded the compacted one. That kernel
#: flipped the wrong axis when a ray reflected in the same step another
#: ray left the ROI; ``roi_reflections`` was recorded with that one
#: indexing fix applied and nothing else changed.
PINNED_DIGESTS = {
    "roi_handoff": (
        pin_roi_handoff,
        "193236adb2f08f2cf959f3c6f700dce198cb1103f5e13744aeca7edc1271f3de",
    ),
    "reflections": (
        pin_reflections,
        "c64d5ab291d46966ce1e58d43a4f3f082dea1d2bbf45d402f8b33ba91280b8a9",
    ),
    "roi_reflections": (
        pin_roi_reflections,
        "f5d98c482eca03c567c77298df6105a98b5f8f23def0b43b115bf0fc9aadf878",
    ),
    "tau0": (
        pin_tau0,
        "02fd58b45c38325fc39d3d8e25a31510057e966bd65c3e011d03a2073255aa88",
    ),
    "wall_launch": (
        pin_wall_launch,
        "8a0ab2e93a3a824b0de1c99a41733720f843e3203aeda93ad373992c02a13c48",
    ),
    "zero_components": (
        pin_zero_components,
        "c4f6da0aebbaf7a5a36ca3f047dfc3c3e2646d46d01b70df56a60593cff2b30b",
    ),
}


class TestBitPins:
    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_digest(self, case):
        build, digest = PINNED_DIGESTS[case]
        assert build() == digest


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_property_roi_reflections_match_scalar(seed):
    """ROI parking and specular reflections together: the batch kernel
    agrees with the scalar oracle ray for ray."""
    rng = np.random.default_rng(seed)
    fields = pin_fields(8, seed, wall_emis=0.4)
    lo = rng.integers(-1, 3, size=3)
    roi = Box(tuple(lo), tuple(lo + rng.integers(4, 7, size=3)))
    roi = roi.intersect(fields.ring_box)
    inner = Box(tuple(np.maximum(roi.lo, 0)), tuple(np.minimum(roi.hi, 8)))
    origins, dirs = pin_rays(fields, inner, 24, seed + 1)
    batch = RayBatch.fresh(origins, dirs)
    march(fields=fields, batch=batch, roi=roi, reflections=True, threshold=1e-5)
    for r in range(batch.n):
        s, _, status, exit_pos = march_single_ray(
            fields, origins[r], dirs[r], roi=roi, reflections=True, threshold=1e-5
        )
        assert batch.status[r] == status
        assert np.isclose(batch.sum_i[r], s, rtol=0, atol=1e-14)
        if status == RayStatus.LEFT_ROI:
            assert np.allclose(batch.exit_pos[r], exit_pos, rtol=0, atol=1e-12)
