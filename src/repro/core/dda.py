"""Batched 3-D DDA ray marching — the RMCRT device kernel's core.

This is the vectorized equivalent of the CUDA ``updateSumI`` kernel in
Uintah's GPU RMCRT (paper Section III): a whole batch of rays advances
cell-by-cell through a level's property arrays using the Amanatides-Woo
traversal, accumulating the incoming intensity

    sumI = integral kappa(s) Ib(s) exp(-tau(s)) ds
         = sum over segments  Ib_cell * (exp(-tau_in) - exp(-tau_out))

until each ray is extinguished: it enters a wall/intrusion cell (adding
the attenuated wall emission, optionally reflecting), drops below the
transmissivity threshold, or — in multi-level mode — leaves the fine
region of interest and is parked for hand-off to a coarser level.

Layout. :class:`RayBatch` is the caller-facing SoA, one row per ray.
Inside :func:`march` the working set holds *live rays only*: a
``(10, n)`` float block (next face crossing and crossing spacing per
axis, distance marched, optical depth, carried transmission
``exp(-tau)``, sumI) and a ``(3, n)`` int block (batch row, flat C-order
ring index, octant). Each step is one gather per property from the
raveled ``abskg`` and ``sigma_t4 / pi`` arrays plus one from an int8
per-cell code (flow / wall / outside ROI) built per call. A ray that
finishes is written back to the batch through its row id, and both
blocks shrink with one boolean mask — divergence is handled by
compaction, one ray per lane, which is why this module doubles as the
"GPU kernel" of the reproduction: NumPy's vector unit plays the role of
the K20X's SIMT lanes. Per ray, the operations and their order are the
scalar oracle's (:mod:`repro.core.cpu_kernel`) step for step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from repro.grid.box import Box
from repro.grid.celltype import CellType
from repro.core.fields import LevelFields
from repro.util.errors import ReproError


class RayStatus(IntEnum):
    ALIVE = 0        #: still marching (only transiently, inside the loop)
    WALL_HIT = 1     #: absorbed at a wall/intrusion surface
    EXTINCT = 2      #: transmissivity fell below threshold
    LEFT_ROI = 3     #: exited the region of interest (multi-level hand-off)


@dataclass
class RayBatch:
    """SoA state for a batch of rays.

    ``sum_i`` is the accumulated incoming intensity per ray; ``tau`` the
    optical depth from the ray origin. Parked rays (LEFT_ROI) carry
    their exit position for re-initialization on a coarser level.
    """

    origins: np.ndarray      # (n, 3) float
    directions: np.ndarray   # (n, 3) float unit vectors
    sum_i: np.ndarray        # (n,) float
    tau: np.ndarray          # (n,) float
    status: np.ndarray       # (n,) int8 RayStatus
    exit_pos: np.ndarray     # (n, 3) float, valid where status == LEFT_ROI

    @staticmethod
    def fresh(origins: np.ndarray, directions: np.ndarray) -> "RayBatch":
        origins = np.ascontiguousarray(origins, dtype=np.float64)
        directions = np.ascontiguousarray(directions, dtype=np.float64)
        if origins.shape != directions.shape or origins.ndim != 2 or origins.shape[1] != 3:
            raise ReproError(
                f"origins {origins.shape} / directions {directions.shape} must be (n, 3)"
            )
        n = origins.shape[0]
        return RayBatch(
            origins=origins,
            directions=directions,
            sum_i=np.zeros(n),
            tau=np.zeros(n),
            status=np.full(n, RayStatus.ALIVE, dtype=np.int8),
            exit_pos=np.zeros_like(origins),
        )

    @property
    def n(self) -> int:
        return self.origins.shape[0]

    def parked(self) -> np.ndarray:
        """Indices of rays awaiting a coarser level."""
        return np.nonzero(self.status == RayStatus.LEFT_ROI)[0]


#: per-cell march codes: keep marching, wall/intrusion surface, outside ROI
_FLOW, _WALL, _OUT = 0, 1, 2
#: status a ray leaves the march with, indexed by the code of the cell
#: it stopped in (a ray stopped in a flow cell went extinct)
_STATUS_OF_CODE = np.array(
    [RayStatus.EXTINCT, RayStatus.WALL_HIT, RayStatus.LEFT_ROI], dtype=np.int8
)
#: (8, 3) unit steps: octant bit k set means the ray runs toward -k
_OCTANT_SIGNS = 1 - 2 * ((np.arange(8)[:, None] >> np.arange(3)) & 1)
_OCTANT_BITS = np.array([1, 2, 4])
# rows of the float working set
_TMAX, _TDELTA, _TCUR, _TAU, _TRANS, _SUM_I = slice(0, 3), slice(3, 6), 6, 7, 8, 9


def march(
    fields: LevelFields,
    batch: RayBatch,
    roi: Optional[Box] = None,
    threshold: float = 1e-4,
    reflections: bool = False,
    max_steps: Optional[int] = None,
    from_handoff: bool = False,
) -> RayBatch:
    """March every ALIVE/LEFT_ROI ray of ``batch`` through ``fields``.

    ``roi`` restricts marching to a cell-index box (which must lie
    within the level's ring box); rays stepping outside it are parked
    with status LEFT_ROI and a recorded exit position. Without ``roi``
    rays always terminate inside the wall ring, which encloses the
    domain by construction.

    ``from_handoff`` re-launches previously parked rays from their exit
    positions (nudged along the direction so positions exactly on a
    coarse face land downstream).

    Returns ``batch`` (mutated in place) for chaining.
    """
    ring = fields.ring_box
    if roi is not None and not ring.contains_box(roi):
        raise ReproError(f"roi {roi} escapes level ring box {ring}")

    if from_handoff:
        launch = np.nonzero(batch.status == RayStatus.LEFT_ROI)[0]
        start_pos = batch.exit_pos[launch]
    else:
        launch = np.nonzero(batch.status == RayStatus.ALIVE)[0]
        start_pos = batch.origins[launch]
    if launch.size == 0:
        return batch
    batch.status[launch] = RayStatus.ALIVE

    dirs = batch.directions[launch]
    dx = np.asarray(fields.dx)
    anchor = np.asarray(fields.anchor)

    cell = fields.position_to_cell(start_pos, nudge_dir=dirs if from_handoff else None)
    if np.any((cell < ring.lo) | (cell >= ring.hi)):
        raise ReproError(f"rays launched outside level ring box {ring}")

    # flat C-order ring index, stepped by the octant's signed strides
    e = ring.extent
    strides = np.array([e[1] * e[2], e[2], 1])
    steps = (_OCTANT_SIGNS * strides).ravel()
    flat = (cell - ring.lo) @ strides

    kappa = fields.abskg.ravel()
    st4 = fields.sigma_t4.ravel()
    inv_pi = 1.0 / np.pi
    ib = st4 * inv_pi
    solid = fields.cell_type.ravel() != CellType.FLOW
    code = solid.view(np.int8)
    if roi is not None:
        sl = roi.slices(origin=ring.lo)
        code = np.full(e, _OUT, dtype=np.int8)
        code[sl] = solid.reshape(e)[sl]
        code = code.ravel()

    # a ray may launch already inside a wall cell (e.g. parked exactly on
    # the domain face and handed to a coarser level): it has reached the
    # wall — absorb it before the march
    tau = batch.tau[launch]
    sum_i = batch.sum_i[launch]
    at_wall = solid[flat]
    if at_wall.any():
        w = flat[at_wall]
        sum_i[at_wall] += kappa[w] * st4[w] * inv_pi * np.exp(-tau[at_wall])
        done = launch[at_wall]
        batch.sum_i[done] = sum_i[at_wall]
        batch.status[done] = RayStatus.WALL_HIT

    # the working set: one row per quantity, one column per live ray
    work = np.empty((10, launch.size))
    with np.errstate(divide="ignore"):
        work[_TDELTA] = np.where(dirs != 0.0, dx / np.abs(dirs), np.inf).T
        next_bound = anchor + (cell + (dirs > 0)) * dx
        work[_TMAX] = np.where(dirs != 0.0, (next_bound - start_pos) / dirs, np.inf).T
    work[_TCUR] = 0.0
    work[_TAU] = tau
    work[_TRANS] = np.exp(-tau)
    work[_SUM_I] = sum_i
    ints = np.stack([launch, flat, 3 * ((dirs < 0) @ _OCTANT_BITS)])
    if at_wall.any():
        work, ints = work.compress(~at_wall, axis=1), ints.compress(~at_wall, axis=1)
    # only the working set lives on through the march: drop the launch
    # arrays now rather than hold them at the march's peak footprint
    del start_pos, dirs, cell, flat, tau, sum_i, next_bound

    log_threshold = -np.log(threshold)
    if max_steps is None:
        max_steps = 16 * (e[0] + e[1] + e[2] + 3)
    columns = np.arange(work.shape[1])

    for _ in range(max_steps):
        n = work.shape[1]
        if n == 0:
            break
        tmax = work[_TMAX].reshape(-1)
        tdelta = work[_TDELTA].reshape(-1)
        tcur, tau, trans, sum_i = work[_TCUR], work[_TAU], work[_TRANS], work[_SUM_I]
        ids, flat, octant3 = ints

        # axis of the nearest face: the first minimum, as np.argmin picks
        t0, t1, t2 = work[0], work[1], work[2]
        on_z = t2 < np.minimum(t0, t1)
        ax = (t1 < t0) | on_z
        ax = ax.astype(np.intp) + on_z
        pos = ax * n + columns[:n]

        t_next = tmax.take(pos)
        tau += kappa.take(flat) * (t_next - tcur)
        trans_new = np.exp(-tau)
        sum_i += ib.take(flat) * (trans - trans_new)
        trans[:] = trans_new
        tcur[:] = t_next
        tmax[pos] = t_next + tdelta.take(pos)
        flat += steps.take(octant3 + ax)

        c = code.take(flat)
        stopped = c.any()
        if stopped:
            keep = c == _FLOW
            hit = np.flatnonzero(c == _WALL)
            if hit.size:
                wall_emis = kappa.take(flat[hit])
                sum_i[hit] += wall_emis * ib.take(flat[hit]) * trans[hit]
                if reflections:
                    rho = 1.0 - wall_emis
                    bounce = rho > threshold
                    r = hit[bounce]
                    if r.size:
                        # a specular reflection is the flip of the direction
                        # component on the hit axis plus a grey attenuation:
                        # future contributions carry an extra factor rho,
                        # i.e. tau increases by -ln(rho)
                        tau[r] += -np.log(rho[bounce])
                        trans[r] = np.exp(-tau[r])
                        a = ax[r]
                        octant3[r] = 3 * ((octant3[r] // 3) ^ (1 << a))
                        flat[r] += steps.take(octant3[r] + a)  # back into the flow cell
                        p = a * n + r
                        tmax[p] = tcur[r] + tdelta.take(p)
                        keep[r] = True
                        c[r] = _FLOW
        dead = tau > log_threshold
        if stopped:
            dead &= keep
        if dead.any():
            keep = keep & ~dead if stopped else ~dead
        elif not stopped:
            continue

        # write the finished rays back and shrink the working set
        gone = ~keep
        done = ids[gone]
        batch.status[done] = _STATUS_OF_CODE[c[gone]]
        batch.tau[done] = tau[gone]
        batch.sum_i[done] = sum_i[gone]
        if roi is not None:
            left = gone & (c == _OUT)
            if left.any():
                p = ids[left]
                # exit along the current direction: reflections flipped
                # the components whose octant bit changed
                d = batch.directions[p]
                flips = (octant3[left] // 3) ^ ((d < 0) @ _OCTANT_BITS)
                d = d * _OCTANT_SIGNS[flips]
                start = (batch.exit_pos if from_handoff else batch.origins)[p]
                batch.exit_pos[p] = start + tcur[left, None] * d
        work, ints = work.compress(keep, axis=1), ints.compress(keep, axis=1)
    else:
        if work.shape[1]:
            raise ReproError(
                f"{work.shape[1]} rays still alive after {max_steps} DDA steps — "
                f"grid/threshold configuration cannot terminate them"
            )
    return batch
