"""Patch-level RMCRT "device kernels".

These are the batch entry points the GPU scheduler launches per patch
task: trace all rays for every cell of a patch region and reduce them
to the divergence of the heat flux,

    del.q[c] = 4 pi kappa[c] (sigma_t4[c] / pi - mean_r sumI_r(c)).

Ray batches are chunked so device "global memory" stays bounded no
matter the patch size — the Python analogue of sizing a CUDA launch so
its working set fits the K20X's 6 GB (paper Section III.C).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.box import Box
from repro.core.dda import RayBatch, march
from repro.core.fields import LevelFields
from repro.core.rays import generate_patch_rays
from repro.util.errors import ReproError

#: default rays per kernel launch chunk
DEFAULT_CHUNK_RAYS = 1 << 17


def divq_from_sums(
    fields: LevelFields, box: Box, sum_i_mean: np.ndarray
) -> np.ndarray:
    """Reduce per-cell mean incoming intensity to del.q over ``box``.

    Solid cells (intrusions — boiler tubes and the like) are not part
    of the participating medium: their del.q is zeroed, as in Uintah.
    """
    from repro.grid.celltype import CellType

    sl = box.slices(origin=fields.ring_lo)
    kappa = fields.abskg[sl]
    st4 = fields.sigma_t4[sl]
    mean = sum_i_mean.reshape(box.extent)
    divq = 4.0 * np.pi * kappa * (st4 / np.pi - mean)
    solid = fields.cell_type[sl] != CellType.FLOW
    if solid.any():
        divq = np.where(solid, 0.0, divq)
    return divq


def march_cascade(
    level_fields: list,
    batch: RayBatch,
    roi: Optional[Box],
    threshold: float = 1e-4,
    reflections: bool = False,
) -> RayBatch:
    """March ``batch`` through the data-onion hierarchy.

    Rays start on the finest level (``level_fields`` is ordered
    coarsest-first) restricted to ``roi``; any ray parked there
    continues on the next coarser level, which it marches whole. Raises
    if rays are still parked after the coarsest level.
    """
    march(
        batch=batch,
        fields=level_fields[-1],
        roi=roi,
        threshold=threshold,
        reflections=reflections,
    )
    for coarse in reversed(level_fields[:-1]):
        if batch.parked().size == 0:
            break
        march(
            batch=batch,
            fields=coarse,
            threshold=threshold,
            reflections=reflections,
            from_handoff=True,
        )
    if batch.parked().size:
        raise ReproError(
            "rays left the coarsest level's ROI — the coarsest level "
            "must span the whole domain"
        )
    return batch


def trace_patch_single_level(
    fields: LevelFields,
    box: Box,
    rays_per_cell: int,
    rng: np.random.Generator,
    threshold: float = 1e-4,
    reflections: bool = False,
    centered_origins: bool = False,
    chunk_rays: int = DEFAULT_CHUNK_RAYS,
) -> np.ndarray:
    """del.q over ``box`` tracing every ray on one level.

    ``box`` must lie inside the level interior. Rays are generated from
    ``rng`` in cell order, chunked along whole-cell boundaries so the
    per-cell mean is exact regardless of chunk size.
    """
    if not fields.interior.contains_box(box):
        raise ReproError(f"patch box {box} outside level interior {fields.interior}")
    if rays_per_cell < 1:
        raise ReproError(f"rays_per_cell must be >= 1, got {rays_per_cell}")

    _, origins, directions = generate_patch_rays(
        fields, box, rays_per_cell, rng, centered_origins=centered_origins
    )
    total = origins.shape[0]
    cells_per_chunk = max(1, chunk_rays // rays_per_cell)
    stride = cells_per_chunk * rays_per_cell

    sums = np.empty(box.volume)
    for start in range(0, total, stride):
        end = min(start + stride, total)
        batch = RayBatch.fresh(origins[start:end], directions[start:end])
        march(batch=batch, fields=fields, threshold=threshold, reflections=reflections)
        per_cell = batch.sum_i.reshape(-1, rays_per_cell).mean(axis=1)
        sums[start // rays_per_cell: end // rays_per_cell] = per_cell

    return divq_from_sums(fields, box, sums)


def trace_patch_multi_level(
    level_fields: list,
    box: Box,
    roi: Box,
    rays_per_cell: int,
    rng: np.random.Generator,
    threshold: float = 1e-4,
    reflections: bool = False,
    centered_origins: bool = False,
    chunk_rays: int = DEFAULT_CHUNK_RAYS,
) -> np.ndarray:
    """del.q over a fine patch using the data-onion hierarchy.

    ``level_fields`` is ordered coarsest-first (matching grid levels);
    rays start on the finest level restricted to ``roi`` (the fine data
    this patch task owns: patch + halo, plus any adjacent wall ring) and
    cascade to successively coarser levels when they leave it. On
    levels below the finest, rays march over the *whole* level — every
    coarse level spans the domain by construction (Section III.C).
    """
    if len(level_fields) < 1:
        raise ReproError("need at least one level")
    fine = level_fields[-1]
    if not fine.interior.contains_box(box):
        raise ReproError(f"patch box {box} outside fine interior {fine.interior}")
    if not fine.ring_box.contains_box(roi) or not roi.contains_box(box):
        raise ReproError(f"roi {roi} must satisfy box <= roi <= fine ring box")

    _, origins, directions = generate_patch_rays(
        fine, box, rays_per_cell, rng, centered_origins=centered_origins
    )
    total = origins.shape[0]
    cells_per_chunk = max(1, chunk_rays // rays_per_cell)
    stride = cells_per_chunk * rays_per_cell

    sums = np.empty(box.volume)
    for start in range(0, total, stride):
        end = min(start + stride, total)
        batch = RayBatch.fresh(origins[start:end], directions[start:end])
        march_cascade(level_fields, batch, roi, threshold, reflections)
        per_cell = batch.sum_i.reshape(-1, rays_per_cell).mean(axis=1)
        sums[start // rays_per_cell: end // rays_per_cell] = per_cell

    return divq_from_sums(fine, box, sums)


def patch_roi(fine_interior: Box, patch_box: Box, halo: int) -> Box:
    """The fine-level region of interest for a patch task.

    patch + ``halo`` cells, clipped against the interior but keeping the
    wall ring wherever the grown box pokes out of the domain — so rays
    still terminate at true domain walls on the fine level instead of
    being handed off through them.
    """
    grown = patch_box.grow(halo)
    return grown.intersect(fine_interior.grow(1))
