"""Bitwise checks of the batched numpy hot loops shared by the vector
tier and the oracle.

Each rewritten loop (Mandelbrot's live-lane escape loop, NW's
all-blocks-per-step wavefront, KMeans' bincount accumulation, the
particle filter's batched normal draws and 3x3 likelihood) must produce
exactly the bits of the formulation it replaced: the per-item kernel or
a test-local copy of the one-call-per-step loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.altis.kmeans import _accumulate_vector, _update_centers
from repro.altis.mandelbrot import Mandelbrot, mandelbrot_reference
from repro.altis.nw import NW, _similarity
from repro.altis.particlefilter import _likelihood
from repro.common.rng import LcgPark
from repro.sycl import NdRange, Range
from repro.sycl.buffer import LocalAccessor
from repro.sycl.executor import run_nd_range


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# -- LcgPark.normals ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**40),
       count=st.integers(min_value=0, max_value=64))
def test_normals_equal_successive_normal_draws(seed, count):
    batched, single = LcgPark(seed), LcgPark(seed)
    drawn = batched.normals(count)
    expected = np.array([single.normal() for _ in range(count)],
                        dtype=np.float64)
    assert _same_bits(drawn, expected)
    assert batched.state == single.state


# -- Mandelbrot ----------------------------------------------------------------

def _mandelbrot_item(width, height, max_iters):
    out = np.full((height, -(-width // 16) * 16), -1, dtype=np.int32)
    kernel = Mandelbrot().kernels()["ndrange"]
    run_nd_range(kernel, NdRange(Range(height, out.shape[1]), Range(1, 16)),
                 (out, width, height, max_iters), mode="item")
    return out[:, :width]


@pytest.mark.parametrize("width,height,max_iters", [
    (1, 1, 256), (7, 3, 256), (37, 11, 256), (7, 3, 0), (7, 3, 1),
    (2, 4, 256),  # the live set shrinks to two lanes before they escape
])
def test_mandelbrot_reference_equals_item_tier(width, height, max_iters):
    assert _same_bits(mandelbrot_reference(width, height, max_iters),
                      _mandelbrot_item(width, height, max_iters))


# -- NW ------------------------------------------------------------------------

def _nw_wavefront(workload, mode):
    p = workload.params
    n, block, penalty = p["n"], p["block"], p["penalty"]
    nb = n // block
    score = np.zeros((n + 1, n + 1), dtype=np.int32)
    score[0, :] = -penalty * np.arange(n + 1)
    score[:, 0] = -penalty * np.arange(n + 1)
    sim = _similarity(workload["seq_a"], workload["seq_b"],
                      workload["blosum"]).astype(np.int32)
    kernel = NW().kernels()["needle_block"]
    tile = LocalAccessor((block + 1, block + 1), np.int32)
    for diag in range(2 * nb - 1):
        blocks = (diag + 1) if diag < nb else (2 * nb - 1 - diag)
        stats = run_nd_range(
            kernel, NdRange(Range(blocks * block), Range(block)),
            (score, sim, tile, penalty, diag, nb, n, block), mode=mode)
        assert stats.path == mode
    return score


@pytest.mark.parametrize("seed", range(5))
def test_nw_vector_equals_item(seed):
    workload = NW().generate(1, seed=seed, scale=0.012 + 0.004 * seed)
    p = workload.params
    assert p["n"] // p["block"] >= 3
    assert _same_bits(_nw_wavefront(workload, "vector"),
                      _nw_wavefront(workload, "item"))


# -- KMeans --------------------------------------------------------------------

def _kmeans_inputs(seed):
    rng = np.random.default_rng(seed)
    n, d, k = int(rng.integers(1, 300)), int(rng.integers(1, 40)), 16
    points = (rng.normal(0.0, 10.0, size=(n, d))
              * rng.choice([1.0, 1e-3, 1e3], size=(n, 1))).astype(np.float32)
    # draw from a subset of the clusters, so some are always empty
    used = rng.choice(k, size=int(rng.integers(1, k - 1)), replace=False)
    assign = rng.choice(used, size=n).astype(np.int32)
    return points, assign, k


@pytest.mark.parametrize("seed", range(12))
def test_update_centers_equals_add_at(seed):
    points, assign, k = _kmeans_inputs(seed)
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    np.add.at(sums, assign, points)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    counts[counts == 0] = 1.0
    expected = (sums / counts[:, None]).astype(points.dtype)
    assert _same_bits(_update_centers(points, assign, k), expected)


@pytest.mark.parametrize("seed", range(12))
def test_accumulate_vector_equals_add_at(seed):
    points, assign, k = _kmeans_inputs(seed)
    n = len(points) - seed % 3  # the kernel reads only the first n points
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    _accumulate_vector(None, points, assign, sums, counts, n)
    want_sums = np.zeros_like(sums)
    want_counts = np.zeros_like(counts)
    np.add.at(want_sums, assign[:n], points[:n])
    np.add.at(want_counts, assign[:n], 1)
    assert _same_bits(sums, want_sums)
    assert _same_bits(counts, want_counts)


# -- ParticleFilter likelihood -------------------------------------------------

def _likelihood_per_offset(frame, px, py):
    img = frame.shape[0]
    lik = np.zeros(len(px), dtype=np.float64)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            ix = np.clip(np.round(px + dx).astype(int), 0, img - 1)
            iy = np.clip(np.round(py + dy).astype(int), 0, img - 1)
            sample = frame[iy, ix].astype(np.float64)
            lik += ((sample - 100.0) ** 2 - (sample - 228.0) ** 2) / 50.0
    return lik / 9.0


@pytest.mark.parametrize("seed", range(6))
def test_likelihood_equals_per_offset_loop(seed):
    rng = np.random.default_rng(seed)
    frame = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    # guesses off both edges exercise the clips
    px = rng.uniform(-3.0, 35.0, size=97)
    py = rng.uniform(-3.0, 35.0, size=97)
    assert _same_bits(_likelihood(frame, px, py),
                      _likelihood_per_offset(frame, px, py))
