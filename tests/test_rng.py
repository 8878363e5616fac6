import hashlib
import os
import threading

import numpy as np
import pytest

from brokerfee import rng
from brokerfee.rng import gaussians, split_seed, uniforms, usable_cpus

# sha256 of the one-shot inverse-CDF draw of shape (1000, 250, 3) at seed 7
# that gaussians made before it filled its output in blocks
FROZEN_GAUSSIAN_SHA256 = (
    "13165fcb09f5bf0ca9774f78b4995358f80a2b6dc640bd4ffeed1ffd219c07a2")


def test_uniforms_deterministic():
    a = uniforms(123, (1000,))
    b = uniforms(123, (1000,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, uniforms(124, (1000,)))


def test_frozen_regression_values():
    # frozen outputs pin the generator choice; a change here means seeds
    # no longer reproduce published runs
    u = uniforms(0, (3,))
    assert np.allclose(u, [0.01154675, 0.2415492, 0.11142586], atol=1e-8)
    g = gaussians(0, np.empty(3), offset=0)
    assert np.allclose(g, [-2.27188415, -0.70132792, -1.21898019], atol=1e-8)
    assert split_seed(12345, "alpha") == 6311399085688075266
    assert split_seed(12345, "beta") == 16487697504233882735


def _frozen_stream_digest():
    draw = gaussians(7, np.empty((1000, 250, 3)), offset=0)
    return hashlib.sha256(draw.tobytes()).hexdigest()


def test_frozen_gaussian_stream():
    # the chunked fill must reproduce the one-shot draw
    assert _frozen_stream_digest() == FROZEN_GAUSSIAN_SHA256


def test_cpu_count_fallback(monkeypatch):
    # os.sched_getaffinity exists on Linux only; elsewhere the CPU count
    # falls back to os.cpu_count(), and to 1 when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == (os.cpu_count() or 1)
    assert _frozen_stream_digest() == FROZEN_GAUSSIAN_SHA256
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1
    assert _frozen_stream_digest() == FROZEN_GAUSSIAN_SHA256


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_transposed_fill_does_not_depend_on_worker_count(cpus, monkeypatch):
    # 7 steps are 21 draws per row and 3,120 rows per fill block, so
    # 6,245 rows are 3 blocks, the last one short; row 8 starts at draw 168
    monkeypatch.setattr(rng, "usable_cpus", lambda: cpus)
    rows, n, offset = 6_245, 7, 8 * 21
    contiguous = gaussians(11, np.empty((rows, n, 3)), offset)
    time_major = np.empty((n, 3, rows))
    view = time_major.transpose(2, 0, 1)
    assert gaussians(11, view, offset) is view
    assert np.array_equal(time_major, contiguous.transpose(1, 2, 0))
    monkeypatch.setattr(rng, "usable_cpus", lambda: 1)
    assert np.array_equal(contiguous,
                          gaussians(11, np.empty((rows, n, 3)), offset))


def test_calling_thread_fills_the_first_share(monkeypatch):
    # 6,245 rows of 21 draws are 3 fill blocks; of 2 shares, the calling
    # thread draws share 0 and a pool thread share 1
    monkeypatch.setattr(rng, "usable_cpus", lambda: 2)
    threads = set()
    generator = rng._generator

    def spy(*args):
        threads.add(threading.get_ident())
        return generator(*args)

    monkeypatch.setattr(rng, "_generator", spy)
    gaussians(11, np.empty((6_245, 7, 3)), 0)
    caller = threading.get_ident()
    assert caller in threads and threads - {caller}


@pytest.mark.parametrize("lo, hi", [(0, 4), (4, 9), (8, 40), (36, 40)])
def test_offset_draws_are_rows_of_the_whole_draw(lo, hi):
    # rows from a multiple of 4 start on a Philox block: 7 steps are 21
    # draws per row, so row 4 starts mid-stream at draw 84
    whole = gaussians(13, np.empty((40, 7, 3)), offset=0)
    rows = gaussians(13, np.empty((hi - lo, 7, 3)), offset=lo * 7 * 3)
    assert np.array_equal(rows, whole[lo:hi])


@pytest.mark.parametrize("offset", [-4, 2, 21])
def test_offset_off_a_block_raises(offset):
    with pytest.raises(ValueError, match="multiple of 4"):
        gaussians(13, np.empty((5, 3)), offset=offset)


def test_split_seed_distinct_streams():
    seeds = {split_seed(7, f"stream-{k}") for k in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)


def test_gaussian_moments():
    x = gaussians(42, np.empty(200_000), offset=0)
    assert abs(np.mean(x)) < 0.01
    assert abs(np.std(x) - 1.0) < 0.01
    assert abs(np.mean(x**3)) < 0.03


def test_gaussians_finite():
    x = gaussians(5, np.empty(100_000), offset=0)
    assert np.all(np.isfinite(x))


def test_shape_handling():
    assert uniforms(1, (4, 5, 6)).shape == (4, 5, 6)
    assert gaussians(1, np.empty(10), offset=0).shape == (10,)
