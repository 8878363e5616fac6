"""Deterministic random number utilities.

All randomness in the package flows from a single 64-bit master seed.
Per-task streams are derived with :func:`split_seed`, and Gaussian variates
are produced from a counter-based Philox generator through the inverse
normal CDF, so that results are bit-identical across platforms and
independent of execution order.

Philox is counter-based: one counter step yields a block of 4 draws, and
``Philox.advance(k)`` skips k blocks, so any stretch of the stream that
starts on a block can be drawn on its own. :func:`gaussians` therefore
fills a caller's array in place, of any strides, in row blocks of about
``_BLOCK_DRAWS`` draws along its first axis, each starting on a multiple
of 4 draws. One share of the blocks per usable CPU (:func:`usable_cpus`)
is drawn into a private contiguous scratch, each block from a generator
advanced to its first draw, and copied into its place in the output,
so a transposed view such as the (rows, n_steps, 3) view of a time-major
(n_steps, 3, rows) buffer is filled without a serial transpose. Share 0
runs on the calling thread and each other share on a pool thread, which
releases the GIL inside numpy and scipy, and the output equals the
one-shot draw bit for bit, whatever the number of shares or blocks.
A draw that starts ``offset`` positions into the stream, at a multiple
of 4, equals that stretch of the one-shot draw, so a batch can be drawn
in row chunks.
"""

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["split_seed", "uniforms", "gaussians", "usable_cpus"]

# draws per row block of a fill, at most 512 KB of scratch per share
# when a row holds at most 2^14 draws
_BLOCK_DRAWS = 1 << 16


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (``os.sched_getaffinity``, Linux), else ``os.cpu_count()``, else
    1. Every thread pool in the package is sized by it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_seed(master_seed: int, stream: str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream label.

    The derivation is SHA-256 of ``"<master_seed>/<stream>"``, truncated to
    64 bits. Distinct labels give statistically independent streams.
    """
    digest = hashlib.sha256(f"{master_seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _generator(seed: int, blocks: int = 0) -> np.random.Generator:
    """Philox stream of ``seed``, advanced by ``blocks`` blocks of 4 draws."""
    bit_generator = np.random.Philox(key=seed & (2**64 - 1))
    bit_generator.advance(blocks)
    return np.random.Generator(bit_generator)


def uniforms(seed: int, shape) -> np.ndarray:
    """Uniform(0,1) array of the given shape, deterministic in the seed."""
    return _generator(seed).random(shape)


def gaussians(seed: int, out: np.ndarray, offset: int) -> np.ndarray:
    """Fill the float array ``out`` with standard normals via the inverse
    CDF of Philox uniforms, in place, and return it.

    The inverse-CDF map avoids the rejection steps of the ziggurat sampler,
    keeping the output a fixed function of the counter stream. ``out``, in
    C order of its indices, holds stream positions ``offset`` to
    ``offset + out.size``, whatever its strides; ``offset`` must be a
    nonnegative multiple of 4, the first draw of a Philox block. It is
    filled in row blocks (see the module docstring).
    """
    if offset < 0 or offset % 4:
        raise ValueError(f"offset must be a nonnegative multiple of 4, "
                         f"got {offset}")
    # imported here, before any thread starts: importing the package
    # loads no scipy
    from scipy.special import ndtri

    row_draws = math.prod(out.shape[1:])
    # 4 rows hold a whole number of Philox blocks, so every block of a
    # multiple of 4 rows starts on one
    block = 4 * max(1, _BLOCK_DRAWS // (4 * row_draws))
    starts = range(0, len(out), block)
    shares = max(1, min(usable_cpus(), len(starts)))

    def fill(first):
        scratch = np.empty((min(block, len(out)), *out.shape[1:]))
        for lo in starts[first::shares]:
            part = scratch[:min(block, len(out) - lo)]
            _generator(seed, (offset + lo * row_draws) // 4).random(out=part)
            # random() lands on [0,1) with resolution 2^-53; floor it away
            # from 0 so ndtri never sees an exact endpoint
            np.maximum(part, 2.0**-54, out=part)
            ndtri(part, out=part)
            out[lo:lo + len(part)] = part

    # a pool starts a thread only on submit, so one share starts none
    with ThreadPoolExecutor(shares) as pool:
        futures = [pool.submit(fill, first) for first in range(1, shares)]
        fill(0)
        for future in futures:
            future.result()
    return out
