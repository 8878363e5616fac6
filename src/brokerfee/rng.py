"""Deterministic random number utilities.

All randomness in the package flows from a single 64-bit master seed.
Per-task streams are derived with :func:`split_seed`, and Gaussian variates
are produced from a counter-based Philox generator through the inverse
normal CDF, so that results are bit-identical across platforms and
independent of execution order.

Philox is counter-based: one counter step yields a block of 4 draws, and
``Philox.advance(k)`` skips k blocks. :func:`gaussians` therefore fills its
output in place, in contiguous chunks cut at multiples of 4 draws, each
from its own generator advanced to the chunk's first block, one thread per
usable CPU (:func:`usable_cpus`). The threads release the GIL inside
numpy and scipy, and the output does not depend on the number of chunks:
it equals the one-shot draw bit for bit. The same holds for a draw that
starts ``offset`` positions into the stream, at a multiple of 4: it equals
that stretch of the one-shot draw, so a batch can be drawn in row chunks.
"""

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["split_seed", "uniforms", "gaussians", "usable_cpus"]

# below this many draws per chunk a thread costs more than it saves
_MIN_CHUNK = 1 << 16


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


def _fill_gaussians(seed: int, flat: np.ndarray, n_chunks: int,
                    offset: int = 0) -> None:
    """Fill the 1-D array ``flat`` with the draws of :func:`gaussians` at
    stream positions ``offset`` on, in ``n_chunks`` contiguous chunks, one
    thread each when there are several. ``offset`` and every cut are
    multiples of 4 draws, so chunk k starts at a block boundary of the
    stream."""
    # imported here, before any worker starts: importing the package
    # loads no scipy
    from scipy.special import ndtri

    cuts = [4 * (k * flat.size // (4 * n_chunks)) for k in range(n_chunks)]
    cuts.append(flat.size)

    def fill(lo, hi):
        chunk = flat[lo:hi]
        _generator(seed, (offset + lo) // 4).random(out=chunk)
        # random() lands on [0,1) with resolution 2^-53; floor it away from
        # 0 so ndtri never sees an exact endpoint
        np.maximum(chunk, 2.0**-54, out=chunk)
        ndtri(chunk, out=chunk)

    if n_chunks == 1:
        fill(0, flat.size)
        return
    with ThreadPoolExecutor(n_chunks) as pool:
        list(pool.map(fill, cuts[:-1], cuts[1:]))


def gaussians(seed: int, shape, offset: int) -> np.ndarray:
    """Standard normal array via inverse-CDF of Philox uniforms.

    The inverse-CDF map avoids the rejection steps of the ziggurat sampler,
    keeping the output a fixed function of the counter stream. The array
    holds stream positions ``offset`` to ``offset + size``; ``offset`` must
    be a nonnegative multiple of 4, the first draw of a Philox block. It is
    filled in place, one chunk per usable CPU (see the module docstring).
    """
    if offset < 0 or offset % 4:
        raise ValueError(f"offset must be a nonnegative multiple of 4, "
                         f"got {offset}")
    out = np.empty(shape)
    flat = out.reshape(-1)
    n_chunks = max(1, min(usable_cpus(), flat.size // _MIN_CHUNK))
    _fill_gaussians(seed, flat, n_chunks, offset)
    return out
