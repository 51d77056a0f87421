"""mvkc's one worker pool: a loop over row blocks, run on every usable core.

``map_row_blocks`` splits rows 0..n into near-equal blocks and calls a
block function on each, one worker thread per usable core; worker w takes
blocks w, w + workers, and so on. On one core the blocks are those of the
caller's rows-per-block alone, at most ``block`` rows each and near-equal,
since a tail of a few rows takes another BLAS route and can round
differently. With more workers each such block is split once more, so the
blocks in flight hold at most one single-core block plus one row per worker
in all. An n below block / cores gets fewer workers than cores, so no block
is tiny.

Each worker writes into buffers that the calling thread allocates before any
worker starts: a buffer freed on a worker thread stays in that thread's
allocator arena, where the rest of the run cannot reuse it. The pool lives
for one call, and one worker runs inline and starts no thread, so no thread
outlives the call (``mvkc run --time-limit`` forks). A worker's error is
raised on the calling thread once every worker has stopped.

While a pool runs, the OpenBLAS that numpy loaded is held at one thread, and
its previous count is restored afterwards, also after an error: otherwise
the workers and OpenBLAS's own threads contend for the same cores. The count
is set with OpenBLAS's own setter, looked up with ctypes among the symbols of
numpy's core extension; where there is none, as with another BLAS, the count
is left alone.
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

try:
    from numpy._core import _multiarray_umath  # numpy >= 2
except ImportError:
    from numpy.core import _multiarray_umath

# (get, set) thread-count symbols of OpenBLAS builds: scipy-openblas, as the
# numpy wheels ship it, and plain OpenBLAS, with 64-bit integers or without
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def map_row_blocks(n, block, cols, work):
    """Call ``work(start, stop, *buffers)`` once for each block [start, stop)
    of near-equal row blocks that cover 0..n, on every usable core.

    ``block`` is the most rows a block holds on one core. ``buffers`` are the
    calling worker's own C-ordered float64 arrays, one per entry of ``cols``
    with that many columns, and rows enough for any block.
    """
    cores = _usable_cores()
    workers = min(cores, -(-n * cores // block))
    n_blocks = min(n, workers * -(-n // block))
    size = -(-n // n_blocks)  # the largest block's rows
    buffers = [[np.empty((size, c)) for c in cols] for _ in range(workers)]

    def blocks_of(w):
        for b in range(w, n_blocks, workers):
            work(n * b // n_blocks, n * (b + 1) // n_blocks, *buffers[w])

    if workers == 1:
        blocks_of(0)
        return
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        list(pool.map(blocks_of, range(workers)))  # re-raises a worker's error


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread inside the block, and restore its
    previous count on exit."""
    threads = openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None when numpy's core extension exports neither pair."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _usable_cores():
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1
