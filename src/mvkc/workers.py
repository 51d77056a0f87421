"""mvkc's one worker pool: loops over row blocks, run on every usable core.

One partition rule: every pooled pass splits its rows by n alone, so its
blocks, and with them its bits, do not depend on the core count.

- ``map_row_blocks`` splits rows 0..n into ceil(n / block) near-equal blocks,
  at most ``block`` rows each, for a caller whose workers each need their own
  buffers (the Nystroem map, the k-NN search); near-equal, since a tail of a
  few rows takes another BLAS route and can round differently. Each worker
  holds one set of buffers, so memory grows by one worker's buffers per core.
- ``map_blocks`` and ``sum_blocks`` run the spectral stage's passes over
  ``row_blocks(n)``; they take no per-worker buffers, as each block writes
  straight into the output, or the n-long buffers, that its caller allocated.
  ``map_columns`` runs a per-column pass, whose results do not depend on any
  partition, under the same size rule.

The size rule: below ``SPECTRAL_MIN_ROWS`` rows the partition is one block,
and each spectral pass is the one whole-array call it was before the pool,
run inline on the caller's BLAS threads. Above it, the blocks hold
``SPECTRAL_BLOCK`` rows, the last one the remainder too. Each block starts at
a multiple of ``SPECTRAL_BLOCK``, so OpenBLAS tiles it as it tiles the whole
array, and a row product equals its whole-array form bit for bit at the
shapes the tests pin; a product small enough for OpenBLAS's small-matrix
kernel (about 10^6 multiply-adds per block) can round the tail rows
differently, the same on every core count. ``sum_blocks`` sums the blocks'
partial products in block order, which rounds differently from one
whole-array product (about 1e-16 relative), again the same on every core
count. The rule is four blocks: on a 2-vCPU machine, a three-view pipeline
with k = 10 ran no faster on the pool at n = 24,576 with the quadratic map
(m = 55; three blocks split two to one), and 15-17% faster at n = 32,768
with either kernel.

One dispatch, ``_map``, runs every pass: one task runs inline, on the
caller's BLAS threads; more than one holds BLAS at one thread and runs on
the pool, worker w taking tasks w, w + workers, and so on, so a pass rounds
the same on every core count. Each worker writes into arrays that the
calling thread allocates before any worker starts: an array freed on a
worker thread stays in that thread's allocator arena, where the rest of the
run cannot reuse it. Worker 0 is the calling thread, so one worker starts no
thread. A worker's error is raised on the calling thread once every worker
has stopped.

Inside ``with pool():`` every pass of more than one task shares one pool,
whose threads start at the first pass on more than one worker;
``mvkc.pipeline.run_pipeline`` holds one for its run, and ``view_bases`` and
``cluster_bases`` one each for theirs, so threads start once per call and
none outlives it (``mvkc run --time-limit`` forks before each call). A pass outside any such block opens a pool for its own call. From the
pool's first pass of more than one task to its close, the OpenBLAS
libraries that numpy and scipy.linalg loaded are held at one thread, and
their previous counts are restored on close, also after an error: otherwise
the workers and OpenBLAS's own threads, which spin for a while after a call,
contend for the same cores, both in a pass and in the LAPACK calls between
passes, which run on scipy's OpenBLAS. The counts are set with OpenBLAS's
own setters, looked up once per process with ctypes among the symbols of
numpy's core extension and of scipy's BLAS extension; where there is none,
as with another BLAS, the count is left alone.
"""

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import ExitStack, contextmanager

import numpy as np
from scipy.linalg import _fblas

try:
    from numpy._core import _multiarray_umath  # numpy >= 2
except ImportError:
    from numpy.core import _multiarray_umath

# (get, set) thread-count symbols of OpenBLAS builds: scipy-openblas, as the
# numpy and scipy wheels ship it, and plain OpenBLAS, with 64-bit integers or
# without
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# rows of a spectral block above the size rule
SPECTRAL_BLOCK = 8192
# the size rule: fewer rows run each spectral pass inline, as one block
SPECTRAL_MIN_ROWS = 4 * SPECTRAL_BLOCK

_open = threading.local()  # the pool of the calling thread's ``pool()`` block


def row_blocks(n):
    """The spectral stage's partition of rows 0..n into [start, stop) blocks,
    by n alone: one block below ``SPECTRAL_MIN_ROWS``, else blocks of
    ``SPECTRAL_BLOCK`` rows whose last one also takes the remainder."""
    if n < SPECTRAL_MIN_ROWS:
        return [(0, n)]
    count = n // SPECTRAL_BLOCK
    return [(b * SPECTRAL_BLOCK, n if b == count - 1 else (b + 1) * SPECTRAL_BLOCK)
            for b in range(count)]


def map_blocks(n, work):
    """Call ``work(start, stop)`` on each block of ``row_blocks(n)``, on every
    usable core."""
    _map(row_blocks(n), work)


def sum_blocks(n, shape, work):
    """The sum, in block order, of the arrays of ``shape`` that
    ``work(start, stop, out)`` writes into ``out`` for each block of
    ``row_blocks(n)``, run on every usable core. With one block this is the
    one array ``work`` wrote."""
    blocks = row_blocks(n)
    partials = np.empty((len(blocks),) + shape)
    _map([(start, stop, out) for (start, stop), out in zip(blocks, partials)], work)
    total = partials[0]
    for partial in partials[1:]:
        total += partial
    return total


def map_columns(n, m, work):
    """Call ``work(j)`` on each column j < m of an n-row array: inline below
    the size rule, else on every usable core."""
    if n < SPECTRAL_MIN_ROWS:
        for j in range(m):
            work(j)
    else:
        _map([(j,) for j in range(m)], work)


def map_row_blocks(n, block, cols, work):
    """Call ``work(start, stop, *buffers)`` on each of ceil(n / block)
    near-equal row blocks [start, stop) that cover 0..n, on every usable
    core. ``buffers`` are the calling worker's own C-ordered float64 arrays,
    one per entry of ``cols`` with that many columns, and rows enough for any
    block."""
    n_blocks = -(-n // block)
    size = -(-n // n_blocks)  # the largest block's rows
    _map([(n * b // n_blocks, n * (b + 1) // n_blocks) for b in range(n_blocks)], work,
         buffers=lambda: [np.empty((size, c)) for c in cols])


@contextmanager
def pool():
    """Share one pool among the passes inside the block: its first pass of
    more than one task holds the BLAS thread counts at one and opens it, and
    the block's exit closes it, its threads joined and the counts restored.
    Inside another such block this one reuses that block's pool."""
    if getattr(_open, "stack", None) is not None:
        yield
        return
    with ExitStack() as stack:
        _open.stack, _open.executor = stack, None
        try:
            yield
        finally:
            _open.stack = _open.executor = None


def _map(tasks, work, buffers=list):
    """Call ``work(*task, *own)`` for each task, where ``own`` is the calling
    worker's ``buffers()``, allocated on the calling thread: inline for one
    task, else with BLAS held at one thread, on the open pool or on one
    opened for this call, worker w taking tasks w, w + workers, and so on.
    Raises a worker's error once every worker has stopped."""
    if len(tasks) < 2:
        for task in tasks:
            work(*task, *buffers())
        return
    workers = min(_usable_cores(), len(tasks))
    own = [buffers() for _ in range(workers)]

    def tasks_of(w):
        for task in tasks[w::workers]:
            work(*task, *own[w])

    with pool():
        if _open.executor is None:  # the pool's first pass: hold BLAS, then start it
            _open.stack.enter_context(_one_blas_thread())
            _open.executor = _open.stack.enter_context(
                ThreadPoolExecutor(max(1, _usable_cores() - 1)))
        futures = [_open.executor.submit(tasks_of, w) for w in range(1, workers)]
        try:
            tasks_of(0)  # worker 0 is the calling thread
        finally:
            wait(futures)
        for future in futures:
            future.result()


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS of ``openblas_threads`` at one thread inside the
    block, and restore their previous counts on exit."""
    threads = openblas_threads()
    previous = [get() for get, _ in threads]
    for _, set_ in threads:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(threads, previous):
            set_(count)


@functools.cache
def openblas_threads():
    """The (get, set) thread-count functions of each OpenBLAS that numpy and
    scipy.linalg loaded, one pair per library: none for a library that
    exports neither pair, and one when both share a library."""
    pairs, seen = [], set()
    for path in (_multiarray_umath.__file__, _fblas.__file__):
        lib = ctypes.CDLL(path)
        for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                address = ctypes.cast(get, ctypes.c_void_p).value
                if address not in seen:
                    seen.add(address)
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    pairs.append((get, set_))
                break
    return tuple(pairs)


def _usable_cores():
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1
