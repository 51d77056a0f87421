import contextlib
import ctypes
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mvkc.data
import mvkc.kernels
import mvkc.workers
from mvkc.data import build_knn_graph
from mvkc.embedding import degree_normalize, implicit_degrees
from mvkc.kernels import ROW_BLOCK, apply_map
from mvkc.kmeans import _pivot_rows, cluster_sums, cpqr_labels
from mvkc.linalg import _inner, _product, center_columns, truncated_svd
from mvkc.workers import (SPECTRAL_BLOCK, SPECTRAL_MIN_ROWS, map_row_blocks, openblas_threads,
                          row_blocks)
from oracles import cpqr_labels_oracle, lapack_pivots


@pytest.mark.parametrize("n, block", [(1, 4096), (5, 4096), (4097, 4096), (12289, 4096),
                                      (1001, 40), (203, 1)])
def test_blocks_tile_the_rows_once_each_within_the_block(n, block, monkeypatch):
    # ceil(n / block) near-equal blocks, the same list on every core count
    partitions = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        seen, lock = [], threading.Lock()

        def work(start, stop, buffer):
            assert buffer.shape[0] >= stop - start and buffer.shape[1] == 3
            with lock:
                seen.append((start, stop, threading.get_ident()))

        threads = threading.active_count()
        map_row_blocks(n, block, (3,), work)
        assert threading.active_count() == threads
        bounds = sorted((start, stop) for start, stop, _ in seen)
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == n
        assert len(bounds) == -(-n // block)
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
        if n <= block:  # one block, on the calling thread
            assert {ident for _, _, ident in seen} == {threading.get_ident()}
        partitions[cores] = bounds
    assert partitions[2] == partitions[1] and partitions[3] == partitions[1]


def test_a_workers_error_is_raised_after_every_worker_stopped(monkeypatch):
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 3)
    done, lock = [], threading.Lock()

    def work(start, stop):
        if start == 0:
            raise RuntimeError("block 0")
        with lock:
            done.append(start)

    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="block 0"):
        map_row_blocks(90, 10, (), work)
    assert threading.active_count() == threads
    # 9 blocks of 10 rows on 3 workers: worker 0 stopped at its first block,
    # and the other two ran all of theirs before the error was raised
    assert sorted(done) == [10, 20, 40, 50, 70, 80]


# The pools of apply_map and build_knn_graph, each with the function its
# workers call: rbf_kernel, which apply_map also calls once on the calling
# thread for the landmark matrix, and _k_smallest.
POOLS = {
    "apply_map": (mvkc.kernels, "rbf_kernel",
                  lambda: apply_map("rbf", np.random.default_rng(0).normal(size=(3 * ROW_BLOCK, 4)),
                                    40, right=np.empty((40, 40)))),
    "build_knn_graph": (mvkc.data, "_k_smallest",
                        lambda: build_knn_graph(np.random.default_rng(0).normal(size=(3000, 4)), 3)),
}


@pytest.fixture
def blas_threads():
    """The getters of numpy's and scipy's OpenBLAS, each set to two threads,
    their counts restored after."""
    threads = openblas_threads()
    if not threads:
        pytest.skip("neither numpy's nor scipy's BLAS exports an OpenBLAS thread-count setter")
    previous = [get() for get, _ in threads]
    for get, set_ in threads:
        set_(2)
        assert get() == 2
    yield [get for get, _ in threads]
    for (_, set_), count in zip(threads, previous):
        set_(count)


def test_scipys_openblas_is_held_too_and_looked_up_once(monkeypatch):
    # scipy.linalg ships its own OpenBLAS, apart from numpy's
    from scipy.linalg import _fblas
    scipy_get = getattr(ctypes.CDLL(_fblas.__file__), "scipy_openblas_get_num_threads", None)
    if scipy_get is None:
        pytest.skip("scipy's BLAS exports no scipy-openblas thread-count getter")
    address = ctypes.cast(scipy_get, ctypes.c_void_p).value
    threads = openblas_threads()
    assert address in [ctypes.cast(get, ctypes.c_void_p).value for get, _ in threads]

    def no_lookup(*args, **kwargs):
        raise AssertionError("the OpenBLAS symbols are looked up again")

    monkeypatch.setattr(mvkc.workers.ctypes, "CDLL", no_lookup)
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 2)
    for _ in range(2):
        map_row_blocks(100, 10, (), lambda start, stop: None)
    assert openblas_threads() is threads


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("pool", list(POOLS))
def test_workers_run_on_one_blas_thread_and_the_count_is_restored(pool, fail, blas_threads,
                                                                   monkeypatch):
    gets = blas_threads
    module, name, call = POOLS[pool]
    inner = getattr(module, name)
    main = threading.get_ident()
    counts = []

    def recorded(*args, **kwargs):
        counts.append((threading.get_ident() == main, [get() for get in gets]))
        if fail and threading.get_ident() != main:
            raise RuntimeError("worker failed")
        return inner(*args, **kwargs)

    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 2)
    monkeypatch.setattr(module, name, recorded)
    if fail:
        with pytest.raises(RuntimeError, match="worker failed"):
            call()
    else:
        call()
    assert [get() for get in gets] == [2] * len(gets)
    # every call is inside the hold: the calling thread is worker 0, and
    # apply_map builds its landmark kernel after the blocks, in their hold
    assert any(not on_main for on_main, _ in counts)
    assert all(count == [1] * len(gets) for _, count in counts)


def test_one_usable_core_runs_every_task_inline_on_one_blas_thread(blas_threads, monkeypatch):
    # a pooled pass of several tasks on one core starts no thread, and still
    # holds each OpenBLAS at one thread
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 1)
    threads = threading.active_count()
    seen = []
    map_row_blocks(100, 10, (), lambda start, stop: seen.append(
        (threading.get_ident(), threading.active_count(), [get() for get in blas_threads])))
    assert seen == [(threading.get_ident(), threads, [1] * len(blas_threads))] * 10
    assert [get() for get in blas_threads] == [2] * len(blas_threads)


@pytest.mark.parametrize("n", [1, SPECTRAL_MIN_ROWS - 1, SPECTRAL_MIN_ROWS,
                               SPECTRAL_MIN_ROWS + SPECTRAL_BLOCK - 1, 50000])
def test_spectral_blocks_depend_on_n_alone_and_start_on_the_block_grid(n):
    blocks = row_blocks(n)
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == n
    if n < SPECTRAL_MIN_ROWS:
        assert blocks == [(0, n)]
    else:
        assert all(start % SPECTRAL_BLOCK == 0 for start, _ in blocks)
        assert all(SPECTRAL_BLOCK <= stop - start < 2 * SPECTRAL_BLOCK for start, stop in blocks)


@pytest.mark.parametrize("n", [SPECTRAL_MIN_ROWS - 1, SPECTRAL_MIN_ROWS + 1, 50000])
def test_spectral_passes_equal_their_whole_array_forms_on_every_core_count(n, monkeypatch):
    # each pass is the one whole-array call it was before the pool, bit for
    # bit; above the size rule the passes run on one BLAS thread, as the
    # whole-array calls here do, and the Gram matrix and Q.T X are sums of
    # block products, the same on every core count
    rng = np.random.default_rng(n)
    B = np.asfortranarray(rng.random((n, 100)))
    Q = np.asfortranarray(rng.normal(size=(n, 11)))
    W = np.asfortranarray(rng.normal(size=(100, 11)))
    labels = rng.integers(10, size=n)

    with mvkc.workers._one_blas_thread() if n >= SPECTRAL_MIN_ROWS else contextlib.nullcontext():
        degrees = B @ B.sum(axis=0)
        whole = {
            "product": (W.T @ B.T).T,
            "degrees": degrees,
            "normalized": B * (degrees**-0.5)[:, None],
            "sums": np.stack([np.bincount(labels, weights=B[:, j], minlength=10)
                              for j in range(100)], axis=1),
        }
        gram, qtx = B.T @ B, Q.T @ B
    sums = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        normalized = degree_normalize(B.copy(order="F"))
        pooled = {
            "product": _product(B, W),
            "degrees": implicit_degrees(B),
            "normalized": normalized,
            "sums": cluster_sums(B, labels, 10),
        }
        for name, array in whole.items():
            assert np.array_equal(pooled[name], array), (name, cores)
        sums[cores] = (_inner(B, B), _inner(Q, B))
    for cores in (2, 3):
        for one, more in zip(sums[1], sums[cores]):
            assert np.array_equal(one, more)
    if n < SPECTRAL_MIN_ROWS:
        assert np.array_equal(sums[1][0], gram) and np.array_equal(sums[1][1], qtx)
    else:  # block sums round differently from one product, by about 1e-16
        np.testing.assert_allclose(sums[1][0], gram, rtol=1e-13)
        np.testing.assert_allclose(sums[1][1], qtx, rtol=1e-12, atol=1e-10)


def test_spectral_passes_hold_under_frequent_thread_switches(monkeypatch):
    # more workers than cores, switching threads about every microsecond: the
    # blocks write disjoint parts of one output, and the Gram matrix's
    # partial products are summed only once every block is done
    rng = np.random.default_rng(0)
    n = SPECTRAL_MIN_ROWS + 5
    B = np.asfortranarray(rng.random((n, 40)))
    labels = rng.integers(7, size=n)

    def passes():
        return [_inner(B, B), implicit_degrees(B), cluster_sums(B, labels, 7)]

    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 1)
    expected = passes()
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for got, want in zip(passes(), expected):
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


def _orthonormal(n, r, seed):
    """A column-major n x r array with orthonormal columns."""
    return np.asfortranarray(np.linalg.qr(np.random.default_rng(seed).normal(size=(n, r)))[0])


@pytest.mark.parametrize("n", [SPECTRAL_MIN_ROWS - 1, SPECTRAL_MIN_ROWS + 1, 50000])
def test_centering_signs_degrees_and_cpqr_equal_their_whole_array_forms_on_every_core_count(
        n, monkeypatch):
    # these passes run on row blocks that depend on n alone, or per column;
    # each equals its whole-array form, or its oracle, bit for bit on 1, 2
    # and 3 cores, with 11 columns as a features-rbf view's spectral vectors;
    # the SVD's left vectors are the same bits on every core count
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 16)) + 3.0
    B = np.asfortranarray(rng.random((n, 11)))
    U = _orthonormal(n, 11, n)

    with mvkc.workers._one_blas_thread() if n >= SPECTRAL_MIN_ROWS else contextlib.nullcontext():
        whole = {
            "centered": X - X.mean(axis=0, keepdims=True),
            "degrees": B @ B.sum(axis=0),
            "pivots": lapack_pivots(U[:, 3:]),
            "labels": cpqr_labels_oracle(U[:, 3:], 8),
        }
    left = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        pooled = {
            "centered": center_columns(X),
            "degrees": implicit_degrees(B),
            "pivots": _pivot_rows(U[:, 3:]),
            "labels": cpqr_labels(U[:, 3:], 8),
        }
        for name, array in whole.items():
            assert np.array_equal(pooled[name], array), (name, cores)
        left[cores] = truncated_svd(X, 11).U
    for cores in (2, 3):
        assert np.array_equal(left[cores], left[1]), cores


def test_centering_signs_and_cpqr_hold_under_frequent_thread_switches(monkeypatch):
    # more workers than cores, switching threads about every microsecond:
    # the blocks write disjoint parts of the outputs and n-long buffers
    n = SPECTRAL_MIN_ROWS + 5
    X = np.random.default_rng(1).normal(size=(n, 16))
    U = _orthonormal(n, 11, 2)

    def passes():
        return [center_columns(X), truncated_svd(X, 11).U, cpqr_labels(U, 10)]

    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 1)
    expected = passes()
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for got, want in zip(passes(), expected):
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("order", ["C", "F"])
def test_centering_keeps_the_memory_order_of_its_input(order):
    X = np.asarray(np.random.default_rng(0).normal(size=(SPECTRAL_MIN_ROWS + 7, 5)), order=order)
    centered = center_columns(X)
    assert np.array_equal(centered, X - X.mean(axis=0, keepdims=True))
    assert centered.flags.c_contiguous == (order == "C")
    assert centered.flags.f_contiguous == (order == "F")


def test_discretization_on_more_cores_takes_no_more_memory(monkeypatch):
    # every per-block buffer is allocated on the calling thread before the
    # workers start, so more cores hold no more than one core's few n-long
    # vectors; the pool is open and its threads started, as in a run, before
    # the traced call
    n = 100000
    U = _orthonormal(n, 11, 1)
    peaks = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        with mvkc.workers.pool():
            cpqr_labels(U, 10)
            tracemalloc.start()
            cpqr_labels(U, 10)
            _, peaks[cores] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
    assert peaks[2] <= 1.01 * peaks[1] and peaks[3] <= 1.01 * peaks[1]
