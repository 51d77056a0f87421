import threading

import numpy as np
import pytest

import mvkc.data
import mvkc.kernels
import mvkc.workers
from mvkc.data import build_knn_graph
from mvkc.kernels import ROW_BLOCK, apply_map
from mvkc.workers import map_row_blocks, openblas_threads


@pytest.mark.parametrize("n, block", [(1, 4096), (5, 4096), (4097, 4096), (12289, 4096),
                                      (1001, 40), (203, 1)])
def test_blocks_tile_the_rows_once_each_within_the_block(n, block, monkeypatch):
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
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
        if n * cores <= block:  # one worker, on the calling thread
            assert {ident for _, _, ident in seen} == {threading.get_ident()}


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
        map_row_blocks(90, 30, (), work)
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
                                    40)),
    "build_knn_graph": (mvkc.data, "_k_smallest",
                        lambda: build_knn_graph(np.random.default_rng(0).normal(size=(3000, 4)), 3)),
}


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set) at two threads, its count restored after."""
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count setter")
    get, set_ = threads
    previous = get()
    set_(2)
    assert get() == 2
    yield get, set_
    set_(previous)


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("pool", list(POOLS))
def test_workers_run_on_one_blas_thread_and_the_count_is_restored(pool, fail, blas_threads,
                                                                   monkeypatch):
    get, _ = blas_threads
    module, name, call = POOLS[pool]
    inner = getattr(module, name)
    main = threading.get_ident()
    counts = []

    def recorded(*args, **kwargs):
        counts.append((threading.get_ident() == main, get()))
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
    assert get() == 2
    on_workers = [count for on_main, count in counts if not on_main]
    assert on_workers and set(on_workers) == {1}
    assert all(count == 2 for on_main, count in counts if on_main)
