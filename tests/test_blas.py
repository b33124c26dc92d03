"""The one sharing call, ``blas.share_out``, and the pool behind it."""

import os
import threading
import warnings

import pytest

from wfcodec import blas


def _pool_must_not_be_used():
    raise AssertionError("a one-worker call reached the pool")


class TestShareOut:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_item_order(self, workers):
        seen = set()

        def work(worker: int, i: int) -> int:
            seen.add(worker)
            return i * i

        assert blas.share_out(11, workers, work) == [i * i for i in range(11)]
        assert seen <= set(range(workers))

    def test_one_worker_runs_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(blas, "_shared_pool", _pool_must_not_be_used)
        caller = threading.get_ident()
        idents = blas.share_out(5, 1, lambda worker, i: (worker, threading.get_ident()))
        assert idents == [(0, caller)] * 5

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_gets_a_working_pool(self):
        """The parent's pool threads do not survive a fork; the child makes
        its own pool, whose thread takes one of two items while the caller
        takes the other."""

        def two_threads() -> bool:
            barrier = threading.Barrier(2, timeout=5.0)

            def work(worker: int, i: int) -> int:
                barrier.wait()  # both items run at once, so on two threads
                return threading.get_ident()

            return len(set(blas.share_out(2, 2, work))) == 2

        assert two_threads()  # the parent's pool now has a thread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:  # the child leaves through os._exit only
            code = 1
            try:
                code = 0 if two_threads() else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
