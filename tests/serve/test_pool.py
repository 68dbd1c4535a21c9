"""Unit tests for shard splitting, reassembly and the worker pool."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.serve import WorkerPool, execute_conv, make_request, shard_splits
from tests.conftest import naive_conv2d_reference


class TestShardSplits:
    @pytest.mark.parametrize("n,groups,parts", [
        (1, 1, 1), (8, 1, 4), (3, 1, 8), (2, 4, 8), (5, 3, 7), (16, 2, 3),
    ])
    def test_cover_exactly_once(self, n, groups, parts):
        covered = np.zeros((n, groups), dtype=int)
        for batch_slice, (g_lo, g_hi) in shard_splits(n, groups, parts):
            covered[batch_slice, g_lo:g_hi] += 1
        assert np.array_equal(covered, np.ones((n, groups), dtype=int))

    def test_at_most_parts_shards(self):
        for n, groups, parts in [(8, 1, 4), (2, 4, 8), (5, 3, 7)]:
            assert len(shard_splits(n, groups, parts)) <= parts

    def test_single_part_is_whole_problem(self):
        assert shard_splits(5, 3, 1) == [(slice(0, 5), (0, 3))]

    def test_batch_axis_cut_first(self):
        # With enough batch rows, the group axis is never cut.
        for batch_slice, (g_lo, g_hi) in shard_splits(8, 4, 4):
            assert (g_lo, g_hi) == (0, 4)

    def test_groups_absorb_leftover_parallelism(self):
        splits = shard_splits(2, 4, 8)
        assert len(splits) == 8
        assert all(g_hi - g_lo == 1 for _, (g_lo, g_hi) in splits)

    def test_invalid_arguments(self):
        for n, groups, parts in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                shard_splits(n, groups, parts)


class TestExecuteConv:
    def test_matches_functional(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        out = execute_conv(x, w, padding=1)
        assert np.array_equal(out, F.conv2d(x, w, padding=1))

    def test_non_polyhankel_algorithm(self, rng):
        # strategy/backend must not leak into algorithms that reject them.
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3))
        out = execute_conv(x, w, algorithm="gemm", strategy="hybrid",
                           backend="numpy")
        np.testing.assert_allclose(out, naive_conv2d_reference(x, w),
                                   atol=1e-10)

    def test_guarded_path_matches(self, rng):
        from repro.guard.state import guarded

        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        plain = execute_conv(x, w, padding=1)
        with guarded():
            supervised = execute_conv(x, w, padding=1,
                                      breaker_key=("test", "scope"))
        assert np.array_equal(plain, supervised)


class TestWorkerPool:
    def test_sharded_request_bit_exact(self, rng):
        pool = WorkerPool(workers=3, )
        try:
            x = rng.standard_normal((5, 3, 8, 8))
            w = rng.standard_normal((4, 3, 3, 3))
            request = make_request(x, w, padding=1)
            out = pool.run_request(request)
            assert np.array_equal(out, F.conv2d(x, w, padding=1))
        finally:
            pool.close()

    def test_group_sharding_bit_exact(self, rng):
        pool = WorkerPool(workers=4, )
        try:
            x = rng.standard_normal((2, 4, 8, 8))
            w = rng.standard_normal((4, 2, 3, 3))
            bias = rng.standard_normal(4)
            request = make_request(x, w, bias, padding=1, groups=2)
            out = pool.run_request(request)
            expected = F.conv2d(x, w, bias, padding=1, groups=2)
            assert np.array_equal(out, expected)
        finally:
            pool.close()

    def test_resolve_sets_result(self, rng):
        pool = WorkerPool(workers=2, )
        try:
            x = rng.standard_normal((3, 3, 8, 8))
            w = rng.standard_normal((2, 3, 3, 3))
            request = make_request(x, w, padding=1)
            pool.resolve(request)
            assert np.array_equal(request.future.result(timeout=5),
                                  F.conv2d(x, w, padding=1))
        finally:
            pool.close()

    def test_resolve_carries_exception(self, rng):
        pool = WorkerPool(workers=1, )
        try:
            x = rng.standard_normal((1, 3, 8, 8))
            w = rng.standard_normal((2, 3, 3, 3))
            request = make_request(x, w, algorithm="no-such-algorithm")
            pool.resolve(request)  # must not raise
            with pytest.raises(Exception):
                request.future.result(timeout=5)
        finally:
            pool.close()

    def test_shard_counter(self, rng):
        from repro.observe.registry import counters

        counters.clear("serve.shards")
        pool = WorkerPool(workers=3, )
        try:
            x = rng.standard_normal((6, 3, 8, 8))
            w = rng.standard_normal((2, 3, 3, 3))
            pool.run_request(make_request(x, w, padding=1))
            assert counters.total("serve.shards") == 3
        finally:
            pool.close()
            counters.clear("serve.shards")

    def test_close_idempotent_and_reusable(self, rng):
        pool = WorkerPool(workers=2, )
        pool.close()
        pool.close()
        x = rng.standard_normal((4, 3, 8, 8))
        w = rng.standard_normal((2, 3, 3, 3))
        out = pool.run_request(make_request(x, w, padding=1))
        assert np.array_equal(out, F.conv2d(x, w, padding=1))
        pool.close()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=-1)

    def test_workers_env_knob(self, monkeypatch):
        from repro.serve.pool import WORKERS_ENV, default_workers

        monkeypatch.setenv(WORKERS_ENV, "7")
        assert default_workers() == 7
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        assert default_workers() >= 1
