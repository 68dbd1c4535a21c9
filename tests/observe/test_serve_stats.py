"""Tests for the serving-metrics view over the unified registry."""

import time

import numpy as np
import pytest

from repro.observe.registry import counters, format_serve_stats, serve_stats


@pytest.fixture(autouse=True)
def clean_serve_counters():
    counters.clear("serve.")
    yield
    counters.clear("serve.")


class TestServeStats:
    def test_empty_registry(self):
        stats = serve_stats()
        assert stats["requests"] == 0
        assert stats["batches"] == 0
        assert stats["mean_batch_size"] is None
        assert stats["mean_queue_wait_ms"] is None
        assert stats["coalesce_rate"] is None

    def test_derived_ratios(self):
        counters.add("serve.requests", 8)
        counters.add("serve.batches", 2)
        counters.add("serve.batch_size", 8)
        counters.add("serve.queue_wait_ms", 10.0)
        counters.add("serve.dispatched", 8)
        counters.add("serve.coalesced", 6)
        counters.add("serve.shards", 3)
        stats = serve_stats()
        assert stats["requests"] == 8
        assert stats["batches"] == 2
        assert stats["coalesced"] == 6
        assert stats["shards"] == 3
        assert stats["mean_batch_size"] == pytest.approx(4.0)
        # Per request: 10 ms summed over 8 dispatched requests.
        assert stats["mean_queue_wait_ms"] == pytest.approx(1.25)
        assert stats["coalesce_rate"] == pytest.approx(0.75)


class TestLiveQueueWait:
    def test_coalesced_batch_mean_wait_within_deadline(self):
        """Four requests staggered 10 ms apart ride one deadline-flushed
        batch: each waits at most max_wait_ms, so the per-request mean
        does too (the summed wait is about 4x that)."""
        from repro.serve import ConvServer

        rng = np.random.default_rng(0)
        weight = rng.standard_normal((2, 3, 3, 3))
        max_wait_ms = 100.0
        with ConvServer(max_batch=8, max_wait_ms=max_wait_ms,
                        workers=1) as server:
            futures = []
            for _ in range(4):
                futures.append(server.submit(
                    rng.standard_normal((1, 3, 8, 8)), weight, padding=1))
                time.sleep(0.01)
            for future in futures:
                future.result(timeout=10)
            stats = serve_stats()
        assert stats["batches"] == 1 and stats["coalesced"] == 4
        assert 0 < stats["mean_queue_wait_ms"] <= max_wait_ms


class TestFormatServeStats:
    def test_empty_renders_dashes(self):
        text = format_serve_stats()
        assert "requests" in text
        assert "-" in text

    def test_populated_renders_values(self):
        counters.add("serve.requests", 4)
        counters.add("serve.batches", 1)
        counters.add("serve.batch_size", 4)
        counters.add("serve.coalesced", 4)
        text = format_serve_stats()
        assert "4.00" in text       # mean batch size
        assert "100.0%" in text     # coalesce rate

    def test_accepts_precomputed_stats(self):
        counters.add("serve.requests", 2)
        stats = serve_stats()
        assert format_serve_stats(stats) == format_serve_stats(stats)
