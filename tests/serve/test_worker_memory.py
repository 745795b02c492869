"""A serve worker holds no per-request state on its device adapter."""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.adapters import get_adapter
from repro.serve import CodecSpec
from repro.serve.worker import OK, Worker

REQUESTS = 200


def test_simulated_device_worker_does_not_grow_with_requests():
    """A ``cuda`` worker answering a few hundred MGARD-X compresses
    after warm-up grows by a bounded constant, not per launch.

    Each compress is 14 launches; a record kept per launch costs ~3 KB
    a request (~600 KB here).  What does grow is CPython's free lists
    and NumPy's small-buffer cache filling up, ~120 KB over the first
    few hundred requests on this workload and then flat."""
    worker = Worker(0, get_adapter("cuda"), get_adapter("serial"))
    spec = CodecSpec("mgard-x")
    field = np.random.default_rng(3).standard_normal((32, 32)).astype(np.float32)
    try:
        for _ in range(20):
            [(tag, _blob)] = worker.run_payloads("compress", spec, [field])
            assert tag == OK
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(REQUESTS):
                worker.run_payloads("compress", spec, [field])
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        worker.close()
    assert grown < 256 * 1024, f"worker grew {grown} bytes over {REQUESTS} requests"
