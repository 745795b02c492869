"""HPDR-Serve: asyncio micro-batching reduction service.

The serving layer turns the HPDR codecs into a concurrent service:
requests are admitted through a bounded queue, grouped by a
deadline-based micro-batcher, and executed on workers whose pinned CMM
contexts keep the steady state zero-alloc under load.  See
``docs/architecture.md`` (serving layer) and ``docs/operations.md``
(``repro serve`` runbook).

>>> import asyncio, numpy as np
>>> from repro.serve import CodecSpec, ReductionService, ServiceConfig
>>> async def demo():
...     async with ReductionService(ServiceConfig()) as svc:
...         spec = CodecSpec("zfp-x", rate=8.0)
...         data = np.ones((16, 16), dtype=np.float32)
...         blob = await svc.compress(spec, data)
...         return (await svc.decompress(spec, blob)).shape
>>> asyncio.run(demo())
(16, 16)
"""

from repro.serve.batcher import BatchLimits, Flush, MicroBatchPlanner
from repro.serve.errors import (
    ServeError,
    ServiceClosed,
    ServiceOverloaded,
    ShardOverloaded,
)
from repro.serve.loadgen import ServiceClient, default_payloads, run_blast
from repro.serve.net import (
    BlastClient,
    ProtocolError,
    RemoteRequestError,
    serve_tcp,
)
from repro.serve.service import (
    ReductionService,
    ServiceConfig,
    ServiceStats,
    percentile,
)
from repro.serve.spec import (
    OPS,
    SERVABLE_CODECS,
    CodecSpec,
    payload_nbytes,
    shape_class,
    size_class,
)
from repro.serve.worker import Worker

__all__ = [
    "BatchLimits",
    "BlastClient",
    "CodecSpec",
    "Flush",
    "MicroBatchPlanner",
    "OPS",
    "ProtocolError",
    "ReductionService",
    "RemoteRequestError",
    "SERVABLE_CODECS",
    "ServeError",
    "ServiceClient",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServiceStats",
    "ShardOverloaded",
    "Worker",
    "default_payloads",
    "payload_nbytes",
    "percentile",
    "run_blast",
    "serve_tcp",
    "shape_class",
    "size_class",
]
