"""Fig. 14 — Compression ratio under the three pipeline settings.

Paper: fixed 100 MB chunking cuts MGARD's ratio by 5-67 % (short chunks
lose cross-chunk correlation); the adaptive pipeline, whose chunks grow
large quickly, lands within 1 % of the non-pipelined ratio; ZFP is
essentially unaffected (4^d blocks are far smaller than any chunk).

This bench performs *real* compression: the dataset is split along the
leading axis into chunks proportional to the paper's 100 MB / 4.3 GB
geometry, each chunk forming an independent stream.
"""

import numpy as np

from repro import Config, ErrorMode, MGARDX, ZFPX, rate_for_error_bound
from repro.bench.report import print_table
from repro.core.adaptive import adaptive_schedule
from repro.perf.models import kernel_model

from benchmarks.common import bench_dataset, save_table

GB = int(1e9)
EBS = [1e-2, 1e-4, 1e-6]


def _row_chunks_like_adaptive(n_rows: int) -> list[int]:
    """Scale the adaptive byte schedule for 4.3 GB onto ``n_rows``."""
    model = kernel_model("mgard-x", "V100", error_bound=1e-2)
    sizes = adaptive_schedule(int(4.3 * GB), model)
    fracs = np.array(sizes, dtype=float) / sum(sizes)
    # Clamp to one ZFP block (4 rows) per chunk: at paper scale even the
    # small leading chunk is tens of MB of full-3-D data.
    rows = np.maximum(4, np.round(fracs * n_rows).astype(int))
    # trim to exactly n_rows
    while rows.sum() > n_rows:
        rows[np.argmax(rows)] -= 1
    out = []
    remaining = n_rows
    for r in rows:
        if remaining <= 0:
            break
        take = min(int(r), remaining)
        out.append(take)
        remaining -= take
    if remaining:
        out.append(remaining)
    return out


def _ratio_chunked(comp_factory, data, row_chunks: list[int]) -> float:
    total = 0
    start = 0
    for rows in row_chunks:
        piece = data[start : start + rows]
        total += len(comp_factory().compress(piece))
        start += rows
    return data.nbytes / total


def measure(eb: float):
    data = bench_dataset("nyx")
    n = data.shape[0]
    # Paper geometry: 100 MB chunks of 4.3 GB ≈ 43 chunks.  At bench
    # scale that would leave 1-row slabs, whose 4^d padding artifacts do
    # not exist at paper scale, so the floor is one ZFP block (4 rows).
    fixed_rows = max(4, n // 43)
    fixed_chunks = [fixed_rows] * (n // fixed_rows)
    if n % fixed_rows:
        fixed_chunks.append(n % fixed_rows)
    adaptive_chunks = _row_chunks_like_adaptive(n)

    cfg = Config(error_bound=eb, error_mode=ErrorMode.REL)
    mg = lambda: MGARDX(cfg)
    zf = lambda: ZFPX(rate=rate_for_error_bound(eb, np.float32, 3))

    out = {}
    for name, factory in (("MGARD", mg), ("ZFP", zf)):
        whole = data.nbytes / len(factory().compress(data))
        fixed = _ratio_chunked(factory, data, fixed_chunks)
        adapt = _ratio_chunked(factory, data, adaptive_chunks)
        out[name] = (whole, fixed, adapt)
    return out


def test_fig14_pipeline_vs_ratio(benchmark):
    rows = []
    for eb in EBS:
        res = measure(eb)
        for name, (whole, fixed, adapt) in res.items():
            fixed_loss = 100 * (1 - fixed / whole)
            adapt_loss = 100 * (1 - adapt / whole)
            rows.append([
                name, f"{eb:.0e}", f"{whole:.2f}", f"{fixed:.2f}",
                f"{adapt:.2f}", f"{fixed_loss:.1f}%", f"{adapt_loss:.1f}%",
            ])
            if name == "MGARD":
                # Paper: 5-67% ratio loss from fixed chunking; adaptive
                # within ~1%.  At bench scale (48³ instead of 4.3 GB) a
                # chunk is tens of rows, so adaptive still pays a modest
                # boundary penalty; the ordering is what must hold.
                assert fixed < whole
                assert adapt_loss < fixed_loss + 1e-9
                assert adapt_loss < 15.0
            else:
                # ZFP: blockwise codec — chunking is ~free.
                assert abs(fixed_loss) < 6.0
    text = print_table(
        ["kernel", "eb", "CR none", "CR fixed", "CR adaptive",
         "fixed loss (paper 5-67% MGARD)", "adaptive loss (paper <1%)"],
        rows,
        title="Fig. 14 — real compression ratios under pipeline chunking",
    )
    save_table("fig14_ratio", text)
    benchmark(measure, 1e-2)


if __name__ == "__main__":
    test_fig14_pipeline_vs_ratio(lambda f, *a, **k: f(*a, **k))
