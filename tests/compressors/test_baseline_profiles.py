"""The paper-baseline tags: functional twins of the HPDR codecs.

MGARD-GPU and ZFP-CUDA share MGARD-X's and ZFP-X's maths, so the codec
table reads their BP tags through the HPDR codecs; their runtime
profiles live only in the performance model.
"""

import numpy as np
import pytest

from repro import MGARDX, ZFPX
from repro.compressors import ALIASES, build_codec
from repro.core.config import Config, ErrorMode
from repro.io.bp import BPFile


def test_mgard_gpu_same_maths_as_mgard_x(smooth_2d):
    """Functional twin: same algorithm, same error guarantee."""
    legacy = build_codec("mgard-gpu", {"error_bound": 1e-3})
    blob = legacy.compress(smooth_2d)
    assert legacy.max_error(smooth_2d, blob) <= 1e-3 * np.ptp(smooth_2d)
    assert ALIASES["mgard-gpu"] == "mgard-x"


def test_mgard_gpu_streams_decode_with_mgard_x(smooth_2d):
    """The paper's portability point inverted: streams are compatible
    because the algorithm design is shared."""
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    bp = BPFile()
    bp.put("v", smooth_2d, operator="mgard-gpu", compressor=MGARDX(cfg))
    back = BPFile.frombytes(bp.tobytes()).get("v")
    assert np.max(np.abs(back - smooth_2d)) <= 1e-3 * np.ptp(smooth_2d)


def test_zfp_cuda_matches_zfp_x_bitstream(rng):
    data = rng.normal(size=(16, 16)).astype(np.float32)
    blob = build_codec("zfp-cuda", {"rate": 10}).compress(data)
    assert blob == ZFPX(rate=10).compress(data)


def test_zfp_cuda_has_no_hip_kernel_model():
    """The paper excludes unstable HIP ports from its evaluation."""
    from repro.perf.models import kernel_model

    with pytest.raises(KeyError):
        kernel_model("zfp-cuda", "MI250X")
    with pytest.raises(KeyError):
        kernel_model("cusz", "MI250X")
    # MGARD-X is portable: HIP model exists.
    kernel_model("mgard-x", "MI250X")
