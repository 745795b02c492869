"""The release-version baseline wrappers: functional twins of the HPDR codecs."""

import numpy as np
import pytest

from repro.core.config import Config, ErrorMode
from repro.compressors.baselines import MGARDGPU, ZFPCUDA


def test_mgard_gpu_same_maths_as_mgard_x(smooth_2d):
    """Functional twin: same algorithm, same error guarantee."""
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    legacy = MGARDGPU(cfg)
    blob = legacy.compress(smooth_2d)
    assert legacy.max_error(smooth_2d, blob) <= 1e-3 * np.ptp(smooth_2d)


def test_mgard_gpu_streams_decode_with_mgard_x(smooth_2d):
    """The paper's portability point inverted: streams are compatible
    because the algorithm design is shared."""
    from repro import MGARDX

    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    blob = MGARDGPU(cfg).compress(smooth_2d)
    back = MGARDX(cfg).decompress(blob)
    assert np.max(np.abs(back - smooth_2d)) <= 1e-3 * np.ptp(smooth_2d)


def test_mgard_gpu_does_not_cache_contexts(smooth_2d):
    cfg = Config(error_bound=1e-3)
    legacy = MGARDGPU(cfg)
    legacy.compress(smooth_2d)
    assert len(legacy.cache) == 0  # everything released per call
    legacy.compress(smooth_2d)
    assert legacy.cache.misses >= 2  # rebuilt every time


def test_zfp_cuda_matches_zfp_x_bitstream(rng):
    from repro import ZFPX

    data = rng.normal(size=(16, 16)).astype(np.float32)
    assert ZFPCUDA(rate=10).compress(data) == ZFPX(rate=10).compress(data)


def test_zfp_cuda_has_no_hip_kernel_model():
    """The paper excludes unstable HIP ports from its evaluation."""
    from repro.perf.models import kernel_model

    with pytest.raises(KeyError):
        kernel_model("zfp-cuda", "MI250X")
    with pytest.raises(KeyError):
        kernel_model("cusz", "MI250X")
    # MGARD-X is portable: HIP model exists.
    kernel_model("mgard-x", "MI250X")
