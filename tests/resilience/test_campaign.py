"""CampaignRunner end-to-end: kill/resume bit-exactness, scale-out faults."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.compressors import CODECS, build_codec
from repro.io.bp import HEADER_SIZE
from repro.resilience import (
    CampaignKilled,
    CampaignManifest,
    CampaignRunner,
    FaultPlan,
    ResilienceExhausted,
    RetryPolicy,
)
from repro.resilience.campaign import reconstruct
from repro.trace.metrics import REGISTRY

#: ``output_digest`` of ``_data()`` at ``chunk_elems=8`` and of
#: ``_data(128, 8)`` at ``chunk_elems=2`` (ZFP-X rate 8), pinned when
#: the campaign still assembled its output from a separate chunk store:
#: committing straight into the BP output must not move a byte.
DIGEST_64x8 = "38e8988f4775b3bab217b2aa7c757510c6dde011044f0eb50d94f0c5082a42bb"
DIGEST_128x8 = "ba86f4b581f0a40290c53dcc59a7071417ecaf3d2eab28895b7de2e58e00709d"


def _data(n0=64, n1=8):
    rng = np.random.default_rng(123)
    base = np.linspace(0, 1, n0 * n1).reshape(n0, n1)
    return (base + rng.normal(0, 0.01, (n0, n1))).astype(np.float32)


def _mk(adapter):
    from repro.compressors.zfp.compressor import ZFPX

    return ZFPX(rate=8.0, adapter=adapter)


def _runner(data, workdir, **kw):
    kw.setdefault("make_compressor", _mk)
    kw.setdefault("method", "zfp-x")
    kw.setdefault("chunk_elems", 8)
    kw.setdefault("sleep", lambda s: None)
    return CampaignRunner(data, workdir, **kw)


def test_clean_campaign(tmp_path):
    data = _data()
    res = _runner(data, tmp_path / "c", ranks=4).run()
    assert res.total_chunks == 8
    assert res.resumed_chunks == 0
    assert res.dropped_ranks == []
    assert res.faults_injected == 0 and res.retries == 0
    assert sum(res.rank_progress.values()) == 8
    out = reconstruct(tmp_path / "c", make_compressor=_mk)
    assert out.shape == data.shape
    assert np.abs(out - data).max() < 0.1  # rate-8 ZFP tolerance


@pytest.mark.parametrize("method", list(CODECS))
def test_reconstruct_reads_each_chunk_through_its_recorded_operator(
        method, tmp_path):
    """Every ``repro campaign --method`` reads back without naming a
    compressor: each chunk decodes through the tag its record carries,
    as the compressor that wrote it would decode it."""

    def make(adapter):
        return build_codec(method, {"error_bound": 1e-3}, adapter)

    data = _data()
    _runner(data, tmp_path / "c", ranks=2, make_compressor=make,
            method=method).run()
    got = reconstruct(tmp_path / "c")
    want = reconstruct(tmp_path / "c", make_compressor=make)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if CODECS[method].lossless:
        assert got.tobytes() == data.tobytes()


def test_default_compressor_is_the_method_codec(tmp_path):
    """Without ``make_compressor`` the campaign writes the codec its
    ``method`` names, so every record's tag matches its stream."""
    res = _runner(_data(), tmp_path / "c", ranks=2, method="zfp-x",
                  make_compressor=None).run()
    assert res.output_digest == DIGEST_64x8


def test_rank_count_does_not_change_bytes(tmp_path):
    data = _data()
    digests = {
        _runner(data, tmp_path / f"r{r}", ranks=r).run().output_digest
        for r in (1, 2, 8, 64)
    }
    assert digests == {DIGEST_64x8}


def test_each_reduced_byte_is_written_once(tmp_path):
    _runner(_data(), tmp_path / "c", ranks=4).run()
    files = sorted(str(p.relative_to(tmp_path / "c"))
                   for p in (tmp_path / "c").rglob("*"))
    assert files == ["final", "final/data.0", "final/index.json",
                     "manifest.json"]


def test_fresh_dir_guard(tmp_path):
    data = _data(16)
    _runner(data, tmp_path / "c", ranks=2).run()
    with pytest.raises(ValueError, match="already holds a campaign"):
        _runner(data, tmp_path / "c", ranks=2).run()


def test_resume_fingerprint_mismatch(tmp_path):
    _runner(_data(16), tmp_path / "c", ranks=2).run()
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        _runner(_data(32), tmp_path / "c", ranks=2).run(resume=True)


def test_killed_campaign_resumes_bit_exact(tmp_path):
    """The tentpole acceptance: kill mid-run, resume, byte-identical."""
    data = _data()
    clean = _runner(data, tmp_path / "clean", ranks=4).run()

    kill_plan = FaultPlan(seed=3, device_batch_rate=0.2, corrupt_rate=0.2,
                          transport_rate=0.1, kill_after_chunks=3)
    with pytest.raises(CampaignKilled) as ei:
        _runner(data, tmp_path / "c", ranks=4, plan=kill_plan).run()
    assert ei.value.completed_chunks >= 3

    # Resume under continued (but kill-free) fire.
    resume_plan = FaultPlan(seed=3, device_batch_rate=0.2, corrupt_rate=0.2,
                            transport_rate=0.1)
    res = _runner(data, tmp_path / "c", ranks=4, plan=resume_plan).run(
        resume=True
    )
    assert res.resumed_chunks >= 3  # finished chunks were not recompressed
    assert res.output_digest == clean.output_digest == DIGEST_64x8
    np.testing.assert_array_equal(
        reconstruct(tmp_path / "c", make_compressor=_mk),
        reconstruct(tmp_path / "clean", make_compressor=_mk),
    )


def test_double_kill_then_resume(tmp_path):
    """Each restart makes forward progress past repeated kills."""
    data = _data()
    clean = _runner(data, tmp_path / "clean", ranks=2).run()
    plan = FaultPlan(seed=1, kill_after_chunks=3)
    with pytest.raises(CampaignKilled):
        _runner(data, tmp_path / "c", ranks=2, plan=plan).run()
    with pytest.raises(CampaignKilled):
        _runner(data, tmp_path / "c", ranks=2, plan=plan).run(resume=True)
    res = _runner(data, tmp_path / "c", ranks=2).run(resume=True)
    assert res.output_digest == clean.output_digest


def test_rank_dropout_work_is_adopted(tmp_path):
    data = _data()
    clean = _runner(data, tmp_path / "clean", ranks=4).run()
    plan = FaultPlan(seed=0, drop_ranks=(1, 2), drop_after_chunks=1)
    res = _runner(data, tmp_path / "c", ranks=4, plan=plan).run()
    assert sorted(res.dropped_ranks) == [1, 2]
    assert res.output_digest == clean.output_digest  # zero data loss
    # Survivors did the dropped ranks' share.
    assert sum(res.rank_progress.values()) == res.total_chunks


def test_listed_rank_leaves_when_the_queue_runs_dry(tmp_path):
    """A listed rank leaves even when its quota is never reached."""
    plan = FaultPlan(seed=0, drop_ranks=(3,), drop_after_chunks=5)
    res = _runner(_data(16), tmp_path / "c", ranks=4, plan=plan).run()
    assert res.total_chunks == 2
    assert res.dropped_ranks == [3]


def test_all_ranks_dropping_exhausts(tmp_path):
    plan = FaultPlan(seed=0, drop_ranks=(0, 1), drop_after_chunks=0)
    with pytest.raises(ResilienceExhausted) as ei:
        _runner(_data(), tmp_path / "c", ranks=2, plan=plan).run()
    assert ei.value.site == "campaign"
    # The checkpoint remains resumable afterwards.
    res = _runner(_data(), tmp_path / "c", ranks=2).run(resume=True)
    assert res.total_chunks == 8


def test_64_rank_campaign_under_5pct_device_faults(tmp_path):
    """Acceptance: >=5% device-batch faults at 64 simulated ranks completes
    with zero data loss and faults == retries on the metrics registry."""
    data = _data(128, 8)
    clean = _runner(data, tmp_path / "clean", ranks=1, chunk_elems=2).run()

    faults_c = REGISTRY.counter("hpdr_faults_injected_total")
    retries_c = REGISTRY.counter("hpdr_retries_total")
    f0, r0 = faults_c.total(), retries_c.total()

    plan = FaultPlan(seed=5, device_batch_rate=0.05)
    res = _runner(data, tmp_path / "c", ranks=64, chunk_elems=2,
                  plan=plan).run()
    assert res.total_chunks == 64
    assert res.output_digest == clean.output_digest  # zero data loss
    assert res.output_digest == DIGEST_128x8
    assert res.faults_injected > 0
    # Every injected fault was recovered by exactly one re-attempt.
    assert res.faults_injected == res.retries
    assert faults_c.total() - f0 == res.faults_injected
    assert retries_c.total() - r0 == res.retries


def test_campaign_records_context_digests(tmp_path):
    res = _runner(_data(), tmp_path / "c", ranks=2).run()
    assert res.rank_progress  # progress recorded per rank
    manifest = CampaignManifest.load(tmp_path / "c" / "manifest.json")
    assert manifest is not None
    assert set(manifest.context_digests) == set(manifest.rank_progress)
    assert all(len(d) == 64 for d in manifest.context_digests.values())


# -- hostile resumes: the output file is the checkpoint ---------------------

def _record_ends(workdir) -> list[int]:
    """End offset of each record in ``final/data.0``, from its index."""
    index = json.loads((workdir / "final" / "index.json").read_text())
    return sorted(off + n for off, n in
                  (v["span"] for v in index["variables"].values()))


def test_resume_after_truncation_at_every_offset(tmp_path):
    work = tmp_path / "c"
    runner = _runner(_data(), work, ranks=1)
    runner.run()
    ends = _record_ends(work)
    data0 = work / "final" / "data.0"
    blob = data0.read_bytes()
    assert ends[-1] == len(blob)
    for cut in range(len(blob)):
        data0.write_bytes(blob[:cut])
        res = runner.run(resume=True)
        # Exactly the records wholly before the cut survive.
        assert res.resumed_chunks == sum(end <= cut for end in ends), cut
        assert res.output_digest == DIGEST_64x8, cut


def test_resume_after_a_flipped_byte_in_each_record(tmp_path):
    work = tmp_path / "c"
    runner = _runner(_data(), work, ranks=1)
    runner.run()
    starts = [HEADER_SIZE] + _record_ends(work)[:-1]
    data0 = work / "final" / "data.0"
    blob = data0.read_bytes()
    for k, (start, end) in enumerate(zip(starts, _record_ends(work))):
        # A record of a 2-D chunk is lengths (5 B), "chunk00000k@0"
        # (13), "<f4" (3), "zfp-x" (5), shape (16), payload length
        # (8), CRC (4), payload: a flip in any field stops the walk.
        for pos in (start, start + 4, start + 11, start + 19, start + 23,
                    start + 33, start + 41, start + 45, start + 51,
                    start + 54, end - 1):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            data0.write_bytes(bytes(flipped))
            res = runner.run(resume=True)
            assert res.resumed_chunks == k, (k, pos)
            assert res.output_digest == DIGEST_64x8, (k, pos)


def test_v1_directory_is_refused(tmp_path):
    work = tmp_path / "c"
    runner = _runner(_data(), work, ranks=1)
    (work / "chunks").mkdir(parents=True)
    (work / "manifest.json").write_text(json.dumps({
        "version": 1, "fingerprint": runner.fingerprint(),
        "total_chunks": runner.total_chunks, "completed": {},
    }))
    with pytest.raises(ValueError, match="manifest version 1"):
        runner.run(resume=True)


def test_corrupt_every_attempt_exhausts_with_no_record(tmp_path):
    plan = FaultPlan(seed=0, corrupt_rate=1.0)
    runner = _runner(_data(), tmp_path / "c", ranks=2, plan=plan,
                     policy=RetryPolicy(max_attempts=2))
    with pytest.raises(ResilienceExhausted) as ei:
        runner.run()
    assert ei.value.site == "chunk[0]"
    assert (tmp_path / "c" / "final" / "data.0").stat().st_size == HEADER_SIZE
