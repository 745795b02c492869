"""Campaign checkpointing: the manifest, and ``final/data.0`` as the only
chunk store (committed in id order, verified by read-back, walked on
resume)."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.io.bp import HEADER_SIZE, BPFile
from repro.io.engine import BPReader, BPWriter
from repro.resilience import (
    CampaignKilled,
    CampaignManifest,
    CampaignRunner,
    CorruptPayloadFault,
    FaultPlan,
    RetryPolicy,
)
from repro.resilience.campaign import _OutputLog, output_digest

from tests.resilience.test_campaign import DIGEST_64x8, _data, _runner


def _log(tmp_path, total=3):
    """An output log plus the runner that names its records."""
    runner = CampaignRunner(
        np.zeros((total, 2), dtype=np.float32), tmp_path, method="none",
        chunk_elems=1,
    )
    return _OutputLog(tmp_path / "final", total), runner._variable


def _commit_all(log, variable, payloads):
    log.create()
    for k, payload in enumerate(payloads):
        log.append(variable(k, payload), zlib.crc32(payload))


PAYLOADS = [b"chunk-zero", b"chunk-one!", b"chunk-two.."]


def test_chunk_roundtrip(tmp_path):
    log, variable = _log(tmp_path)
    _commit_all(log, variable, PAYLOADS)
    bp = BPFile.load(log.path)  # a complete log is a plain BP5X subfile
    assert [v.payload for v in bp.variables.values()] == PAYLOADS
    again, _ = _log(tmp_path)
    again.recover(variable)
    assert (again.cursor, again.spans, again.end) == (3, log.spans, log.end)


def test_chunk_file_is_self_validating(tmp_path):
    log, variable = _log(tmp_path)
    _commit_all(log, variable, PAYLOADS)
    blob = log.path.read_bytes()
    first_end = log.spans[0][0] + log.spans[0][1]

    log.path.write_bytes(blob[:-4])  # torn tail
    log.recover(variable)
    assert log.cursor == 2 and log.path.stat().st_size == log.end

    flipped = bytearray(blob)
    flipped[first_end - 1] ^= 0xFF  # bit rot in chunk 0's payload
    log.path.write_bytes(bytes(flipped))
    log.recover(variable)
    assert log.cursor == 0 and log.path.stat().st_size == HEADER_SIZE

    log.path.write_bytes(b"xx")  # truncated below the header
    log.recover(variable)
    assert log.cursor == 0 and log.path.read_bytes() == blob[:HEADER_SIZE]


def test_output_is_what_bpwriter_writes(tmp_path):
    res = _runner(_data(), tmp_path / "c", ranks=4).run()
    reader = BPReader(res.output_path)
    writer = BPWriter(tmp_path / "bp")
    for key in reader.variables():
        name = key.split("@")[0]
        shape = reader._subfile(0).variables[key].shape
        writer.put_reduced(name, reader.read_payload(name), shape,
                           np.float32, "zfp-x")
    writer.close()
    assert output_digest(tmp_path / "bp") == res.output_digest == DIGEST_64x8


def test_manifest_roundtrip(tmp_path):
    m = CampaignManifest(fingerprint="f" * 64, total_chunks=4)
    m.rank_progress[1] = 1
    m.context_digests[1] = "c" * 64
    m.save(tmp_path / "manifest.json")
    loaded = CampaignManifest.load(tmp_path / "manifest.json")
    assert loaded.fingerprint == m.fingerprint
    assert loaded.rank_progress == {1: 1}  # int keys survive JSON
    assert loaded.context_digests == {1: "c" * 64}
    assert CampaignManifest.load(tmp_path / "empty" / "manifest.json") is None


def test_manifest_version_gate(tmp_path):
    for version in (1, 99):
        with pytest.raises(ValueError, match=f"version {version}"):
            CampaignManifest.from_dict({"version": version, "fingerprint": "x",
                                        "total_chunks": 1})


def test_record_cadence(tmp_path, monkeypatch):
    """The manifest is saved at start, on kill and at the end — never
    per chunk (the output file records completion)."""
    saves = []
    real = CampaignManifest.save
    monkeypatch.setattr(CampaignManifest, "save",
                        lambda self, path: saves.append(path) or real(self, path))
    _runner(_data(), tmp_path / "clean", ranks=2).run()
    assert len(saves) == 2
    saves.clear()
    with pytest.raises(CampaignKilled):
        _runner(_data(), tmp_path / "k", ranks=2,
                plan=FaultPlan(kill_after_chunks=3)).run()
    assert len(saves) == 2


def test_recover_rebuilds_from_chunk_files(tmp_path):
    """Completion comes from the output file alone."""
    work = tmp_path / "c"
    with pytest.raises(CampaignKilled) as ei:
        _runner(_data(), work, ranks=2,
                plan=FaultPlan(kill_after_chunks=3)).run()
    (work / "manifest.json").unlink()
    res = _runner(_data(), work, ranks=2).run(resume=True)
    assert res.resumed_chunks == ei.value.completed_chunks == 3
    assert res.output_digest == DIGEST_64x8


def test_recover_discards_torn_chunks_and_stale_manifest(tmp_path):
    work = tmp_path / "c"
    _runner(_data(), work, ranks=2).run()
    data0 = work / "final" / "data.0"
    data0.write_bytes(data0.read_bytes()[:-2])  # tear the last record
    # The manifest still counts all 8 chunks; the disk wins.
    res = _runner(_data(), work, ranks=2).run(resume=True)
    assert res.resumed_chunks == 7
    assert res.output_digest == DIGEST_64x8

    # A torn manifest cannot vouch for the data: the resume is refused.
    (work / "manifest.json").write_text('{"version": 2, "fingerpr')
    with pytest.raises(ValueError):
        _runner(_data(), work, ranks=2).run(resume=True)


def test_recover_rejects_fingerprint_mismatch(tmp_path):
    CampaignManifest(fingerprint="aaa", total_chunks=2).save(
        tmp_path / "manifest.json")
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        _runner(_data(16), tmp_path, ranks=2).run(resume=True)


def test_atomic_manifest_leaves_no_tmp_files(tmp_path):
    path = tmp_path / "manifest.json"
    for i in range(5):
        CampaignManifest(fingerprint="f", total_chunks=i + 1).save(path)
    leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert leftovers == []
    assert json.loads(path.read_text())["total_chunks"] == 5


# -- corruption and transport faults on the commit path --------------------

def test_append_detects_silent_corruption(tmp_path):
    """A flipped payload carries a self-consistent record CRC; only the
    read-back against the payload meant catches it."""
    log, variable = _log(tmp_path)
    log.create()
    meant = PAYLOADS[0]
    flipped = bytes([meant[0] ^ 0xFF]) + meant[1:]
    with pytest.raises(CorruptPayloadFault, match="read-back"):
        log.append(variable(0, flipped), zlib.crc32(meant))
    assert log.cursor == 0 and log.path.stat().st_size == HEADER_SIZE
    log.append(variable(0, meant), zlib.crc32(meant))
    assert log.cursor == 1


def test_transport_faults_are_retried_at_the_chunk_site(tmp_path):
    plan = FaultPlan(seed=2, transport_rate=0.5)
    res = _runner(_data(), tmp_path / "c", ranks=4, plan=plan).run()
    assert res.faults_injected > 0 and res.retries == res.faults_injected
    assert res.output_digest == DIGEST_64x8


def test_corruption_is_retried_to_the_clean_bytes(tmp_path):
    plan = FaultPlan(seed=7, corrupt_rate=0.5)
    res = _runner(_data(), tmp_path / "c", ranks=4, plan=plan,
                  policy=RetryPolicy(max_attempts=10)).run()
    assert res.faults_injected > 0 and res.retries == res.faults_injected
    assert res.output_digest == DIGEST_64x8
