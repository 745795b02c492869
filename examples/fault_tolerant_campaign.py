#!/usr/bin/env python
"""Surviving faults: an injected-failure campaign that restarts.

At the paper's §VII scale (1,024 Frontier nodes for hours) faults are
routine, so this example runs a reduction campaign under deterministic
fire and shows the recovery machinery end to end:

1. a clean reference run establishes the ground-truth output digest;
2. a seeded :class:`FaultPlan` injects device-batch faults, silent
   payload corruption, a flaky transport, a rank drop-out — and kills
   the whole campaign after a few chunks (a simulated SIGKILL);
3. ``run(resume=True)`` continues after the last chunk committed to
   the BP output (the only copy on disk), never recompresses a
   committed chunk, and the final output is
   **byte-identical** to the uninterrupted run;
4. the always-on metrics show every injected fault was recovered.

Run:  python examples/fault_tolerant_campaign.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.machine import get_system
from repro.resilience import (
    CampaignKilled,
    CampaignRunner,
    FaultPlan,
    reconstruct,
)
from repro.trace.metrics import REGISTRY


def make_runner(data, workdir, plan=None):
    from repro.compressors.zfp.compressor import ZFPX

    return CampaignRunner(
        data,
        workdir,
        make_compressor=lambda adapter: ZFPX(rate=8.0, adapter=adapter),
        method="zfp-x",
        ranks=4,
        chunk_elems=8,
        plan=plan,
        sleep=lambda s: None,  # no wall-clock backoff in an example
    )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="hpdr_resilience_"))
    rng = np.random.default_rng(42)
    data = (np.linspace(0, 1, 64 * 8).reshape(64, 8)
            + rng.normal(0, 0.01, (64, 8))).astype(np.float32)

    # --- what does a real machine's failure rate look like? ----------
    frontier = get_system("frontier")
    exp = frontier.expected_faults(nodes=1024, wall_hours=12.0)
    print(f"Frontier, 1,024 nodes, 12 h: {exp:.2f} node faults expected "
          f"(MTBF {frontier.mtbf_node_hours:.0f} h/node)")

    # --- 1. clean reference run --------------------------------------
    clean = make_runner(data, workdir / "clean").run()
    print(f"\nclean run:   {clean.total_chunks} chunks, "
          f"digest {clean.output_digest[:16]}…")

    # --- 2. campaign under fire, killed mid-run ----------------------
    plan = FaultPlan(seed=3, device_batch_rate=0.2, corrupt_rate=0.2,
                     transport_rate=0.1, kill_after_chunks=3)
    f0 = REGISTRY.counter("hpdr_faults_injected_total").total()
    r0 = REGISTRY.counter("hpdr_retries_total").total()
    try:
        make_runner(data, workdir / "faulty", plan=plan).run()
        raise AssertionError("the kill schedule should have fired")
    except CampaignKilled as kill:
        print(f"faulty run:  killed after {kill.completed_chunks} chunks "
              f"(committed to final/data.0)")

    # --- 3. resume: continued faults, no kill ------------------------
    resume_plan = FaultPlan(seed=3, device_batch_rate=0.2, corrupt_rate=0.2,
                            transport_rate=0.1)
    res = make_runner(data, workdir / "faulty", plan=resume_plan).run(
        resume=True
    )
    print(f"resumed run: {res.resumed_chunks} chunks kept from the "
          f"output, {res.completed_this_run} recompressed")
    print(f"             digest {res.output_digest[:16]}…")
    assert res.resumed_chunks >= 3          # nothing finished was redone
    assert res.output_digest == clean.output_digest
    print("resumed output is BYTE-IDENTICAL to the uninterrupted run")

    # --- 4. the ledger: every injected fault was recovered -----------
    faults = REGISTRY.counter("hpdr_faults_injected_total").total() - f0
    retries = REGISTRY.counter("hpdr_retries_total").total() - r0
    print(f"\nfaults injected: {faults}, recovery re-attempts: {retries}")
    assert faults > 0, "the plan should have injected something"

    # and the array itself round-trips within the ZFP rate-8 tolerance
    from repro.compressors.zfp.compressor import ZFPX

    out = reconstruct(workdir / "faulty",
                      make_compressor=lambda a: ZFPX(rate=8.0, adapter=a))
    assert out.shape == data.shape
    assert float(np.abs(out - data).max()) < 0.1
    print(f"reconstructed field max deviation: "
          f"{float(np.abs(out - data).max()):.3e} (rate-8 ZFP)")

    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
