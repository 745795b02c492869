"""Every shipped example must run clean end to end.

Examples are the repository's living documentation; these tests execute
each one (they all self-assert their claims internally).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates its result


def test_examples_inventory():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "portability",
        "adaptive_pipeline",
        "campaign_io",
        "multi_gpu_scaling",
        "progressive_preview",
    } <= names
