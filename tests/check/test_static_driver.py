"""Statica driver tests: one parse, suppressions, SARIF, CLI, perf."""

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.check.static import (
    ALL_PACKS,
    ALL_RULES,
    RULE_PACKS,
    analyze_paths,
    analyze_source,
    to_sarif,
)
from repro.check.static.report import (
    parse_suppressions,
    unknown_suppression_ids,
)
from repro.check.static.sarif import SARIF_SCHEMA_URI, SARIF_VERSION

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "scripts" / "hpdrlint.py"

SEEDED = "import time\nasync def f():\n    time.sleep(1)\n"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True,
    )


class TestSuppressionParsing:
    def test_multiple_rule_ids_on_one_line(self):
        src = "x = f()  # hpdrlint: disable=HPL101,HPL201 — both\n"
        assert parse_suppressions(src)[1] == {"HPL101", "HPL201"}

    def test_suppression_on_continuation_line(self):
        # The offending statement spans lines 3-5; a disable comment on
        # its closing line must still suppress the finding.
        src = (
            "import time\n"
            "async def f():\n"
            "    time.sleep(\n"
            "        1\n"
            "    )  # hpdrlint: disable=HPL101 — seeded\n"
        )
        result = analyze_source("s.py", src, packs=("async",))
        assert result.findings == []

    def test_suppression_on_line_above(self):
        src = (
            "import time\n"
            "async def f():\n"
            "    # hpdrlint: disable=HPL101 — seeded\n"
            "    time.sleep(1)\n"
        )
        result = analyze_source("s.py", src, packs=("async",))
        assert result.findings == []

    def test_unknown_rule_id_warns_not_silently_passes(self):
        src = "def f():\n    return 1  # hpdrlint: disable=HPL999 — bogus\n"
        assert unknown_suppression_ids(
            parse_suppressions(src), ALL_RULES
        ) == [(2, "HPL999")]
        result = analyze_source("s.py", src)
        assert any("HPL999" in w for w in result.warnings)

    def test_known_new_pack_id_does_not_warn(self):
        src = "x = 1  # hpdrlint: disable=HPL202 — released on purpose\n"
        assert unknown_suppression_ids(
            parse_suppressions(src), ALL_RULES
        ) == []


#: one multi-line offending call per pack, the same layout in both: a
#: spare blank line, the statement, a line above the node, the node
#: over two lines, and a later statement.  ``{0}``..``{5}`` mark where a
#: suppression comment may go.
_PLACED = {
    "core": (
        "HPL001",
        "import numpy as np\n"
        "from repro.util import hot_path\n"
        "@hot_path\n"
        "def k(x):\n"
        "    {0}\n"
        "    y = (  {1}\n"
        "        1,  {2}\n"
        "        x.copy(  {3}\n"
        "        ),  {4}\n"
        "    )\n"
        "    return y  {5}\n",
    ),
    "async": (
        "HPL101",
        "import time\n"
        "async def f():\n"
        "    {0}\n"
        "    y = (  {1}\n"
        "        1,  {2}\n"
        "        time.sleep(  {3}\n"
        "        ),  {4}\n"
        "    )\n"
        "    return y  {5}\n",
    ),
}
#: slot → whether a disable comment there suppresses the finding.
_PLACEMENTS = {
    "above-statement": (0, True),
    "statement": (1, True),
    "above-node": (2, True),
    "node-first-line": (3, True),
    "node-last-line": (4, True),
    "later-statement": (5, False),
}


class TestOneSuppressionContract:
    @pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
    def test_core_and_async_honour_the_same_placements(self, placement):
        slot, suppresses = _PLACEMENTS[placement]
        for pack, (rule, template) in _PLACED.items():
            marks = [""] * 6
            marks[slot] = f"# hpdrlint: disable={rule} — seeded"
            src = template.format(*marks)
            found = [f.rule for f in
                     analyze_source("s.py", src, packs=(pack,)).findings]
            assert found == ([] if suppresses else [rule]), (pack, src)


class TestOneParse:
    def test_each_file_is_parsed_once_for_all_packs(self, tmp_path,
                                                    monkeypatch):
        seeded = SEEDED + (
            "import numpy as np\n"
            "from repro.util import hot_path\n"
            "@hot_path\n"
            "def k(x):\n"
            "    return x.copy()\n"
        )
        for i in range(3):
            (tmp_path / f"m{i}.py").write_text(seeded)
        calls = []
        real_parse = ast.parse

        def counting_parse(*args, **kwargs):
            calls.append(args)
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        result = analyze_paths([tmp_path], packs=ALL_PACKS)
        assert {f.rule for f in result.findings} == {"HPL001", "HPL101"}
        assert len(calls) == 3


class TestSarif:
    def _log(self, tmp_path):
        seeded = tmp_path / "bad.py"
        seeded.write_text(SEEDED)
        findings = analyze_paths([seeded]).findings
        return to_sarif(findings, ALL_RULES, tmp_path), findings

    def test_log_matches_2_1_0_shape(self, tmp_path):
        log, findings = self._log(tmp_path)
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA_URI
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "hpdrlint"
        assert {r["id"] for r in driver["rules"]} == set(ALL_RULES)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] == "error"

    def test_results_reference_rules_consistently(self, tmp_path):
        log, findings = self._log(tmp_path)
        (run,) = log["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert len(run["results"]) == len(findings)
        for res in run["results"]:
            assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
            assert res["level"] == "error"
            assert res["message"]["text"]
            (loc,) = res["locations"]
            phys = loc["physicalLocation"]
            assert phys["artifactLocation"]["uri"] == "bad.py"
            assert phys["artifactLocation"]["uriBaseId"] == "SRCROOT"
            assert phys["region"]["startLine"] >= 1
            assert res["partialFingerprints"]["hpdrlint/v1"]

    def test_fingerprint_stable_under_line_drift(self, tmp_path):
        log1, _ = self._log(tmp_path)
        padded = tmp_path / "bad.py"
        padded.write_text("# leading comment\n" + SEEDED)
        findings = analyze_paths([padded]).findings
        log2 = to_sarif(findings, ALL_RULES, tmp_path)
        fp = lambda log: log["runs"][0]["results"][0][  # noqa: E731
            "partialFingerprints"]["hpdrlint/v1"]
        assert fp(log1) == fp(log2)


class TestCLI:
    def test_clean_tree_exits_zero(self):
        proc = _run(str(REPO / "src" / "repro"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_findings_exit_one(self, tmp_path):
        seeded = tmp_path / "bad.py"
        seeded.write_text(SEEDED)
        proc = _run(str(seeded))
        assert proc.returncode == 1
        assert "HPL101" in proc.stdout

    def test_non_python_file_is_usage_error(self, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text("hello\n")
        proc = _run(str(readme))
        assert proc.returncode == 2
        assert "not a Python file" in proc.stderr

    def test_dangling_symlink_is_usage_error(self, tmp_path):
        link = tmp_path / "gone.py"
        link.symlink_to(tmp_path / "no-such-target.py")
        proc = _run(str(link))
        assert proc.returncode == 2
        assert "dangling symlink" in proc.stderr

    def test_missing_path_is_usage_error(self, tmp_path):
        proc = _run(str(tmp_path / "nope.py"))
        assert proc.returncode == 2

    def test_unknown_pack_is_usage_error(self):
        proc = _run("--packs", "bogus")
        assert proc.returncode == 2
        assert "unknown pack" in proc.stderr

    def test_list_rules_grouped_by_pack(self):
        proc = _run("--list-rules")
        assert proc.returncode == 0
        for pack in ALL_PACKS:
            assert f"[{pack}]" in proc.stdout
        for rule in ALL_RULES:
            assert rule in proc.stdout

    def test_sarif_flag_writes_report(self, tmp_path):
        seeded = tmp_path / "bad.py"
        seeded.write_text(SEEDED)
        out = tmp_path / "out.sarif"
        proc = _run("--sarif", str(out), str(seeded))
        assert proc.returncode == 1
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert len(log["runs"][0]["results"]) == 1

    def test_baseline_options_are_gone(self, tmp_path):
        seeded = tmp_path / "bad.py"
        seeded.write_text(SEEDED)
        for flag in ("--baseline=bl.json", "--write-baseline"):
            proc = _run(flag, str(seeded))
            assert proc.returncode == 2
            assert "unrecognized arguments" in proc.stderr

    def test_unknown_suppression_warns_on_stderr(self, tmp_path):
        seeded = tmp_path / "odd.py"
        seeded.write_text("x = 1  # hpdrlint: disable=HPL999 — typo\n")
        proc = _run(str(seeded))
        assert proc.returncode == 0  # warning, not finding
        assert "HPL999" in proc.stderr


class TestTreeGate:
    def test_full_tree_clean_all_packs_empty_baseline(self):
        # Acceptance: all packs over the whole tree, nothing
        # grandfathered, zero findings and zero suppression warnings.
        result = analyze_paths([REPO / "src" / "repro"], packs=ALL_PACKS)
        assert result.findings == [], [f.format() for f in result.findings]
        assert result.warnings == []

    def test_full_tree_under_ten_seconds(self):
        start = time.perf_counter()
        analyze_paths([REPO / "src" / "repro"], packs=ALL_PACKS)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"analysis took {elapsed:.2f}s"

    def test_rule_tables_are_disjoint_and_complete(self):
        seen: set[str] = set()
        for pack, rules in RULE_PACKS.items():
            assert not (seen & set(rules)), f"duplicate ids in {pack}"
            seen |= set(rules)
        assert seen == set(ALL_RULES)
        assert {
            "HPL001", "HPL101", "HPL102", "HPL103", "HPL104",
            "HPL201", "HPL202", "HPL301", "HPL302",
        } <= seen
