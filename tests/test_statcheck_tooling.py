"""Tests for statcheck's SARIF 2.1.0 output and its CLI wiring."""

from __future__ import annotations

import json
from pathlib import Path

from repro.statcheck import cli
from repro.statcheck.core import check_source
from repro.statcheck.sarif import SARIF_VERSION, sarif_log

REPO_ROOT = Path(__file__).resolve().parents[1]
SARIF_TEMPLATE = REPO_ROOT / "tests" / "data" / "statcheck-sarif-2.1.0.json"


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def assert_shape(template, actual, path="$"):
    """Every key in ``template`` must exist in ``actual`` with the same
    JSON type; lists are matched element-template-wise."""
    if isinstance(template, dict):
        assert isinstance(actual, dict), f"{path}: expected object"
        for key, tval in template.items():
            if key == "$comment":
                continue
            assert key in actual, f"{path}: missing required key {key!r}"
            assert_shape(tval, actual[key], f"{path}.{key}")
    elif isinstance(template, list):
        assert isinstance(actual, list), f"{path}: expected array"
        for i, item in enumerate(actual):
            assert_shape(template[0], item, f"{path}[{i}]")
    else:
        assert isinstance(actual, type(template)), (
            f"{path}: expected {type(template).__name__}, "
            f"got {type(actual).__name__}"
        )


def _sample_violations():
    src = "import numpy as np\nx = np.zeros(3)\nimport time\nt = time.time()\n"
    return check_source(src, "src/repro/sample.py")


def test_sarif_log_matches_checked_in_template():
    template = json.loads(SARIF_TEMPLATE.read_text())
    log = sarif_log(_sample_violations(), files_checked=1)
    assert_shape(template, log)
    assert log["version"] == SARIF_VERSION == "2.1.0"
    assert log["$schema"] == template["$schema"]


def test_sarif_results_carry_rule_and_location():
    violations = _sample_violations()
    log = sarif_log(violations, files_checked=1)
    run = log["runs"][0]
    assert len(run["results"]) == len(violations) == 2
    by_rule = {r["ruleId"]: r for r in run["results"]}
    assert set(by_rule) == {"NUM001", "DET001"}
    region = by_rule["NUM001"]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert region["startColumn"] >= 1  # SARIF columns are 1-based
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == {"NUM001", "DET001"}


def test_sarif_fingerprint_survives_line_drift():
    a = check_source(
        "import numpy as np\nx = np.zeros(3)\n", "src/repro/s.py"
    )
    b = check_source(
        "import numpy as np\n\n\nx = np.zeros(3)\n", "src/repro/s.py"
    )
    fp_a = sarif_log(a)["runs"][0]["results"][0]["partialFingerprints"]
    fp_b = sarif_log(b)["runs"][0]["results"][0]["partialFingerprints"]
    assert fp_a == fp_b


def test_cli_format_sarif_is_valid_json_and_exits_one(tmp_path, capsys):
    f = tmp_path / "dirty.py"
    f.write_text("import numpy as np\nx = np.zeros(3)\n")
    assert cli.main([str(f), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"][0]["ruleId"] == "NUM001"
