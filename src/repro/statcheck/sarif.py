"""SARIF 2.1.0 output for GitHub code scanning.

One run, one tool (``statcheck``), one result per violation.  The emitted
subset sticks to what code scanning actually renders: rule metadata with
short/full descriptions, per-result level + message + one physical
location, and ``partialFingerprints`` so alerts track across pushes even
when line numbers drift.

The shape is pinned by ``tests/data/statcheck-sarif-2.1.0.json`` (a
checked-in skeleton of the spec's required properties) and validated
structurally in ``tests/test_statcheck_tooling.py`` — no jsonschema
dependency needed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.statcheck.core import (
    PARSE_RULE,
    UNUSED_SUPPRESSION_RULE,
    Violation,
    all_rules,
)

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Pseudo-rules that can appear in results without a registered Rule.
_PSEUDO_RULES = {
    PARSE_RULE: "file does not parse",
    UNUSED_SUPPRESSION_RULE: "suppression comment silences nothing",
}


def _fingerprint(v: Violation) -> str:
    """Stable-ish identity for alert tracking: file + rule + message,
    deliberately *excluding* the line number so edits above the finding
    do not open a duplicate alert."""
    h = hashlib.sha256()
    h.update(v.path.encode())
    h.update(b"\0")
    h.update(v.rule_id.encode())
    h.update(b"\0")
    h.update(v.message.encode())
    return h.hexdigest()


def _rule_descriptors(used_ids) -> List[Dict[str, object]]:
    rules = all_rules()
    out: List[Dict[str, object]] = []
    for rule_id in sorted(used_ids):
        if rule_id in rules:
            summary = rules[rule_id].summary
        else:
            summary = _PSEUDO_RULES.get(rule_id, rule_id)
        out.append(
            {
                "id": rule_id,
                "name": rule_id,
                "shortDescription": {"text": summary},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return out


def sarif_log(
    violations: List[Violation], files_checked: int = 0
) -> Dict[str, object]:
    """The SARIF log object (pre-serialisation) for one run."""
    results = []
    for v in violations:
        results.append(
            {
                "ruleId": v.rule_id,
                "level": "error",
                "message": {"text": v.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": v.path.replace("\\", "/"),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": max(v.line, 1),
                                # SARIF columns are 1-based; ours are 0-based.
                                "startColumn": v.col + 1,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "statcheck/v1": _fingerprint(v),
                },
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "statcheck",
                        "informationUri": (
                            "https://example.invalid/repro/docs/architecture"
                        ),
                        "rules": _rule_descriptors(
                            {v.rule_id for v in violations}
                        ),
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///"},
                },
                "results": results,
                "properties": {"filesChecked": files_checked},
            }
        ],
    }


def render_sarif(violations: List[Violation], files_checked: int = 0) -> str:
    return json.dumps(sarif_log(violations, files_checked), indent=1)
