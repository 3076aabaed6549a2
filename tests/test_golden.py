"""The CLI's reports match the golden files under tests/golden byte for byte.

A change that alters a report on purpose reruns
``python tests/golden/regenerate.py`` and says so in CHANGES.md.  The
reports of the shipped plans under tests/golden/plans take seconds to
rebuild, so only that script runs them (``git diff tests/golden`` then
shows any change); here their file names are checked.
"""

import importlib.util
import os
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py"
)
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)


@pytest.mark.parametrize("name", list(regenerate.CASES))
def test_report_matches_its_golden_files(name, tmp_path):
    regenerate.write_inputs(tmp_path)
    files = regenerate.run_case(name, tmp_path)
    assert sorted(files) == [p.name for p in regenerate.golden_files() if p.stem == name]
    for file_name, data in files.items():
        assert data == (regenerate.GOLDEN / file_name).read_bytes(), file_name
        assert os.fsencode(tmp_path) not in data


def test_every_golden_file_belongs_to_a_case():
    assert {p.stem for p in regenerate.golden_files()} <= set(regenerate.CASES)


def test_every_shipped_plan_has_its_golden_files():
    plans = sorted(regenerate.SHIPPED_PLANS.glob("*.json"))
    assert plans
    expected = sorted(f"{plan.stem}{suffix}" for plan in plans for suffix in regenerate.SUFFIXES)
    assert [p.name for p in regenerate.golden_files(regenerate.PLAN_GOLDEN)] == expected
