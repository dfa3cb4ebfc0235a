"""The mutation table of scripts/mutation_check.py stays applicable.

The sweep itself runs by hand (``python scripts/mutation_check.py``); this
only checks that every anchor text still occurs exactly once in its file and
that every named test file exists, so an edit to the source cannot retire a
mutation silently.
"""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "mutation_check", Path(__file__).resolve().parent.parent / "scripts" / "mutation_check.py"
)
mutation_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutation_check)
ROWS = mutation_check.MUTATIONS + mutation_check.EQUIVALENT


@pytest.mark.parametrize("mutation", ROWS, ids=[m.name for m in ROWS])
def test_anchor_occurs_once_in_src(mutation):
    assert mutation.path.startswith("src/")
    assert mutation.old != mutation.new
    assert mutation_check.anchor_count(mutation) == 1


@pytest.mark.parametrize("mutation", mutation_check.MUTATIONS,
                         ids=[m.name for m in mutation_check.MUTATIONS])
def test_named_tests_exist(mutation):
    assert mutation.tests
    for node in mutation.tests:
        path, _, name = node.partition("::")
        source = (mutation_check.ROOT / path).read_text(encoding="utf-8")
        assert f"def {name.split('[')[0]}(" in source


def test_names_are_unique():
    assert len({m.name for m in ROWS}) == len(ROWS)
