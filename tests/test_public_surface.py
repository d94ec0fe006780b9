"""Public-surface ratchet: every exported name has a user outside tests.

A name in ``exogait.__all__`` earns its place when the library itself, the
README, the benchmark or the acceptance tests use it. A name that only the
unit tests reach belongs in the tests.
"""

import re
from pathlib import Path

import exogait

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    package = ROOT / "src" / "exogait"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    return [p.read_text(encoding="utf-8") for p in paths]


def _defines(name, line):
    return re.match(rf"\s*(def|class)\s+{name}\b|\s*{name}\s*[:=]", line)


def test_every_export_is_used_outside_the_tests():
    lines = [line for text in _sources() for line in text.splitlines()]
    unused = [
        name for name in exogait.__all__
        if not any(re.search(rf"\b{name}\b", line) and not _defines(name, line)
                   for line in lines)
    ]
    assert unused == []


def test_export_count_is_capped():
    # Raise the cap only together with a deliberate new export.
    assert len(exogait.__all__) <= 52
