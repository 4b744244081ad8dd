"""The README's "Public API" section against the package."""

import importlib
import re
from pathlib import Path

import seqdec

README = Path(__file__).parent.parent / "README.md"


def public_api():
    """{module: [names]} from the section's bullets, each
    ``- `module`: `name`, ...`` and continued on indented lines."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `([\w.]+)`: (.*(?:\n  .*)*)", section, re.M)
    return {module: re.findall(r"`(\w+)`", names) for module, names in bullets}


def test_readme_lists_exactly_seqdec_all():
    assert public_api()["seqdec"] == sorted(seqdec.__all__)


def test_every_listed_name_exists_in_its_module():
    api = public_api()
    assert len(api) == 7
    for module, names in api.items():
        assert names == sorted(names), module
        for name in names:
            assert hasattr(importlib.import_module(module), name), (module, name)
