"""The package root's public surface: one name per object, each documented."""

import re
import types
from pathlib import Path

import sheafsys

README = Path(__file__).resolve().parents[1] / "README.md"


def package_layout_names():
    """Every backticked name in the README's Package layout table."""
    section = README.read_text().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))


def test_every_public_name_binds_a_distinct_object_that_is_not_a_module():
    values = [getattr(sheafsys, name) for name in sheafsys.__all__]
    assert len(set(sheafsys.__all__)) == len(values)
    assert not [name for name, v in zip(sheafsys.__all__, values) if isinstance(v, types.ModuleType)]
    by_id = {}
    for name, value in zip(sheafsys.__all__, values):
        by_id.setdefault(id(value), []).append(name)
    assert [names for names in by_id.values() if len(names) > 1] == []


def test_every_public_name_is_in_the_package_layout_table():
    assert sorted(set(sheafsys.__all__) - package_layout_names()) == []
