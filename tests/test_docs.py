"""The README's table of device keys against the table assembly reads.

A key added to a device class, a changed default or a new `type=` name
fails here until the README's "Netlist format" table says the same.
"""

import re
from pathlib import Path

import pytest

from gpcsim.devices import MODEL_KEYS
from gpcsim.netlist import parse_number

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_key_table():
    """{class: ({key: default or None}, [type names])} from the README."""
    lines = README.read_text().splitlines()
    start = lines.index("| Class | Keys and defaults | `type=` (default first) |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        kind, keys, types = (cell.strip() for cell in line.strip("|").split("|"))
        defaults = {}
        for key, _, default in (tok.partition("=") for tok in re.findall(r"`([^`]+)`", keys)):
            defaults[key] = parse_number(default) if default else None
        table[kind] = (defaults, re.findall(r"`([^`]+)`", types))
    return table


def test_readme_key_table_matches_the_device_table():
    documented = readme_key_table()
    assert list(documented) == list(MODEL_KEYS)
    for kind, (defaults, types) in MODEL_KEYS.items():
        doc_defaults, doc_types = documented[kind]
        assert list(doc_defaults) == list(defaults), kind
        for key, default in defaults.items():
            assert doc_defaults[key] == pytest.approx(default, rel=1e-12), (kind, key)
        assert doc_types == list(types), kind
        # the default flavor runs the equations as written, the other mirrored
        assert list(types.values()) in ([], [1.0, -1.0]), kind
