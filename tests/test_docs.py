"""The README's tables against the tables the code reads.

A key added to a device class, a changed default or a new `type=` name
fails here until the README's "Netlist format" table says the same, a
new analysis card, waveform or usage until its card table does, a
new run flag or a changed reader until its run-flag table does, a
new default transient scheme until the README names it, a module or
top-level directory added or deleted until the README's layout says so,
and a `simulate report` column until the README's report example prints it.
"""

import io
import re
from pathlib import Path

import pytest

from gpcsim.cli import _FLAG_READERS, _print_report
from gpcsim.devices import MODEL_KEYS
from gpcsim.engine import SCHEMES
from gpcsim.netlist import ANALYSES, WAVEFORMS, parse_number

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def readme_flag_table():
    """{flag: (methods, analyses)} from the README, keyed as argparse names."""
    lines = README.read_text().splitlines()
    start = lines.index("| flag | methods | analyses |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        flags, methods, analyses = (re.findall(r"`([^`]+)`", cell)
                                    for cell in line.strip("|").split("|"))
        for flag in flags:
            table[flag.removeprefix("--").replace("-", "_")] = (tuple(methods),
                                                               tuple(analyses))
    return table


def test_readme_flag_table_matches_the_flag_readers():
    assert readme_flag_table() == _FLAG_READERS


def readme_card_table():
    """{card or waveform: usage} from the README."""
    lines = README.read_text().splitlines()
    start = lines.index("| Card | Arguments | Rules |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        card, usage, _ = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        table[card] = usage
    return table


def test_readme_card_table_matches_the_parser_tables():
    parsed = {name: usage for name, (_, usage, *_) in {**ANALYSES, **WAVEFORMS}.items()}
    assert readme_card_table() == parsed


def test_readme_names_the_default_scheme():
    named = re.findall(r"scheme defaults to `([^`]+)`", README.read_text())
    assert named == [SCHEMES[0]]


def readme_layout():
    """{top-level directory: [files indented under it]} from the README."""
    lines = README.read_text().splitlines()
    fence = lines.index("```", lines.index("## Layout"))
    layout, top = {}, None
    for line in lines[fence + 1:lines.index("```", fence + 1)]:
        if not line.strip():
            continue
        name = line.split()[0]
        if not line.startswith(" "):
            top = name
            layout[top] = []
        elif name.endswith(".py") and line[2] != " ":   # not a wrapped description
            layout[top].append(name)
    return layout


def test_readme_layout_matches_the_tree():
    layout = readme_layout()
    for top in layout:
        assert (ROOT / top).is_dir(), top
    listed = layout["src/gpcsim/"]
    modules = sorted(path.name for path in (ROOT / "src" / "gpcsim").glob("*.py"))
    assert sorted(listed) == [name for name in modules if name != "__init__.py"]


def test_readme_report_example_has_the_printed_header():
    lines = README.read_text().splitlines()
    start = lines.index("simulate report runs/st6/manifest.json runs/sc6/manifest.json")
    printed = io.StringIO()
    _print_report([], printed)
    assert lines[start + 1] == "# " + printed.getvalue().rstrip("\n")
