import importlib
import re
from pathlib import Path

import weakmeas

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    # The README's first python block is the public example: it runs as
    # written, and its first line prints the exact three-box weak value.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert complex(lines[0]) == -1.0


def _overview_rows():
    """(module, contents) of each row of the README's "Library overview"
    table."""
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    rows = re.findall(r"^\| `(weakmeas\.\w+)` \| (.*) \|$", section.split("\n\n", 2)[1], re.M)
    assert rows
    return rows


def test_overview_names_resolve_on_their_module():
    # A dotted name, such as `JointState.norm`, resolves attribute by attribute.
    for module_name, contents in _overview_rows():
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", contents):
            obj = module
            for part in name.split("."):
                assert hasattr(obj, part), f"{module_name} has no {name}"
                obj = getattr(obj, part)


def test_every_export_is_named_in_the_readme():
    quoted = set(re.findall(r"`([A-Za-z_]\w*)`", README.read_text(encoding="utf-8")))
    missing = [name for name in weakmeas.__all__ if name not in quoted]
    assert missing == []
