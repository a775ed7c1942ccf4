"""The file boundary: no module of the package but ``dataio`` opens a file,
reads or writes one whole, makes a directory, formats JSON text or replaces
a path.  ``dataio`` holds the one error mapping and the one output rule
(an output appears whole, only on success), so a second opener elsewhere
would bring back untyped errors and partial outputs."""

import ast
from pathlib import Path

import pytest

import rarebayes

PACKAGE = Path(rarebayes.__file__).parent

# calls by a bare name; by method name, on any object but the dataio module;
# and by module attribute, also when the attribute is imported by name
NAMES = {"open"}
METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "mkdir"}
MODULE_ATTRS = {("json", "load"), ("json", "dump"), ("json", "dumps"), ("os", "replace")}


def file_calls(source: str) -> list[str]:
    """Every call in ``source`` that opens, reads, writes or replaces a file
    or formats JSON text, as ``line: code``; a call of a name imported from
    ``dataio`` is the boundary's own and not listed."""
    tree = ast.parse(source)
    from_dataio = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "dataio"
                   for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names if (node.module, alias.name) in MODULE_ATTRS]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            flagged = func.id in NAMES | METHODS and func.id not in from_dataio
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            flagged = ((owner, func.attr) in MODULE_ATTRS
                       or (func.attr in METHODS and owner != "dataio"))
        else:
            flagged = False
        if flagged:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_dataio_touches_files(module):
    calls = file_calls((PACKAGE / module).read_text(encoding="utf-8"))
    if module == "dataio.py":
        assert calls  # the boundary itself: the check sees real calls
    else:
        assert calls == []


@pytest.mark.parametrize("source", [
    "open(path)",
    "open(path, 'w', encoding='utf-8')",
    "Path(path).read_text(encoding='utf-8')",
    "path.write_text(text)",
    "path.read_bytes()",
    "path.write_bytes(data)",
    "path.open('rb')",
    "out.mkdir(parents=True)",
    "json.load(fh)",
    "json.dump(doc, fh)",
    "json.dumps(doc, indent=2)",
    "os.replace(tmp, path)",
    "from json import dumps",
    "from os import replace",
])
def test_the_check_sees_each_kind_of_call(source):
    assert len(file_calls(source)) == 1


@pytest.mark.parametrize("source", [
    "from .dataio import read_text\nread_text(path)",
    "dataio.read_text(path)",
    "json.loads(text)",
    "os.fstat(fd)",
])
def test_the_check_passes_the_boundarys_own_calls(source):
    assert file_calls(source) == []
