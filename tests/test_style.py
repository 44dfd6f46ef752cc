"""Source layout rules that hold for every file under src/, a ceiling on
its size, and the oldest Python that src/, tests/ and demos/ must parse
under."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_LINE = 99
# `wc -l src/legknot/*.py` may go down or stay flat, never up; set this
# number to it with any change that shrinks the library
SRC_LINES = 1971


def test_no_line_over_the_limit():
    long = [
        "%s:%d (%d characters)" % (path.relative_to(SRC), n, len(line))
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long, "lines over %d characters: %s" % (MAX_LINE, ", ".join(long))


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _top_level_names(tree):
    """Names bound at module level by definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_every_exported_name_is_bound():
    unbound = []
    for path, tree in _modules():
        exported = [
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        ]
        bound = _top_level_names(tree)
        where = path.relative_to(SRC)
        unbound += ["%s: %s" % (where, name) for name in exported if name not in bound]
    assert not unbound, "names in __all__ that the module does not bind: %s" % ", ".join(unbound)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_name_is_used():
    used = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [
        "%s: %s" % (path.relative_to(SRC), name)
        for path, tree in _modules()
        for name in sorted(_top_level_names(tree))
        if _private(name) and name not in used
    ]
    assert not unused, "private names nothing in src/ refers to: %s" % ", ".join(unused)


def test_no_module_reads_another_modules_private_names():
    """Neither `from .mod import _name` nor `mod._name` with `mod` bound by an import."""
    reads = []
    for path, tree in _modules():
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                reads += [
                    "%s:%d from %s%s import %s"
                    % (path.name, node.lineno, "." * node.level, node.module or "", alias.name)
                    for alias in node.names if _private(alias.name)
                ]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in imported):
                reads.append("%s:%d %s.%s" % (path.name, node.lineno, node.value.id, node.attr))
    assert not reads, "reads of another module's private names: %s" % ", ".join(reads)


def test_every_import_is_used():
    """A module imports only what it loads; __init__ imports are re-exports."""
    unused = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if alias.name != "annotations"
        }
        unused += ["%s: %s" % (path.relative_to(SRC), name) for name in sorted(imported - loaded)]
    assert not unused, "imported names the module never loads: %s" % ", ".join(unused)


def test_sources_parse_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10."""
    root = SRC.parent
    for path in (p for d in ("src", "tests", "demos") for p in sorted((root / d).rglob("*.py"))):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_src_line_count_does_not_grow():
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC / "legknot").glob("*.py")
    )
    # equal, not at most: a ratchet with slack lets the count grow back unnoticed
    assert lines == SRC_LINES, "src/legknot/*.py has %d lines, SRC_LINES %d" % (lines, SRC_LINES)
