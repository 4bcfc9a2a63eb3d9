"""The sources parse under the oldest Python that pyproject.toml claims,
the package keeps no private module-level name it never uses nor a
private class attribute it never reads, and no source imports a name it
never uses."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_the_oldest_supported_python():
    claim = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    oldest = (int(claim[1]), int(claim[2]))
    paths = sorted([*ROOT.glob("src/qcamaj/*.py"), *ROOT.glob("tools/*.py"),
                    *ROOT.glob("tests/*.py")])
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=oldest)


def test_every_private_module_name_is_used():
    # the project has no linter, so a helper a rewrite left behind would
    # linger: each module-level _name must occur again as a name token
    # (strings and comments do not count) somewhere in the package
    paths = sorted(ROOT.glob("src/qcamaj/*.py"))
    defined, counts = set(), Counter()
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(t.id for t in targets
                               if isinstance(t, ast.Name))
        counts.update(tok.string for tok in tokenize.generate_tokens(
            io.StringIO(text).readline) if tok.type == tokenize.NAME)
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 10
    assert [name for name in sorted(private) if counts[name] < 2] == []


def test_every_imported_name_is_used():
    # the project has no linter: an import is used when its name is read
    # as a name (ast.Name, so a name read only in an f-string counts) or
    # listed in __all__; "from __future__" imports change the compiler
    paths = sorted([*ROOT.glob("src/qcamaj/*.py"), *ROOT.glob("tools/*.py"),
                    *ROOT.glob("tests/*.py")])
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert len(paths) > 20
    assert unused == []


def test_every_private_class_attribute_is_read_in_the_package():
    # state that only tests read is held for nothing: each self.<attr>
    # that a private class assigns must be read as an attribute by some
    # function of the package other than the one that assigns it
    assigned, reads = [], {}
    for path in sorted(ROOT.glob("src/qcamaj/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)):
                    reads.setdefault(sub.attr, set()).add(node)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and cls.name.startswith("_")):
                continue
            for func in cls.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                assigned += [(f"{path.name} {cls.name}.{sub.attr}", func)
                             for sub in ast.walk(func)
                             if isinstance(sub, ast.Attribute)
                             and isinstance(sub.ctx, ast.Store)
                             and isinstance(sub.value, ast.Name)
                             and sub.value.id == "self"]
    assert len(assigned) > 10
    assert [name for name, func in assigned
            if not reads.get(name.rpartition(".")[2], set()) - {func}] == []
