"""The sources parse under the oldest Python that pyproject.toml claims,
and the package keeps no private module-level name it never uses."""

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
