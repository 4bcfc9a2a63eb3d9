"""The sources parse under the oldest Python that pyproject.toml claims."""

import ast
import re
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
