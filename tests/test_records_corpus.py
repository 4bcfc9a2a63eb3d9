"""The records corpus, frozen: a change to any answer it covers fails here.

tools/records_corpus.py prints the records output of a fixed command set
with elapsed_ms stripped.  A change that means to alter one of those
answers updates the hash below and says why.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent.parent / "tools" / "records_corpus.py"
FROZEN = "155bdd2a73d31ff3c337d528360ed9292d6c30fccd1c92d75998b794db09a00b"


@pytest.mark.slow
def test_records_corpus_is_frozen():
    spec = importlib.util.spec_from_file_location("records_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        corpus.main_corpus()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FROZEN
