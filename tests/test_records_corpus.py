"""The records corpus, frozen: a change to any answer it covers fails here.

tools/records_corpus.py prints the records output of a fixed command set
with elapsed_ms stripped.  The same commands, but for the atlas under four
of its five budgets, are frozen again in text mode, the default output.  A
change that means to alter one of those answers updates the hash below and
says why.
"""

import contextlib
import hashlib
import importlib.util
import io
import re
import shlex
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "tools" / "records_corpus.py"
FROZEN = "11ce756d51ecefd97220cb358d183c59c1bbfefaa0455c968974c079ff73e3c8"
FROZEN_TEXT = (
    "5c369033d6c3e1d5313a7d6050a198c96722c9a5a613c442ae39a222ec82f8d2")


def load_corpus():
    spec = importlib.util.spec_from_file_location("records_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def test_records_corpus_is_frozen():
    corpus = load_corpus()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        corpus.main_corpus()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FROZEN


def test_text_output_is_frozen():
    # the corpus in --format text, each report's "  [<ms> ms]" line
    # dropped; one atlas budget is enough for render_text's table
    argvs = [argv for argv in load_corpus().commands() if argv[0] != "atlas"]
    from qcamaj.cli import main     # from the src/ the corpus puts first

    out = []
    for argv in argvs + [["atlas", "--max-gates", "2"]]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv + ["--format", "text"])
        out.append(f"$ {shlex.join(argv)} -> {code}\n")
        out.append(re.sub(r"(?m)^  \[\d+\.\d ms\]\n", "", stdout.getvalue()))
        out += [f"! {line}\n" for line in stderr.getvalue().splitlines()]
    text = "".join(out)
    assert " ms]" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_TEXT
