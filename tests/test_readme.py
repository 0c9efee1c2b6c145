"""The README's examples, run as written.

The five CLI lines run on input files taken from the README's own blocks:
the coefficient and sample CSVs, and the INI config with its ``[sweep]``
section appended.  The library quick tour runs as one script.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from besovmorrey.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _block(lang, head):
    """The one fenced block of the language that starts with head."""
    found = [text for tag, text in BLOCKS if tag == lang and text.startswith(head)]
    assert len(found) == 1, (lang, head, found)
    return found[0]


CLI_LINES = [shlex.split(line)[1:] for line in _block("", "besovmorrey ").splitlines()]


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.csv").write_text(_block("", "# d=1\nj,"), encoding="utf-8")
    (tmp_path / "f.csv").write_text(_block("", "# d=1 js="), encoding="utf-8")
    grid = _block("ini", "[source]") + "\n" + _block("ini", "[sweep]")
    (tmp_path / "grid.ini").write_text(grid, encoding="utf-8")
    return tmp_path


def test_readme_lists_five_cli_lines():
    assert [argv[0] for argv in CLI_LINES] == ["check", "norm", "witness", "analyze", "sweep"]


@pytest.mark.parametrize("argv", CLI_LINES, ids=[argv[0] for argv in CLI_LINES])
def test_readme_cli_line_runs(argv, readme_files, capsys):
    # the check pair holds and the witness pair fails, so every line exits 0
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if "--out" in argv:
        assert (readme_files / argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert captured.out


def test_readme_quick_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("python", "from besovmorrey import"), "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[1] == "holds profile"
    assert lines[2].startswith("simple ")
