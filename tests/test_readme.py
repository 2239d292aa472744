"""The README's examples print what the README says they print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from outprop.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# the timings on mine's summary line differ from run to run
_SECONDS = re.compile(r"\d+\.\d+ s\b")


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _matches(expected, printed):
    """True when the printed line is the README line, where "..." stands for any text."""
    parts = _SECONDS.sub("T s", expected).split("...")
    return re.fullmatch(".*".join(map(re.escape, parts)), _SECONDS.sub("T s", printed)) is not None


def test_library_example_prints_its_comment():
    (code,) = _blocks("python")
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_console_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # (argv, the lines the README shows under it), in the README's order
    steps = []
    for block in _blocks("console"):
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:]), []))
            else:
                steps[-1][1].append(line)
    assert [argv[:2] for argv, _ in steps] == [
        ["outprop", "gen-unif2"], ["outprop", "mine"], ["cat", "report.jsonl"], ["outprop", "score"],
    ]
    for argv, expected in steps:
        if argv[0] == "cat":
            printed = Path(argv[1]).read_text(encoding="utf-8")
        else:
            assert main(argv[1:]) == 0
            captured = capsys.readouterr()
            printed = captured.out + captured.err
        lines = printed.splitlines()
        assert len(lines) == len(expected), argv
        for want, line in zip(expected, lines):
            assert _matches(want, line), (want, line)
