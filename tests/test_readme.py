"""The README quick start runs as written and prints what the README shows."""

import shlex
from pathlib import Path

from scenefuse.cli import main

README = Path(__file__).parent.parent / "README.md"


def _sessions(text: str):
    """(command line, the output lines shown under it) for each `$ ` line in a fence.

    A trailing backslash continues the command on the next line; the output
    runs to the next command or the end of the fence, trailing blanks dropped.
    """
    sessions = []
    fenced = False
    shown = None  # the output lines of the command last seen in this fence
    lines = iter(text.splitlines())
    for line in lines:
        if line.strip().startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            shown = []
            sessions.append((command, shown))
        elif shown is not None:
            shown.append(line)
    return [(command, "\n".join(shown).rstrip("\n")) for command, shown in sessions]


def test_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    sessions = _sessions(README.read_text(encoding="utf-8"))
    assert len(sessions) == 10
    monkeypatch.chdir(tmp_path)
    for command, shown in sessions:
        words = shlex.split(command)
        if words[0] == "printf":
            assert words[2] == ">", command
            text = words[1].encode("ascii").decode("unicode_escape")
            Path(words[3]).write_text(text, encoding="utf-8")
            continue
        assert words[:3] == ["python", "-m", "scenefuse"], command
        assert main(words[3:]) == 0, command
        printed = capsys.readouterr().out
        if shown:
            assert printed.splitlines() == shown.splitlines(), command
