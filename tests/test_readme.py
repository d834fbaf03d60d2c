"""The README's library quickstart and command-line block run as written."""

import pathlib
import re
import shlex

import pytest

from grenboot.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 7


@pytest.mark.slow
def test_command_line_block_runs(tmp_path, monkeypatch):
    # the full-size limits and inconsistency runs take about 30 s
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, flags=re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "grenboot" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = argv[argv.index("--out") + 1]
        named = [out] if argv[1] == "gen" else [out + ".json"]
        for path in named + [out + ".manifest.json"]:
            assert (tmp_path / path).is_file(), (argv, path)
