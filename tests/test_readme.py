"""The README's examples print what the README shows.

Its Python example and its CLI round trip run here, and their output is
compared with the blocks printed under them; a "..." line in a printed
block stands for the lines the README leaves out.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from bevlane.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list[tuple[str, str]]:
    """(info string, body) of each fenced code block of the README, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _assert_printed(printed: str, block: str) -> None:
    pattern = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n" for line in block.splitlines()
    )
    assert re.fullmatch(pattern, printed), f"README shows:\n{block}\nbut the run printed:\n{printed}"


def _stdout(run) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run()
    return out.getvalue()


def test_python_example():
    blocks = _blocks()
    index = next(i for i, (info, _body) in enumerate(blocks) if info == "python")
    code = compile(blocks[index][1], str(README), "exec")
    _assert_printed(_stdout(lambda: exec(code, {})), blocks[index + 1][1])


def test_cli_round_trip(tmp_path, monkeypatch):
    blocks = _blocks()
    spec = next(body for info, body in blocks if info == "json")
    commands = next(body for _info, body in blocks if body.startswith("bevlane generate"))
    report = next(body for _info, body in blocks if body.startswith("frames "))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenes.json").write_text(spec)
    printed = {}
    for line in commands.splitlines():
        argv = shlex.split(line)[1:]
        codes = []
        printed[argv[0]] = _stdout(lambda: codes.append(main(argv)))
        assert codes == [0], line
    _assert_printed(printed["eval"], report)
