"""The README's Python examples and command examples run as written."""

import re
import shlex
from pathlib import Path

from heisharm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$",
                      README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    # the library quick start and the chain example, each in a fresh
    # namespace, so a renamed or moved name in the README fails here
    blocks = _blocks("python")
    assert len(blocks) >= 2
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"),
             {"__name__": "__readme__"})


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    # the sh blocks that run heisharm, line by line in order and in one
    # temporary directory: a heisharm line through main(argv), in process,
    # exiting with the code its "# exit N" comment states, or 0; a
    # python -c line executed; a cmp line comparing the two files' bytes
    blocks = [block.splitlines() for block in _blocks("sh")
              if re.search(r"^heisharm ", block, flags=re.MULTILINE)]
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for line in (line for block in blocks for line in block):
        words = shlex.split(line, comments=True)
        stated = re.search(r"#\s*exit (\d+)", line)
        if words[0] == "heisharm":
            assert main(words[1:]) == (int(stated[1]) if stated else 0), line
        elif words[:2] == ["python", "-c"]:
            exec(compile(words[2], "README.md python -c line", "exec"),
                 {"__name__": "__readme__"})
        else:
            assert words[0] == "cmp" and len(words) == 3, line
            assert Path(words[1]).read_bytes() == Path(words[2]).read_bytes()
    capsys.readouterr()
