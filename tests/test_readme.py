"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # the library quick start and the chain example, each in a fresh
    # namespace, so a renamed or moved name in the README fails here
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"),
             {"__name__": "__readme__"})
