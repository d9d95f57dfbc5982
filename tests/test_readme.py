"""The README's python quickstart runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})
