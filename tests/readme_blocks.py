"""The README's Python quick-start blocks, for tests/test_readme.py and the runtime-only CI job.

`python tests/readme_blocks.py` runs each ```python block under "## Library
quick start" with `stream` bound to STREAM; it needs no test dependency.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
STREAM = [0.3, -1.2, 0.8, 2.5, -0.4, 0.1, -0.9, 1.7]


def python_blocks(text: str | None = None) -> list[str]:
    """Every ```python block of text (default: the whole README)."""
    text = README.read_text(encoding="utf-8") if text is None else text
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def quick_start_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return python_blocks(section)


if __name__ == "__main__":
    blocks = quick_start_blocks()
    assert len(blocks) == 2, len(blocks)
    for block in blocks:
        exec(block, {"stream": STREAM})
