"""Print the fenced ``python`` blocks of a Markdown file as one script.

Usage::

    python tools/doc_examples.py FILE.md | PYTHONPATH=src python -

The blocks are printed in document order, so a later block may use the
names an earlier one defined (README.md's second block extends the
first one's ``controller`` and ``batch``).  CI runs the script of
README.md and that of docs/public-api.md under the test job's warning
flags, which keeps every worked example runnable against the facade it
documents.

Exits with status 2 when the file holds no ``python`` block.
"""

from __future__ import annotations

import sys
from pathlib import Path


def python_blocks(text: str) -> list:
    """The bodies of the fenced blocks opened with ```` ```python ````."""
    blocks, body = [], None
    for line in text.splitlines():
        stripped = line.strip()
        if body is None:
            if stripped == "```python":
                body = []
        elif stripped == "```":
            blocks.append("\n".join(body))
            body = None
        else:
            body.append(line)
    return blocks


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/doc_examples.py FILE.md", file=sys.stderr)
        return 2
    blocks = python_blocks(Path(argv[1]).read_text(encoding="utf-8"))
    if not blocks:
        print(f"doc_examples: no python block in {argv[1]}", file=sys.stderr)
        return 2
    print("\n\n".join(blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
