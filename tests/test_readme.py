"""The README's "Library at a glance" block runs and prints what it says."""

import ast
import contextlib
import io
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def glance_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library at a glance"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def promised_outputs(block: str) -> list[str]:
    """The comment on each print line, or, when that comment ends with a
    colon, the comment line after it."""
    lines = block.splitlines()
    promised = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2].strip()
            if comment.endswith(":"):
                comment = lines[i + 1].lstrip("# ")
            promised.append(comment)
    return promised


def test_library_at_a_glance():
    block = glance_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    basis, height, certified = out.getvalue().splitlines()
    basis = ast.literal_eval(basis)
    assert len(basis) == 6
    assert promised_outputs(block) == [", ".join(basis), height, certified]
    assert (height, certified) == ("3", "True")
