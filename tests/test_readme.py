"""The README's "Library use" example runs as written and prints what its
comments say, so the documented API and numbers cannot drift from the
package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_example():
    """The first fenced python block under the "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)


def test_library_use_example_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_use_example(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["14", "t^3"]
