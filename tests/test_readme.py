"""The README's library tour runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    """The first Python block after the "Library tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no Python block under its library tour"
    return match.group(1)


def test_library_tour_runs():
    exec(compile(library_tour(), "README.md (library tour)", "exec"), {})
