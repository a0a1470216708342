"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def section_code(heading: str) -> str:
    """The first ```python block under the README heading."""
    text = open(README, encoding="utf-8").read()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    namespace = {}
    exec(compile(section_code("Library use"), "README.md", "exec"), namespace)
    record = namespace["record"]
    assert not record.failed, record.failure_reason
    assert record.entries[-1].n_labeled == 250
    assert len(capsys.readouterr().out.splitlines()) == len(record.entries)
