"""The README's library example runs and its example config parses as written."""

import os
import re

from cate_al import cli

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


def ini_block() -> str:
    """The README's example config."""
    text = open(README, encoding="utf-8").read()
    return re.search(r"```ini\n(.*?)```", text, re.S).group(1)


def test_example_config_parses_as_written(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUT_ROOT_ENV, raising=False)
    path = tmp_path / "experiment.ini"
    path.write_text(ini_block(), encoding="utf-8")
    config = cli.parse_config(path)
    assert (config.dataset, config.budget, config.seeds) == ("causalbald", 850, tuple(range(10)))
    assert config.estimators == ("cmgp", "nsgp", "ensemble")


def test_example_config_names_every_setting():
    # a key, or a commented-out key, under its section's header
    sections = re.split(r"^\[(\w+)\]$", ini_block(), flags=re.M)[1:]
    named = {
        section: set(re.findall(r"^(?:; )?(\w+) =", body, re.M))
        for section, body in zip(sections[::2], sections[1::2])
    }
    for section, keys in cli._SETTINGS.items():
        assert set(keys) <= named.get(section, set()), section
