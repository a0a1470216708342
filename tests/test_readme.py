"""The README's library example runs, its example config parses as written,
and the dotted library names it quotes exist."""

import importlib
import inspect
import os
import pkgutil
import re

import cate_al
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


def library_heads() -> dict:
    """``cate_al``, its submodules and the classes they define, by name."""
    heads = {"cate_al": cate_al}
    for info in pkgutil.iter_modules(cate_al.__path__):
        module = importlib.import_module(f"cate_al.{info.name}")
        heads[info.name] = module
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__.startswith("cate_al"):
                heads[name] = cls
    return heads


def quoted_names() -> list[str]:
    """Each backticked ``A.B[.C]`` of the README's prose, call parentheses
    stripped; fenced code blocks are not prose."""
    prose = re.sub(r"```.*?```", "", open(README, encoding="utf-8").read(), flags=re.S)
    spans = (re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?", span, re.S)
             for span in re.findall(r"`([^`]+)`", prose))
    return [m.group(1) for m in spans if m is not None]


def resolves(obj, attrs) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_quoted_library_names_resolve():
    # names whose head is the package, a submodule or a library class; other
    # heads (file names such as `results.csv`, covariate columns such as
    # `b.head`) are not library names
    heads = library_heads()
    quoted = [name.split(".") for name in quoted_names() if name.split(".")[0] in heads]
    assert len(quoted) >= 5  # the check reads the names it is meant to
    assert [".".join(name) for name in quoted if not resolves(heads[name[0]], name[1:])] == []
