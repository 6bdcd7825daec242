"""README.md names the CLI's subcommands, its exit codes, the bundled
fixtures and the code it cites exactly as the code has them, so it cannot
drift silently."""

import functools
import importlib
import os
import pkgutil
import re
from pathlib import Path

import mcuq
from mcuq import cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    """The text of README's `## title` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_every_subcommand():
    rows = re.findall(r"^\| `(\w+)` \| ", _section("The CLI"), re.M)
    assert rows == list(cli.build_parser().commands)


def test_readme_lists_every_exit_code():
    rows = re.findall(r"^\| (\d+) \| `(EXIT_\w+)` \| ", _section("The CLI"), re.M)
    assert {name: int(code) for code, name in rows} == {
        name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    assert len(rows) == len({code for code, _ in rows})


def test_readme_lists_every_fixture():
    rows = re.findall(r"^\| `(\w+\.json)` \| ", _section("Deviations and known limits"), re.M)
    fixtures = Path(cli.__file__).parent / "fixtures"
    assert sorted(rows) == sorted(os.listdir(fixtures))


def test_readme_names_resolve():
    """Every backticked `module.name` (or `module.name.attr`) of an mcuq module
    that README cites is there to import."""
    modules = {m.name for m in pkgutil.iter_modules(mcuq.__path__)}
    cited = [c for c in re.findall(r"`(\w+)((?:\.\w+)+)`", README) if c[0] in modules]
    assert cited
    missing = []
    for module, path in cited:
        try:
            functools.reduce(getattr, path[1:].split("."),
                             importlib.import_module(f"mcuq.{module}"))
        except AttributeError:
            missing.append(module + path)
    assert missing == []
