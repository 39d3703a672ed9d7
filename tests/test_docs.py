import argparse
import dataclasses
import importlib
import re
from pathlib import Path

import boxipm
import boxipm.cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = sorted(p for p in (ROOT / "src" / "boxipm").glob("*.py") if p.stem != "__init__")


def test_readme_names_exported_api():
    names = set(re.findall(r"\bboxipm\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    assert names
    assert sorted(names - set(boxipm.__all__)) == []


def test_readme_synopsis_flags_are_the_parsers():
    # every --flag on a `boxipm <subcommand>` line of the README, or on the
    # indented lines that continue it, is an option of that subcommand
    parser = boxipm.cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    synopsis, command = {}, None
    for line in README.read_text(encoding="utf-8").splitlines():
        head = re.match(r"boxipm ([a-z-]+) ", line)
        if head:
            command = head.group(1)
        elif not line.startswith(" "):
            command = None
        if command is not None:
            synopsis.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    assert sorted(synopsis) == sorted(commands)
    for command, flags in synopsis.items():
        assert sorted(flags - set(commands[command]._option_string_actions)) == [], command


def test_no_numbered_roadmap_items_are_cited():
    # a re-anchor renumbers ROADMAP's items, so code and README name them;
    # a citation may wrap onto a comment's next line
    cited = re.compile(r"ROADMAP[\s#]+items?\s+\d")
    for path in MODULES + [ROOT / "src" / "boxipm" / "__init__.py", README]:
        assert cited.search(path.read_text(encoding="utf-8")) is None, path.name


def _resolves(name):
    """Whether a dotted README name is an attribute of ``boxipm``, of one of
    its modules or of a class of one, a dataclass field included."""
    head, *rest = name.split(".")
    modules = {p.stem: importlib.import_module(f"boxipm.{p.stem}") for p in MODULES}
    modules["boxipm"] = boxipm
    owners = [m for m in modules.values() if isinstance(getattr(m, head, None), type)]
    if head not in modules and not owners:
        return False
    obj = modules[head] if head in modules else getattr(owners[0], head)
    for part in rest:
        fields = obj.__dataclass_fields__ if dataclasses.is_dataclass(obj) else {}
        if part in fields:  # a field with no default is no class attribute
            return part == rest[-1]
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_dotted_code_names_resolve():
    # every `module.name` or `Class.attribute` in README backticks names a
    # live attribute of boxipm; file names and other packages are skipped
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text))
    names = {n for n in names if n.split(".")[0] not in ("scipy", "numpy", "np")
             and n.rsplit(".", 1)[1] not in ("md", "py", "json", "toml")}
    assert {"solver._step", "_Workspace.eval_F", "SolveReport.x"} <= names
    assert sorted(n for n in names if not _resolves(n)) == []
