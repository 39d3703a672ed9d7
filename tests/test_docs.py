import argparse
import re
from pathlib import Path

import boxipm
import boxipm.cli

README = Path(__file__).resolve().parents[1] / "README.md"


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
