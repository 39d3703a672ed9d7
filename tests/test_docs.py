import re
from pathlib import Path

import boxipm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_exported_api():
    names = set(re.findall(r"\bboxipm\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    assert names
    assert sorted(names - set(boxipm.__all__)) == []
