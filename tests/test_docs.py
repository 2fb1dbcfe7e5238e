"""The README names each acceptance criterion by the string the acceptance
suite prints for it, and names no other, and its Layout has an entry for
every module of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_lists_exactly_the_acceptance_criteria():
    printed = set(re.findall(r'report\(\s*"([a-z0-9-]+)"', (ROOT / "tests" / "test_acceptance.py").read_text()))
    readme = (ROOT / "README.md").read_text()
    start = readme.index("The acceptance suite prints")
    paragraph = readme[start : readme.index("\n\n", start)]
    listed = set(re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`", paragraph))
    assert len(printed) >= 10
    assert listed == printed


def test_readme_layout_has_an_entry_for_every_module():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```", readme.index("## Layout")) + 3
    block = readme[start : readme.index("```", start)]
    entries = set(re.findall(r"^  (\S+\.py) ", block, re.M))
    modules = {path.name for path in (ROOT / "src" / "pvg").glob("*.py")}
    assert modules - entries == set()
