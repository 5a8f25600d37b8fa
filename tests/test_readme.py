"""The README's python blocks run as written, so a signature change that
leaves the quick start behind fails the suite; and its ledger paragraph
names every work-ledger count and bootstrap phase-seconds name, so a
renamed or new one fails it too."""

import re
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_blocks_run_without_warnings():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(block, str(README), "exec"), {})


def test_readme_ledger_paragraph_names_every_count():
    names = {name for path in (ROOT / "src" / "attdiag").glob("*.py")
             for name in re.findall(r'(?:COUNTS|CPU_SECONDS)\["(\w+)"\]', path.read_text())}
    (paragraph,) = [p for p in README.read_text().split("\n\n")
                    if "(`attdiag.work.COUNTS`" in p]
    assert names
    assert sorted(name for name in names if f"`{name}`" not in paragraph) == []
