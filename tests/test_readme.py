"""README.md's quick tour runs as written."""

import re
from pathlib import Path

from juntalab import LearnStatus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    report = scope["report"]
    assert report.status is LearnStatus.EXACT_SUCCESS
    assert report.relevant == (0, 2)
    assert report.table == (-1, -1, -1, 1)
