"""README's python library sketch, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_reads_both_taps():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n+```python\n(.*?)```", text, re.S).group(1)
    names = {}
    exec(compile(sketch, "README.md", "exec"), names)
    assert [(k, l) for k, l, _ in names["hits"]] == [(1, 2), (2, 4)]
    assert [(k, l) for k, l, _ in names["same"]] == [(1, 2), (2, 4)]
    for (_, _, got), want in zip(names["hits"], (0.5 - 0.25j, 1.0)):
        assert abs(got - want) < 1e-12
