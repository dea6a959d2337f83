import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, f"{README}:Library use", "exec"), ns)
    assert len(ns["labels"]) == ns["ds"].n_spots
