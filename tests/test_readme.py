import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    # the README's one executable example must keep up with the API
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, f"{README.name} (Library sketch)", "exec"), {})
