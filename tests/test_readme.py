"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("\n## Library tour\n"):]
    code = re.search(r"^```python\n(.*?)^```$", tour, re.S | re.M).group(1)
    exec(compile(code, f"{README}:Library tour", "exec"), {"__name__": "readme_tour"})
    printed = capsys.readouterr().out.split("\n")
    # system_residual(...).passed, then lambda_min and kernel_dim
    assert printed[0] == "True"
    assert printed[1].split()[-1] == "0"
