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


def parameter_tables():
    """experiment names -> the keys its README table under "Parameters" lists.

    A table is headed by its experiments in backticks, such as "| `korn eig`,
    `korn probe` | default | kind |"; a row names its keys in backticks, and
    the row "grid keys" stands for shape, spacing and origin.
    """
    text = README.read_text()
    section = text[text.index("\n### Parameters\n"):text.index("\n## Field files\n")]
    tables, keys = {}, None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("|") or set(cells[0]) <= set("-"):
            continue
        if cells[1:] == ["default", "kind"] and cells[0].startswith("`"):
            names = tuple(n.replace(" ", "-") for n in re.findall(r"`([^`]+)`", cells[0]))
            keys = tables[names] = set()
        elif cells[1:] == ["default", "kind"] or len(cells) != 3:
            keys = None  # the grid keys' table and the table of kinds
        elif keys is not None:
            keys.update({"shape", "spacing", "origin"} if cells[0] == "grid keys"
                        else re.findall(r"`([^`]+)`", cells[0]))
    return tables


def test_parameter_tables_list_each_experiments_keys():
    from korn_kit import cli
    tables = parameter_tables()
    assert sorted(n for names in tables for n in names) == sorted(cli._EXPERIMENTS)
    for names, keys in tables.items():
        assert keys == set().union(*(cli._EXPERIMENTS[n][0] for n in names)), names
