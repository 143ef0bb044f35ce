"""Module layering: the field types live in fields, which the I/O layer alone
reads, and only the Korn eigensolve path loads scipy."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import korn_kit
from korn_kit import fields, transport

PACKAGE = Path(korn_kit.__file__).parent


def package_imports(module: str) -> set:
    """Modules of the package that a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x, y
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "korn_kit":
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("korn_kit."))
    return found


def test_fieldio_imports_only_fields():
    assert package_imports("fieldio") <= {"fields"}


def test_fields_imports_no_solver_or_oracle_module():
    assert package_imports("fields").isdisjoint({"transport", "korn", "analytic"})


def test_transport_reexports_the_one_tensor_field_type():
    assert transport.CoefficientTensorField is fields.CoefficientTensorField


LAYERS = ("cli", "reporting", "fieldio", "analytic", "fields", "algebra",
          "korn", "transport")


def load_time_imports(tree):
    """Import statements that run when a module loads.

    Function bodies run later and `if TYPE_CHECKING:` blocks never run, so
    neither counts; class bodies and other top-level blocks do.
    """
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        pending.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_load_time():
    offenders = {path.name: name
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in load_time_imports(ast.parse(path.read_text()))
                 if name.split(".")[0] == "scipy"}
    assert offenders == {}


def loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter; report the scipy and korn_kit modules it loaded."""
    script = (f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\n"
              "import json\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "                        if m.split('.')[0] in ('scipy', 'korn_kit'))))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    names = json.loads(done.stdout.splitlines()[-1])
    return {"scipy": [m for m in names if m.startswith("scipy")],
            "korn_kit": [m for m in names if m.startswith("korn_kit")]}


def test_cli_import_loads_every_layer_and_no_scipy():
    loaded = loaded_after("import korn_kit.cli")
    assert loaded["scipy"] == []
    # the benchmark's traced mode reads every layer module after this import
    assert {f"korn_kit.{layer}" for layer in LAYERS} <= set(loaded["korn_kit"])


@pytest.mark.parametrize("experiment", ["korn-eig", "korn-probe"])
def test_eigensolve_config_loads_the_solver_stack(experiment):
    loaded = loaded_after(f"from korn_kit import cli\ncli.load_config({experiment!r}, None)")
    assert {"scipy.linalg", "scipy.sparse.csgraph",
            "scipy.sparse.linalg"} <= set(loaded["scipy"])


def test_flood_and_curl_runs_load_no_scipy(tmp_path):
    loaded = loaded_after(
        "from korn_kit import cli\n"
        f"assert cli.main(['transport', 'flood', '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert cli.main(['verify-curl', '--out', {str(tmp_path)!r}]) == 0")
    assert loaded["scipy"] == []
