"""Module layering: the field types live in fields, which the I/O layer alone reads."""

import ast
from pathlib import Path

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
