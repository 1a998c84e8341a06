"""The package's import graph, read from the source: the exception types and
number rules sit in a leaf module, the samplers import only it, the closed
forms and estimators stay below the engine and the runner, and a private
name crosses a module boundary only out of ``errors``.  The Haar column
rule is known to the sampler that draws by it and the engine that draws and
counts the steps, not to the runner.  The engine's walk alone chooses each
step's kernel, and the engine alone counts what an instance holds."""

import ast
from pathlib import Path

import pytest

import hrcslab

PACKAGE = Path(hrcslab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_imports(module: str) -> list[tuple[str, list[str]]]:
    """(package module, names imported from it) for every import of a
    package module in ``module``'s source; ``from . import x`` imports x."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if source.split(".")[0] != "hrcslab":
                    continue
                source = source.partition(".")[2]
            if source:
                found.append((source, [alias.name for alias in node.names]))
            else:
                found += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name.partition(".")[2] or "__init__", []) for alias in node.names
                      if alias.name.split(".")[0] == "hrcslab"]
    return found


def imported_modules(module: str) -> set[str]:
    return {source for source, _ in package_imports(module)}


def test_the_reader_finds_the_package_imports():
    # so that the checks below cannot pass on an empty read
    assert {"errors", "core", "circuits", "engine", "theory", "estimators", "runner",
            "cli"} <= set(MODULES)
    assert imported_modules("engine") >= {"errors", "core", "circuits"}


def test_errors_imports_no_package_module():
    assert imported_modules("errors") == set()


@pytest.mark.parametrize("module", ["core", "circuits"])
def test_samplers_import_only_errors(module):
    assert imported_modules(module) <= {"errors"}


@pytest.mark.parametrize("module", ["theory", "estimators"])
def test_closed_forms_and_estimators_stay_below_the_engine(module):
    assert imported_modules(module) & {"engine", "runner"} == set()


@pytest.mark.parametrize("module", MODULES)
def test_private_names_come_only_from_errors(module):
    crossing = [(source, name) for source, names in package_imports(module)
                if source != "errors" for name in names if name.startswith("_")]
    assert crossing == []


def test_runner_imports_only_the_partner_state_from_core():
    # the step draws and their byte count belong to the engine
    assert [names for source, names in package_imports("runner") if source == "core"] == \
        [["sample_haar_state"]]


@pytest.mark.parametrize("module", MODULES)
def test_only_core_and_engine_know_the_column_rule(module):
    # HAAR_COLUMNS_DIM splits the Haar draw: core draws by it, and the engine
    # draws and counts the steps' bytes by it
    imported = {name for _, names in package_imports(module) for name in names}
    assert module in ("core", "engine") or "HAAR_COLUMNS_DIM" not in imported


def defined_names(module: str) -> set[str]:
    """Names bound at the top level of ``module``: functions, classes and
    assignments."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


def test_the_engine_owns_the_instance_budget():
    # the runner asks engine.instance_bytes for the steps and the shot batch
    # copies, and keeps no copy count of its own
    assert "SAMPLER_LIVE_COPIES" in defined_names("engine")
    assert "SAMPLER_LIVE_COPIES" not in defined_names("runner")
    engine_names = {name for source, names in package_imports("runner") if source == "engine"
                    for name in names}
    assert "instance_bytes" in engine_names and "steps_bytes" not in engine_names


def test_only_the_walk_compiles_a_step():
    # _walk picks each step's kernel once, so neither kernel decides again
    assert "_runs_gates" not in defined_names("engine")
    callers = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                callers += [(module, function.name) for node in ast.walk(function)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "step_matrix"]
    assert callers == [("engine", "_walk")]
