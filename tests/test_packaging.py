"""Every entry point that ``pyproject.toml`` declares must import."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_entry_points(project: dict) -> list[str]:
    """The ``module:attr`` targets of the console, GUI and plugin entry points."""
    groups = [project.get("scripts", {}), project.get("gui-scripts", {}), *project.get("entry-points", {}).values()]
    return [target for group in groups for target in group.values()]


def resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module.strip())
    for name in attr.strip().split(".") if attr.strip() else ():
        obj = getattr(obj, name)
    return obj


def test_every_declared_entry_point_resolves():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for target in declared_entry_points(project):
        assert callable(resolve(target)), target


def test_a_dangling_entry_point_is_caught():
    project = tomllib.loads('[project.scripts]\nyawbench = "yawbench.no_such_module:main"\n')["project"]
    assert declared_entry_points(project) == ["yawbench.no_such_module:main"]
    with pytest.raises(ModuleNotFoundError):
        resolve("yawbench.no_such_module:main")
