"""Import hygiene of the package source, checked with ``ast`` (no linter is required)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "schedlab"


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_module_level_and_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [node.lineno for node in _imports(tree) if node not in tree.body]
    assert not nested, f"{path.name}: imports below module level at lines {nested}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in _imports(tree)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


def _imported_modules(tree):
    """The last component of every module a file imports from (``from .env`` gives ``env``)."""
    names = set()
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[-1])
        else:
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


@pytest.mark.parametrize(
    "name,upper",
    [("solver.py", {"env", "baselines", "evaluate"}), ("env.py", {"baselines", "evaluate"})],
)
def test_lower_layers_import_no_upper_layer(name, upper):
    # the solver is the reference behind every gap and the env the one episode
    # layer; neither may reach up to the code that compares policies with them
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert not _imported_modules(tree) & upper


def test_run_episode_lives_beside_evaluate():
    defined = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "run_episode"
    }
    assert defined == {"evaluate.py"}


def _naming(private):
    """The source files that name any of the attributes ``private``."""
    return {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    }


def test_schedule_timelines_are_named_only_in_schedule():
    # place_task must stay the only code that adds an interval or a placement
    # to a Schedule or moves a job's next op and ready time; the rest read
    # tuple copies and a read-only view
    assert _naming({"_timelines", "_placements", "_next_op", "_job_ready"}) == {"schedule.py"}


def test_env_kept_state_is_named_only_in_env():
    # the resource table is built once and read only by step
    assert _naming({"_resources"}) == {"env.py"}
