"""The mutation catalogue in ``tests/mutants.py`` stays applicable."""

import ast

from conftest import REPO_ROOT
from mutants import MUTANTS, source


def _defines(path, names: list[str]) -> bool:
    """Whether the test module at ``path`` defines the class or function
    ``names[0]``, and within it ``names[1]``, and so on."""
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name.partition("[")[0]]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_mutant_patches_one_place_of_todays_source():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        assert source(mutant).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
        for node in mutant.tests:
            path, *names = node.split("::")
            assert (REPO_ROOT / path).is_file(), (mutant.name, node)
            assert _defines(REPO_ROOT / path, names), (mutant.name, node)


def test_a_renamed_class_or_function_is_not_defined():
    path = REPO_ROOT / "tests" / "test_solver.py"
    assert _defines(path, ["TestPaperLiteral", "test_grid_sampling"])
    assert _defines(path, ["TestPaperLiteral", "test_error_precedence_of_both_entry_points[toy-grid0-from_literal0]"])
    assert not _defines(path, ["TestPaperLiterals"])
    assert not _defines(path, ["TestPaperLiteral", "test_grid_sampled"])
    assert not _defines(path, ["test_grid_sampling"])
