"""The mutation catalogue in ``tests/mutants.py`` stays applicable."""

from conftest import REPO_ROOT
from mutants import MUTANTS, source


def test_every_mutant_patches_one_place_of_todays_source():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        assert source(mutant).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
        for node in mutant.tests:
            assert (REPO_ROOT / node.partition("::")[0]).is_file(), (mutant.name, node)
