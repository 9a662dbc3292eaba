"""The mutant list of ``tools/mutants.py`` against the files it mutates.

Running the mutants takes minutes and is not part of the suite, but their
texts are checked here: each must occur exactly once in its file, so a
change to a mutated line updates the list in the same change.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_matches_its_file_once():
    mutants = load_mutants()
    names = [m.name for m in mutants]
    assert len(set(names)) == len(names)
    for m in mutants:
        assert m.new != m.old, m.name
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.tests, m.name
        for test in m.tests:
            assert (ROOT / test.split("::")[0]).is_file(), (m.name, test)
