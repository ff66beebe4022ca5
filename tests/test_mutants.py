import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


def test_every_listed_mutant_applies_to_the_source():
    # Each mutant's text occurs exactly once in its file and the changed
    # file still compiles, so the list does not rot when the code moves;
    # no mutant is run here.
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, old, new, expected in MUTANTS:
        source = (ROOT / file).read_text(encoding="utf-8")
        assert source.count(old) == 1, name
        assert new != old, name
        compile(source.replace(old, new), file, "exec")
        assert expected == "killed" or (
            expected.startswith("equivalent: ") and len(expected) > len("equivalent: ")
        ), name
