import dataclasses
import inspect
import os
import pydoc
import re
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import fareyapprox
from fareyapprox._record import record
from fareyapprox.errors import InvalidInputError
from fareyapprox.farey import FareyPair
from fareyapprox.simultaneous import Solution


def make(decorator):
    class Point:
        x: F
        y: int
        label: str | None = None

        def __post_init__(self):
            if self.y < 0:
                raise InvalidInputError("y must be nonnegative")

    return decorator(Point)


RecordPoint = make(record)
DataPoint = make(dataclasses.dataclass(frozen=True))


@pytest.mark.parametrize(
    "args, kwargs",
    [((F(1, 2), 3), {}), ((F(1, 2),), {"y": 3, "label": "a"}), ((), {"label": None, "y": 0, "x": F(0)})],
)
def test_record_matches_frozen_dataclass(args, kwargs):
    r, d = RecordPoint(*args, **kwargs), DataPoint(*args, **kwargs)
    assert repr(r) == repr(d)
    assert hash(r) == hash(d)
    assert r == RecordPoint(*args, **kwargs) and r != d
    assert (r.x, r.y, r.label) == (d.x, d.y, d.label)
    with pytest.raises(AttributeError):
        r.y = 1
    with pytest.raises(AttributeError):
        del r.x
    assert RecordPoint(r.x, r.y + 1, r.label) != r


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {"x": F(1)}), ((F(1), 2, "a", 4), {}), ((F(1),), {"x": F(1), "y": 2}), ((F(1), 2), {"z": 3})],
)
def test_record_rejects_bad_arguments(args, kwargs):
    with pytest.raises(TypeError):
        RecordPoint(*args, **kwargs)


def test_record_init_has_the_fields_signature():
    assert str(inspect.signature(Solution)) == (
        "(q, ps, errors, epsilon, method, satisfies_constraints=None)"
    )
    assert str(inspect.signature(FareyPair)) == "(left, right, order)"
    assert str(inspect.signature(RecordPoint)) == "(x, y, label=None)"
    assert RecordPoint.__init__.__qualname__ == f"{RecordPoint.__qualname__}.__init__"
    assert Solution.__init__.__module__ == "fareyapprox.simultaneous"

    class Late:
        x: int = 0
        y: int

    with pytest.raises(SyntaxError):  # as dataclasses refuse it, with TypeError
        record(Late)


def test_record_runs_post_init():
    with pytest.raises(InvalidInputError):
        RecordPoint(F(1), -1)


def test_package_import_loads_no_dataclasses():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, fareyapprox.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_all_is_the_public_names_its_imports_bind():
    # fareyapprox.__all__ is read off the package's imports.  The list keeps
    # `import *` from binding the submodules, and pydoc from leaving out the
    # classes and functions the submodules define.
    names: dict = {}
    exec("from fareyapprox import *", names)
    del names["__builtins__"]
    assert sorted(names) == fareyapprox.__all__ == sorted(fareyapprox.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in names.values())
    for name, value in names.items():
        # A stdlib name imported publicly by mistake would show here.
        assert getattr(value, "__module__", "fareyapprox.").startswith("fareyapprox."), name
    text = pydoc.render_doc(fareyapprox, renderer=pydoc.plaintext)
    for name in fareyapprox.__all__:
        assert re.search(rf"^    (class )?{name}\b", text, re.MULTILINE), name
