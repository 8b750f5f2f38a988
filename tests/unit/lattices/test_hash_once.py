"""Lattice elements hash once, at construction, and never pickle the hash.

Every element class is a :func:`repro.lattices.base.frozen_element`.  Its
cached hash must be today's dataclass value (``hash`` of the field tuple), so
set and dict orders do not move.  A string's hash differs between processes,
so an element pickled in one process must hash like a fresh one in another:
a cache that travelled inside the pickle would break every set and index
that the loaded element lands in.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.lattices import C, Const, Interval, O, Prefix  # noqa: F401 (eval)
from repro.lattices import constant, interval, kset, singleton, strings  # noqa: F401

#: One expression per element; together they cover all ten element classes,
#: with str-valued fields wherever a class has a field to hold one.
ELEMENTS = (
    "Const(3)",
    "Const('x')",
    "constant.BOT",
    "constant.TOP",
    "Interval(1, 5)",
    "interval.BOT",
    "kset.TOP",
    "O('o1')",
    "C('Cls')",
    "singleton.BOT",
    "Prefix('ab')",
    "strings.BOT",
    "strings.TOP",
)
IMPORTS = (
    "from repro.lattices import C, Const, Interval, O, Prefix\n"
    "from repro.lattices import constant, interval, kset, singleton, strings\n"
)

#: ``pickle.dumps([Const('x'), O('o1'), Interval(1, 5)], protocol=5)`` as
#: written before elements cached their hash: a ``__dict__`` state per
#: element, holding the fields only.
OLD_PICKLE = (
    b"\x80\x05\x95\xac\x00\x00\x00\x00\x00\x00\x00]\x94(\x8c\x17repro.lattices"
    b".constant\x94\x8c\x05Const\x94\x93\x94)\x81\x94}\x94\x8c\x05value\x94\x8c"
    b"\x01x\x94sb\x8c\x18repro.lattices.singleton\x94\x8c\x01O\x94\x93\x94)\x81"
    b"\x94}\x94\x8c\x03obj\x94\x8c\x02o1\x94sb\x8c\x17repro.lattices.interval"
    b"\x94\x8c\x08Interval\x94\x93\x94)\x81\x94}\x94(\x8c\x02lo\x94K\x01\x8c"
    b"\x02hi\x94K\x05ube."
)


def fresh():
    return [eval(expr) for expr in ELEMENTS]


def field_values(element) -> tuple:
    return tuple(getattr(element, f.name) for f in fields(element))


def test_every_element_class_is_covered():
    assert len({type(e) for e in fresh()}) == 10


@pytest.mark.parametrize("expr", ELEMENTS)
def test_hash_is_the_dataclass_value(expr):
    element = eval(expr)
    assert hash(element) == hash(field_values(element))


@pytest.mark.parametrize("expr", ELEMENTS)
def test_deepcopy_and_pickle_in_process(expr):
    element = eval(expr)
    for twin in (
        copy.deepcopy(element),
        copy.copy(element),
        pickle.loads(pickle.dumps(element)),
    ):
        assert twin == element and hash(twin) == hash(element)
        assert twin in {element}


def _run(code: str, seed: int, *args: str) -> str:
    src = Path(__file__).resolve().parents[3] / "src"
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_pickle_loads_with_a_fresh_hash_in_another_process(tmp_path):
    path = tmp_path / "elements.pkl"
    _run(
        IMPORTS + "import pickle, sys\n"
        f"elements = [{', '.join(ELEMENTS)}]\n"
        "open(sys.argv[1], 'wb').write(pickle.dumps(elements))\n",
        1, str(path),
    )
    out = _run(
        IMPORTS + "import pickle, sys\n"
        "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        f"fresh = [{', '.join(ELEMENTS)}]\n"
        "pool = set(fresh)\n"
        "for old, new in zip(loaded, fresh, strict=True):\n"
        "    ok = old == new and hash(old) == hash(new) and old in pool\n"
        "    print(repr(new), ok)\n",
        2, str(path),
    )
    assert out.splitlines() == [f"{e!r} True" for e in fresh()]


def test_a_pickle_written_before_the_cache_still_loads():
    loaded = pickle.loads(OLD_PICKLE)
    expected = [Const("x"), O("o1"), Interval(1, 5)]
    assert loaded == expected
    assert [hash(e) for e in loaded] == [hash(e) for e in expected]
    assert set(loaded) == set(expected)
