"""Memory measurement for RQ2 (Section 7.2).

The paper measures reachable JVM heap before/after initializing the
analysis.  :func:`deep_sizeof` — recursive ``sys.getsizeof`` over a
solver's state — is the Python analogue of "reachable heap"; the
engine-reported :meth:`state_size` (abstract cells) is allocator-independent
and the most stable basis for engine comparisons.
"""

from __future__ import annotations

import sys


def deep_sizeof(obj: object, _seen: set[int] | None = None) -> int:
    """Recursive ``sys.getsizeof`` with cycle protection.

    Descends into containers and object ``__dict__``/``__slots__``; shared
    objects are counted once (reachable-set semantics, like a heap dump).
    """
    if _seen is None:
        _seen = set()
    oid = id(obj)
    if oid in _seen:
        return 0
    _seen.add(oid)
    size = sys.getsizeof(obj, 0)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_sizeof(key, _seen)
            size += deep_sizeof(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += deep_sizeof(item, _seen)
    elif hasattr(obj, "__dict__"):
        size += deep_sizeof(vars(obj), _seen)
    elif hasattr(obj, "__slots__"):
        for slot in obj.__slots__:
            if hasattr(obj, slot):
                size += deep_sizeof(getattr(obj, slot), _seen)
    return size
