"""Class-hierarchy queries: subtyping, dispatch, and the singleton domain's
:class:`~repro.lattices.singleton.TypeHierarchy` protocol.

``ClassHierarchy`` is built from a :class:`~repro.javalite.ast.JProgram` and
answers the questions both the fact extractor and the lattice domains need:

* ``lookup(cls, sig)`` — virtual dispatch: the method actually invoked on a
  receiver of dynamic type ``cls`` (walking up the hierarchy),
* ``lookup_in_subclasses(cls, sig)`` — Figure 1's ``LookupInSubclasses``:
  every override reachable from static type ``cls`` (including inherited),
* ``least_common_superclass`` / ``is_subtype`` / ``type_of`` for the
  singleton ``O``/``C`` lattice (allocation sites are typed by their class).
"""

from __future__ import annotations

from .ast import JProgram


class ClassHierarchy:
    """Subtype and dispatch queries over a javalite program."""

    def __init__(self, program: JProgram):
        self.program = program
        self.parents: dict[str, str | None] = {
            name: cls.superclass for name, cls in program.classes.items()
        }
        self._children: dict[str, list[str]] = {}
        for name, parent in self.parents.items():
            if parent is not None:
                self._children.setdefault(parent, []).append(name)
        #: allocation-site object -> dynamic class, filled by the extractor.
        self.obj_types: dict[str, str] = {}
        self._cha: dict[str, set[str]] = {}

    # -- TypeHierarchy protocol (for SingletonLattice) ----------------------

    def type_of(self, obj: str) -> str:
        return self.obj_types[obj]

    def is_subtype(self, sub: str, sup: str) -> bool:
        node: str | None = sub
        while node is not None:
            if node == sup:
                return True
            node = self.parents.get(node)
        return False

    def least_common_superclass(self, a: str, b: str) -> str:
        ancestors: list[str] = []
        node: str | None = a
        while node is not None:
            ancestors.append(node)
            node = self.parents.get(node)
        ancestor_set = set(ancestors)
        node = b
        while node is not None:
            if node in ancestor_set:
                return node
            node = self.parents.get(node)
        raise KeyError(f"no common superclass of {a} and {b}")

    # -- dispatch ------------------------------------------------------------

    def subclasses(self, cls: str) -> list[str]:
        """``cls`` plus all transitive subclasses."""
        out = [cls]
        stack = list(self._children.get(cls, ()))
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self._children.get(node, ()))
        return out

    def superclasses(self, cls: str) -> list[str]:
        """``cls`` and its transitive superclasses, nearest first."""
        out = []
        node: str | None = cls
        while node is not None:
            out.append(node)
            node = self.parents.get(node)
        return out

    def lookup(self, cls: str, sig: str) -> str | None:
        """Virtual dispatch: the qualified method run for ``sig`` on a
        receiver of dynamic type ``cls``, or None if undefined."""
        for candidate in self.superclasses(cls):
            jcls = self.program.classes.get(candidate)
            if jcls is not None and sig in jcls.methods:
                return jcls.methods[sig].qualified
        return None

    def lookup_in_subclasses(self, cls: str, sig: str) -> set[str]:
        """Every method that a receiver statically typed ``cls`` may run
        for ``sig`` (Figure 1's LookupInSubclasses)."""
        out: set[str] = set()
        for candidate in self.subclasses(cls):
            resolved = self.lookup(candidate, sig)
            if resolved is not None:
                out.add(resolved)
        return out

    def cha_targets(self, sig: str) -> set[str]:
        """Every method named ``sig`` that some concrete class dispatches
        to.  Resolved once per signature, as statement edits leave the
        class hierarchy as it was built; callers must not mutate it."""
        targets = self._cha.get(sig)
        if targets is None:
            targets = set()
            for cls in self.concrete_classes():
                resolved = self.lookup(cls, sig)
                if resolved is not None:
                    targets.add(resolved)
            self._cha[sig] = targets
        return targets

    def concrete_classes(self) -> list[str]:
        return [
            name
            for name, cls in self.program.classes.items()
            if not cls.is_abstract
        ]
