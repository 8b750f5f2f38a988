"""Multi-pass static analysis of Datalog programs (``repro check``).

This is the static front door for the paper's assumptions: instead of the
scattered runtime raises the validator historically produced, every finding
is a structured :class:`Diagnostic` — code, severity, message, source span,
fix hint — and :func:`check_program` returns them all at once together with
the inferred column sorts, the live/dead rule slice, and a per-stratum
incrementalizability report (Section 3 methodology).

Passes
------

1. **Arity consistency** (DLC101) — every predicate keeps one arity across
   all rules.
2. **Name resolution** (DLC102–104) — ``Eval`` functions, ``Test``
   predicates, and aggregation operators resolve against the program's
   registries.
3. **Aggregation shape** (DLC304–307) — ASM1.1's collecting-relation shape
   and the single-slot/consistent-operator requirements normalization
   enforces.
4. **Rule safety / range restriction** (DLC201–205) — per-variable
   diagnostics for unbound head variables, Eval inputs, Test arguments and
   negated literals; an admissible body order must exist.
5. **Stratification** (DLC301–303) — ASM3: no negation inside a recursive
   component, one aggregation direction per component, one produced lattice
   per recursive component.
6. **Sort inference** (DLC401–402) — unify column sorts across rules
   (discrete vs. lattice-valued, seeded from aggregation operators) and
   report lattice mismatches.
7. **Reachability** (DLC601–603) — the backward slice from the exported
   predicates; dead rules and unused predicates are warnings, and
   :func:`live_slice` feeds the engines' dead-rule pruning.
8. **Aggregator laws** (DLC501–503, ``deep=True`` only) — bounded-exhaustive
   ASM2 checks (associativity, commutativity, identity, domination,
   stabilization) over sampled lattice elements, plus a ⊑-monotonicity probe
   of ``combine`` and a structural ASM1.3 audit (DLC504) of aggregation
   paths that flow through functions.

The legacy :func:`repro.datalog.validate.validate` is a thin wrapper raising
the first error-severity diagnostic as a :class:`ValidationError`; the
``repro check`` CLI surfaces everything, machine-readably with ``--json``
(schema: docs/check_schema.json).  Every code is documented with examples in
docs/STATIC_CHECKS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..lattices import LatticeError, check_well_behaving
from .ast import AggTerm, Eval, Literal, Rule, Span, Test, Variable, span_of
from .errors import ValidationError
from .normalize import normalize
from .planning import plan_body
from .program import Program
from .stratify import Component, stratify

#: Severities, most severe first; exit codes follow this order.
SEVERITIES = ("error", "warning", "info")

#: Cap on sampled lattice elements for the O(n^3) ASM2 law checks.
MAX_LAW_SAMPLES = 6

#: Which pass produced each diagnostic code (reported as ``"pass"`` in the
#: JSON schema; docs/check_schema.json).  ``parse``/``io`` cover the CLI's
#: pre-check failures (DLC001/DLC002), which never reach the passes below.
PASS_BY_CODE = {
    "DLC001": "parse",
    "DLC002": "io",
    "DLC101": "arity",
    "DLC102": "names",
    "DLC103": "names",
    "DLC104": "names",
    "DLC201": "safety",
    "DLC202": "safety",
    "DLC203": "safety",
    "DLC204": "safety",
    "DLC205": "safety",
    "DLC301": "strata",
    "DLC302": "strata",
    "DLC303": "strata",
    "DLC304": "shape",
    "DLC305": "shape",
    "DLC306": "shape",
    "DLC307": "shape",
    "DLC401": "sorts",
    "DLC402": "sorts",
    "DLC501": "laws",
    "DLC502": "laws",
    "DLC503": "laws",
    "DLC504": "laws",
    "DLC601": "reachability",
    "DLC602": "reachability",
    "DLC603": "reachability",
    "DLC701": "perf",
    "DLC702": "perf",
    "DLC703": "perf",
    "DLC704": "perf",
}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``code`` is a stable ``DLCxyz`` identifier (x = pass family), ``severity``
    one of :data:`SEVERITIES`, ``span`` where the offending rule came from,
    and ``hint`` a short suggested fix.  Sortable most-severe-first, then by
    source position.
    """

    code: str
    severity: str
    message: str
    span: Span
    hint: str | None = None
    pred: str | None = None
    #: The pass that produced this finding (see :data:`PASS_BY_CODE`).
    pass_name: str | None = None

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def sort_key(self) -> tuple:
        return (
            SEVERITIES.index(self.severity),
            self.span.source,
            self.span.line,
            self.span.column,
            self.code,
        )

    def format(self) -> str:
        """One-line human-readable rendering."""
        text = f"{self.severity} {self.code} at {self.span}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "span": {
                "source": self.span.source,
                "line": self.span.line,
                "column": self.span.column,
                "end_line": self.span.end_line,
                "end_column": self.span.end_column,
            },
            "hint": self.hint,
            "pred": self.pred,
            "pass": self.pass_name or PASS_BY_CODE.get(self.code),
        }


@dataclass
class CheckResult:
    """Everything :func:`check_program` learned about a program."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Dependency components, bottom-up; None when stratification failed.
    components: list[Component] | None = None
    #: Inferred column sorts: pred -> tuple of "discrete" / "lattice:<name>".
    sorts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    live_rules: list[Rule] = field(default_factory=list)
    dead_rules: list[Rule] = field(default_factory=list)
    live_predicates: set[str] = field(default_factory=set)
    #: Per-component incrementalizability summary (Section 3).
    report: list[dict] = field(default_factory=list)
    #: Per-EDB-predicate impact report (``check_program(..., impact=True)``
    #: / ``repro check --impact``); None when not requested.
    impact: dict | None = None
    seconds: float = 0.0

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def first_error(self) -> Diagnostic | None:
        return next((d for d in self.diagnostics if d.is_error), None)

    def exit_code(self) -> int:
        """CLI convention: 2 on errors, 1 on warnings only, 0 clean."""
        if self.errors:
            return 2
        if self.warnings:
            return 1
        return 0

    def to_dict(self) -> dict:
        out = {
            "diagnostics": [d.to_dict() for d in sorted(
                self.diagnostics, key=Diagnostic.sort_key
            )],
            "counts": {
                sev: sum(1 for d in self.diagnostics if d.severity == sev)
                for sev in SEVERITIES
            },
            "sorts": {pred: list(cols) for pred, cols in sorted(self.sorts.items())},
            "dead_rules": [repr(r) for r in self.dead_rules],
            "live_predicates": sorted(self.live_predicates),
            "report": self.report,
            "seconds": self.seconds,
        }
        if self.impact is not None:
            out["impact"] = self.impact
        return out


def _diag(
    diags: list[Diagnostic],
    code: str,
    severity: str,
    message: str,
    node: object,
    hint: str | None = None,
    pred: str | None = None,
) -> None:
    diags.append(
        Diagnostic(
            code=code,
            severity=severity,
            message=message,
            span=node if isinstance(node, Span) else span_of(node),
            hint=hint,
            pred=pred,
            pass_name=PASS_BY_CODE.get(code),
        )
    )


# -- pass 1: arity consistency (DLC101) ---------------------------------------


def _check_arities(program: Program, diags: list[Diagnostic]) -> None:
    seen: dict[str, tuple[int, Rule]] = {}
    for rule in program.rules:
        for pred, arity in [(rule.head.pred, rule.head.arity)] + [
            (lit.pred, lit.atom.arity) for lit in rule.body_literals()
        ]:
            prior = seen.get(pred)
            if prior is None:
                seen[pred] = (arity, rule)
            elif prior[0] != arity:
                _diag(
                    diags,
                    "DLC101",
                    "error",
                    f"predicate {pred} used with arities {prior[0]} and "
                    f"{arity} (first use at {span_of(prior[1])})",
                    rule,
                    hint=f"give every {pred} atom the same number of arguments",
                    pred=pred,
                )


# -- pass 2: name resolution (DLC102-104) -------------------------------------


def _check_names(program: Program, diags: list[Diagnostic]) -> None:
    for rule in program.rules:
        for item in rule.body:
            if isinstance(item, Eval) and item.fn not in program.functions:
                _diag(
                    diags,
                    "DLC102",
                    "error",
                    f"unknown function {item.fn!r} in {rule!r}; register it "
                    f"with program.register_function",
                    item,
                    hint=f"program.register_function({item.fn!r}, fn)",
                    pred=rule.head.pred,
                )
            if isinstance(item, Test) and item.fn not in program.tests:
                _diag(
                    diags,
                    "DLC103",
                    "error",
                    f"unknown test {item.fn!r} in {rule!r}; register it "
                    f"with program.register_test",
                    item,
                    hint=f"program.register_test({item.fn!r}, fn)",
                    pred=rule.head.pred,
                )
        agg = rule.head.agg_term
        if agg is not None and agg.op not in program.aggregators:
            _diag(
                diags,
                "DLC104",
                "error",
                f"unknown aggregator {agg.op!r} in {rule!r}; register it "
                f"with program.register_aggregator",
                rule,
                hint=f"program.register_aggregator({agg.op!r}, lub(lattice))",
                pred=rule.head.pred,
            )


# -- pass 3: aggregation shape (DLC304-307) -----------------------------------


def _check_shape(
    program: Program, diags: list[Diagnostic], normalized: bool
) -> None:
    edb = program.edb_predicates()
    by_pred: dict[str, list[Rule]] = {}
    for rule in program.rules:
        by_pred.setdefault(rule.head.pred, []).append(rule)

    for pred, rules in by_pred.items():
        agg_rules = [r for r in rules if r.is_aggregation]
        if not agg_rules:
            continue
        for rule in agg_rules:
            if len(rule.head.agg_positions()) != 1:
                _diag(
                    diags,
                    "DLC304",
                    "error",
                    f"{rule!r}: exactly one aggregation slot per head",
                    rule,
                    hint="keep a single op<Var> argument per head",
                    pred=pred,
                )
        if len(agg_rules) != len(rules):
            plain = next(r for r in rules if not r.is_aggregation)
            _diag(
                diags,
                "DLC305",
                "error",
                f"predicate {pred} mixes aggregation and plain rules",
                plain,
                hint="route plain derivations through the collecting relation",
                pred=pred,
            )
            continue
        shapes = {
            (r.head.arity, r.head.agg_positions()[0], r.head.agg_term.op)
            for r in agg_rules
            if len(r.head.agg_positions()) == 1
        }
        if len(shapes) > 1:
            _diag(
                diags,
                "DLC306",
                "error",
                f"aggregation rules for {pred} disagree on arity, slot, or "
                f"operator: {sorted(shapes)}",
                agg_rules[-1],
                hint="give every aggregation rule for the predicate the "
                     "same head shape",
                pred=pred,
            )
        if pred in edb:
            _diag(
                diags,
                "DLC307",
                "error",
                f"aggregated predicate {pred} cannot be an input relation",
                agg_rules[0],
                hint="feed inputs through a separate EDB predicate",
                pred=pred,
            )
        if normalized:
            for rule in agg_rules:
                if len(rule.body) != 1 or not isinstance(rule.body[0], Literal):
                    _diag(
                        diags,
                        "DLC305",
                        "error",
                        f"{rule!r}: aggregation must consume a single "
                        f"collecting relation (run normalize() first)",
                        rule,
                        hint="normalize() factors aggregation bodies into "
                             "collecting relations",
                        pred=pred,
                    )


# -- pass 4: rule safety / range restriction (DLC201-205) ---------------------


def _bindable_variables(rule: Rule) -> set[Variable]:
    """Fixpoint of variables a left-to-right evaluation can ever bind:
    positive-literal variables, closed under Eval outputs whose inputs are
    bound."""
    bound: set[Variable] = set()
    for lit in rule.positive_literals():
        bound |= lit.atom.variables()
    changed = True
    while changed:
        changed = False
        for item in rule.body:
            if isinstance(item, Eval) and item.var not in bound:
                if {a for a in item.args if isinstance(a, Variable)} <= bound:
                    bound.add(item.var)
                    changed = True
    return bound


def _check_safety(program: Program, diags: list[Diagnostic]) -> None:
    for rule in program.rules:
        bound = _bindable_variables(rule)
        found = False
        for v in sorted(rule.head_variables() - bound, key=lambda v: v.name):
            found = True
            _diag(
                diags,
                "DLC201",
                "error",
                f"head variable {v.name} of {rule!r} is not bound by the "
                f"body (unsafe rule)",
                rule,
                hint=f"bind {v.name} in a positive body literal",
                pred=rule.head.pred,
            )
        for item in rule.body:
            if isinstance(item, Eval):
                unbound = sorted(
                    {a.name for a in item.args if isinstance(a, Variable)}
                    - {v.name for v in bound}
                )
                if unbound:
                    found = True
                    _diag(
                        diags,
                        "DLC202",
                        "error",
                        f"argument(s) {', '.join(unbound)} of "
                        f"{item!r} in {rule!r} are never bound",
                        item,
                        hint="bind Eval inputs with a positive literal first",
                        pred=rule.head.pred,
                    )
            elif isinstance(item, Test):
                unbound = sorted(
                    {a.name for a in item.args if isinstance(a, Variable)}
                    - {v.name for v in bound}
                )
                if unbound:
                    found = True
                    _diag(
                        diags,
                        "DLC203",
                        "error",
                        f"argument(s) {', '.join(unbound)} of test "
                        f"{item!r} in {rule!r} are never bound",
                        item,
                        hint="tests filter bound values; bind them first",
                        pred=rule.head.pred,
                    )
            elif isinstance(item, Literal) and item.negated:
                unbound = sorted(
                    {v.name for v in item.atom.variables()}
                    - {v.name for v in bound}
                )
                if unbound:
                    found = True
                    _diag(
                        diags,
                        "DLC204",
                        "error",
                        f"variable(s) {', '.join(unbound)} of negated "
                        f"{item!r} in {rule!r} are never bound (unsafe "
                        f"negation)",
                        item,
                        hint="negation is safe only on fully bound atoms",
                        pred=rule.head.pred,
                    )
        if not found:
            # Per-variable analysis is clean; defer to the planner for the
            # residual ordering cases (and to stay exactly as strict).
            try:
                plan_body(rule)
            except ValidationError as exc:
                _diag(
                    diags,
                    "DLC205",
                    "error",
                    exc.raw_message,
                    rule,
                    hint="reorder or add positive literals so every filter "
                         "eventually has its inputs bound",
                    pred=rule.head.pred,
                )


# -- pass 5: stratification + ASM3 (DLC301-303) -------------------------------


def _check_strata(
    program: Program, diags: list[Diagnostic]
) -> list[Component] | None:
    try:
        components = stratify(program)
    except ValidationError as exc:
        _diag(
            diags,
            exc.code or "DLC301",
            "error",
            exc.raw_message,
            exc.span if exc.span is not None else span_of(None),
            hint="break the negation cycle with an intermediate stratum",
        )
        return None

    for component in components:
        directions: dict[str, Rule] = {}
        lattices: dict[str, Rule] = {}
        for rule in component.rules:
            agg = rule.head.agg_term
            if agg is None or agg.op not in program.aggregators:
                continue
            aggregator = program.aggregators[agg.op]
            directions.setdefault(aggregator.direction, rule)
            lattices.setdefault(aggregator.lattice.name, rule)
        if len(directions) > 1:
            _diag(
                diags,
                "DLC302",
                "error",
                f"component {sorted(component.predicates)} mixes aggregation "
                f"directions {sorted(directions)} (ASM3)",
                list(directions.values())[-1],
                hint="split the predicates so each recursive component "
                     "aggregates in one direction",
            )
        if component.recursive and len(lattices) > 1:
            _diag(
                diags,
                "DLC303",
                "error",
                f"component {sorted(component.predicates)} aggregates over "
                f"multiple lattices {sorted(lattices)}; use one produced "
                f"lattice per recursive component (ASM3)",
                list(lattices.values())[-1],
                hint="stage the lattices into separate strata",
            )
    return components


# -- pass 6: sort inference (DLC401-402) --------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while root != parent[root]:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return self.find(a)


def _infer_sorts(
    program: Program, diags: list[Diagnostic]
) -> dict[str, tuple[str, ...]]:
    """Unify column sorts across rules; lattice sorts are seeded from the
    aggregation operators.  Returns pred -> per-column sort names."""
    uf = _UnionFind()
    #: root -> {lattice name -> first contributing rule}
    tags: dict[object, dict[str, Rule]] = {}

    def tag(slot, lattice_name: str, rule: Rule) -> None:
        root = uf.find(slot)
        tags.setdefault(root, {}).setdefault(lattice_name, rule)

    def merge(a, b) -> None:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        merged = {**tags.pop(rb, {}), **tags.pop(ra, {})}
        root = uf.union(ra, rb)
        if merged:
            tags[root] = merged

    for ridx, rule in enumerate(program.rules):
        atoms = [(rule.head.pred, rule.head.args)] + [
            (lit.pred, lit.atom.args) for lit in rule.body_literals()
        ]
        for pred, args in atoms:
            for i, arg in enumerate(args):
                if isinstance(arg, Variable) and not arg.is_wildcard:
                    merge(("p", pred, i), ("v", ridx, arg.name))
        agg = rule.head.agg_term
        if agg is not None and agg.op in program.aggregators:
            lattice = program.aggregators[agg.op].lattice
            pos = rule.head.agg_positions()[0]
            tag(("p", rule.head.pred, pos), lattice.name, rule)
            tag(("v", ridx, agg.var.name), lattice.name, rule)

    # Conflicts: one unified slot, two lattices.
    reported: set = set()
    for root, lattice_rules in tags.items():
        if len(lattice_rules) > 1 and root not in reported:
            reported.add(root)
            names = sorted(lattice_rules)
            rule = lattice_rules[names[-1]]
            _diag(
                diags,
                "DLC401",
                "error",
                f"lattice sort mismatch: one column carries values from "
                f"lattices {', '.join(names)}",
                rule,
                hint="keep each column in a single lattice; convert "
                     "explicitly with an Eval if mixing is intended",
                pred=rule.head.pred,
            )

    def sort_of(pred: str, i: int) -> str:
        lattice_rules = tags.get(uf.find(("p", pred, i)), {})
        if not lattice_rules:
            return "discrete"
        return "lattice:" + sorted(lattice_rules)[0]

    arities: dict[str, int] = {}
    for rule in program.rules:
        arities.setdefault(rule.head.pred, rule.head.arity)
        for lit in rule.body_literals():
            arities.setdefault(lit.pred, lit.atom.arity)
    sorts = {
        pred: tuple(sort_of(pred, i) for i in range(arity))
        for pred, arity in arities.items()
    }

    # Lattice-sorted group keys defeat per-group pruning (warning).
    for rule in program.rules:
        agg = rule.head.agg_term
        if agg is None:
            continue
        pos = rule.head.agg_positions()[0]
        for i, arg in enumerate(rule.head.args):
            if i == pos or not isinstance(arg, Variable):
                continue
            if sort_of(rule.head.pred, i) != "discrete":
                _diag(
                    diags,
                    "DLC402",
                    "warning",
                    f"group key {arg.name} of {rule.head.pred} is "
                    f"lattice-valued; aggregation groups will not collapse "
                    f"as the lattice value grows",
                    rule,
                    hint="group on discrete keys and aggregate the lattice "
                         "column",
                    pred=rule.head.pred,
                )
    return sorts


# -- pass 7: reachability / dead rules (DLC601-603) ---------------------------


def live_slice(program: Program) -> tuple[list[Rule], list[Rule], set[str]]:
    """The backward slice from the exported predicates.

    Returns ``(live_rules, dead_rules, live_predicates)``.  A rule is live
    iff its head predicate is (transitively) read — positively or negatively
    — while deriving some exported predicate.  The engines prune dead rules
    before planning/compiling (:func:`repro.engines.prepare.prepare`).
    """
    by_head: dict[str, list[Rule]] = {}
    for rule in program.rules:
        by_head.setdefault(rule.head.pred, []).append(rule)

    live_preds: set[str] = set()
    worklist = sorted(program.exported_predicates())
    while worklist:
        pred = worklist.pop()
        if pred in live_preds:
            continue
        live_preds.add(pred)
        for rule in by_head.get(pred, ()):
            for lit in rule.body_literals():
                if lit.pred not in live_preds:
                    worklist.append(lit.pred)

    live = [r for r in program.rules if r.head.pred in live_preds]
    dead = [r for r in program.rules if r.head.pred not in live_preds]
    return live, dead, live_preds


def _check_reachability(
    program: Program, diags: list[Diagnostic], result: CheckResult
) -> None:
    live, dead, live_preds = live_slice(program)
    result.live_rules = live
    result.dead_rules = dead
    result.live_predicates = live_preds

    known = program.all_predicates()
    if program.exports is not None:
        for name in sorted(program.exports):
            if name not in known:
                _diag(
                    diags,
                    "DLC603",
                    "warning",
                    f".export names unknown predicate {name}",
                    span_of(None),
                    hint="drop the export or define the predicate",
                    pred=name,
                )

    dead_preds = sorted({r.head.pred for r in dead})
    for rule in dead:
        _diag(
            diags,
            "DLC601",
            "warning",
            f"dead rule: {rule!r} never contributes to an exported "
            f"predicate",
            rule,
            hint="export the predicate or delete the rule (it is pruned "
                 "before compilation)",
            pred=rule.head.pred,
        )
    for pred in dead_preds:
        _diag(
            diags,
            "DLC602",
            "warning",
            f"predicate {pred} is defined but unreachable from the exports",
            next(r for r in dead if r.head.pred == pred),
            hint="add it to .export if downstream consumers need it",
            pred=pred,
        )


# -- pass 8: perf lints over the impact graph (DLC701-704) --------------------


def _check_perf(
    program: Program,
    components: list[Component],
    diags: list[Diagnostic],
) -> None:
    """Performance lints (all ``info``: they never fail a run) built on the
    static change-impact graph (:mod:`repro.datalog.impact`):

    * DLC701 — cross-product join: a body whose positive literals fall into
      two or more variable-sharing islands enumerates their product.
    * DLC702 — delta-unreachable rule: no EDB delta can ever re-fire it, so
      it only fires during from-scratch solves (an update runs a stratum
      only when something it reads changed; docs/PERFORMANCE.md).
    * DLC703 — singleton variable: bound once, never used; a wildcard
      avoids carrying the binding through the join.
    * DLC704 — self-widening recursion: a recursive component aggregates
      toward an extremum its lattice does not have, so the inflationary
      climb is not statically bounded (only the ascending-chain watchdog
      catches divergence).
    """
    from .impact import ImpactIndex

    impact = ImpactIndex(program, components)

    for rule in program.rules:
        named = [
            lit
            for lit in rule.positive_literals()
            if any(
                isinstance(a, Variable) and not a.is_wildcard
                for a in lit.atom.args
            )
        ]
        if len(named) >= 2:
            uf = _UnionFind()

            def connect(names: list[str]) -> None:
                for other in names[1:]:
                    uf.union(names[0], other)

            groups: list[list[str]] = []
            for lit in rule.positive_literals():
                groups.append(
                    [
                        a.name
                        for a in lit.atom.args
                        if isinstance(a, Variable) and not a.is_wildcard
                    ]
                )
            for item in rule.body:
                if isinstance(item, Eval):
                    groups.append(
                        [a.name for a in item.args if isinstance(a, Variable)]
                        + [item.var.name]
                    )
                elif isinstance(item, Test):
                    groups.append(
                        [a.name for a in item.args if isinstance(a, Variable)]
                    )
            for names in groups:
                connect(names)
            islands = {
                uf.find(
                    next(
                        a.name
                        for a in lit.atom.args
                        if isinstance(a, Variable) and not a.is_wildcard
                    )
                )
                for lit in named
            }
            if len(islands) > 1:
                _diag(
                    diags,
                    "DLC701",
                    "info",
                    f"{rule!r}: body literals share no variables across "
                    f"{len(islands)} islands; the join enumerates their "
                    f"cross product",
                    rule,
                    hint="link the literals through a shared variable or "
                         "split the rule",
                    pred=rule.head.pred,
                )

        body = rule.body_literals()
        if body and not any(
            lit.pred in impact.delta_reachable for lit in body
        ):
            _diag(
                diags,
                "DLC702",
                "info",
                f"{rule!r}: no input (EDB) delta can reach this rule; it "
                f"only fires during from-scratch solves",
                rule,
                hint="expected for static configuration chains; its body "
                     "relations never change after the first solve "
                     "(docs/PERFORMANCE.md)",
                pred=rule.head.pred,
            )

        # A variable used in the head is output, not a join artifact (a
        # head-only singleton is DLC201 unsafety, not a perf smell); only
        # flag variables bound and then dropped entirely within the body.
        counts: dict[str, int] = {}
        head_vars: set[str] = set()

        def see(variable) -> None:
            if isinstance(variable, Variable) and not variable.is_wildcard:
                counts[variable.name] = counts.get(variable.name, 0) + 1

        for arg in rule.head.args:
            if isinstance(arg, Variable):
                head_vars.add(arg.name)
        agg = rule.head.agg_term
        if agg is not None:
            head_vars.add(agg.var.name)
        for item in rule.body:
            if isinstance(item, Literal):
                for arg in item.atom.args:
                    see(arg)
            elif isinstance(item, Eval):
                for arg in item.args:
                    see(arg)
                see(item.var)
            elif isinstance(item, Test):
                for arg in item.args:
                    see(arg)
        for name in sorted(
            n for n, c in counts.items() if c == 1 and n not in head_vars
        ):
            _diag(
                diags,
                "DLC703",
                "info",
                f"variable {name} of {rule!r} occurs exactly once; the "
                f"binding is carried through the join but never used",
                rule,
                hint=f"rename {name} to _ so the planner can drop it",
                pred=rule.head.pred,
            )

    for component in components:
        if not (component.recursive and component.aggregated):
            continue
        seen_preds: set[str] = set()
        for rule in component.rules:
            agg = rule.head.agg_term
            if (
                agg is None
                or agg.op not in program.aggregators
                or rule.head.pred in seen_preds
            ):
                continue
            seen_preds.add(rule.head.pred)
            aggregator = program.aggregators[agg.op]
            lattice = aggregator.lattice
            extremum = "top" if aggregator.direction == "up" else "bottom"
            try:
                if aggregator.direction == "up":
                    lattice.top()
                else:
                    lattice.bottom()
            except LatticeError:
                _diag(
                    diags,
                    "DLC704",
                    "info",
                    f"recursive aggregation {rule.head.pred} climbs "
                    f"{aggregator.direction} through lattice "
                    f"{lattice.name}, which has no {extremum} element; a "
                    f"self-widening loop is not statically bounded "
                    f"(non-Noetherian chain)",
                    rule,
                    hint="add a widening or bound the lattice; at runtime "
                         "only the ascending-chain watchdog stops a "
                         "divergent climb (docs/ROBUSTNESS.md)",
                    pred=rule.head.pred,
                )


# -- pass 9 (deep): aggregator laws + ASM1.3 audit (DLC501-504) ---------------


def _aggregated_inputs(rule: Rule, aggregated: set[str]) -> list[str]:
    """Variables in ``rule`` bound from an aggregated predicate's columns."""
    out: list[str] = []
    for lit in rule.positive_literals():
        if lit.pred in aggregated:
            out.extend(v.name for v in lit.atom.variables())
    return out


def _check_aggregator_laws(
    program: Program, diags: list[Diagnostic]
) -> None:
    first_use: dict[str, Rule] = {}
    for rule in program.rules:
        agg = rule.head.agg_term
        if agg is not None and agg.op not in first_use:
            first_use[agg.op] = rule

    for op, rule in sorted(first_use.items()):
        aggregator = program.aggregators.get(op)
        if aggregator is None:
            continue  # DLC104 already reported
        lattice = aggregator.lattice
        samples = list(lattice.samples())[:MAX_LAW_SAMPLES]
        if len(samples) < 3:
            _diag(
                diags,
                "DLC502",
                "info",
                f"lattice {lattice.name} provides only {len(samples)} sample "
                f"element(s); ASM2 laws for {op!r} were not exercised",
                rule,
                hint="override Lattice.samples() with a few representative "
                     "elements",
                pred=rule.head.pred,
            )
            continue
        try:
            check_well_behaving(aggregator, samples)
        except LatticeError as exc:
            _diag(
                diags,
                "DLC501",
                "error",
                f"aggregator {op!r} violates the well-behaving laws (ASM2): "
                f"{exc}",
                rule,
                hint="make combine associative, commutative, and dominating "
                     "over its aggregands",
                pred=rule.head.pred,
            )
            continue
        # Identity: the direction-extremal element must be neutral.
        try:
            identity = (
                lattice.bottom()
                if aggregator.direction == "up"
                else lattice.top()
            )
        except LatticeError:
            identity = None
        if identity is not None:
            bad = next(
                (
                    s
                    for s in samples
                    if aggregator.combine(identity, s) != s
                ),
                None,
            )
            if bad is not None:
                _diag(
                    diags,
                    "DLC501",
                    "error",
                    f"aggregator {op!r} violates the well-behaving laws "
                    f"(ASM2): {identity!r} is not an identity at {bad!r}",
                    rule,
                    hint="combine(identity, x) must equal x",
                    pred=rule.head.pred,
                )
                continue
        # ⊑-monotonicity of combine: a ⊑ b  ⇒  a∗c ⊑ b∗c.  Widenings are
        # deliberately not monotone, so this is informational (ASM2 does not
        # require it; DRed-style differencing does).
        violation = None
        for a in samples:
            for b in samples:
                if not lattice.leq(a, b):
                    continue
                for c in samples:
                    if not lattice.leq(
                        aggregator.combine(a, c), aggregator.combine(b, c)
                    ):
                        violation = (a, b, c)
                        break
                if violation:
                    break
            if violation:
                break
        if violation:
            a, b, c = violation
            _diag(
                diags,
                "DLC503",
                "info",
                f"combine of {op!r} is not ⊑-monotone: {a!r} ⊑ {b!r} but "
                f"combine({a!r}, {c!r}) ⋢ combine({b!r}, {c!r}); incremental "
                f"engines rely on eventual monotonicity here",
                rule,
                hint="expected for widenings; verify ASM1.3 (an eventually "
                     "dominating rule exists)",
                pred=rule.head.pred,
            )


def _audit_monotone_paths(
    program: Program,
    components: list[Component],
    diags: list[Diagnostic],
) -> None:
    """Structural ASM1.3 audit: flag recursive aggregation values that flow
    through registered functions, where eventual ⊑-monotonicity is the
    analysis author's promise (paper Section 4.3)."""
    for component in components:
        if not (component.recursive and component.aggregated):
            continue
        aggregated = set(component.aggregated)
        for rule in component.rules:
            fed = set(_aggregated_inputs(rule, aggregated))
            if not fed:
                continue
            for item in rule.body:
                if not isinstance(item, Eval):
                    continue
                used = {
                    a.name for a in item.args if isinstance(a, Variable)
                } & fed
                if used:
                    _diag(
                        diags,
                        "DLC504",
                        "info",
                        f"aggregated value(s) {', '.join(sorted(used))} flow "
                        f"through function {item.fn!r} in {rule!r}; eventual "
                        f"⊑-monotonicity (ASM1.3) cannot be checked "
                        f"statically",
                        item,
                        hint="ensure a dominating rule eventually compensates "
                             "any non-monotone step",
                        pred=rule.head.pred,
                    )


# -- pass 10: incrementalizability report -------------------------------------


def _incrementalizability(
    program: Program, components: list[Component]
) -> list[dict]:
    report = []
    for component in components:
        aggregated = set(component.aggregated)
        has_negation = any(
            lit.negated
            for rule in component.rules
            for lit in rule.body_literals()
        )
        nonmono_path = any(
            isinstance(item, Eval)
            and {
                a.name for a in item.args if isinstance(a, Variable)
            } & set(_aggregated_inputs(rule, aggregated))
            for rule in component.rules
            for item in rule.body
        )
        recursive_agg = component.recursive and bool(aggregated)
        dred_ok = not (recursive_agg and nonmono_path)
        if not component.recursive:
            note = "non-recursive stratum: any engine, differencing trivial"
        elif not aggregated:
            note = "recursive discrete stratum: DRed-style deletion/" \
                   "re-derivation applies"
        elif dred_ok:
            note = "recursive aggregation with monotone structure: DRedL " \
                   "or Laddder"
        else:
            note = "recursive aggregation feeds functions (eventual " \
                   "⊑-monotonicity): Laddder's timestamped compensation " \
                   "required"
        report.append(
            {
                "component": component.index,
                "predicates": sorted(component.predicates),
                "recursive": component.recursive,
                "aggregated": sorted(aggregated),
                "has_negation": has_negation,
                "engines": {
                    "naive": True,
                    "seminaive": True,
                    "dredl": dred_ok,
                    "laddder": True,
                },
                "note": note,
            }
        )
    return report


# -- driver -------------------------------------------------------------------


def check_program(
    program: Program,
    *,
    normalize_first: bool = False,
    deep: bool = False,
    impact: bool = False,
) -> CheckResult:
    """Run the static passes over ``program`` and collect every finding.

    ``normalize_first`` works on a normalized copy (what the engines
    evaluate), converting normalization failures into diagnostics instead of
    exceptions — the mode the CLI uses on freshly parsed sources.  Without
    it, the program is checked as given (the :func:`validate` contract).
    ``deep`` adds the sampled ASM2 law checks and the ASM1.3 audit.
    ``impact`` attaches the per-EDB-predicate change-impact report
    (:meth:`repro.datalog.impact.ImpactIndex.report`) to the result.
    """
    started = time.perf_counter()
    result = CheckResult()
    diags = result.diagnostics

    if normalize_first:
        work = program.copy()
        try:
            normalize(work)
            program = work
        except ValidationError as exc:
            _diag(
                diags,
                exc.code or "DLC305",
                "error",
                exc.raw_message,
                exc.span if exc.span is not None else span_of(None),
            )
            # Shape is broken; keep checking the un-normalized rules.
            program = work

    _check_arities(program, diags)
    _check_names(program, diags)
    _check_shape(program, diags, normalized=not normalize_first)
    _check_safety(program, diags)
    result.components = _check_strata(program, diags)
    result.sorts = _infer_sorts(program, diags)
    _check_reachability(program, diags, result)
    if result.components is not None:
        _check_perf(program, result.components, diags)
    if deep:
        _check_aggregator_laws(program, diags)
        if result.components is not None:
            _audit_monotone_paths(program, result.components, diags)
    if result.components is not None:
        result.report = _incrementalizability(program, result.components)
        if impact:
            from .impact import ImpactIndex

            result.impact = ImpactIndex(program, result.components).report()

    result.seconds = time.perf_counter() - started
    return result
