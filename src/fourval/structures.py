"""Structures, valuation semantics, and rule validity.

A structure is a finite algebra plus an interpretation of each relation
symbol: unary relations are bitmasks over the universe, binary relations
are tuples of row bitmasks (row a, bit b set iff (a,b) is in the relation).

Validity of a rule is decided by sweeping every valuation of its
variables: the rule holds when each valuation satisfying all premises
satisfies at least one conclusion.  The reported counter-valuation is the
lexicographically least one (variables in alphabetical order, elements in
index order).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import FiniteAlgebra, builtin, mask_of
from .syntax import (
    Const,
    Formula,
    Meet,
    Neg,
    Rule,
    SigSpec,
    Term,
    UsageError,
    Var,
    formula_text,
)

DEFAULT_VARIABLE_LIMIT = 8


class SignatureMismatchError(ValueError):
    pass


class VariableLimitError(ValueError):
    pass


@dataclass(frozen=True)
class Structure:
    algebra: FiniteAlgebra
    unary: dict[str, int]
    binary: dict[str, tuple[int, ...]]

    def signature(self) -> SigSpec:
        return SigSpec(frozenset(self.unary) | frozenset(self.binary),
                       frozenset(self.algebra.constants))

    @property
    def relation_names(self) -> list[str]:
        return sorted(self.unary) + sorted(self.binary)

    def is_trivial(self) -> bool:
        full = (1 << self.algebra.size) - 1
        return (all(m == full for m in self.unary.values())
                and all(all(r == full for r in rows) for rows in self.binary.values()))

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.unary.items())),
                     tuple(sorted(self.binary.items()))))

    def __eq__(self, other):
        return (isinstance(other, Structure) and self.algebra == other.algebra
                and self.unary == other.unary and self.binary == other.binary)


def structure(algebra: FiniteAlgebra, unary: Mapping[str, Iterable[int] | int] | None = None,
              binary: Mapping[str, Iterable[tuple[int, int]] | Sequence[int]] | None = None) -> Structure:
    """Convenience constructor accepting element sets / pair sets."""
    un: dict[str, int] = {}
    for name, val in (unary or {}).items():
        un[name] = val if isinstance(val, int) else mask_of(val)
    bi: dict[str, tuple[int, ...]] = {}
    for name, val in (binary or {}).items():
        if isinstance(val, (list, tuple)) and val and isinstance(val[0], int):
            bi[name] = tuple(val)
        else:
            rows = [0] * algebra.size
            for (a, b) in val:
                rows[a] |= 1 << b
            bi[name] = tuple(rows)
    return Structure(algebra, un, bi)


def identity_relation(algebra: FiniteAlgebra) -> tuple[int, ...]:
    return tuple(1 << i for i in range(algebra.size))


@dataclass(frozen=True)
class Verdict:
    valid: bool
    valuation: dict[str, int] | None = None
    failed_conclusions: tuple[Formula, ...] | None = None

    def __bool__(self) -> bool:
        return self.valid


def eval_term(s: Structure, t: Term, valuation: Mapping[str, int]) -> int:
    alg = s.algebra
    if isinstance(t, Var):
        if t.name not in valuation:
            raise KeyError(f"valuation does not cover variable {t.name}")
        return valuation[t.name]
    if isinstance(t, Const):
        if t.symbol not in alg.constants:
            raise SignatureMismatchError(f"constant {t.symbol} not interpreted in the structure")
        return alg.constants[t.symbol]
    if isinstance(t, Neg):
        return alg.neg[eval_term(s, t.arg, valuation)]
    if isinstance(t, Meet):
        return alg.meet[eval_term(s, t.left, valuation)][eval_term(s, t.right, valuation)]
    return alg.join[eval_term(s, t.left, valuation)][eval_term(s, t.right, valuation)]


def _compile_term(s: Structure, t: Term, var_ix: dict[str, int]) -> Callable[[tuple], int]:
    alg = s.algebra
    if isinstance(t, Var):
        i = var_ix[t.name]
        return lambda v: v[i]
    if isinstance(t, Const):
        if t.symbol not in alg.constants:
            raise SignatureMismatchError(f"constant {t.symbol} not interpreted in the structure")
        c = alg.constants[t.symbol]
        return lambda v: c
    if isinstance(t, Neg):
        f = _compile_term(s, t.arg, var_ix)
        neg = alg.neg
        return lambda v: neg[f(v)]
    if isinstance(t, Meet):
        f = _compile_term(s, t.left, var_ix)
        g = _compile_term(s, t.right, var_ix)
        meet = alg.meet
        return lambda v: meet[f(v)][g(v)]
    f = _compile_term(s, t.left, var_ix)
    g = _compile_term(s, t.right, var_ix)
    join = alg.join
    return lambda v: join[f(v)][g(v)]


def compile_formula(s: Structure, f: Formula, var_ix: dict[str, int]) -> Callable[[tuple], bool]:
    if f.pred in s.unary:
        mask = s.unary[f.pred]
        t = _compile_term(s, f.args[0], var_ix)
        return lambda v: (mask >> t(v)) & 1 == 1
    if f.pred in s.binary:
        rows = s.binary[f.pred]
        t1 = _compile_term(s, f.args[0], var_ix)
        t2 = _compile_term(s, f.args[1], var_ix)
        return lambda v: (rows[t1(v)] >> t2(v)) & 1 == 1
    raise SignatureMismatchError(f"predicate {f.pred} not interpreted in the structure")


def holds(s: Structure, r: Rule, var_limit: int = DEFAULT_VARIABLE_LIMIT) -> Verdict:
    """Exhaustive valuation sweep; see module docstring for conventions."""
    names = sorted(r.variables())
    if len(names) > var_limit:
        raise VariableLimitError(f"rule has {len(names)} variables, limit is {var_limit}")
    missing = r.predicates() - set(s.unary) - set(s.binary)
    if missing:
        raise SignatureMismatchError(f"predicates not in structure: {sorted(missing)}")
    var_ix = {name: i for i, name in enumerate(names)}
    premises = [compile_formula(s, f, var_ix)
                for f in sorted(r.premises, key=formula_text)]
    conclusions = [compile_formula(s, f, var_ix)
                   for f in sorted(r.conclusions, key=formula_text)]
    for v in iproduct(range(s.algebra.size), repeat=len(names)):
        ok = True
        for p in premises:
            if not p(v):
                ok = False
                break
        if not ok:
            continue
        if any(c(v) for c in conclusions):
            continue
        valuation = {name: v[i] for name, i in var_ix.items()}
        return Verdict(False, valuation, tuple(sorted(r.conclusions, key=formula_text)))
    return Verdict(True)


def is_model(s: Structure, named_rules: Iterable[tuple[str, Rule]],
             var_limit: int = DEFAULT_VARIABLE_LIMIT) -> tuple[bool, tuple[str, Verdict] | None]:
    """Conjunction of holds(); reports the first failing axiom."""
    for name, r in named_rules:
        verdict = holds(s, r, var_limit)
        if not verdict.valid:
            return False, (name, verdict)
    return True, None


# ---------------------------------------------------------------------------
# Preset structures.  Base names cover every defining structure in scope;
# a "+tnb"-style suffix expands the algebra by the named constants, e.g.
# "BDE+n" or "BD-eq+tnb".

def _k3(middle: str, constants: frozenset[str]) -> FiniteAlgebra:
    return builtin("K3", constants, middle_label=middle)


def _preset_builders() -> dict[str, Callable[[frozenset[str]], Structure]]:
    def dm4(consts):
        return builtin("DM4", consts)

    T_TB = (0, 1)   # {t, b} in DM4
    E_T = (0,)      # {t}
    NF_TN = (0, 3)  # {t, n} in DM4

    def eq(alg):
        return identity_relation(alg)

    builders: dict[str, Callable[[frozenset[str]], Structure]] = {
        "BD": lambda c: structure(dm4(c), {"T": T_TB}),
        "ETL": lambda c: structure(dm4(c), {"E": E_T}),
        "NF": lambda c: structure(dm4(c), {"NF": NF_TN}),
        "K": lambda c: structure(_k3("i", c), {"T": (0,)}),
        "LP": lambda c: structure(_k3("i", c), {"T": (0, 1)}),
        "BDE": lambda c: structure(dm4(c), {"T": T_TB, "E": E_T}),
        "BDNF": lambda c: structure(dm4(c), {"T": T_TB, "NF": NF_TN}),
        "KE": lambda c: structure(_k3("i", c), {"T": (0, 1), "E": (0,)}),
        "TNE": lambda c: structure(dm4(c), {"T": T_TB, "NF": NF_TN, "E": E_T}),
        "DM-eq": lambda c: structure(dm4(c), {}, {"eq": identity_relation(dm4(c))}),
        "BD-eq": lambda c: structure(dm4(c), {"T": T_TB}, {"eq": identity_relation(dm4(c))}),
        "ETL-eq": lambda c: structure(dm4(c), {"E": E_T}, {"eq": identity_relation(dm4(c))}),
        "BDE-eq": lambda c: structure(dm4(c), {"T": T_TB, "E": E_T},
                                      {"eq": identity_relation(dm4(c))}),
        "BDNF-eq": lambda c: structure(dm4(c), {"T": T_TB, "NF": NF_TN},
                                       {"eq": identity_relation(dm4(c))}),
        "B2-eq": lambda c: structure(builtin("B2", c), {"T": (0,)},
                                     {"eq": identity_relation(builtin("B2", c))}),
        "BD3-eq": lambda c: structure(_k3("b", c), {"T": (0, 1)},
                                      {"eq": identity_relation(_k3("b", c))}),
    }
    return builders


_BUILDERS = _preset_builders()
_SUFFIX_CONSTANTS = {"t": "#t", "n": "#n", "b": "#b"}


def parse_preset_name(name: str) -> tuple[str, frozenset[str]]:
    base, _, suffix = name.partition("+")
    consts = set()
    for ch in suffix:
        if ch not in _SUFFIX_CONSTANTS:
            raise UsageError(f"bad constant suffix {suffix!r} in preset {name!r}")
        consts.add(_SUFFIX_CONSTANTS[ch])
    return base, frozenset(consts)


def preset_structure(name: str) -> Structure:
    base, consts = parse_preset_name(name)
    builder = _BUILDERS.get(base)
    if builder is None:
        raise UsageError(f"unknown preset {name!r}")
    return builder(consts)


def preset_names() -> list[str]:
    return sorted(_BUILDERS)


# ---------------------------------------------------------------------------
# Interchange format: extends the algebra JSON with a "rels" block.

def structure_to_json(s: Structure) -> dict:
    from .algebra import algebra_to_json

    rels: dict = {}
    for name, mask in sorted(s.unary.items()):
        rels[name] = [i for i in range(s.algebra.size) if (mask >> i) & 1]
    for name, rows in sorted(s.binary.items()):
        rels[name] = [[a, b] for a in range(s.algebra.size)
                      for b in range(s.algebra.size) if (rows[a] >> b) & 1]
    data = algebra_to_json(s.algebra)
    data["rels"] = rels
    return data


def structure_from_json(data: dict) -> Structure:
    """Read the interchange format; reject unknown relation names and
    elements outside the universe with a ValueError."""
    from .algebra import algebra_from_json
    from .syntax import RELATION_ARITIES

    alg = algebra_from_json(data)

    def element(name: str, e) -> int:
        if type(e) is not int or not 0 <= e < alg.size:
            raise ValueError(f"relation {name}: element {e!r} outside the universe 0..{alg.size - 1}")
        return e

    unary: dict[str, Iterable[int]] = {}
    binary: dict[str, list[tuple[int, int]]] = {}
    for name, val in data.get("rels", {}).items():
        arity = RELATION_ARITIES.get(name)
        if arity is None:
            raise ValueError(f"unknown relation {name!r}; expected one of {sorted(RELATION_ARITIES)}")
        if arity == 2:
            for p in val:
                if not isinstance(p, (list, tuple)) or len(p) != 2:
                    raise ValueError(f"relation {name}: {p!r} is not a pair")
            binary[name] = [(element(name, a), element(name, b)) for a, b in val]
        else:
            unary[name] = [element(name, e) for e in val]
    return structure(alg, unary, binary)
