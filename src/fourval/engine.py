"""Decision procedures, proof search, rule-space bounds, model sweeps.

decide() is the semantic oracle: exhaustive valuation checking against a
preset structure.  derive() is a one-sided syntactic search: it forward
chains axiom-scheme instances over a bounded term universe and returns a
checkable certificate, or nothing at exhaustion; invalidity claims always
come from decide().
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import chain, islice, permutations, product as iproduct
from math import prod
from typing import Callable, Iterator, Mapping, Sequence

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    builtin,
    check_demorgan,
    check_kleene,
    congruences,
    enumerate_dm_lattices,
    is_filter,
    mask_iter,
)
from .leibniz import is_reduced, reduct
from .structures import (DEFAULT_VARIABLE_LIMIT, CompiledRules, Structure, Verdict, holds,
                         identity_relation, parse_name, preset_structure, structure)
from .syntax import (
    Const,
    Formula,
    Join,
    Meet,
    Neg,
    Rule,
    SigSpec,
    Term,
    Var,
    apply_subst,
    formula_text,
    formula_variables,
    print_rule,
    substitute_formula,
    subterms,
    term_depth,
    term_text,
    term_variables,
)
from .systems import AxiomSystem, Scheme


class DeriveBudgetError(RuntimeError):
    """Fact or term budget exhausted (distinct from depth exhaustion)."""


class RuleSpaceBudgetError(RuntimeError):
    pass


def decide(preset: str | Structure, r: Rule, var_limit: int = DEFAULT_VARIABLE_LIMIT) -> Verdict:
    """Validity of a rule in a preset structure (the derivability oracle)."""
    st = preset_structure(preset) if isinstance(preset, str) else preset
    return holds(st, r, var_limit)


# ---------------------------------------------------------------------------
# Derivations.

@dataclass(frozen=True)
class DerivationNode:
    formula: Formula
    scheme: str | None  # None marks a premise
    subst: tuple[tuple[str, Term], ...] = ()
    parents: tuple[int, ...] = ()


@dataclass(frozen=True)
class Derivation:
    nodes: tuple[DerivationNode, ...]
    root: int

    @property
    def depth(self) -> int:
        depths: list[int] = []
        for node in self.nodes:
            if node.scheme is None:
                depths.append(0)
            else:
                depths.append(1 + max((depths[p] for p in node.parents), default=0))
        return depths[self.root]


def derivation_to_json(d: Derivation) -> dict:
    nodes = []
    for node in d.nodes:
        if node.scheme is None:
            nodes.append({"formula": formula_text(node.formula), "by": "premise"})
        else:
            nodes.append({
                "formula": formula_text(node.formula),
                "by": {
                    "scheme": node.scheme,
                    "subst": {v: term_text(t) for v, t in sorted(node.subst)},
                    "parents": list(node.parents),
                },
            })
    return {"nodes": nodes, "root": d.root}


# -- the term universe and the scheme grounder -------------------------------

class Universe:
    """A subterm-closed term universe over the hash-consed nodes of
    ``syntax``: a term is its own key, so lookups hash by address.

    ``terms`` keeps the given order, the order free variables range over.
    ``neg[a]`` is ~a when that is inside; ``rows[op][a]`` and
    ``cols[op][b]`` (op is Meet or Join) map, in universe order, each
    partner b or a for which op of a and b is inside to that composite.
    ``constants`` holds the constants inside.
    """

    def __init__(self, terms: Sequence[Term]):
        self.terms = list(terms)
        self.constants = frozenset(t for t in self.terms if isinstance(t, Const))
        self.neg = {t.arg: t for t in self.terms if isinstance(t, Neg)}
        self.rows = {op: {t: {} for t in self.terms} for op in (Meet, Join)}
        self.cols = {op: {t: {} for t in self.terms} for op in (Meet, Join)}
        position = {t: i for i, t in enumerate(self.terms)}
        composites = [t for t in self.terms if isinstance(t, (Meet, Join))]
        for t in sorted(composites, key=lambda t: position[t.right]):
            self.rows[type(t)][t.left][t.right] = t
        for t in sorted(composites, key=lambda t: position[t.left]):
            self.cols[type(t)][t.right][t.left] = t


def _matcher(pat: Term):
    """(term, binding) -> whether pat matches the term, where a variable
    already in the binding (a dict of variable names to terms) matches
    only its term; the variables pat binds first are added to the dict."""
    if isinstance(pat, Var):
        name = pat.name
        return lambda t, b: b.setdefault(name, t) is t
    if isinstance(pat, Const):
        return lambda t, b: t is pat
    if isinstance(pat, Neg):
        arg = _matcher(pat.arg)
        return lambda t, b: type(t) is Neg and arg(t.arg, b)
    op, left, right = type(pat), _matcher(pat.left), _matcher(pat.right)
    return lambda t, b: type(t) is op and left(t.left, b) and right(t.right, b)


def _args_matcher(pats: Sequence[Term], k: int = 0):
    """(arguments, binding) -> whether the patterns from k on match their
    arguments, as ``_matcher``."""
    head = _matcher(pats[k])
    if k + 1 == len(pats):
        return lambda ts, b: head(ts[k], b)
    rest = _args_matcher(pats, k + 1)
    return lambda ts, b: head(ts[k], b) and rest(ts, b)


def _builder(pat: Term):
    """(binding, universe) -> the instantiated term, None when it is
    outside."""
    if isinstance(pat, Var):
        name = pat.name
        return lambda b, uni: b[name]
    if isinstance(pat, Const):
        return lambda b, uni: pat if pat in uni.constants else None
    if isinstance(pat, Neg):
        arg = _builder(pat.arg)

        def build_neg(b, uni):
            a = arg(b, uni)
            return None if a is None else uni.neg.get(a)
        return build_neg
    op, left, right = type(pat), _builder(pat.left), _builder(pat.right)

    def build_binary(b, uni):
        a = left(b, uni)
        if a is None:
            return None
        c = right(b, uni)
        return None if c is None else uni.rows[op][a].get(c)
    return build_binary


def _partners(sibling: Term, by_row: bool, op: type):
    """(binding, universe) -> the row (or column) of op at the built
    sibling: each partner in universe order, mapped to the composite; empty
    when the sibling is outside."""
    build = _builder(sibling)
    return lambda b, uni: (uni.rows if by_row else uni.cols)[op].get(build(b, uni), ())


class _FactIndex:
    """The facts of one predicate that fit one premise pattern, bucketed.

    A fact fits when the pattern matches it on its own: it has every
    constructor and constant the pattern fixes, and the same term wherever
    a variable repeats (a shallow discrimination tree, McCune 1992).  Its
    bucket is keyed by the terms at the ``keyed`` variables, and
    ``values[i]`` holds fact i's terms at the ``new`` variables (None when
    fact i does not fit).  Buckets are append-only lists of fact indices,
    in fact order.  ``update`` indexes the facts appended since the last
    call; a new list object is indexed from scratch.
    """

    def __init__(self, signature: tuple, fits):
        self.pred, _, self.keyed, self.new = signature
        self.fits = fits
        self.facts: Sequence[Formula] = ()
        self.buckets: dict[tuple[Term, ...], list[int]] = {}
        self.values: list[tuple[Term, ...] | None] = []

    def update(self, facts: Sequence[Formula]) -> None:
        if facts is not self.facts:
            self.facts, self.buckets, self.values = facts, {}, []
        buckets, values, keyed, new = self.buckets, self.values, self.keyed, self.new
        for i in range(len(values), len(facts)):
            b = {}
            if self.fits(facts[i].args, b):
                buckets.setdefault(tuple([b[v] for v in keyed]), []).append(i)
                values.append(tuple([b[v] for v in new]))
            else:
                values.append(None)


class _GroundScheme:
    """One scheme compiled for every universe.

    Its variables are bound by one recursion over levels: one level per
    premise, in sorted premise order, then one per free conclusion
    variable, in name order.  A premise level takes, in fact order, the
    facts of its ``_FactIndex`` (see ``Grounder``) in the bucket keyed by
    the terms that earlier levels bound; a free-variable level takes the
    universe in its order.  After each level the conclusion subterms that
    level completes whose parent is completed later are looked up, and the
    binding is dropped if one is outside.

    A variable that is a direct child of a conclusion meet or join whose
    sibling is bound at an earlier level ranges only over that sibling's
    row or column.  A free variable takes those values in turn; a premise
    variable keys its premise's bucket too, one bucket per partner, and
    the buckets found are merged in fact order.
    """

    def __init__(self, scheme: Scheme):
        self.name = scheme.name
        prems = sorted(scheme.rule.premises, key=formula_text)
        concl = scheme.rule.conclusion
        # the level binding a variable: k when premise k binds it first,
        # then len(prems) + k for free[k]; a ground term's level is -1
        level: dict[str, int] = {}
        for k, p in enumerate(prems):
            for v in formula_variables(p):
                level.setdefault(v, k)
        free = sorted(formula_variables(concl) - set(level))
        level.update((v, len(prems) + k) for k, v in enumerate(free))

        def level_of(t: Term) -> int:
            return max((level[v] for v in term_variables(t)), default=-1)

        # checks[k]: builders of the subterms complete at level k (a ground
        # one at level 0) whose parent is completed later (building one
        # builds what lies beneath); domains[v]: the ``_partners`` of v's
        # first meet or join whose sibling is bound at an earlier level
        checks: list[list] = [[] for _ in range(len(prems) + len(free))]
        domains: dict[str, Callable] = {}

        def visit(t: Term, parent_level: int) -> None:
            s = level_of(t)
            if not isinstance(t, Var) and s < parent_level:
                checks[max(s, 0)].append(_builder(t))
            if isinstance(t, Neg):
                visit(t.arg, s)
            elif isinstance(t, (Meet, Join)):
                for child, sibling, by_row in ((t.right, t.left, True), (t.left, t.right, False)):
                    if (isinstance(child, Var) and child.name not in domains
                            and level[child.name] > level_of(sibling)):
                        domains[child.name] = _partners(sibling, by_row, type(t))
                visit(t.left, s)
                visit(t.right, s)

        # the arguments themselves are built last, so never checked early
        for t in concl.args:
            visit(t, level_of(t))
        # per premise, what its index is built from: the signature (predicate,
        # arguments, the variables keying its buckets, the new variables) and
        # the matcher; per level: the variables it binds, the variables
        # earlier levels bound that key its bucket, the domains of the
        # variables it binds that key it too, and its checks
        self.premises, self.levels = [], []
        for k, p in enumerate(prems):
            names = sorted(formula_variables(p))
            bound = tuple(v for v in names if level[v] < k)
            new = tuple(v for v in names if level[v] == k)
            ranged = tuple(v for v in new if v in domains)
            self.premises.append(((p.pred, p.args, bound + ranged, new), _args_matcher(p.args)))
            self.levels.append((new, bound, [domains[v] for v in ranged], checks[k]))
        for k, v in enumerate(free, len(prems)):
            self.levels.append(((v,), (), [domains[v]] if v in domains else [], checks[k]))
        self.pred = concl.pred
        self.args = [_builder(t) for t in concl.args]

    def _bind(self, k: int, indexes: Sequence[_FactIndex], b: dict[str, Term],
              fresh: Mapping[str, int] | None, matched: tuple, uni: Universe
              ) -> Iterator[tuple[dict[str, Term], tuple]]:
        """Bindings of levels k onwards, each with the facts it matched.
        With ``fresh`` (predicate -> index of its first fresh fact, 0 when
        absent), only bindings matching at least one fresh fact are yielded:
        once a premise matched a fresh fact the rest range freely, otherwise
        the last premise ranges over fresh facts only."""
        if k == len(self.levels):
            yield b, matched
            return
        names, keyed, domains, checks = self.levels[k]
        partners = [partners_at(b, uni) for partners_at in domains]
        if k < len(self.premises):
            index = indexes[k]
            key = tuple([b[v] for v in keyed])
            if partners:
                found = [bucket for extra in iproduct(*partners)
                         if (bucket := index.buckets.get(key + extra))]
                candidates = found[0] if len(found) == 1 else sorted(chain.from_iterable(found))
            else:
                candidates = index.buckets.get(key, ())
            cut = 0 if fresh is None else bisect_left(candidates, fresh.get(index.pred, 0))
            start = cut if k + 1 == len(self.premises) else 0
        else:  # a free variable: its candidates are 1-tuples of terms, not fact indices
            index, candidates, cut, start = None, zip(partners[0] if partners else uni.terms), 0, 0
        last = k + 1 == len(self.levels)
        for pos, c in enumerate(islice(candidates, start, None), start):
            out = dict(b)
            out.update(zip(names, c if index is None else index.values[c]))
            m = matched if index is None else matched + (index.facts[c],)
            if checks and not all(check(out, uni) is not None for check in checks):
                continue
            if last:
                yield out, m
            else:
                yield from self._bind(k + 1, indexes, out, fresh if pos < cut else None, m, uni)

    def instances(self, indexes: Sequence[_FactIndex], fresh, uni: Universe):
        if fresh is not None and not self.premises:
            return  # no premise to match a fresh fact
        pred, args = self.pred, self.args
        for b, matched in self._bind(0, indexes, {}, fresh, (), uni):
            terms = tuple([build(b, uni) for build in args])
            if None not in terms:
                yield self.name, b, matched, Formula(pred, terms)


# a compiled scheme takes the universe and the fact indexes as arguments,
# so it is compiled once per scheme, not once per derive call
_ground_scheme = lru_cache(maxsize=None)(_GroundScheme)


class Grounder:
    """Ground scheme instances of one system over one term universe: the
    grounder derive and engine-soundness share.

    ``instances(facts_by_pred, fresh)`` yields (scheme name, substitution
    as variable -> term, matched premise facts in sorted premise order,
    conclusion) for every instance whose premises are all facts and whose
    conclusion lies inside the universe: schemes in order, premise matches
    in fact order, then the conclusion's free variables in lexicographic
    universe order.  ``facts_by_pred`` maps a predicate to its facts, the
    hash-consed Formulas themselves.  With ``fresh`` (see
    ``_GroundScheme._bind``) only instances matching a fresh fact are
    yielded, so zero-premise schemes yield nothing.

    Each premise pattern finds its facts through a ``_FactIndex``: the
    skeleton bucket, then the bound-term key, then fact order, so the order
    is the nested-loop join's, but a fact that cannot match is never
    visited, and the fresh facts of a bucket start at a bisection.  Equal
    premise patterns with the same variables keyed share one index.  The
    indexes live as long as the grounder: between calls, each fact list
    may only grow by appending, and each call indexes only the facts
    appended since the last (derive's rounds).  An instance with a term
    outside the universe fails a node-keyed lookup, and the conclusion
    Formula is built only once every argument has been found inside.
    """

    def __init__(self, sys: AxiomSystem, universe: Universe):
        self.universe = universe
        self.schemes = [_ground_scheme(s) for s in sys.schemes]
        shared: dict[tuple, _FactIndex] = {}
        self._indexes = [[shared.setdefault(signature, _FactIndex(signature, fits))
                          for signature, fits in scheme.premises]
                         for scheme in self.schemes]
        self._distinct = list(shared.values())

    def instances(self, facts_by_pred: Mapping[str, list[Formula]],
                  fresh: Mapping[str, int] | None = None
                  ) -> Iterator[tuple[str, dict[str, Term], tuple[Formula, ...], Formula]]:
        for index in self._distinct:
            index.update(facts_by_pred.get(index.pred, ()))
        for scheme, indexes in zip(self.schemes, self._indexes):
            yield from scheme.instances(indexes, fresh, self.universe)


def _term_universe(r: Rule, sigspec: SigSpec, layers: int, max_terms: int) -> list[Term]:
    universe: set[Term] = set()
    for t in r.terms():
        universe |= subterms(t)
    for c in sorted(sigspec.constants):
        universe.add(Const(c))
    for _ in range(layers):
        with_negs = universe | {Neg(t) for t in universe}
        extra = with_negs | {Join(s, t) for s in with_negs for t in with_negs}
        new = sorted(extra - universe, key=lambda t: (term_depth(t), term_text(t)))
        for t in new:
            if len(universe) >= max_terms:
                break
            universe |= subterms(t)
    return sorted(universe, key=lambda t: (term_depth(t), term_text(t)))


@dataclass
class _FactInfo:
    scheme: str | None
    subst: tuple[tuple[str, Term], ...]
    parents: tuple[Formula, ...]
    round: int


def derive(sys: AxiomSystem, r: Rule, depth: int, term_layers: int = 1,
           max_terms: int = 120, max_facts: int = 20000) -> Derivation | None:
    """Forward-chaining saturation from the premises of r.

    Substitutions map scheme variables into a term universe: the subterm
    closure of r, its constants, and `term_layers` rounds of negation/join
    combinations (capped at max_terms).  Returns a minimal-depth
    certificate, or None when the goal is not reached within `depth`
    rounds; None is inconclusive, never a refutation.

    Rounds are semi-naive (Bancilhon & Ramakrishnan 1986): after round 1
    only scheme instances matching a fact new in the previous round are
    tried.  The others cannot yield a new fact, so the certificate is the
    naive rounds' one.  Instances come from a Grounder over the universe,
    the grounder engine-soundness uses too: facts are the hash-consed
    Formulas, its premise indexes grow by each round's new facts, and an
    instance with a term outside the universe fails a node-keyed lookup
    before its conclusion is built.
    """
    if sys.kind != "single-conclusion":
        raise ValueError("derive only searches single-conclusion systems")
    if not r.is_single_conclusion:
        raise ValueError("derive needs a single-conclusion goal")
    goal = r.conclusion
    # seeded in text order: premises is a frozenset of nodes hashed by
    # address, so its own order, and with it the certificate, varies by run
    facts = {f: _FactInfo(None, (), (), 0) for f in sorted(r.premises, key=formula_text)}
    if goal in facts:
        return _extract(facts, goal)

    grounder = Grounder(sys, Universe(_term_universe(r, sys.signature, term_layers, max_terms)))
    facts_by_pred: dict[str, list[Formula]] = {}
    for f in facts:
        facts_by_pred.setdefault(f.pred, []).append(f)
    fresh = None
    for rnd in range(1, depth + 1):
        new: dict[Formula, _FactInfo] = {}
        for name, b, matched, f in grounder.instances(facts_by_pred, fresh):
            if f not in facts and f not in new:
                new[f] = _FactInfo(name, tuple(sorted(b.items())),
                                   tuple(sorted(set(matched), key=formula_text)), rnd)
        if not new:
            return None
        fresh = {pred: len(fs) for pred, fs in facts_by_pred.items()}
        for f in new:
            facts_by_pred.setdefault(f.pred, []).append(f)
        facts.update(new)
        if len(facts) > max_facts:
            raise DeriveBudgetError(f"fact budget exceeded ({len(facts)} > {max_facts})")
        if goal in new:
            return _extract(facts, goal)
    return None


def _extract(facts: dict[Formula, _FactInfo], goal: Formula) -> Derivation:
    needed: list[Formula] = []
    seen: set[Formula] = set()

    def visit(f: Formula):
        if f in seen:
            return
        seen.add(f)
        for p in facts[f].parents:
            visit(p)
        needed.append(f)

    visit(goal)
    needed.sort(key=lambda f: (facts[f].round, formula_text(f)))
    index = {f: i for i, f in enumerate(needed)}
    nodes = []
    for f in needed:
        info = facts[f]
        nodes.append(DerivationNode(f, info.scheme, info.subst,
                                    tuple(index[p] for p in info.parents)))
    return Derivation(tuple(nodes), index[goal])


def check_derivation(sys: AxiomSystem, d: Derivation, r: Rule) -> tuple[bool, str | None]:
    """Replay a certificate: scheme lookup, substitution, parent matching."""
    if not r.is_single_conclusion:
        return False, "goal rule is not single-conclusion"
    if not 0 <= d.root < len(d.nodes):
        return False, f"root {d.root} is not a node index"
    for i, node in enumerate(d.nodes):
        if not all(0 <= p < i for p in node.parents):
            return False, f"node {i}: parent does not precede child"
        if node.scheme is None:
            if node.formula not in r.premises:
                return False, f"node {i}: premise node not among the rule's premises"
            continue
        try:
            scheme = sys.scheme(node.scheme)
        except KeyError:
            return False, f"node {i}: unknown scheme {node.scheme!r}"
        subst = dict(node.subst)
        inst_prems = {substitute_formula(p, subst) for p in scheme.rule.premises}
        inst_concl = substitute_formula(scheme.rule.conclusion, subst)
        parent_formulas = {d.nodes[p].formula for p in node.parents}
        if parent_formulas != inst_prems:
            return False, f"node {i}: parents do not match the instantiated premises"
        if len(node.parents) != len(inst_prems):
            return False, f"node {i}: duplicate or missing parent edges"
        if node.formula != inst_concl:
            return False, f"node {i}: formula differs from the instantiated conclusion"
    if d.nodes[d.root].formula != r.conclusion:
        return False, "root formula is not the rule's conclusion"
    return True, None


def edge_mutations(d: Derivation) -> list[Derivation]:
    """All certificates obtained by deleting one parent edge."""
    out = []
    for i, node in enumerate(d.nodes):
        for k in range(len(node.parents)):
            parents = node.parents[:k] + node.parents[k + 1:]
            nodes = list(d.nodes)
            nodes[i] = DerivationNode(node.formula, node.scheme, node.subst, parents)
            out.append(Derivation(tuple(nodes), d.root))
    return out


# ---------------------------------------------------------------------------
# Rule translation (exact truth into equations with the #t constant).

def translate_exact_to_eq_formula(f: Formula) -> Formula:
    """E(u) becomes  #t = u;  every other formula is unchanged."""
    if f.pred == "E":
        return Formula("eq", (Const("#t"), f.args[0]))
    return f


def translate_exact_to_eq(r: Rule) -> Rule:
    """Replace each E(u) by  #t = u;  everything else is unchanged."""
    return Rule(frozenset(map(translate_exact_to_eq_formula, r.premises)),
                frozenset(map(translate_exact_to_eq_formula, r.conclusions)))


# ---------------------------------------------------------------------------
# Rule-space bounds, formulas and canonical renaming.

_VAR_POOL = ("x", "y", "z", "u", "v", "w", "x1", "x2")

# the variables of every bounded rule space; its premise-set tables are
# decided on the grid of their valuations
SPACE_VARIABLES = ("x", "y")


@dataclass(frozen=True, kw_only=True)
class RuleSpaceBounds:
    """A bounded space of single-conclusion rules over ``SPACE_VARIABLES``:
    terms of depth at most ``max_depth`` over those variables and
    ``constants``, atomic formulas over ``predicates``, and at most
    ``max_premises`` premises."""
    max_depth: int
    max_premises: int
    predicates: frozenset[str]
    constants: frozenset[str] = frozenset()

    def __post_init__(self):
        if min(self.max_depth, self.max_premises) < 0:
            raise ValueError("bounds must be non-negative")


def terms_within(bounds: RuleSpaceBounds) -> list[Term]:
    atoms: list[Term] = [Var(v) for v in SPACE_VARIABLES]
    atoms += [Const(c) for c in sorted(bounds.constants)]
    layers: set[Term] = set(atoms)
    for _ in range(bounds.max_depth):
        fresh: set[Term] = {Neg(t) for t in layers}
        fresh.update(Meet(s, t) for s in layers for t in layers)
        fresh.update(Join(s, t) for s in layers for t in layers)
        layers |= fresh
    return sorted(layers, key=lambda t: (term_depth(t), term_text(t)))


def formulas_within(bounds: RuleSpaceBounds) -> list[Formula]:
    return formulas_over(bounds.predicates, terms_within(bounds))


def formulas_over(predicates: frozenset[str], terms: Sequence[Term]) -> list[Formula]:
    """The atomic formulas over ``predicates`` whose arguments are ``terms``."""
    out: list[Formula] = []
    for pred in ("T", "E", "NF"):
        if pred in predicates:
            out.extend(Formula(pred, (t,)) for t in terms)
    if "eq" in predicates:
        out.extend(Formula("eq", (s, t)) for s in terms for t in terms)
    return out


def canonical_rule(r: Rule) -> Rule:
    """Least variant of r under bijective variable renaming."""
    names = sorted(r.variables())
    if not names:
        return r
    pool = _VAR_POOL[:len(names)]
    best = None
    best_text = None
    for perm in permutations(pool):
        candidate = apply_subst(r, {old: Var(new) for old, new in zip(names, perm)})
        text = print_rule(candidate)
        if best_text is None or text < best_text:
            best, best_text = candidate, text
    return best


# ---------------------------------------------------------------------------
# Classification sweeps.

@dataclass
class ClassificationReport:
    system: str
    size: int
    algebras: int = 0
    structures: int = 0
    models: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


@lru_cache(maxsize=None)
def census_pool(size: int) -> tuple[FiniteAlgebra, ...]:
    """The census of De Morgan lattices of sizes 1..size, smallest first.

    Cached per size, so each size is enumerated once per process; the
    tuple and its algebras are immutable and shared by every caller.
    """
    if size < 1:
        return ()
    largest = tuple(enumerate_dm_lattices(size))  # raises above the census bound
    return census_pool(size - 1) + largest


def _constant_assignments(alg: FiniteAlgebra, consts: frozenset[str]) -> Iterator[FiniteAlgebra]:
    if not consts:
        yield alg
        return
    names = sorted(consts)
    for values in iproduct(range(alg.size), repeat=len(names)):
        yield alg.with_constants(dict(zip(names, values)))


def _congruence_rows(cong) -> tuple[int, ...]:
    """The congruence as a binary relation: row a is the mask of a's class."""
    masks = [0] * len(cong.rep)
    for a, r in enumerate(cong.rep):
        masks[r] |= 1 << a
    return tuple(masks[r] for r in cong.rep)


def _relation_names(sys: AxiomSystem) -> list[str]:
    """The relations of a system in candidate order: unary names sorted, eq last."""
    names = sorted(p for p in sys.signature.relations if p != "eq")
    return names + ["eq"] if "eq" in sys.signature.relations else names


def _relation_ranges(names: Sequence[str], alg: FiniteAlgebra) -> list[Sequence]:
    """The values each relation ranges over on alg: every subset for a
    unary relation, the rows of each congruence of alg for eq, read from
    the cached ``congruences``."""
    return [[_congruence_rows(c) for c in congruences(alg)] if name == "eq"
            else range(1 << alg.size) for name in names]


def _structure(alg: FiniteAlgebra, names: Sequence[str], values: Sequence) -> Structure:
    unary = dict(zip(names, values))
    eq_rows = unary.pop("eq", None)
    return Structure(alg, unary, {} if eq_rows is None else {"eq": eq_rows})


def candidate_structures(sys: AxiomSystem, alg: FiniteAlgebra) -> Iterator[Structure]:
    """All relation interpretations worth checking on one algebra: the
    full product, unary relations in sorted name order, eq innermost.

    Unary relations range over all subsets.  The equality predicate only
    ranges over congruence relations: the reflexivity, symmetry,
    transitivity, congruence, and compatibility axioms in every catalogued
    eq-system reject anything else, so non-congruence interpretations can
    never be models (checked exhaustively at n <= 3 in ``tests/test_kernel.py``).

    ``classify_models`` does not build this product (see ``ModelSweep``).
    The generator serves the reduct-invariance check of the facts suite
    and is the oracle the factorised sweep is tested against.
    """
    names = _relation_names(sys)
    for values in iproduct(*_relation_ranges(names, alg)):
        yield _structure(alg, names, values)


class ModelSweep:
    """A system's axioms compiled once for the factorised sweep.

    The axioms are split by whether they mention a constant, and each part
    is compiled into one ``CompiledRules``.  The constant-free axioms are
    split further, by the relations they mention, into index groups: per
    relation, those that mention it alone; and the rest, which mention two
    or more relations or none.  ``free_models`` filters each relation's
    values by its own axioms, then checks only the product of the
    survivors against the rest.  A combination outside that product fails
    a one-relation axiom.  ``expand`` checks those tuples against the
    axioms that mention a constant, on every constant assignment at once.
    So the models and their order are those of filtering the full product
    of each assignment by every axiom.  Relation values are checked as
    they are; a ``Structure`` is built only for a model.

    A constant-free axiom never reads a constant, so ``classify_models``
    runs ``free_models`` once per base algebra.  ``expand`` compiles the
    axioms that mention a constant once per base algebra too: the base
    algebra interprets no constant, so ``CompiledRules`` reads each one as
    a grid variable that leads every such axiom's grid, and the j-th
    assignment in ``_constant_assignments`` order is the j-th run of n**k
    points of an axiom's grid over k variables.  One pass over those
    axioms per free tuple gives the assignments on which it fails, with
    one memo of relation values for all of them, kept in grids that the
    ``CompiledRules`` of every system share.  Constants are nullary
    operations and impose no compatibility condition, so every expansion
    of an algebra has the congruence lattice of the base algebra, in the
    same order: the eq values of every expansion come from the base
    algebra's lattice (checked at n <= 5 in ``tests/test_algebra.py``),
    which ``congruences`` enumerates once per process.  For the same
    reason a model's Leibniz congruence depends only on the base algebra
    and its relation values, which ``reducts`` uses.
    """

    def __init__(self, sys: AxiomSystem):
        named = sorted(sys.named_rules(),
                       key=lambda nr: (len(nr[1].variables()), len(nr[1].premises)))
        self.names = tuple(_relation_names(sys))
        free = [nr for nr in named if not nr[1].constants()]
        self._free = CompiledRules(free)
        self._bound = CompiledRules(nr for nr in named if nr[1].constants())
        self.constants = sorted(sys.signature.constants)
        self._leads = sorted(self._bound.constants)  # the constants that lead their grids
        predicates = [r.predicates() for _, r in free]
        self._own = [[i for i, p in enumerate(predicates) if p == {name}] for name in self.names]
        self._rest = [i for i, p in enumerate(predicates) if len(p) != 1]

    def free_models(self, alg: FiniteAlgebra, ranges: Sequence[Sequence]) -> list[tuple]:
        """The value tuples among the product of ``ranges`` (one per
        relation, in ``names`` order) that pass every constant-free axiom
        on alg, in product order."""
        first_failure = self._free.for_algebra(alg).first_failure
        survivors = [[v for v in values if first_failure({name: v}, own) is None]
                     for name, values, own in zip(self.names, ranges, self._own)]
        return [values for values in iproduct(*survivors)
                if first_failure(dict(zip(self.names, values)), self._rest) is None]

    def expand(self, alg: FiniteAlgebra, free: Sequence[tuple]) -> Iterator[Structure]:
        """The models among ``free`` (from ``free_models`` on alg) on every
        constant assignment of alg, a base algebra without constants:
        assignment-major, in ``_constant_assignments`` order, then in
        ``free`` order.  Those are the tuples that pass every axiom that
        mentions a constant on the assignment."""
        check = self._bound.for_algebra(alg)
        n, every = alg.size, (1 << alg.size ** len(self._leads)) - 1
        passing: list[list[tuple]] = [[] for _ in range(every.bit_length())]
        for values in free:
            failed = 0
            for run, points in check.failing_points(dict(zip(self.names, values))):
                failed |= _runs_hit(points, run, every & ~failed)
                if failed == every:
                    break
            for lead in mask_iter(every & ~failed):
                passing[lead].append(values)
        for expansion in _constant_assignments(alg, self.constants):
            lead = 0
            for c in self._leads:
                lead = lead * n + expansion.constants[c]
            for values in passing[lead]:
                yield _structure(expansion, self.names, values)

    def reducts(self, alg: FiniteAlgebra, free: Sequence[tuple]
                ) -> Iterator[tuple[Structure, Structure, tuple[int, ...], bool]]:
        """Per model, in ``expand`` order over the constant assignments of
        alg, the base algebra on which ``free`` was swept: the model, its
        reduct, the projection onto it and whether the reduct is reduced.

        The Leibniz refinement never reads a constant, so θ, the quotient
        and the projection are found by ``reduct`` on the structure over
        alg itself, once per process for each alg, relation names and
        values (``_free_reduct``); a model with constants only rebinds the
        quotient's constants to the images of its own.
        """
        for model in self.expand(alg, free):
            values = (*model.unary.values(), *model.binary.values())
            red, proj, reduced = _free_reduct(alg, alg.labels, self.names, values)
            if model.algebra.constants:
                consts = {c: proj[v] for c, v in model.algebra.constants.items()}
                red = Structure(red.algebra.with_constants(consts), red.unary, red.binary)
            yield model, red, proj, reduced


@lru_cache(maxsize=None)
def _free_reduct(alg: FiniteAlgebra, labels: tuple[str, ...] | None, names: tuple[str, ...],
                 values: tuple) -> tuple[Structure, tuple[int, ...], bool]:
    """The reduct of the structure on alg whose relations ``names`` take
    ``values``, the projection onto it and whether the reduct is reduced.

    Cached per process, like ``congruences``, so each tuple is reduced
    once however many systems and constant assignments reach it.  The key
    holds ``labels`` because algebra equality ignores them, and the
    reduct's element names come from them.  The many tuples share few
    quotients, so the reduct is rebuilt on the quotient algebra interned
    by ``_interned``.
    """
    red, proj = reduct(_structure(alg, names, values))
    red = Structure(_interned(red.algebra, red.algebra.labels), red.unary, red.binary)
    return red, proj, is_reduced(red)


@lru_cache(maxsize=None)
def _interned(alg: FiniteAlgebra, labels: tuple[str, ...] | None) -> FiniteAlgebra:
    """The first algebra seen equal to alg with these labels, so that equal
    quotients share one object and its tables.  The key holds ``labels``
    because algebra equality ignores them."""
    return alg


def _runs_hit(points: int, run: int, among: int) -> int:
    """The j in the mask ``among`` whose j-th run of ``run`` points holds a
    set bit of ``points``."""
    if run == 1:
        return points & among
    ones = (1 << run) - 1
    hit = 0
    for j in mask_iter(among):
        if points >> j * run & ones:
            hit |= 1 << j
    return hit


def _top_element(alg: FiniteAlgebra) -> int:
    for t in range(alg.size):
        if all(alg.leq(a, t) for a in range(alg.size)):
            return t
    raise ValueError("finite lattice without a top element")


def _unary_ok_exact(alg: FiniteAlgebra, mask: int) -> bool:
    """{top} or empty."""
    if mask == 0:
        return True
    return mask == 1 << _top_element(alg)


def _embeds_into(s: Structure, target: Structure) -> bool:
    """Is s isomorphic to a substructure of target (constants respected)?"""
    n, m = s.algebra.size, target.algebra.size
    if n > m:
        return False
    tu, tb = target.unary, target.binary
    for image in permutations(range(m), n):
        if (Homomorphism(s.algebra, target.algebra, image).check()[0]
                and all(((mask >> x) & 1) == ((tu[name] >> image[x]) & 1)
                        for name, mask in s.unary.items() for x in range(n))
                and all(((rows[x] >> y) & 1) == ((tb[name][image[x]] >> image[y]) & 1)
                        for name, rows in s.binary.items() for x in range(n) for y in range(n))):
            return True
    return False


def shape_violations(family: str, reduct: Structure) -> list[str]:
    """Check a reduced model against its family's documented shape."""
    alg = reduct.algebra
    out: list[str] = []
    ok, witness = check_demorgan(alg)
    if not ok:
        out.append(f"reduct algebra is not a De Morgan lattice: {witness}")
        return out
    if family == "KE":
        ok, witness = check_kleene(alg)
        if not ok:
            out.append(f"reduct algebra is not a Kleene lattice: {witness}")
    if family in ("BDE", "BDNF", "KE", "BD-EQ", "BDE-EQ", "BDNF-EQ"):
        if not is_filter(alg, reduct.unary.get("T", 0)):
            out.append("T is not a lattice filter on the reduct")
    if family in ("BDNF", "BDNF-EQ"):
        if not is_filter(alg, reduct.unary.get("NF", 0)):
            out.append("NF is not a lattice filter on the reduct")
        inter = reduct.unary["T"] & reduct.unary["NF"]
        if not _unary_ok_exact(alg, inter):
            out.append("T and NF intersect in more than the top element")
    if family in ("BDE", "KE", "ETL-EQ", "BDE-EQ"):
        if not _unary_ok_exact(alg, reduct.unary["E"]):
            out.append("E is neither empty nor the top singleton")
    if family in ("BD-EQ", "ETL-EQ", "BDE-EQ", "BDNF-EQ"):
        if reduct.binary["eq"] != identity_relation(alg):
            out.append("eq is not the identity relation on the reduct")
    if family == "MC-ETL":
        if not reduct.is_trivial():
            consts = frozenset(alg.constants)
            target = structure(builtin("DM4", consts), {"E": (0,)})
            if not _embeds_into(reduct, target):
                out.append("non-trivial reduced model does not embed into the expanded DM4 target")
    return out


def classify_models(sys: AxiomSystem, size: int) -> ClassificationReport:
    """Sweep all candidate structures over the census, reduce the models,
    and check each reduct against the family's documented shape.

    The sweep is factorised (``ModelSweep``): per base algebra it checks
    the constant-free axioms once, on only the combinations whose every
    relation passes its own axioms, then the axioms that mention a
    constant on the survivors alone, in one pass per survivor over every
    constant assignment.  ``structures`` still counts the full product
    of every assignment, whose other members each fail an axiom.  A
    system with eq reads each base algebra's congruence lattice, for the
    eq values of all its expansions, from ``congruences``, which
    enumerates it once per process however many eq systems are
    classified.
    The grids, with their memos of each axiom formula's bitset per
    relation value, are shared by every system classified in the process
    and by ``holds`` (``structures._grid``).  ``ModelSweep.reducts``
    finds the Leibniz congruence, by partition refinement, and the
    quotient once per process for each base algebra, relation names and
    values, not once per model or per system.  Each distinct reduct's
    shape is checked once per system; every model still gets its own
    violation lines, in sweep order.
    """
    family, _ = parse_name(sys.name)
    report = ClassificationReport(sys.name, size)
    sweep = ModelSweep(sys)
    shapes: dict[Structure, list[str]] = {}
    for base_alg in census_pool(size):
        ranges = _relation_ranges(sweep.names, base_alg)
        assignments = base_alg.size ** len(sweep.constants)
        report.algebras += assignments
        report.structures += prod(map(len, ranges)) * assignments
        for cand, red, _, reduced in sweep.reducts(base_alg, sweep.free_models(base_alg, ranges)):
            report.models += 1
            if not reduced:
                report.violations.append(f"{_describe(cand)}: reduct is not reduced")
                continue
            if red not in shapes:
                shapes[red] = shape_violations(family, red)
            report.violations.extend(f"{_describe(cand)}: {v}" for v in shapes[red])
    return report


def _describe(s: Structure) -> str:
    alg = s.algebra
    parts = [f"|A|={alg.size}"]
    for name, mask in sorted(s.unary.items()):
        elems = ",".join(alg.element_name(i) for i in range(alg.size) if (mask >> i) & 1)
        parts.append(f"{name}={{{elems}}}")
    for name, rows in sorted(s.binary.items()):
        pairs = sum(bin(r).count("1") for r in rows)
        parts.append(f"{name}:{pairs} pairs")
    if alg.constants:
        parts.append("consts=" + ",".join(f"{c}->{alg.element_name(v)}"
                                          for c, v in sorted(alg.constants.items())))
    return " ".join(parts)
