import copy
import gc
import pickle
import random
import re
import weakref
from dataclasses import FrozenInstanceError

import pytest

from fourval import syntax
from fourval.syntax import (
    FULL_SIG,
    PREDICATE_NAMES,
    Const,
    Formula,
    Join,
    Meet,
    Neg,
    ParseError,
    Rule,
    SignatureError,
    SigSpec,
    Term,
    Var,
    apply_subst,
    parse_rule,
    parse_rule_lines,
    parse_term,
    print_rule,
    sig,
    term_symbols,
    term_text,
)
from fourval.verify import random_rule


def test_parse_single_conclusion_example():
    r = parse_rule(r"E(x), T(~x \/ y) |- T(y)", sig({"T", "E"}))
    assert r.premises == frozenset({Formula("E", (Var("x"),)),
                                    Formula("T", (Join(Neg(Var("x")), Var("y")),))})
    assert r.conclusions == frozenset({Formula("T", (Var("y"),))})
    assert r.is_single_conclusion


def test_parse_empty_premises_gives_axiom():
    r = parse_rule("|- x = x", sig({"eq"}))
    assert r.premises == frozenset()
    assert r.conclusions == frozenset({Formula("eq", (Var("x"), Var("x")))})


def test_parse_empty_conclusions():
    r = parse_rule("T(~x), NF(x) |-", sig({"T", "NF"}))
    assert len(r.premises) == 2
    assert r.conclusions == frozenset()


def test_false_sugar_desugars_to_negated_top():
    t = parse_term("#f", sig({"T"}, {"#t"}))
    assert t == Neg(Const("#t"))
    assert term_text(t) == "~#t"


def test_order_sugar_desugars_to_join_equation():
    r = parse_rule("x <= y |-", sig({"eq"}))
    (prem,) = r.premises
    assert prem == Formula("eq", (Join(Var("x"), Var("y")), Var("y")))


def test_precedence_neg_meet_join():
    t = parse_term(r"~x /\ y \/ z")
    assert t == Join(Meet(Neg(Var("x")), Var("y")), Var("z"))


def test_binary_operators_left_associative():
    assert parse_term(r"a \/ b \/ c") == Join(Join(Var("a"), Var("b")), Var("c"))
    assert parse_term(r"a \/ (b \/ c)") == Join(Var("a"), Join(Var("b"), Var("c")))


def test_print_minimal_parentheses():
    t = Join(Var("a"), Join(Var("b"), Var("c")))
    assert term_text(t) == r"a \/ (b \/ c)"
    t2 = Join(Join(Var("a"), Var("b")), Var("c"))
    assert term_text(t2) == r"a \/ b \/ c"
    assert term_text(Neg(Join(Var("a"), Var("b")))) == r"~(a \/ b)"
    assert term_text(Neg(Neg(Var("a")))) == "~~a"


def test_print_rule_canonical_forms():
    r = Rule(frozenset({Formula("E", (Var("x"),))}), frozenset({Formula("T", (Var("x"),))}))
    assert print_rule(r) == "E(x) |- T(x)"
    assert print_rule(Rule(frozenset(), frozenset())) == "|-"


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_rule("T(x) |- T(", sig({"T"}))
    assert err.value.position == 10


def test_unknown_predicate_for_signature():
    with pytest.raises(SignatureError):
        parse_rule("E(x) |- T(x)", sig({"T"}))


def test_unknown_constant_for_signature():
    with pytest.raises(SignatureError):
        parse_rule("|- T(#n)", sig({"T"}, {"#t"}))


def test_predicate_names_reserved():
    with pytest.raises(ParseError):
        parse_rule("|- T = x", sig({"T", "eq"}))


def test_missing_turnstile():
    with pytest.raises(ParseError):
        parse_rule("T(x), T(y)", sig({"T"}))


def test_substitution_simultaneous_and_deduplicating():
    r = parse_rule("E(x) |- T(x)", sig({"T", "E"}))
    s = {"x": Meet(Var("y"), Var("z"))}
    out = apply_subst(r, s)
    assert out == parse_rule(r"E(y /\ z) |- T(y /\ z)", sig({"T", "E"}))

    # swapping substitution is simultaneous, not sequential
    r2 = parse_rule("T(x), T(y) |- T(x)", sig({"T"}))
    swapped = apply_subst(r2, {"x": Var("y"), "y": Var("x")})
    assert swapped == parse_rule("T(x), T(y) |- T(y)", sig({"T"}))

    # collapsing substitution re-deduplicates premises
    collapsed = apply_subst(r2, {"x": Var("y")})
    assert len(collapsed.premises) == 1


def test_identity_substitution_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        r = random_rule(rng)
        assert apply_subst(r, {}) == r
        assert apply_subst(r, {v: Var(v) for v in r.variables()}) == r


def test_roundtrip_randomized():
    rng = random.Random(1234)
    for _ in range(1000):
        r = random_rule(rng)
        assert parse_rule(print_rule(r)) == r


def test_print_parse_idempotent_on_canonical_strings():
    rng = random.Random(99)
    for _ in range(300):
        text = print_rule(random_rule(rng))
        assert print_rule(parse_rule(text)) == text


def test_rule_file_parsing_with_comments():
    text = """
    # a comment
    E(x) |- T(x)   # trailing comment
    |- T(#t)  # constant #t inside comment stays intact
    ##t a comment, not a constant
    |- T(x) #x is a comment too
    |- T(#t)#
    |- x = #b#comment right after a constant
    """
    rules = parse_rule_lines(text, sig({"T", "E", "eq"}, {"#t", "#b"}))
    assert [print_rule(r) for r in rules] == [
        "E(x) |- T(x)", "|- T(#t)", "|- T(x)", "|- T(#t)", "|- x = #b"]


def test_parse_rule_lines_errors_keep_class_and_position():
    text = "E(x) |- T(x)\n\n  T(x) |- T(@)  # the bad rule\n"
    with pytest.raises(ParseError) as err:
        parse_rule_lines(text, sig({"T", "E"}, set()))
    assert type(err.value) is ParseError
    assert str(err.value) == "line 3: unexpected character '@' (at position 10)"
    assert err.value.position == 10
    with pytest.raises(SignatureError) as err:
        parse_rule_lines("E(x) |- T(x)\nNF(x) |- T(x)\n", sig({"T", "E"}, set()))
    assert str(err.value).startswith("line 2: ")
    assert err.value.position == 0


def _stored(*key) -> bool:
    return key in syntax._store


@pytest.mark.parametrize("pred, args, message", [
    ("Q", (Var("x"),), "unknown predicate 'Q'"),
    ("T", (Var("x"), Var("y")), r"T expects 1 argument\(s\), got 2"),
    ("eq", (Var("x"),), r"eq expects 2 argument\(s\), got 1"),
])
def test_formula_validation_rejects_and_stores_nothing(pred, args, message):
    with pytest.raises(ValueError, match=message):
        Formula(pred, args)
    assert not _stored(Formula, pred, args)


def test_equal_nodes_built_apart_are_one_object():
    x, y = Var("x"), Var("y")
    t = Join(Meet(Neg(x), y), Const("#t"))
    assert Var("x") is x
    assert parse_term(r"~x /\ y \/ #t") is t
    assert parse_term("#f") is Neg(Const("#t"))
    f = Formula("eq", (t, y))
    assert parse_rule(r"|- ~x /\ y \/ #t = y").conclusion is f
    assert Formula("eq", (t, y)) is f and hash(f) == hash(Formula("eq", (t, y)))
    assert Join(x, y) is not Meet(x, y) and Var("#t") is not Const("#t")


def test_copies_and_pickles_are_the_same_object():
    t = parse_term(r"~(x /\ #b) \/ y")
    f = Formula("T", (t,))
    for node in (t, f, Var("x")):
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
    r = parse_rule(r"T(~(x /\ #b) \/ y) |- x = y")
    assert pickle.loads(pickle.dumps(r)) == r and copy.deepcopy(r) == r
    assert repr(f) == ("Formula(pred='T', args=(Join(left=Neg(arg=Meet(left=Var(name='x'), "
                       "right=Const(symbol='#b'))), right=Var(name='y')),))")


def test_fields_cannot_be_assigned():
    t, f = Meet(Var("x"), Var("y")), Formula("T", (Var("x"),))
    with pytest.raises(FrozenInstanceError):
        t.left = Var("z")
    with pytest.raises(FrozenInstanceError):
        f.pred = "E"
    with pytest.raises(FrozenInstanceError):
        del Var("x").name
    assert t.left is Var("x") and f.pred == "T"


def test_unreferenced_nodes_leave_the_store():
    f = Formula("NF", (Neg(Var("only_here")),))
    t = f.args[0]
    assert _stored(Formula, "NF", (t,)) and _stored(Neg, Var("only_here"))
    del f, t
    gc.collect()
    # a key holds its node's fields, so the leaf's entry outlives its parents'
    assert not _stored(Var, "only_here")


def test_printing_a_term_does_not_keep_it_alive():
    t = Join(Var("printed_once"), Neg(Var("printed_twice")))
    ref = weakref.ref(t)
    assert term_text(t) == r"printed_once \/ ~printed_twice"
    assert term_text(t) == r"printed_once \/ ~printed_twice"
    del t
    gc.collect()
    assert ref() is None
    assert not _stored(Var, "printed_once")


def _walked_symbols(t: Term, variables: set, constants: set) -> None:
    """A term's variables and constants by a fresh walk: the oracle for
    the sets term_symbols caches in the node."""
    if isinstance(t, Var):
        variables.add(t.name)
    elif isinstance(t, Const):
        constants.add(t.symbol)
    else:
        for child in (t.arg,) if isinstance(t, Neg) else (t.left, t.right):
            _walked_symbols(child, variables, constants)


def test_cached_symbol_sets_agree_with_a_walk():
    rng = random.Random(7)
    for _ in range(500):
        r = random_rule(rng)
        variables, constants, predicates = r.symbols()
        walked_v, walked_c = set(), set()
        for f in r.premises | r.conclusions:
            for t in f.args:
                _walked_symbols(t, walked_v, walked_c)
        assert (variables, constants) == (walked_v, walked_c)
        assert predicates == {f.pred for f in r.premises | r.conclusions}
        assert r.symbols() == (variables, constants, predicates)  # from the cached sets now


def test_cached_symbol_sets_change_no_repr_or_pickle_and_keep_nothing_alive():
    t = Join(Meet(Var("cached_x"), Const("#n")), Neg(Var("cached_y")))
    before = repr(t)
    assert term_symbols(t) == ({"cached_x", "cached_y"}, {"#n"})
    assert repr(t) == before and pickle.loads(pickle.dumps(t)) is t
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert not _stored(Var, "cached_x")

# ---------------------------------------------------------------------------
# The parser checked differentially against the lexer and parser it
# replaced, kept here as the oracle: a named-group regex matched token by
# token into (kind, text, position) tuples, walked by a parser object.

_OLD_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<turnstile>\|-)
  | (?P<bar>\|)
  | (?P<comma>,)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<join>\\/)
  | (?P<meet>/\\)
  | (?P<neg>~)
  | (?P<le><=)
  | (?P<eq>=)
  | (?P<const>\#[tnbf])
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
    """,
    re.VERBOSE,
)


def _old_tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _OldParser:
    def __init__(self, text: str, sigspec: SigSpec):
        self.tokens = _old_tokenize(text)
        self.ix = 0
        self.sig = sigspec

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.ix]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.ix]
        self.ix += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_rule(self) -> Rule:
        premises: list[Formula] = []
        if self.peek()[0] not in ("turnstile",):
            premises.append(self.parse_formula())
            while self.peek()[0] == "comma":
                self.next()
                premises.append(self.parse_formula())
        self.expect("turnstile")
        conclusions: list[Formula] = []
        if self.peek()[0] != "eof":
            conclusions.append(self.parse_formula())
            while self.peek()[0] == "bar":
                self.next()
                conclusions.append(self.parse_formula())
        self.expect("eof")
        return Rule(frozenset(premises), frozenset(conclusions))

    def parse_formula(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "ident" and value in PREDICATE_NAMES:
            self.next()
            if value not in self.sig.relations:
                raise SignatureError(f"predicate {value} is not in the signature", pos)
            self.expect("lpar")
            t = self.parse_term()
            self.expect("rpar")
            return Formula(value, (t,))
        left = self.parse_term()
        kind, value, pos = self.next()
        if kind == "eq":
            right = self.parse_term()
        elif kind == "le":
            right = self.parse_term()
            left = Join(left, right)
        else:
            raise ParseError(f"expected '=' or '<=', found {value or 'end of input'!r}", pos)
        if "eq" not in self.sig.relations:
            raise SignatureError("predicate eq is not in the signature", pos)
        return Formula("eq", (left, right))

    def parse_term(self) -> Term:
        t = self.parse_meet()
        while self.peek()[0] == "join":
            self.next()
            t = Join(t, self.parse_meet())
        return t

    def parse_meet(self) -> Term:
        t = self.parse_neg()
        while self.peek()[0] == "meet":
            self.next()
            t = Meet(t, self.parse_neg())
        return t

    def parse_neg(self) -> Term:
        kind, value, pos = self.peek()
        if kind == "neg":
            self.next()
            return Neg(self.parse_neg())
        if kind == "lpar":
            self.next()
            t = self.parse_term()
            self.expect("rpar")
            return t
        if kind == "const":
            self.next()
            if value == "#f":
                if "#t" not in self.sig.constants:
                    raise SignatureError("constant #t is not in the signature (needed for #f)", pos)
                return Neg(Const("#t"))
            if value not in self.sig.constants:
                raise SignatureError(f"constant {value} is not in the signature", pos)
            return Const(value)
        if kind == "ident":
            self.next()
            if value in PREDICATE_NAMES:
                raise ParseError(f"{value} is a reserved predicate name, not a variable", pos)
            return Var(value)
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos)


def _old_parse_rule(text, sigspec):
    return _OldParser(text, sigspec).parse_rule()


def _old_parse_term(text, sigspec):
    p = _OldParser(text, sigspec)
    t = p.parse_term()
    p.expect("eof")
    return t


def _outcome(parse, text, sigspec):
    try:
        return parse(text, sigspec)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


_SPACES = ("", "", " ", " ", "  ", "\t", "\n", " \t\n ")


def _random_term_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return rng.choice(("#t", "#n", "#b", "#f"))
        return rng.choice(("x", "y", "z", "v1", "ab"))
    op = rng.randrange(4)
    if op == 0:
        return "~" + _random_term_text(rng, depth - 1)
    if op == 1:
        return "(" + rng.choice(_SPACES) + _random_term_text(rng, depth - 1) + ")"
    return (_random_term_text(rng, depth - 1) + rng.choice(_SPACES)
            + ("/\\" if op == 2 else "\\/") + rng.choice(_SPACES)
            + _random_term_text(rng, depth - 1))


def _random_formula_text(rng: random.Random) -> str:
    pred = rng.choice(("T", "E", "NF", "eq", "le"))
    depth = rng.randint(0, 3)
    if pred in ("eq", "le"):
        op = "=" if pred == "eq" else "<="
        return (_random_term_text(rng, depth) + rng.choice(_SPACES) + op + rng.choice(_SPACES)
                + _random_term_text(rng, depth))
    return pred + rng.choice(_SPACES) + "(" + _random_term_text(rng, depth) + ")"


def _random_rule_text(rng: random.Random) -> str:
    prems = [_random_formula_text(rng) for _ in range(rng.randint(0, 3))]
    concs = [_random_formula_text(rng) for _ in range(rng.randint(0, 2))]
    sep = rng.choice(_SPACES)
    return (rng.choice(_SPACES) + (sep + "," + sep).join(prems) + sep + "|-" + sep
            + (sep + "|" + sep).join(concs) + rng.choice(_SPACES))


_SIGNATURES = (FULL_SIG, sig({"T", "eq"}, {"#t"}), sig({"E", "NF"}, {"#n"}))
_INSERTS = ("@", "1", "/", "\\", "<", "|", "#", "#x", "Tx")


def _differential_inputs() -> tuple[list[str], list[str]]:
    rng = random.Random(2024)
    valid = [_random_rule_text(rng) for _ in range(3000)]
    corpus = valid[:20]
    broken = [text[:i] for text in corpus for i in range(len(text) + 1)]
    broken += [text[:i] + ins + text[i:] for text in corpus for ins in _INSERTS
               for i in range(len(text) + 1)]
    return valid, broken


def test_parser_agrees_with_the_old_parser():
    valid, broken = _differential_inputs()
    for text in valid:
        assert parse_rule(text) == _old_parse_rule(text, FULL_SIG), text
    errors = set()
    for sigspec in _SIGNATURES:
        for text in valid + broken:
            got = _outcome(parse_rule, text, sigspec)
            assert got == _outcome(_old_parse_rule, text, sigspec), (text, sigspec)
            if isinstance(got, tuple):
                errors.add(got[0])
    assert errors == {ParseError, SignatureError}


def test_parse_term_agrees_with_the_old_parser():
    rng = random.Random(77)
    terms = [_random_term_text(rng, rng.randint(0, 4)) for _ in range(1000)]
    inputs = terms + [text[:i] + ins + text[i:] for text in terms[:20] for ins in _INSERTS
                      for i in range(len(text) + 1)]
    inputs += [text[:i] for text in terms[:20] for i in range(len(text) + 1)]
    for sigspec in _SIGNATURES:
        for text in inputs:
            assert (_outcome(parse_term, text, sigspec)
                    == _outcome(_old_parse_term, text, sigspec)), (text, sigspec)
