import re

import pytest

from fourval.algebra import builtin
from fourval.engine import decide
from fourval.structures import holds, identity_relation, is_model, preset_structure, structure
from fourval.syntax import UsageError, parse_rule, print_rule, sig
from fourval.systems import (
    AxiomSystem,
    Scheme,
    all_system_names,
    export_rule_text,
    soundness_check,
    system,
)


def canonical(text, sigspec):
    return print_rule(parse_rule(text, sigspec))


def test_registry_has_every_family():
    names = all_system_names()
    for family in ("BD-base", "ETL-base", "K-base", "LP-base", "BDE", "BDNF", "KE",
                   "TNE-bridge", "EQ-core", "BD-EQ", "ETL-EQ", "BDE-EQ", "BDNF-EQ",
                   "MC-BD", "MC-bridges", "MC-ETL"):
        assert family in names
    # constant families expand to every supported subset
    assert {"BDE+t", "BDE+n", "BDE+b", "BDE+tn", "BDE+tb", "BDE+nb", "BDE+tnb"} <= set(names)
    assert {"KE+t", "KE+b", "KE+tb"} <= set(names)
    assert not any(n.startswith("KE+") and "n" in n.split("+")[1] for n in names)
    assert len(names) == len(set(names))


def test_unknown_system():
    with pytest.raises(KeyError):
        system("XYZ")
    with pytest.raises(KeyError):
        system("KE+n")  # unsupported constant for this family


def test_registry_names_are_canonical():
    for name in all_system_names():
        sysd = system(name)
        assert sysd.name == name
        family, plus, suffix = name.partition("+")
        assert sysd.preset == system(family).preset + plus + suffix


@pytest.mark.parametrize("variant, canonical_name", [
    ("BDE+nt", "BDE+tn"), ("BDE+tt", "BDE+t"), ("BD-EQ+btn", "BD-EQ+tnb"),
    ("MC-ETL+bbn", "MC-ETL+nb"),
])
def test_suffix_letters_in_any_order_name_one_system(variant, canonical_name):
    assert system(variant) == system(canonical_name)
    assert system(variant).name == canonical_name


@pytest.mark.parametrize("name", ["KE+n", "KE+tnb", "BDE+q", "TNE-bridge+t", "XYZ"])
def test_bad_system_names_are_usage_errors(name):
    with pytest.raises(UsageError, match=re.escape(repr(name))):
        system(name)


def test_bde_interaction_rules_exactly():
    bde = system("BDE")
    got = {print_rule(s.rule) for s in bde.schemes if s.role == "interaction"}
    expect = {canonical(t, bde.signature) for t in (
        "E(x) |- T(x)",
        r"E(x), T(~x \/ y) |- T(y)",
        r"T(x), T(y), E(~x \/ y) |- E(y)",
    )}
    assert got == expect
    # the exact-truth side uses the plain truth base (the conjunctive modus
    # ponens rule must remain derivable, not axiomatic)
    char = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", bde.signature)
    assert all(s.rule != char for s in bde.schemes)


def test_etl_eq_non_core_rules_exactly():
    etl_eq = system("ETL-EQ")
    got = {print_rule(s.rule) for s in etl_eq.schemes if s.role == "interaction"}
    assert got == {canonical(r"E(x) |- x \/ y = x", etl_eq.signature)}


def test_mc_etl_contains_wrapped_rule():
    mc = system("MC-ETL")
    texts = {print_rule(s.rule) for s in mc.schemes}
    assert canonical(r"E(x \/ y) |- E(~x \/ ~y) | E(x) | E(y)", mc.signature) in texts
    assert mc.kind == "multiple-conclusion"


def test_kinds_and_presets():
    assert system("BDE").kind == "single-conclusion"
    assert system("MC-BD").preset == "BD"
    assert system("BDE+tn").preset == "BDE+tn"
    assert system("EQ-core").preset == "DM-eq"


def test_constant_rules_filtered_by_subset():
    plus_t = system("BDE+t")
    assert {s.name for s in plus_t.schemes if s.role == "constant"} == {"c-exact-top"}
    plus_n = system("BDE+n")
    assert {s.name for s in plus_n.schemes if s.role == "constant"} == {
        "c-neither-true-l", "c-neither-true-r", "c-neither-exact-l", "c-neither-exact-r"}
    # the rule mentioning all three constants appears only with all present
    bd_eq_nb = system("BD-EQ+nb")
    assert "c-both-neither-top" not in {s.name for s in bd_eq_nb.schemes}
    bd_eq_tnb = system("BD-EQ+tnb")
    assert "c-both-neither-top" in {s.name for s in bd_eq_tnb.schemes}


def test_every_registry_system_is_sound():
    for name in all_system_names():
        report = soundness_check(system(name))
        assert report["ok"], (name, [a for a, v in report["axioms"] if not v.valid])


def test_corrupt_system_fails_soundness():
    bde = system("BDE")
    swapped = parse_rule("T(x) |- E(x)", bde.signature)  # converse of exact-true
    corrupt = AxiomSystem("corrupt", bde.signature,
                          bde.schemes + (Scheme("bad", swapped, "interaction"),),
                          bde.kind, bde.preset)
    report = soundness_check(corrupt)
    assert not report["ok"]
    bad = [a for a, v in report["axioms"] if not v.valid]
    assert bad == ["bad"]


def test_redundancy_rule_is_valid_but_not_an_axiom():
    bde = system("BDE")
    rule = parse_rule(r"E(x /\ (~x \/ y)) |- E(y)", bde.signature)
    assert holds(preset_structure("BDE"), rule).valid
    assert all(s.rule != rule for s in bde.schemes)


def test_bdnf_eq_has_a_two_element_model_that_refutes_a_preset_valid_rule():
    """BDNF-EQ, as catalogued, is incomplete for its preset: B2 with T
    empty, NF everything and eq the identity is a model of its axioms, and
    it refutes a rule that BDNF-eq validates, so no derivation of that rule
    exists.  The catalogue is left as it is until the paper's axioms can be
    checked."""
    bdnf_eq = system("BDNF-EQ")
    b2 = builtin("B2")
    st = structure(b2, {"T": (), "NF": (0, 1)}, {"eq": identity_relation(b2)})
    assert is_model(st, bdnf_eq.named_rules()) == (True, None)
    rule = parse_rule(r"NF(x), NF(y) |- ~x \/ y = y", bdnf_eq.signature)
    assert not holds(st, rule).valid
    assert decide("BDNF-eq", rule).valid


def test_tne_bridge_semantic_interderivability():
    tne = preset_structure("TNE")
    s = sig({"T", "E", "NF"})
    assert holds(tne, parse_rule("T(x), NF(x) |- E(x)", s)).valid
    assert holds(tne, parse_rule("E(x) |- T(x)", s)).valid
    assert holds(tne, parse_rule("E(x) |- NF(x)", s)).valid


def test_rule_text_export_reparses():
    from fourval.syntax import parse_rule_lines

    for name in ("BDE", "BD-EQ+tnb", "MC-ETL"):
        sysd = system(name)
        text = export_rule_text(sysd)
        rules = parse_rule_lines(text, sysd.signature)
        assert frozenset(rules) == frozenset(s.rule for s in sysd.schemes)


def test_scheme_names_unique_per_system():
    for name in all_system_names():
        sysd = system(name)
        names = [s.name for s in sysd.schemes]
        assert len(names) == len(set(names)), name
