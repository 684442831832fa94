"""The generic nilpotency harness and its corollary suites."""

import pytest

from hopfcheck.errors import StructuralError
from hopfcheck.gmod import Element, GradedBasis, GradedMap
from hopfcheck.reduced import is_primitive, reduced_coproduct_label
from hopfcheck.rings import QQ, ZZ, ModRing
from hopfcheck.report import Report
from hopfcheck.verify import (PreCoalgebraInstance, binomial_identity_check,
                              chain_checks, check_hypotheses,
                              instance_from_hopf,
                              suite_antipode_props, suite_corollary_filtered,
                              suite_graded_hopf, suite_lowered_exponent,
                              suite_oracle_agreement, suite_taft_remark,
                              verify_conclusions)
from hopfcheck.zoo import free_example_abc, fqsym, shuffle_algebra


@pytest.fixture(scope="module")
def abc():
    return free_example_abc(ZZ, 4)


@pytest.fixture(scope="module")
def abcQ():
    return free_example_abc(QQ, 4)


def statuses(rep):
    return {c.claim: c.status for c in rep.checks}


# --- harness hypotheses and conclusions ------------------------------------

def test_hypotheses_pass_on_abc(abcQ):
    inst = instance_from_hopf(abcQ, "id", "S2", 1)
    rep = check_hypotheses(inst)
    assert rep.ok()
    assert statuses(rep)["kernel"] == "pass"


def test_kernel_not_checked_over_z(abc):
    inst = instance_from_hopf(abc, "id", "S2", 1)
    rep = check_hypotheses(inst)
    assert rep.ok()
    assert statuses(rep)["kernel"] == "not-checked"


def test_conclusions_pass_on_abc(abc):
    inst = instance_from_hopf(abc, "id", "S2", 1)
    assert verify_conclusions(inst).ok()


def test_all_endomap_pairs(abcQ):
    for e_spec, f_spec in (("id", "S2"), ("S2", "S4"), ("id", "S4")):
        inst = instance_from_hopf(abcQ, e_spec, f_spec, 1)
        assert check_hypotheses(inst).ok()
        assert verify_conclusions(inst).ok()


def test_mutated_annihilation_detected(abcQ):
    inst = instance_from_hopf(abcQ, "id", "S2", 1)
    # scale f by 2: e - f no longer kills degree 1
    broken = PreCoalgebraInstance(inst.name, inst.basis, inst.ring, inst.delta,
                                  inst.e, inst.f.scale(QQ.embed(2)), inst.p)
    rep = check_hypotheses(broken)
    assert statuses(rep)["annihilation"] == "fail"


def test_mutated_delta_detected(abcQ):
    inst = instance_from_hopf(abcQ, "id", "S2", 1)
    delta = dict(inst.delta)
    # corrupt delta on a degree-2 word: breaks the intertwining relations
    delta["ab"] = delta["ab"] + abcQ.element("a").tensor(abcQ.element("a"))
    broken = PreCoalgebraInstance(inst.name, inst.basis, inst.ring, delta,
                                  inst.e, inst.f, inst.p)
    rep = check_hypotheses(broken)
    assert not rep.ok()


def test_p_must_be_positive(abcQ):
    inst = instance_from_hopf(abcQ, "id", "S2", 1)
    with pytest.raises(StructuralError):
        PreCoalgebraInstance(inst.name, inst.basis, inst.ring, inst.delta,
                             inst.e, inst.f, 0)


@pytest.mark.parametrize("p", [0, -3])
def test_suites_reject_nonpositive_p(abc, p):
    S = abc.antipode()
    ident = GradedMap.identity(abc.basis, abc.ring)
    with pytest.raises(StructuralError, match="p must be a positive integer"):
        suite_lowered_exponent(abc, p)
    with pytest.raises(StructuralError, match="p must be a positive integer"):
        suite_corollary_filtered(abc, ident, S.compose(S), p)


# --- the chain engine ------------------------------------------------------

def test_chain_engine_witness_order_and_zero_stop():
    # filtered scope, p = 1: y = g^(u-1)(x) for x of degree <= u.  The chain
    # of 'a' fails only at u = 3 (4a); the later label 'b' fails at u = 2
    # (3b).
    # A u-major scan meets ('b', 2) first, a label-major one ('a', 3).
    B = GradedBasis([["1"], ["a", "c"], ["b"], ["d"]])
    vec = lambda l: Element.basis_vector(B, ZZ, l)
    zero = Element.zero(B, ZZ)
    g = GradedMap(B, ZZ, {"1": zero, "a": vec("a").scale(ZZ.embed(2)),
                          "c": zero, "b": vec("b").scale(ZZ.embed(3)),
                          "d": vec("d")})
    flagged = (vec("a").scale(ZZ.embed(4)), vec("b").scale(ZZ.embed(3)))
    seen = []

    def failure(y):
        seen.append(y)
        return y if y in flagged else None

    rep = Report("engine")
    chain_checks(rep, g, 1, [("claim", "statement", 1, 0, failure)],
                 filtered=True)
    (check,) = rep.checks
    assert check.status == "fail"
    assert check.witness.startswith("('b', 2) -> ")
    # chains of '1' and 'c' reach zero after one step: failure is never
    # called on zero, and no label is tested at u = 3 or later once ('b', 2)
    # failed, so 'd' is never tested
    assert seen == [vec("1"), vec("a"), vec("a").scale(ZZ.embed(2)),
                    vec("a").scale(ZZ.embed(4)), vec("c"),
                    vec("b").scale(ZZ.embed(3))]
    assert not any(y.is_zero() for y in seen)


def test_exponent_sharpness_at_degree_two(abc):
    # (id - S^2) does not kill H_2 (witness c) but (id - S^2)^2 does
    S = abc.antipode()
    g = GradedMap.identity(abc.basis, abc.ring) - S.compose(S)
    c = abc.element("c")
    assert not g(c).is_zero()
    assert g(c) == abc.element("ab") - abc.element("ba")
    for label in abc.basis.labels_of_degree(2):
        assert g(g(abc.element(label))).is_zero()


def test_counit_kills_g_image(abc):
    # epsilon o (e - f) = 0: both e and f preserve the counit
    inst = instance_from_hopf(abc, "id", "S2", 1)
    g = inst.g
    for label in abc.basis.labels:
        assert abc.counit(g(abc.element(label))).is_zero()


def test_id_plus_s_kills_primitives(abc):
    S = abc.antipode()
    id_plus_S = GradedMap.identity(abc.basis, abc.ring) + S
    for x in (abc.element("a"), abc.element("b"),
              abc.element("ab") - abc.element("ba")):
        assert is_primitive(abc, x)
        assert id_plus_S(x).is_zero()


# --- binomial identity -----------------------------------------------------

def test_binomial_identity_mod5():
    H = free_example_abc(ModRing(5), 3)
    inst = instance_from_hopf(H, "id", "S2", 1)
    assert binomial_identity_check(inst, K=3).ok()


def test_binomial_identity_detects_noncommuting():
    B = free_example_abc(QQ, 3).basis
    # e shifts a <-> b, f kills b: these do not commute
    def image(l, target):
        return Element.basis_vector(B, QQ, target)
    e_images = {l: image(l, l) for l in B.labels}
    e_images["a"], e_images["b"] = image("a", "b"), image("b", "a")
    f_images = {l: image(l, l) for l in B.labels}
    f_images["b"] = Element.zero(B, QQ)
    e = GradedMap(B, QQ, e_images)
    f = GradedMap(B, QQ, f_images)
    delta = {l: reduced_coproduct_label(free_example_abc(QQ, 3), l)
             for l in B.labels}
    inst = PreCoalgebraInstance("broken", B, QQ, delta, e, f, 1)
    rep = binomial_identity_check(inst, K=2)
    assert statuses(rep)["precondition"] == "fail"


# --- corollary suites ------------------------------------------------------

def test_graded_hopf_suite(abc):
    assert suite_graded_hopf(abc).ok()


def test_filtered_suite(abc):
    S = abc.antipode()
    ident = GradedMap.identity(abc.basis, abc.ring)
    assert suite_corollary_filtered(abc, ident, S.compose(S), 1).ok()


def test_filtered_suite_aborts_on_bad_endomorphism(abc):
    S = abc.antipode()
    rep = suite_corollary_filtered(abc, S, S.compose(S), 1)
    assert not rep.ok()
    assert statuses(rep)["conclusions"] == "not-checked"


def test_lowered_exponent_premise_fails_on_abc(abc):
    rep = suite_lowered_exponent(abc, 2)
    assert not rep.ok()
    premise = next(c for c in rep.checks if c.claim == "premise")
    assert premise.status == "fail"
    assert "'c'" in premise.witness
    assert statuses(rep)["conclusions"] == "not-checked"


def test_lowered_exponent_passes_on_fqsym():
    H = fqsym(ZZ, 4)
    rep = suite_lowered_exponent(H, 2)
    assert rep.ok()
    assert statuses(rep)["nilpotency"] == "pass"


def test_lowered_exponent_trivial_p1(abc):
    assert suite_lowered_exponent(abc, 1).ok()


# --- antipode property suites ----------------------------------------------

def test_antipode_props_connected(abc):
    rep = suite_antipode_props(abc)
    assert rep.ok()
    assert statuses(rep)["squared-antipode"] == "expected-nonidentity"


def test_antipode_props_involutive_case():
    rep = suite_antipode_props(shuffle_algebra(2, ZZ, 4))
    assert rep.ok()
    assert statuses(rep)["squared-antipode"] == "pass"


def test_oracle_agreement_suite(abc):
    assert suite_oracle_agreement(abc).ok()


def test_taft_remark_suite():
    rep = suite_taft_remark(3)
    assert rep.ok()
    st = statuses(rep)
    assert st["squared-action"] == "pass"
    assert st["never-nilpotent"] == "expected-nonidentity"
    realized = next(c for c in rep.checks if c.claim == "squared-action")
    assert "realized" in (realized.witness or "")
