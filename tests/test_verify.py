"""The generic nilpotency harness and its corollary suites."""

import argparse

import pytest

from hopfcheck import verify
from hopfcheck.cli import SUITES
from hopfcheck.errors import StructuralError
from hopfcheck.gmod import DegreeBlock, Element, GradedBasis, GradedMap
from hopfcheck.reduced import is_primitive, reduced_coproduct_label
from hopfcheck.rings import QQ, ZZ, ModRing, ring_from_string
from hopfcheck.report import PASS, VACUOUS, Report
from hopfcheck.verify import (PreCoalgebraInstance, binomial_identity_check,
                              chain_checks, check_hypotheses,
                              instance_from_hopf,
                              suite_antipode_props, suite_corollary_filtered,
                              suite_graded_hopf, suite_lowered_exponent,
                              suite_oracle_agreement, suite_taft_remark,
                              verify_conclusions)
from hopfcheck.zoo import free_example_abc, fqsym, shuffle_algebra, taft


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


def test_instance_operands_over_another_ring_rejected(abcQ):
    # coefficients are raw values, so a Z operand in a Q instance would
    # otherwise be read as Q values
    inst = instance_from_hopf(abcQ, "id", "S2", 1)
    abcZ = free_example_abc(ZZ, abcQ.max_degree)
    idZ = GradedMap.identity(abcZ.basis, ZZ)
    deltaZ = dict(inst.delta, a=abcZ.element("a").tensor(abcZ.unit()))
    for delta, e in ((inst.delta, idZ), (deltaZ, inst.e)):
        with pytest.raises(StructuralError, match="instance's basis and ring"):
            PreCoalgebraInstance(inst.name, inst.basis, inst.ring, delta,
                                 e, inst.f, inst.p)


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
    # "y in flagged" is no subspace, so the ring is Z/6, which has no exact
    # elimination: every vector of a level is tested.
    R = ModRing(6)
    B = GradedBasis([["1"], ["a", "c"], ["b"], ["d"]])
    vec = lambda l: Element.basis_vector(B, R, l)
    zero = Element.zero(B, R)
    g = GradedMap(B, R, {"1": zero, "a": vec("a").scale(R.embed(2)),
                         "c": zero, "b": vec("b").scale(R.embed(3)),
                         "d": vec("d")})
    flagged = (vec("a").scale(R.embed(4)), vec("b").scale(R.embed(3)))
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
    # each degree is tested level by level.  Chains of '1' and 'c' reach
    # zero after one step: failure is never called on zero, and no label
    # is tested at u = 3 or later once ('b', 2) failed, so 'd' is never
    # tested
    assert seen == [vec("1"), vec("a"), vec("c"), vec("a").scale(R.embed(2)),
                    vec("a").scale(R.embed(4)), vec("b").scale(R.embed(3))]
    assert not any(y.is_zero() for y in seen)


def test_chain_engine_witness_order_on_spans():
    # The Z twin, with a subspace target: the coefficients of 't' and 'w'
    # are 0.  Filtered scope, p = 1, u >= 2: y = g^(u-1)(x).  The chain
    # a -> c -> 2t fails at u = 3; the later label 'c' fails at u = 2 (2t),
    # and so do 't' (t) and 'b' of degree 2 (w), after 'c'.  The witness
    # is the least (u, label position), ('c', 2).
    B = GradedBasis([["1"], ["a", "c", "t"], ["b", "w"], ["d"]])
    vec = lambda l: Element.basis_vector(B, ZZ, l)
    zero = Element.zero(B, ZZ)
    two_t = vec("t").scale(ZZ.embed(2))
    g = GradedMap(B, ZZ, {"1": zero, "a": vec("c"), "c": two_t,
                          "t": vec("t"), "b": vec("w"), "w": zero,
                          "d": vec("d")})
    seen = []

    def failure(y):
        seen.append(y)
        return y if y.coeff("t") or y.coeff("w") else None

    rep = Report("engine")
    chain_checks(rep, g, 1, [("claim", "statement", 2, 0, failure)],
                 filtered=True)
    (check,) = rep.checks
    assert check.status == "fail"
    assert check.witness == "('c', 2) -> 2*t"
    # level 1 of degree 1 is c, 2t, t; t lies in the span of 2t, so only
    # c and 2t are tested, and 2t, the first failure, names 'c'.  Nothing
    # is tested at u = 2 or later after that
    assert seen == [vec("c"), two_t]
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


def id_minus_s2_exponents(H):
    """Per degree u >= 1, the least k with (id - S^2)^k(H_u) = 0."""
    S = H.antipode()
    g = GradedMap.identity(H.basis, H.ring) - S.compose(S)
    return {u: DegreeBlock(g, u).nilpotency_exponent()
            for u in range(1, H.max_degree + 1)}


def test_nilpotency_exponent_is_u_on_abc(abc):
    # (id - S^2)(H_2) != 0, so the exponent at u = 2 is u itself
    assert id_minus_s2_exponents(abc)[2] == 2


def test_nilpotency_exponent_is_u_minus_1_on_fqsym():
    # (id - S^2)(H_2) = 0, and the exponent is u - 1 at every u >= 2
    assert id_minus_s2_exponents(fqsym(ZZ, 5)) == {1: 1, 2: 1, 3: 2, 4: 3,
                                                    5: 4}


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

# the checks of a passing report, as the per-pair check recorded them
# before the identities were decided on operators
BINOMIAL_PASSING_CHECKS = [
    {"claim": "precondition", "statement": "f o e = e o f",
     "status": "pass"},
    {"claim": "power-commutation", "statement": "g^i o e^j = e^j o g^i",
     "status": "pass"},
    {"claim": "tensor-commutation",
     "statement": "(g(x)f) o (e(x)g) = (e(x)g) o (g(x)f)", "status": "pass"},
    {"claim": "binomial-expansion",
     "statement": "h^k = sum_r C(k,r) (e^(k-r)(x)f^r) o (g^r(x)g^(k-r))",
     "status": "pass"},
]


def passing_binomial_report(e, f):
    return {"suite": f"binomial-identity(abc[{e},{f},p=1])", "ok": True,
            "checks": BINOMIAL_PASSING_CHECKS}


@pytest.mark.parametrize("e, f", [("id", "S2"), ("S2", "S4"), ("id", "S4")])
def test_binomial_identity_mod5(e, f):
    H = free_example_abc(ModRing(5), 3)
    inst = instance_from_hopf(H, e, f, 1)
    assert (binomial_identity_check(inst, K=3).to_dict()
            == passing_binomial_report(e, f))


@pytest.mark.parametrize("ring, maxdeg", [("Z[q]/(1,1,1)", 3), ("Z/6", 4)])
def test_binomial_identity_reports_recorded(ring, maxdeg):
    H = free_example_abc(ring_from_string(ring), maxdeg)
    rep = binomial_identity_check(instance_from_hopf(H, "id", "S2", 1), K=3)
    assert rep.to_dict() == passing_binomial_report("id", "S2")


def test_map_powers_compose_once_per_step(monkeypatch):
    """S^2 takes one compose, and the list [e^0, ..., e^K] takes K - 1."""
    H = free_example_abc(ModRing(5), 3)
    S = H.antipode()
    powers = [GradedMap.identity(H.basis, H.ring), S, S.compose(S),
              S.compose(S.compose(S))]
    calls = []
    compose = GradedMap.compose
    monkeypatch.setattr(GradedMap, "compose",
                        lambda self, other: calls.append(1) or compose(self, other))
    assert instance_from_hopf(H, "id", "S2", 1).f == powers[2]
    assert len(calls) == 1
    for K in range(4):
        del calls[:]
        assert verify._powers(S, K) == powers[:K + 1]
        assert len(calls) == max(K - 1, 0)


def test_theorem1_and_graded_hopf_share_one_id_minus_s2(monkeypatch):
    """The hypotheses, the conclusions, the graded-hopf suite and the
    CLI's filtered suite (e = id, f = S^2) of one presentation subtract
    once: they step the one id - S^2 of H."""
    H = fqsym(QQ, 5)
    calls = []
    sub = GradedMap.__sub__
    monkeypatch.setattr(GradedMap, "__sub__",
                        lambda self, other: calls.append(1) or sub(self, other))
    inst = instance_from_hopf(H, "id", "S2", 2)
    assert check_hypotheses(inst).ok() and verify_conclusions(inst).ok()
    assert suite_graded_hopf(H).ok()
    [filtered] = SUITES["filtered"][0](H, argparse.Namespace(p=2))
    assert filtered.ok()
    assert len(calls) == 1
    assert inst.g is H.id_minus_antipode_squared() is inst.g
    # any other pair builds its own e - f, once
    other = instance_from_hopf(H, "S2", "S4", 2)
    assert other.g is other.g and len(calls) == 2


def test_binomial_expansion_fails_with_wrong_coefficients(monkeypatch):
    """With every C(k,r) replaced by 1 the expansion first breaks at k = 2,
    where C(2,1) = 2; the other three checks do not use the coefficients."""
    monkeypatch.setattr(verify, "binomial", lambda k, r: 1)
    H = free_example_abc(ModRing(5), 3)
    for K in (3, 4):
        rep = binomial_identity_check(instance_from_hopf(H, "id", "S2", 1), K)
        assert rep.to_dict() == {
            "suite": "binomial-identity(abc[id,S2,p=1])", "ok": False,
            "checks": BINOMIAL_PASSING_CHECKS[:3] + [
                {"claim": "binomial-expansion",
                 "statement": "h^k = sum_r C(k,r) (e^(k-r)(x)f^r) o "
                              "(g^r(x)g^(k-r))",
                 "status": "fail", "witness": "2"}]}


def test_binomial_identity_applies_no_map_to_tensors(monkeypatch):
    """Both tensor-square identities are decided on operators, so no pair
    of maps is applied to a tensor-square element."""
    calls = []
    apply_tensor = GradedMap.apply_tensor
    monkeypatch.setattr(GradedMap, "apply_tensor", lambda self, other, t:
                        calls.append(1) or apply_tensor(self, other, t))
    H = free_example_abc(ModRing(5), 3)
    assert binomial_identity_check(instance_from_hopf(H, "id", "S2", 1),
                                   K=3).ok()
    assert not calls


def test_binomial_identity_composes_each_h_term_once(monkeypatch):
    """At K = 3: 6 compositions for the powers of e, f and g, 2 for
    power-commutation, which tensor-commutation reuses with 2 more, 6 for
    the right sides, whose terms at r = 0 and r = k are powers and are not
    composed, and 2 + 4 + 6 for the h^k steps, which compose one map per
    term (h^2 has the 3 terms e o e, e o f = f o e and f o f)."""
    H = free_example_abc(ModRing(5), 3)
    inst = instance_from_hopf(H, "id", "S2", 1)
    calls = []
    compose = GradedMap.compose
    monkeypatch.setattr(GradedMap, "compose", lambda self, other:
                        calls.append(1) or compose(self, other))
    assert binomial_identity_check(inst, K=3).ok()
    assert len(calls) == 6 + 2 + 2 + 6 + 12


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


@pytest.mark.parametrize("K", [1, 3])
def test_power_commutation_first_failing_pair(monkeypatch, K):
    """f o e = e o f gives g o e = e o g for g = e - f, so the check can
    only fail with g replaced; it fails with the pair (1, 1), the first
    pair of its scan that is not trivial, and passes at K = 0."""
    H = free_example_abc(QQ, 3)
    B = H.basis
    # e swaps a and b, f = e, and the planted g kills b
    e_images = {l: Element.basis_vector(B, QQ, l) for l in B.labels}
    e_images["a"], e_images["b"] = e_images["b"], e_images["a"]
    g_images = {l: Element.basis_vector(B, QQ, l) for l in B.labels}
    g_images["b"] = Element.zero(B, QQ)
    e = GradedMap(B, QQ, e_images)
    delta = {l: reduced_coproduct_label(H, l) for l in B.labels}
    inst = PreCoalgebraInstance("planted", B, QQ, delta, e, e, 1)
    monkeypatch.setattr(PreCoalgebraInstance, "g",
                        property(lambda self: GradedMap(B, QQ, g_images)))
    checks = binomial_identity_check(inst, K).to_dict()["checks"]
    assert checks[1] == {"claim": "power-commutation",
                         "statement": "g^i o e^j = e^j o g^i",
                         "status": "fail", "witness": "(1, 1)"}
    assert statuses(binomial_identity_check(inst, 0))[
        "power-commutation"] == "pass"


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
    rep = suite_taft_remark(taft(3))
    assert rep.ok()
    st = statuses(rep)
    assert st["squared-action"] == "pass"
    assert st["never-nilpotent"] == "expected-nonidentity"
    realized = next(c for c in rep.checks if c.claim == "squared-action")
    assert "realized" in (realized.witness or "")


def test_first_failure_over_no_item_passes_vacuously():
    rep = Report("scopes")
    assert rep.first_failure("empty", "s", iter(()), lambda x: x)
    assert rep.per_label("no-labels", "s", (), lambda label: False)
    assert rep.first_failure("one", "s", [None], lambda x: x)
    assert [(c.status, c.witness) for c in rep.checks] == [
        (PASS, VACUOUS), (PASS, VACUOUS), (PASS, None)]
    assert rep.ok()


def test_suites_share_one_id_minus_antipode_squared(monkeypatch):
    """id - S^2 is built once per presentation, and a second suite steps
    its chains on the degree blocks the first one left on it."""
    H = fqsym(ZZ, 4)
    built, sub = [], GradedMap.__sub__
    monkeypatch.setattr(GradedMap, "__sub__",
                        lambda a, b: built.append(1) or sub(a, b))
    g = H.id_minus_antipode_squared()
    assert g is H.id_minus_antipode_squared()
    assert suite_graded_hopf(H).ok()
    blocks = dict(g._blocks)
    assert sorted(blocks) == list(range(1, H.max_degree + 1))
    assert suite_lowered_exponent(H, 2).ok()
    assert all(g.block(d) is block for d, block in blocks.items())
    assert len(built) == 1
